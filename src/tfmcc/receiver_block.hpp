#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mcast/session.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/config.hpp"
#include "tfmcc/receiver_core.hpp"
#include "tfrc/equation_backend.hpp"
#include "util/rng.hpp"

namespace tfmcc {

/// Packed per-receiver view of the modeled tier — the tfrc_rx_info idiom:
/// everything the hybrid architecture knows per silent receiver fits in a
/// dozen bytes (the block's SoA arrays store the RTT and the flags; the
/// access-delay offset is a function of the receiver's index).
struct ModeledRxInfo {
  static constexpr std::uint8_t kHasRtt = 1u << 0;    // RTT measured via echo
  static constexpr std::uint8_t kReported = 1u << 1;  // sender has heard us
  static constexpr std::uint8_t kClr = 1u << 2;       // currently the CLR

  std::uint32_t rtt_us{0};        // current RTT estimate, microseconds
  std::uint32_t extra_owd_us{0};  // virtual access one-way delay offset
  std::uint8_t flags{0};

  bool has_rtt() const { return (flags & kHasRtt) != 0; }
  bool reported() const { return (flags & kReported) != 0; }
  bool is_clr() const { return (flags & kClr) != 0; }
};

/// One feedback-round contender of a modeled block: receiver `idx`, its
/// timer's expiry and the rate it drew with.
struct FeedbackCandidate {
  SimTime due;
  std::int32_t idx;
  double calc_Bps;  // rate at draw time (fire-time check recomputes)
};

/// Plain inputs of one round's draw-and-select step (§2.5.1).  Steady state
/// gives the drawer the equation and the block's shared loss event rate `p`:
/// receiver i's rate is calc_i = equation->throughput_Bps(kDataPacketBytes,
/// rtt_i, p), it is eligible iff calc_i < send_rate_Bps, and its ratio is
/// bias_ratio(calc_i, send_rate_Bps).  Slowstart gives no equation: every
/// receiver is eligible with the shared ratio `x` and rate `rate_Bps`.
struct RoundDrawInput {
  int skip{-1};  // receiver that draws nothing (the CLR), or -1
  double send_rate_Bps{0.0};
  const EquationBackend* equation{nullptr};  // steady state only
  double p{0.0};
  double x{1.0};
  double rate_Bps{0.0};
  int cap{1};  // short-list size
  SimTime now{};
  SimTime fb_deadline{};
};

/// The least RTT (non-negative nanoseconds) whose steady-state rate
/// equation.throughput_Bps(kDataPacketBytes, rtt, p) is below
/// `send_rate_Bps`, or nullopt when no RTT's is.  The float equation
/// s / (R*a + ((4R*m)*p)*q) is non-increasing in R: R = ns * 1e-9 and every
/// step after it is a correctly rounded operation, monotone in R, on
/// non-negative factors, so the eligible RTTs are exactly those at or above
/// the result, and one binary search over int64 nanoseconds finds it.
std::optional<SimTime> least_eligible_rtt(const EquationBackend& equation,
                                          double p, double send_rate_Bps);

/// One round's draw, fed the block's receivers in index order in calls of
/// any size: it draws one uniform per eligible receiver and keeps in `out`
/// the `cap` earliest candidates by (due, idx) — exactly "draw every timer,
/// sort, take cap", whatever the split.  Steady-state eligibility is one
/// comparison against least_eligible_rtt, so each chunk of receivers becomes
/// a list of eligible indices and the engine scans one word per entry.  Once
/// the short-list is full, draws above feedback_timer::uniform_ceiling of
/// its latest entry cannot enter it: the ceiling takes the least bias any
/// of the chunk's draws can have (the shared ratio's in slowstart, the
/// chunk's longest RTT's in steady state).  Almost all such draws are
/// recognised on the raw 64-bit word, below Rng::uniform01_floor, inside
/// the engine's scan (Mt19937_64::scan); only the words at or above the
/// floor are converted, and only their receivers' rates evaluated.
class CandidateDrawer {
 public:
  /// Clears `out`, which holds the short-list until finish().  In steady
  /// state this finds the round's least eligible RTT.
  CandidateDrawer(const RoundDrawInput& in, const FeedbackTimerConfig& timer,
                  std::vector<FeedbackCandidate>& out);

  /// Draws the next `count` receivers from `gen` (the block's engine).
  /// Steady state passes their RTTs rtt[0, count), all non-negative;
  /// slowstart passes nullptr.
  void draw(int count, const SimTime* rtt, Mt19937_64& gen);

  /// Leaves `out` ascending by (due, idx).
  void finish();

 private:
  /// Draws receivers [first, first + count), count <= kChunk.
  void draw_chunk(int first, int count, const SimTime* rtt, Mt19937_64& gen);
  /// Offers one drawn timer to the short-list; true when the list is full
  /// and its top is new.
  bool admit(const FeedbackCandidate& c);
  /// Draws above this cannot enter the short-list.
  double skip_ceiling() const;

  /// Receivers whose eligible indices are listed at once (4 KB).
  static constexpr int kChunk = 1024;

  RoundDrawInput in_;
  FeedbackTimerConfig timer_;
  std::vector<FeedbackCandidate>& out_;
  std::size_t cap_;
  double fb_ns_;
  double min_bias_{0.0};  // no draw of the current chunk has a lower bias
  // Steady state: the least eligible RTT; nullopt when no RTT is eligible.
  std::optional<SimTime> rtt_floor_;
  int next_{0};  // block index of the next receiver to draw
};

/// The modeled-receiver tier of the hybrid full/model architecture.
///
/// One block stands in for `count` TFMCC receivers that share a physical
/// path (the "tap" node's multicast delivery): instead of `count`
/// heap-of-objects agents each with its own feedback timer, the block keeps
/// flat SoA arrays of the per-receiver state that actually differs — the
/// RTT estimate and a flags byte (see ModeledRxInfo), 9 bytes per receiver
/// — and shares the state that is identical behind one tap by construction
/// in one ReceiverCore: sequence space, loss-interval history and
/// receive-rate meter (all loss happens upstream of the tap, so every
/// modeled receiver observes the same packet stream).  The receiver rules
/// are the core's, as for the full tier.
///
/// Per data packet the block does O(1) work.  Per feedback round, in steady
/// state, one binary search over the equation finds the least eligible RTT
/// (the equation is non-increasing in the RTT; see least_eligible_rtt), so a
/// receiver's eligibility is one comparison and its rate is evaluated only
/// if its timer draw can enter the short-list.  The round then streams the
/// receivers through fixed chunks: each chunk's eligible indices, then one
/// engine scan with one RNG draw per eligible receiver.  It keeps only the
/// earliest few contenders — the candidate short-list is sized from the
/// analytic expected-feedback model (feedback_model::expected_messages),
/// which bounds how many reports can survive suppression.  A round therefore
/// costs O(n) RNG draws plus timer evaluations only for the draws below the
/// short-list's uniform ceiling (see CandidateDrawer), a vanishing share
/// once the list fills.  Only the contenders materialise as scheduler events
/// and feedback packets; the silent majority never touches the scheduler.
/// Receivers the sender singles out (the CLR, echo targets) are tracked
/// individually through the same arrays.  A one-receiver block reports
/// exactly like a full receiver only under ReceiverCore's equivalence
/// conditions (no §2.4.3 adjustment here; §2.5.2 applied at fire time).
///
/// Virtual access delays: modeled receiver i's path RTT is the tap's
/// physical RTT plus 2 * extra_owd(i), with the offsets stratified evenly
/// over [extra_owd_min, extra_owd_max] and computed from i, not stored.
/// Echoes addressed to i add the detour when measuring, and feedback
/// reduces its echo-hold time by the same amount so the sender-side
/// measurement also comes out at the modeled RTT.
class ModeledReceiverBlock final : public Agent {
 public:
  struct BlockConfig {
    int count{1};              // modeled receivers represented by this block
    std::int32_t base_id{0};   // receiver ids [base_id, base_id + count)
    SimTime extra_owd_min{SimTime::zero()};
    SimTime extra_owd_max{SimTime::zero()};
  };
  /// Hard cap on the per-round feedback contenders (see candidate_cap()).
  static constexpr int kMaxCandidates = 64;

  ModeledReceiverBlock(Simulator& sim, MulticastSession& session, NodeId tap,
                       BlockConfig block_cfg, TfmccConfig cfg, Rng rng);
  ~ModeledReceiverBlock() override;

  ModeledReceiverBlock(const ModeledReceiverBlock&) = delete;
  ModeledReceiverBlock& operator=(const ModeledReceiverBlock&) = delete;

  /// Graft the tap onto the session and start representing the receivers.
  void join();
  /// Prune; sends explicit leave reports (§4.2) for every receiver the
  /// sender has heard from, so CLR handoff works when the block held it.
  void leave();

  void handle_packet(const Packet& p) override;
  int endpoint_count() const override { return joined_ ? bcfg_.count : 1; }

  // --- state inspection ----------------------------------------------------
  int count() const { return bcfg_.count; }
  std::int32_t base_id() const { return bcfg_.base_id; }
  bool joined() const { return joined_; }
  bool hosts(std::int32_t receiver_id) const {
    return receiver_id >= bcfg_.base_id &&
           receiver_id < bcfg_.base_id + bcfg_.count;
  }
  int receivers_with_rtt() const { return with_rtt_; }
  std::int64_t feedback_sent() const { return feedback_sent_; }
  std::int64_t packets_received() const { return core_.seq.received(); }
  std::int64_t packets_lost() const { return core_.seq.lost(); }
  double loss_event_rate() const { return core_.loss.loss_event_rate(); }
  bool has_loss() const { return core_.loss.has_loss(); }
  double recv_rate_Bps() const { return core_.recv_rate.rate_Bps(sim_.now()); }
  std::int32_t clr_id() const {
    return clr_idx_ >= 0 ? bcfg_.base_id + clr_idx_ : kInvalidReceiver;
  }
  /// Packed snapshot of modeled receiver `i` (0-based block index).
  ModeledRxInfo rx_info(int i) const;
  /// Candidate short-list size used for the current round shape (analytic
  /// expected-feedback bound; exposed for tests).
  int candidate_cap();

 private:
  void process_echo(const TfmccDataHeader& h, SimTime now);
  void update_clr_status(const TfmccDataHeader& h);
  void on_new_round(const TfmccDataHeader& h, SimTime now);
  void fire_candidate();
  void send_feedback(int idx);
  void schedule_clr_feedback();
  void schedule_next_candidate();
  /// Every receiver back to its initial RTT estimate and no flags (the
  /// constructor, and a rejoin after leave()).
  void reset_receivers();
  /// RTT the shared loss history aggregates with (mean over the block).
  SimTime representative_rtt() const;
  /// Receiver `idx`'s virtual access one-way delay offset.
  SimTime extra_owd(int idx) const;
  void set_rtt(int idx, SimTime rtt);

  Simulator& sim_;
  MulticastSession& session_;
  NodeId tap_;
  BlockConfig bcfg_;
  TfmccConfig cfg_;
  // The block's stream, held inline: its timer draws are its only draws,
  // and they come from the engine directly.
  Mt19937_64 gen_;

  bool joined_{false};
  bool ever_left_{false};  // a later join() is a rejoin and resets state

  // Shared measurement state (identical for every receiver behind the tap);
  // its rtt_measured is set by the block's first echo.
  ReceiverCore core_;

  // Flat SoA per-receiver state (the only state that differs per receiver).
  std::vector<SimTime> rtt_;        // current estimate (initial_rtt at start)
  std::vector<std::uint8_t> flags_; // ModeledRxInfo flag bits
  double rtt_sum_s_{0.0};           // running sum for representative_rtt()
  int with_rtt_{0};

  // Feedback-round state.
  SuppressionEcho supp_;  // latest suppression signal of this round
  std::vector<FeedbackCandidate> candidates_;  // ascending by due time
  std::size_t next_candidate_{0};
  EventId cand_timer_{};
  int cand_cap_{0};  // lazily sized from the expected-feedback model

  // CLR state (at most one of the modeled receivers at a time).
  std::int32_t clr_idx_{-1};
  EventId clr_timer_{};

  std::int64_t feedback_sent_{0};
};

}  // namespace tfmcc
