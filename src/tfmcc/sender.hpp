#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mcast/session.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tfmcc/config.hpp"
#include "tfmcc/sender_core.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

/// The TFMCC sender agent (§2.2, §2.4.4, §2.5, §2.6): the send and round
/// timers and the packet IO around a SenderCore, which makes every
/// protocol decision.
class TfmccSender final : public Agent {
 public:
  TfmccSender(Simulator& sim, MulticastSession& session, TfmccConfig cfg);
  ~TfmccSender() override;

  TfmccSender(const TfmccSender&) = delete;
  TfmccSender& operator=(const TfmccSender&) = delete;

  void start(SimTime at);
  void stop();

  void handle_packet(const Packet& p) override;  // receiver reports

  // --- state inspection ----------------------------------------------------
  double rate_Bps() const { return core_.rate_Bps(); }
  bool in_slowstart() const { return core_.in_slowstart(); }
  std::int32_t clr() const { return core_.clr(); }
  std::int32_t round() const { return core_.round(); }
  SimTime round_duration() const { return core_.round_duration(); }
  std::int64_t data_sent() const { return core_.data_sent(); }
  std::int64_t feedback_received() const { return core_.feedback_received(); }
  int known_receivers() const { return core_.known_receivers(); }
  int known_receivers_with_rtt() const {
    return core_.known_receivers_with_rtt();
  }
  /// Highest rate reached before slowstart terminated (fig. 14).
  double peak_slowstart_rate_Bps() const {
    return core_.peak_slowstart_rate_Bps();
  }
  SimTime slowstart_exit_time() const { return core_.slowstart_exit_time(); }
  /// Times at which the CLR changed (responsiveness figures).
  const std::vector<std::pair<SimTime, std::int32_t>>& clr_history() const {
    return core_.clr_history();
  }

 private:
  void send_data();
  void start_round();

  Simulator& sim_;
  MulticastSession& session_;
  SenderCore core_;

  bool running_{false};
  EventId round_timer_{};
  EventId send_timer_{};
};

}  // namespace tfmcc
