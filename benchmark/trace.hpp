#pragma once

// Benchmark-side tracing: spans recorded around calls into each layer's
// public functions, from outside the simulator.  Nothing here changes what
// the simulation computes: the wrappers forward every call unchanged, so a
// traced run reproduces the untraced run's outcome digest exactly.
//
// Spans are aggregated in memory per span kind (calls, total time, time
// covered by nested child spans) in one table per thread, merged when the
// run ends.  A span's self time is its total minus its children's, so the
// loop span's self time is everything the wrapped layers did not claim:
// scheduler, links/queues, node fan-out and timer-driven protocol work.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "net/node.hpp"
#include "tfrc/equation_backend.hpp"

namespace bench {

enum Span : int {
  kLoop,            // one Simulator::run_until slice
  kReceiver,        // TfmccReceiver::handle_packet
  kReceiverJoin,    // TfmccReceiver::join (graft via Topology)
  kReceiverLeave,   // TfmccReceiver::leave (prune via Topology)
  kBlock,           // ModeledReceiverBlock::handle_packet
  kSender,          // TfmccSender::handle_packet (feedback)
  kTcp,             // TcpSender / TcpSink::handle_packet
  kEqScalar,        // EquationBackend::throughput_Bps
  kEqInverse,       // EquationBackend::loss_for_throughput
  kEqBatch,         // EquationBackend::throughput_batch
  kSweepRun,        // one scenario-function call inside run_sweep
  kSetupTopology,   // topology construction and route computation
  kSpanCount
};

inline constexpr const char* kSpanNames[kSpanCount] = {
    "loop",       "receiver", "receiver_join", "receiver_leave",
    "block",      "sender",   "tcp",           "eq_scalar",
    "eq_inverse", "eq_batch", "sweep_run",     "setup_topology"};

struct SpanStat {
  std::uint64_t calls{0};
  std::int64_t total_ns{0};
  std::int64_t child_ns{0};
  std::int64_t self_ns() const { return total_ns - child_ns; }
};

/// End-of-run counters read from the layers' public accessors.  Summed over
/// every simulation a thread ran, except kPendingPeak (a maximum).
enum Counter : int {
  kRuns,
  kEvents,
  kPendingPeak,
  kForwarded,
  kDeliveredEndpoints,
  kLinkDelivered,
  kQueueDrops,
  kQueueAccepted,
  kPoolHeapAllocations,
  kReceiverFeedback,
  kBlockFeedback,
  kBlockReceiverRounds,  // Σ block receivers x sender rounds
  kSenderRounds,
  kSenderFeedback,
  kDataSent,
  kClrChanges,
  kBatchItems,
  kOutputBytes,          // sweep: bytes each run wrote to its sink
  kCounterCount
};

inline constexpr const char* kCounterNames[kCounterCount] = {
    "runs",           "events",          "pending_peak",
    "forwarded",      "delivered_endpoints", "link_delivered",
    "queue_drops",    "queue_accepted",  "pool_heap_allocations",
    "receiver_feedback", "block_feedback", "block_receiver_rounds",
    "sender_rounds",  "sender_feedback", "data_sent",
    "clr_changes",    "batch_items",     "output_bytes"};

using Counters = std::array<std::uint64_t, kCounterCount>;

struct ThreadTrace {
  std::array<SpanStat, kSpanCount> spans{};
  Counters counters{};
  std::vector<double> run_ms;  // per sweep run
  // Child-time accumulator of the innermost open span (null at top level).
  std::int64_t* open_child{nullptr};
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Owns every thread's table.  Threads register on first use; merged() is
/// called after all worker threads have joined.
class TraceRegistry {
 public:
  static TraceRegistry& instance() {
    static TraceRegistry r;
    return r;
  }

  static ThreadTrace& local() {
    thread_local ThreadTrace* t = nullptr;
    if (t == nullptr) t = &instance().add();
    return *t;
  }

  ThreadTrace merged() {
    std::lock_guard<std::mutex> lock(mu_);
    ThreadTrace out;
    for (const auto& t : all_) {
      for (int k = 0; k < kSpanCount; ++k) {
        out.spans[k].calls += t->spans[k].calls;
        out.spans[k].total_ns += t->spans[k].total_ns;
        out.spans[k].child_ns += t->spans[k].child_ns;
      }
      for (int k = 0; k < kCounterCount; ++k) {
        out.counters[k] = k == kPendingPeak
                              ? std::max(out.counters[k], t->counters[k])
                              : out.counters[k] + t->counters[k];
      }
      out.run_ms.insert(out.run_ms.end(), t->run_ms.begin(), t->run_ms.end());
    }
    return out;
  }

 private:
  ThreadTrace& add() {
    std::lock_guard<std::mutex> lock(mu_);
    all_.push_back(std::make_unique<ThreadTrace>());
    return *all_.back();
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> all_;
};

/// Times one call into a layer.  Nested spans on the same thread charge
/// their duration to the enclosing span's child time.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span kind)
      : t_{TraceRegistry::local()}, kind_{kind}, parent_{t_.open_child} {
    t_.open_child = &child_ns_;
    start_ns_ = now_ns();
  }
  ~ScopedSpan() {
    const std::int64_t d = now_ns() - start_ns_;
    SpanStat& s = t_.spans[kind_];
    ++s.calls;
    s.total_ns += d;
    s.child_ns += child_ns_;
    t_.open_child = parent_;
    if (parent_ != nullptr) *parent_ += d;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace& t_;
  Span kind_;
  std::int64_t* parent_;
  std::int64_t child_ns_{0};
  std::int64_t start_ns_{0};
};

/// Proxy attached on an agent's node port in place of the agent itself.
class TimedAgent final : public tfmcc::Agent {
 public:
  TimedAgent(tfmcc::Agent& inner, Span kind) : inner_{inner}, kind_{kind} {}
  void handle_packet(const tfmcc::Packet& p) override {
    ScopedSpan s{kind_};
    inner_.handle_packet(p);
  }
  int endpoint_count() const override { return inner_.endpoint_count(); }

 private:
  tfmcc::Agent& inner_;
  Span kind_;
};

/// Decorator set as TfmccConfig::equation in traced runs.  The batch call
/// delegates to the inner backend's batch, whose scalar calls go to the
/// inner backend directly and are therefore not counted twice.
class TimedEquationBackend final : public tfmcc::EquationBackend {
 public:
  explicit TimedEquationBackend(const tfmcc::EquationBackend& inner)
      : inner_{inner} {}
  std::string_view name() const override { return inner_.name(); }
  double throughput_Bps(double packet_bytes, tfmcc::SimTime rtt,
                        double p) const override {
    ScopedSpan s{kEqScalar};
    return inner_.throughput_Bps(packet_bytes, rtt, p);
  }
  double loss_for_throughput(double packet_bytes, tfmcc::SimTime rtt,
                             double rate_Bps) const override {
    ScopedSpan s{kEqInverse};
    return inner_.loss_for_throughput(packet_bytes, rtt, rate_Bps);
  }
  void throughput_batch(double packet_bytes, const tfmcc::SimTime* rtts,
                        const double* ps, double* out_Bps,
                        std::size_t n) const override {
    ScopedSpan s{kEqBatch};
    TraceRegistry::local().counters[kBatchItems] += n;
    inner_.throughput_batch(packet_bytes, rtts, ps, out_Bps, n);
  }

 private:
  const tfmcc::EquationBackend& inner_;
};

/// FNV-1a-64 over the simulated outcomes of a run.
class Digest {
 public:
  void add(std::int64_t v) { bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void add(std::string_view s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace bench
