#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <tuple>

#include "net/queue.hpp"
#include "util/rng.hpp"

namespace tfmcc {
namespace {

/// (queue limit, enqueue probability per step, seed).
using QParam = std::tuple<int, double, int>;

class QueueSweep : public ::testing::TestWithParam<QParam> {};

PacketPtr mk(std::uint64_t uid, std::int32_t bytes) {
  auto p = make_heap_packet();
  p->uid = uid;
  p->size_bytes = bytes;
  return p;
}

TEST_P(QueueSweep, DropTailInvariantsUnderRandomWorkload) {
  const auto [limit, p_enq, seed] = GetParam();
  Arena arena;
  DropTailQueue q{static_cast<std::size_t>(limit), arena};
  Rng rng{static_cast<std::uint64_t>(seed)};
  std::deque<std::uint64_t> model;  // reference FIFO of accepted uids
  std::int64_t model_bytes = 0;
  std::uint64_t next_uid = 1;

  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(p_enq)) {
      const auto bytes = static_cast<std::int32_t>(rng.uniform_int(40, 1500));
      const bool accepted = q.enqueue(mk(next_uid, bytes));
      ASSERT_EQ(accepted, model.size() < static_cast<std::size_t>(limit));
      if (accepted) {
        model.push_back(next_uid);
        model_bytes += bytes;
      }
      ++next_uid;
    } else {
      PacketPtr out = q.dequeue();
      if (model.empty()) {
        ASSERT_EQ(out, nullptr);
      } else {
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(out->uid, model.front());  // strict FIFO
        model.pop_front();
        model_bytes -= out->size_bytes;
      }
    }
    ASSERT_EQ(q.size_packets(), model.size());
    ASSERT_EQ(q.size_bytes(), model_bytes);
    ASSERT_LE(q.size_packets(), static_cast<std::size_t>(limit));
  }
}

TEST_P(QueueSweep, RedNeverExceedsHardLimitAndStaysFifo) {
  const auto [limit, p_enq, seed] = GetParam();
  RedQueue::Config cfg;
  cfg.limit_packets = static_cast<std::size_t>(limit);
  cfg.max_th = limit * 0.5;
  cfg.min_th = limit * 0.2;
  Arena arena;
  RedQueue q{cfg, Rng{static_cast<std::uint64_t>(seed + 100)}, arena};
  Rng rng{static_cast<std::uint64_t>(seed)};
  std::deque<std::uint64_t> model;
  std::uint64_t next_uid = 1;

  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(p_enq)) {
      if (q.enqueue(mk(next_uid, 1000))) model.push_back(next_uid);
      ++next_uid;
    } else if (PacketPtr out = q.dequeue()) {
      ASSERT_FALSE(model.empty());
      ASSERT_EQ(out->uid, model.front());
      model.pop_front();
    }
    ASSERT_LE(q.size_packets(), static_cast<std::size_t>(limit));
    ASSERT_EQ(q.size_packets(), model.size());
  }
  // Accounting: accepted - dequeued == still queued.
  EXPECT_EQ(q.accepted() - static_cast<std::int64_t>(model.size()),
            static_cast<std::int64_t>(next_uid - 1) - q.drops() -
                static_cast<std::int64_t>(model.size()));
}

INSTANTIATE_TEST_SUITE_P(Grid, QueueSweep,
                         ::testing::Combine(::testing::Values(5, 50, 200),
                                            ::testing::Values(0.4, 0.5, 0.7),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace tfmcc
