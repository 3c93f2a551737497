#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace tfmcc {
namespace {

PacketPtr make_packet(std::int32_t bytes, std::uint64_t uid = 0) {
  auto p = make_heap_packet();
  p->uid = uid;
  p->size_bytes = bytes;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  Arena arena;
  DropTailQueue q{10, arena};
  q.enqueue(make_packet(100, 1));
  q.enqueue(make_packet(100, 2));
  q.enqueue(make_packet(100, 3));
  EXPECT_EQ(q.dequeue()->uid, 1u);
  EXPECT_EQ(q.dequeue()->uid, 2u);
  EXPECT_EQ(q.dequeue()->uid, 3u);
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(DropTailQueue, DropsWhenFull) {
  Arena arena;
  DropTailQueue q{2, arena};
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_FALSE(q.enqueue(make_packet(100)));
  EXPECT_EQ(q.drops(), 1);
  EXPECT_EQ(q.accepted(), 2);
  EXPECT_EQ(q.size_packets(), 2u);
}

TEST(DropTailQueue, ByteAccounting) {
  Arena arena;
  DropTailQueue q{10, arena};
  q.enqueue(make_packet(100));
  q.enqueue(make_packet(250));
  EXPECT_EQ(q.size_bytes(), 350);
  q.dequeue();
  EXPECT_EQ(q.size_bytes(), 250);
  q.dequeue();
  EXPECT_EQ(q.size_bytes(), 0);
}

TEST(DropTailQueue, EmptyPredicate) {
  Arena arena;
  DropTailQueue q{2, arena};
  EXPECT_TRUE(q.empty());
  q.enqueue(make_packet(1));
  EXPECT_FALSE(q.empty());
  q.dequeue();
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, DrainAfterDropStillFifo) {
  Arena arena;
  DropTailQueue q{2, arena};
  q.enqueue(make_packet(1, 1));
  q.enqueue(make_packet(1, 2));
  q.enqueue(make_packet(1, 3));  // dropped
  q.dequeue();
  EXPECT_TRUE(q.enqueue(make_packet(1, 4)));
  EXPECT_EQ(q.dequeue()->uid, 2u);
  EXPECT_EQ(q.dequeue()->uid, 4u);
}

TEST(RedQueue, AcceptsBelowMinThreshold) {
  Arena arena;
  RedQueue::Config cfg;
  cfg.limit_packets = 50;
  cfg.min_th = 5;
  cfg.max_th = 15;
  RedQueue q{cfg, Rng{1}, arena};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_EQ(q.drops(), 0);
}

TEST(RedQueue, HardLimitAlwaysDrops) {
  Arena arena;
  RedQueue::Config cfg;
  cfg.limit_packets = 5;
  RedQueue q{cfg, Rng{1}, arena};
  for (int i = 0; i < 5; ++i) q.enqueue(make_packet(100));
  EXPECT_FALSE(q.enqueue(make_packet(100)));
}

TEST(RedQueue, ProbabilisticDropsUnderSustainedLoad) {
  Arena arena;
  RedQueue::Config cfg;
  cfg.limit_packets = 100;
  cfg.min_th = 2;
  cfg.max_th = 6;
  cfg.weight = 0.5;  // fast-moving average for the test
  RedQueue q{cfg, Rng{1}, arena};
  int drops = 0;
  for (int i = 0; i < 500; ++i) {
    if (!q.enqueue(make_packet(100))) ++drops;
    if (q.size_packets() > 4) q.dequeue();  // keep queue near thresholds
  }
  EXPECT_GT(drops, 0);          // RED drops before the hard limit
  EXPECT_LT(drops, 500);        // but not everything
}

TEST(RedQueue, FifoOrderPreserved) {
  Arena arena;
  RedQueue::Config cfg;
  RedQueue q{cfg, Rng{2}, arena};
  q.enqueue(make_packet(1, 7));
  q.enqueue(make_packet(1, 8));
  EXPECT_EQ(q.dequeue()->uid, 7u);
  EXPECT_EQ(q.dequeue()->uid, 8u);
}

}  // namespace
}  // namespace tfmcc
