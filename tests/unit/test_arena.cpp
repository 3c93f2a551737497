#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace tfmcc {
namespace {

std::uintptr_t address(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

struct alignas(256) OverAligned {
  char bytes[300];
};

TEST(Arena, OverAlignedTypesAreAligned) {
  Arena arena;
  std::vector<ArenaPtr<OverAligned>> objects;
  for (int i = 0; i < 64; ++i) {
    // An odd-sized request between objects misaligns the bump pointer.
    arena.allocate(static_cast<std::size_t>(1 + i % 7), 1);
    objects.push_back(arena.make<OverAligned>());
    ASSERT_EQ(address(objects.back().get()) % alignof(OverAligned), 0u)
        << "object " << i;
  }
  for (std::size_t align = 1; align <= 4096; align *= 2) {
    EXPECT_EQ(address(arena.allocate(3, align)) % align, 0u) << align;
  }
}

TEST(Arena, RequestAboveTwoMegabytes) {
  Arena arena;
  arena.allocate(100, 8);  // the request does not fit the first chunk
  const std::size_t big = std::size_t{3} << 20;
  auto* p = static_cast<unsigned char*>(arena.allocate(big, 64));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(address(p) % 64, 0u);
  std::memset(p, 0xab, big);  // the whole request is writable
  EXPECT_EQ(p[0], 0xab);
  EXPECT_EQ(p[big - 1], 0xab);
  EXPECT_GE(arena.reserved_bytes(), big);
  // A small request afterwards gets storage of its own.
  auto* q = static_cast<unsigned char*>(arena.allocate(16, 16));
  EXPECT_TRUE(q + 16 <= p || q >= p + big);
}

TEST(Arena, ChunksDoubleFromTheFirst) {
  Arena arena;
  arena.allocate(8, 8);
  EXPECT_EQ(arena.reserved_bytes(), Arena::kFirstChunk);
  // Filling 1 MiB in small requests takes a few doubling chunks, not one
  // per request: at most twice the bytes used.
  for (int i = 0; i < 1024; ++i) arena.allocate(1024, 8);
  EXPECT_GE(arena.reserved_bytes(), std::size_t{1} << 20);
  EXPECT_LE(arena.reserved_bytes(), std::size_t{2} << 20);
}

struct Counted {
  explicit Counted(int& destroyed) : destroyed_{destroyed} {}
  ~Counted() { ++destroyed_; }
  int& destroyed_;
};

struct Base {
  virtual ~Base() = default;
};

struct Derived final : Base {
  explicit Derived(int& destroyed) : counted{destroyed} {}
  Counted counted;
};

TEST(Arena, EachDestructorRunsExactlyOnce) {
  int destroyed = 0;
  {
    Arena arena;
    {
      std::vector<ArenaPtr<Counted>> objects;
      for (int i = 0; i < 1000; ++i) {
        objects.push_back(arena.make<Counted>(destroyed));
      }
      objects[3].reset();
      EXPECT_EQ(destroyed, 1);
      ArenaPtr<Base> base = arena.make<Derived>(destroyed);
    }
    EXPECT_EQ(destroyed, 1001);
  }
  // The arena releases memory only; it runs no destructor a second time.
  EXPECT_EQ(destroyed, 1001);
}

}  // namespace
}  // namespace tfmcc
