#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define TFMCC_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TFMCC_ARENA_ASAN 1
#endif
#endif
#if defined(TFMCC_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace tfmcc {

/// Deleter for objects placed in an Arena: runs the destructor only.  The
/// memory goes when the arena goes.  Under AddressSanitizer the object's
/// bytes are poisoned, so a use after destruction is still reported.
struct ArenaDelete {
  template <class T>
  void operator()(T* p) const {
    p->~T();
#if defined(TFMCC_ARENA_ASAN)
    ASAN_POISON_MEMORY_REGION(p, sizeof(T));
#endif
  }
};

/// Owning pointer to an object placed in an Arena.  Converts to a pointer
/// to a base class like any unique_ptr (the base needs a virtual
/// destructor).  It must not outlive the arena.
template <class T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

/// Monotonic arena for a simulation's per-host state: nodes, links, queues,
/// receivers (each with its goodput binner) and RNG prefixes and engines.  Packing them
/// densely means a fan-out that touches thousands of hosts touches few
/// pages, so the TLB and the caches reach all of them.
///
/// Chunks come from operator new and double from kFirstChunk, so a small
/// simulation (a sweep point, a unit test) holds a few KiB and a large one
/// a handful of chunks.  Nothing is freed before the arena itself.
///
/// Not thread-safe, like the simulator it serves.
class Arena {
 public:
  static constexpr std::size_t kFirstChunk = std::size_t{4} << 10;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  /// `bytes` of storage aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align) {
    const std::uintptr_t p = (cur_ + (align - 1)) & ~std::uintptr_t{align - 1};
    if (cur_ == 0 || p + bytes > end_) return grow(bytes, align);
    cur_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  template <class T, class... Args>
  ArenaPtr<T> make(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    return ArenaPtr<T>{::new (mem) T(std::forward<Args>(args)...)};
  }

  /// Bytes held in chunks, used or not.
  std::size_t reserved_bytes() const { return reserved_; }

 private:
  struct Chunk {
    void* base;
    std::size_t bytes;
  };

  /// Starts a new chunk big enough for the request and carves it from it.
  void* grow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::uintptr_t cur_{0};
  std::uintptr_t end_{0};
  std::size_t reserved_{0};
  std::size_t next_chunk_{kFirstChunk};
};

}  // namespace tfmcc
