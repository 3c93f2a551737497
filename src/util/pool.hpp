#pragma once

#include <cstddef>
#include <new>

namespace tfmcc {

/// Free-list recycler for uniformly-sized memory blocks.
///
/// The pool learns its block size from the first allocation (all blocks
/// checked out through one use site — e.g. `make_pooled_packet` — have the
/// same size); requests of any other size fall through to the global heap.
/// Deallocated blocks of the pooled size are kept on an intrusive free
/// list and handed back on the next allocation, so steady-state
/// checkout/return cycles never touch the heap.
///
/// Not thread-safe, like the simulator it serves.  Blocks still checked out
/// when the pool is destroyed are a bug in the owner's member ordering (the
/// pool must outlive every object allocated from it); the free list itself
/// is released by the destructor.
class FixedBlockPool {
 public:
  FixedBlockPool() = default;
  FixedBlockPool(const FixedBlockPool&) = delete;
  FixedBlockPool& operator=(const FixedBlockPool&) = delete;

  ~FixedBlockPool() {
    while (free_ != nullptr) {
      FreeNode* n = free_;
      free_ = n->next;
      ::operator delete(static_cast<void*>(n));
    }
  }

  void* allocate(std::size_t bytes) {
    if (block_bytes_ == 0 && bytes >= sizeof(FreeNode)) block_bytes_ = bytes;
    if (bytes == block_bytes_ && free_ != nullptr) {
      FreeNode* n = free_;
      free_ = n->next;
      --free_count_;
      return n;
    }
    ++heap_allocations_;
    return ::operator new(bytes);
  }

  void deallocate(void* p, std::size_t bytes) {
    if (bytes == block_bytes_) {
      FreeNode* n = ::new (p) FreeNode{free_};
      free_ = n;
      ++free_count_;
      return;
    }
    ::operator delete(p);
  }

  /// Blocks currently parked on the free list.
  std::size_t free_count() const { return free_count_; }
  /// Allocations that had to touch the global heap (pool misses + the
  /// warm-up checkouts that first populate the free list).
  std::size_t heap_allocations() const { return heap_allocations_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  FreeNode* free_{nullptr};
  std::size_t block_bytes_{0};
  std::size_t free_count_{0};
  std::size_t heap_allocations_{0};
};

}  // namespace tfmcc
