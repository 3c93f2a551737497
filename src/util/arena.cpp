#include "util/arena.hpp"

#include <algorithm>

namespace tfmcc {

Arena::~Arena() {
  for (const Chunk& c : chunks_) {
#if defined(TFMCC_ARENA_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(c.base, c.bytes);
#endif
    ::operator delete(c.base, c.bytes);
  }
}

void* Arena::grow(std::size_t bytes, std::size_t align) {
  // Room for the request at any alignment the chunk start may have.
  const std::size_t size = std::max(next_chunk_, bytes + align);
  next_chunk_ *= 2;
  chunks_.reserve(chunks_.size() + 1);
  chunks_.push_back({::operator new(size), size});
  reserved_ += size;
  cur_ = reinterpret_cast<std::uintptr_t>(chunks_.back().base);
  end_ = cur_ + size;
  return allocate(bytes, align);
}

}  // namespace tfmcc
