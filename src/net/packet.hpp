#pragma once

#include <cstdint>
#include <new>
#include <utility>

#include "net/headers.hpp"
#include "util/pool.hpp"
#include "util/sim_time.hpp"

namespace tfmcc {

class PacketPtr;
class MutablePacketPtr;
MutablePacketPtr make_pooled_packet(FixedBlockPool& pool);
MutablePacketPtr make_heap_packet();

/// A simulated packet.  Immutable once sent; multicast replication shares
/// one instance between all branches of the distribution tree, so a packet
/// delivered to 10,000 receivers is allocated exactly once — and with the
/// per-simulator pool, "allocated" means one pool checkout.
///
/// Reference counting is intrusive and non-atomic: a Simulator and all of
/// its packets are confined to one thread (parallel sweeps run one
/// Simulator per worker), so the per-hop count updates are plain integer
/// ops instead of the lock-prefixed RMWs std::shared_ptr would issue.
struct Packet {
  std::uint64_t uid{0};
  NodeId src{kInvalidNode};
  NodeId dst{kInvalidNode};   // unicast destination; ignored for multicast
  PortId sport{0};
  PortId dport{0};
  GroupId group{kNoGroup};    // >= 0: multicast packet addressed to group
  std::int32_t size_bytes{0};
  SimTime created{};
  PacketHeader header{};

  bool is_multicast() const { return group != kNoGroup; }

  const TcpHeader* tcp() const { return std::get_if<TcpHeader>(&header); }
  const TfmccDataHeader* tfmcc_data() const {
    return std::get_if<TfmccDataHeader>(&header);
  }
  const TfmccFeedbackHeader* tfmcc_feedback() const {
    return std::get_if<TfmccFeedbackHeader>(&header);
  }
  const PgmccAckHeader* pgmcc_ack() const {
    return std::get_if<PgmccAckHeader>(&header);
  }

 private:
  friend class PacketPtr;
  friend class MutablePacketPtr;
  friend MutablePacketPtr make_pooled_packet(FixedBlockPool& pool);
  friend MutablePacketPtr make_heap_packet();

  static void release(const Packet* p) {
    if (--p->refs_ == 0) {
      FixedBlockPool* pool = p->pool_;
      p->~Packet();
      void* mem = const_cast<Packet*>(p);
      if (pool != nullptr) {
        pool->deallocate(mem, sizeof(Packet));
      } else {
        ::operator delete(mem);
      }
    }
  }

  mutable std::uint32_t refs_{0};
  FixedBlockPool* pool_{nullptr};  // null: plain heap packet (tests)
};

/// Shared handle to an immutable packet (the ubiquitous type on the
/// delivery chain).  Copy = one non-atomic increment; the delivery chain
/// passes `const PacketPtr&`, so forwarding and local delivery do not touch
/// the count at all.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  PacketPtr(const PacketPtr& o) : p_{o.p_} {
    if (p_ != nullptr) ++p_->refs_;
  }
  PacketPtr(PacketPtr&& o) noexcept : p_{o.p_} { o.p_ = nullptr; }
  PacketPtr& operator=(const PacketPtr& o) {
    PacketPtr tmp{o};
    std::swap(p_, tmp.p_);
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~PacketPtr() {
    if (p_ != nullptr) Packet::release(p_);
  }

  const Packet& operator*() const { return *p_; }
  const Packet* operator->() const { return p_; }
  const Packet* get() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ != b.p_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }
  friend bool operator!=(const PacketPtr& a, std::nullptr_t) {
    return a.p_ != nullptr;
  }

 private:
  friend class MutablePacketPtr;
  explicit PacketPtr(const Packet* p) : p_{p} {
    if (p_ != nullptr) ++p_->refs_;
  }

  const Packet* p_{nullptr};
};

/// Owning handle to a packet under construction: protocol code checks one
/// out (Simulator::make_packet), fills the fields, and sends it — at which
/// point it converts (implicitly) into the immutable shared PacketPtr.
class MutablePacketPtr {
 public:
  MutablePacketPtr() = default;
  MutablePacketPtr(MutablePacketPtr&& o) noexcept : p_{o.p_} { o.p_ = nullptr; }
  MutablePacketPtr& operator=(MutablePacketPtr&& o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  MutablePacketPtr(const MutablePacketPtr&) = delete;
  MutablePacketPtr& operator=(const MutablePacketPtr&) = delete;
  ~MutablePacketPtr() {
    if (p_ != nullptr) Packet::release(p_);
  }

  Packet& operator*() const { return *p_; }
  Packet* operator->() const { return p_; }
  Packet* get() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  /// The send-time handoff: `node.send(std::move(pkt))` binds here.
  operator PacketPtr() const& { return PacketPtr{p_}; }  // NOLINT
  operator PacketPtr() && {                              // NOLINT
    PacketPtr out;
    out.p_ = p_;  // steal the reference, no count update
    p_ = nullptr;
    return out;
  }

 private:
  friend MutablePacketPtr make_pooled_packet(FixedBlockPool& pool);
  friend MutablePacketPtr make_heap_packet();
  explicit MutablePacketPtr(Packet* p) : p_{p} { ++p->refs_; }

  Packet* p_{nullptr};
};

/// Checkout from a pool (the Simulator hot path): placement-constructs a
/// fresh Packet in a recycled block.
inline MutablePacketPtr make_pooled_packet(FixedBlockPool& pool) {
  void* mem = pool.allocate(sizeof(Packet));
  Packet* p = new (mem) Packet;
  p->pool_ = &pool;
  return MutablePacketPtr{p};
}

/// Plain heap packet for tests and tools that have no Simulator around.
inline MutablePacketPtr make_heap_packet() {
  return MutablePacketPtr{new Packet};
}

}  // namespace tfmcc
