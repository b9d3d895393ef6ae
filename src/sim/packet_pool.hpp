// packet_pool.hpp — slab storage for in-flight packets.
//
// The zero-allocation datapath contract (docs/DATAPATH.md): a packet
// entering a link is copied once into a pool slot and is addressed by a
// 4-byte PacketHandle from then on. Queues buffer handles, delivery
// events carry handles, and the slot is recycled when the packet reaches
// the far end (or is dropped). Slots live in fixed-size chunks that are
// never freed or moved, so a `Packet&` obtained from get() stays valid
// across acquire() calls — agents may send new packets while holding a
// reference to the one being delivered.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.hpp"
#include "util/units.hpp"

namespace phi::sim {

/// Index of a pool slot. Handles are plain indices (no generation tag):
/// the datapath has single ownership per handle — whoever holds it either
/// passes it on or releases it exactly once.
using PacketHandle = std::uint32_t;
inline constexpr PacketHandle kNullPacket = 0xFFFF'FFFFu;

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Copy `p` into a recycled (or fresh) slot. Amortized allocation-free:
  /// a new chunk is mapped only when the in-flight high-water mark grows.
  PacketHandle acquire(const Packet& p) {
    const PacketHandle h = alloc_slot();
    get(h) = p;
    return h;
  }

  /// Return a slot to the free list. The handle must not be used again.
  void release(PacketHandle h) noexcept {
    assert(h < high_water_);
    free_.push_back(h);
    --in_use_;
  }

  Packet& get(PacketHandle h) noexcept {
    assert(h < high_water_);
    return chunks_[h >> kChunkShift][h & kChunkMask];
  }
  const Packet& get(PacketHandle h) const noexcept {
    assert(h < high_water_);
    return chunks_[h >> kChunkShift][h & kChunkMask];
  }

  /// Live handles (acquired, not yet released).
  std::size_t in_use() const noexcept { return in_use_; }
  /// Slots ever created; the steady-state bound on pool memory.
  std::size_t capacity() const noexcept {
    return chunks_.size() << kChunkShift;
  }

 private:
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 packets per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  PacketHandle alloc_slot() {
    ++in_use_;
    if (!free_.empty()) {
      const PacketHandle h = free_.back();
      free_.pop_back();
      return h;
    }
    if (high_water_ == capacity())
      chunks_.push_back(std::make_unique<Packet[]>(kChunkSize));
    return high_water_++;
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;  ///< stable slot storage
  std::vector<PacketHandle> free_;                 ///< recycled slots, LIFO
  PacketHandle high_water_ = 0;
  std::size_t in_use_ = 0;
};

/// A pool handle as queues buffer it: alongside the metadata the dequeue
/// hot path needs (byte accounting, queueing-delay measurement) so that
/// draining a queue touches no packet memory at all.
struct Queued {
  PacketHandle handle = kNullPacket;
  std::int32_t size_bytes = 0;
  util::Time enqueued_at = 0;  ///< when the queue accepted the packet
};

}  // namespace phi::sim
