// Packet arena: pooled, size-classed slots for the packets one Testbed
// generates.
//
// The generator publishes millions of shared immutable packets per run, and
// the capture buffers of the increased-buffer experiments hold tens of
// thousands of them at once.  The arena serves each packet from one slot
// that holds both the Packet header and its frame bytes:
//
//  * size classes: a full frame of `len` bytes gets a slot with room for
//    ceil(len / 64) * 64 payload bytes, so a 64-byte frame pins 128 bytes
//    (header included), not a fixed 2 KiB buffer.  Synthetic packets (and
//    zero-length frames) use class 0: the header alone.  Every class keeps
//    its own freelist; a slot never changes class.
//  * chunks: fresh slots are carved from 64 KiB chunks, so growing to the
//    in-flight peak costs one heap allocation per chunk, not one per
//    packet.  Chunks are only returned when the arena dies.
//  * frames above kPayloadCapacity take a header-only slot plus a
//    packet-owned buffer (counted in `oversize_payloads`).
//
// The arena is never pre-sized: it grows on demand to the run's in-flight
// peak and then recycles.  Packets do not own a reference to the arena;
// instead it counts its live packets, and the owner handed out by create()
// only marks it orphaned.  Whichever comes last — the owner's release or
// the last packet's — deletes it.
//
// Single-threaded by design, like everything inside one Testbed; parallel
// sweeps give each replication its own Testbed and therefore its own arena.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "capbench/net/packet.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::net {

class PacketArena {
public:
    /// Largest frame served from a slot.  Covers every legal Ethernet frame
    /// (1518 B without FCS, plus slack for VLAN tags / jumbo-ish test
    /// frames).
    static constexpr std::uint32_t kPayloadCapacity = 2048;
    /// Payload granularity of the size classes.
    static constexpr std::uint32_t kSlotStep = 64;
    static constexpr std::size_t kSizeClasses = kPayloadCapacity / kSlotStep + 1;
    /// Bytes of one chunk fresh slots are carved from.
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    /// Every packet takes one slot (a node); a full packet's slot also
    /// holds its payload, so its node and payload are counted together.
    struct Stats {
        std::uint64_t node_allocs = 0;       // slots carved fresh
        std::uint64_t node_reuses = 0;       // slots taken from a freelist
        std::uint64_t payload_allocs = 0;    // fresh slots of full packets
        std::uint64_t payload_reuses = 0;    // recycled slots of full packets
        std::uint64_t oversize_payloads = 0; // frames > kPayloadCapacity
        std::uint64_t chunk_allocs = 0;      // chunks taken from the heap
    };

    /// The owner of a new arena.  Dropping it frees the arena at once if no
    /// packet is alive, otherwise when the last packet is released.
    static std::shared_ptr<PacketArena> create();

    PacketArena(const PacketArena&) = delete;
    PacketArena& operator=(const PacketArena&) = delete;

    /// Synthetic packet (sizes only): a header-only slot.  Returned mutable
    /// so the caller can stamp the flow identity; publish it as PacketPtr
    /// once configured.
    [[nodiscard]] MutablePacketPtr make_synthetic(std::uint64_t id, std::uint32_t frame_len,
                                                  sim::SimTime sent_at);

    /// Full packet with `frame_len` writable, uninitialized payload bytes.
    /// Returned mutable so the caller can encode the frame; publish it as
    /// PacketPtr once filled.
    [[nodiscard]] MutablePacketPtr make_full(std::uint64_t id, std::uint32_t frame_len,
                                             sim::SimTime sent_at);

    /// The size class (freelist) a full frame of `frame_len` bytes uses;
    /// its slot holds `size_class(frame_len) * kSlotStep` payload bytes.
    [[nodiscard]] static constexpr std::size_t size_class(std::uint32_t frame_len) {
        return (static_cast<std::size_t>(frame_len) + kSlotStep - 1) / kSlotStep;
    }

    [[nodiscard]] const Stats& stats() const { return stats_; }

    /// Packets of this arena that are still referenced.
    [[nodiscard]] std::uint64_t live_packets() const { return live_; }

private:
    friend class Packet;

    struct FreeSlot {
        FreeSlot* next;
    };
    struct Chunk {
        Chunk* next;
    };

    PacketArena() = default;
    ~PacketArena();

    /// A slot of `size_class`, from its freelist or carved fresh.
    void* acquire_slot(std::size_t size_class, bool full);
    std::byte* carve(std::size_t bytes);
    /// Destroys a packet whose last handle is gone and frees its slot.
    void recycle(Packet* packet) noexcept;
    void release_owner() noexcept;

    std::array<FreeSlot*, kSizeClasses> free_{};
    Chunk* chunks_ = nullptr;
    std::byte* bump_ = nullptr;      // uncarved rest of the newest chunk
    std::byte* bump_end_ = nullptr;
    std::uint64_t live_ = 0;
    bool orphaned_ = false;          // the owner from create() is gone
    Stats stats_;
};

}  // namespace capbench::net
