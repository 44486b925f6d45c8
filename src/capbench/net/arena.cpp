#include "capbench/net/arena.hpp"

#include <new>

namespace capbench::net {

namespace {

// A slot is the Packet header followed by its payload; both start on a
// cache line.
constexpr std::size_t kLine = 64;
constexpr std::size_t kNodeBytes = kLine;
static_assert(sizeof(Packet) <= kNodeBytes, "a packet header must fit one cache line");
static_assert(PacketArena::kSlotStep % kLine == 0);

constexpr std::size_t slot_bytes(std::size_t size_class) {
    return kNodeBytes + size_class * PacketArena::kSlotStep;
}

}  // namespace

std::shared_ptr<PacketArena> PacketArena::create() {
    return std::shared_ptr<PacketArena>(new PacketArena(),
                                        [](PacketArena* arena) { arena->release_owner(); });
}

PacketArena::~PacketArena() {
    // No packet is alive by now, so every slot is back on a freelist and
    // the chunks can go to the system whole.
    while (chunks_ != nullptr) {
        Chunk* next = chunks_->next;
        ::operator delete(static_cast<void*>(chunks_));
        chunks_ = next;
    }
}

MutablePacketPtr PacketArena::make_synthetic(std::uint64_t id, std::uint32_t frame_len,
                                             sim::SimTime sent_at) {
    void* slot = acquire_slot(0, false);
    return MutablePacketPtr{new (slot) Packet(id, frame_len, sent_at, nullptr, this, 0)};
}

MutablePacketPtr PacketArena::make_full(std::uint64_t id, std::uint32_t frame_len,
                                        sim::SimTime sent_at) {
    if (frame_len > kPayloadCapacity) {
        // Oversized frame: a header-only slot plus a packet-owned buffer.
        ++stats_.oversize_payloads;
        auto* packet =
            new (acquire_slot(0, false)) Packet(id, frame_len, sent_at, nullptr, this, 0);
        MutablePacketPtr handle{packet};  // recycles the slot if the buffer throws
        packet->owned_ = std::make_unique_for_overwrite<std::byte[]>(frame_len);
        packet->data_ = packet->owned_.get();
        return handle;
    }
    const std::size_t cls = size_class(frame_len);
    auto* slot = static_cast<std::byte*>(acquire_slot(cls, true));
    return MutablePacketPtr{new (slot) Packet(id, frame_len, sent_at, slot + kNodeBytes, this,
                                              static_cast<std::uint16_t>(cls))};
}

void* PacketArena::acquire_slot(std::size_t size_class, bool full) {
    if (FreeSlot* slot = free_[size_class]) {
        free_[size_class] = slot->next;
        ++stats_.node_reuses;
        if (full) ++stats_.payload_reuses;
        ++live_;
        return slot;
    }
    std::byte* slot = carve(slot_bytes(size_class));
    ++stats_.node_allocs;
    if (full) ++stats_.payload_allocs;
    ++live_;
    return slot;
}

std::byte* PacketArena::carve(std::size_t bytes) {
    if (static_cast<std::size_t>(bump_end_ - bump_) < bytes) {
        // The newest chunk's tail is too short: start a new chunk (the
        // tail, under one largest slot, is left unused).
        auto* raw = static_cast<std::byte*>(::operator new(kChunkBytes));
        auto* chunk = new (raw) Chunk{chunks_};
        chunks_ = chunk;
        // Slots start on the first cache line past the chunk header.
        bump_ = raw + (kLine - reinterpret_cast<std::uintptr_t>(raw) % kLine);
        bump_end_ = raw + kChunkBytes;
        ++stats_.chunk_allocs;
    }
    std::byte* slot = bump_;
    bump_ += bytes;
    return slot;
}

void PacketArena::recycle(Packet* packet) noexcept {
    const std::size_t cls = packet->size_class_;
    packet->~Packet();
    free_[cls] = new (static_cast<void*>(packet)) FreeSlot{free_[cls]};
    if (--live_ == 0 && orphaned_) delete this;
}

void PacketArena::release_owner() noexcept {
    orphaned_ = true;
    if (live_ == 0) delete this;
}

}  // namespace capbench::net
