#include "capbench/net/packet.hpp"

#include <algorithm>

#include "capbench/net/arena.hpp"

namespace capbench::net {

Packet::Packet(std::uint64_t id, std::span<const std::byte> frame, sim::SimTime sent_at)
    : id_(id),
      sent_at_(sent_at),
      owned_(std::make_unique_for_overwrite<std::byte[]>(frame.size())),
      frame_len_(static_cast<std::uint32_t>(frame.size())) {
    data_ = owned_.get();
    std::copy(frame.begin(), frame.end(), data_);
}

void Packet::destroy() const noexcept {
    // The packet was created mutable; only the published handle is const.
    auto* self = const_cast<Packet*>(this);
    if (arena_ != nullptr)
        arena_->recycle(self);
    else
        delete self;
}

MutablePacketPtr make_packet(std::uint64_t id, std::uint32_t frame_len, sim::SimTime sent_at) {
    return MutablePacketPtr{new Packet(id, frame_len, sent_at)};
}

MutablePacketPtr make_packet(std::uint64_t id, std::span<const std::byte> frame,
                             sim::SimTime sent_at) {
    return MutablePacketPtr{new Packet(id, frame, sent_at)};
}

}  // namespace capbench::net
