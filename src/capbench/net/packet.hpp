// Packet representation.
//
// Packets flow from the generator through the switch and splitter into the
// NICs of the systems under test.  Two modes are supported:
//
//  * full mode: the packet carries its frame bytes (needed whenever a BPF
//    filter inspects packet contents or packets are written to pcap files);
//  * synthetic mode: only the sizes are carried (fast path for the pure
//    capture-rate experiments where contents are irrelevant; the thesis
//    notes "type and content of the packets have no influence on the
//    process of capturing", Section 3.2).
//
// Packets are shared immutably (like cloned skbs): the splitter hands the
// same underlying packet to all four sniffers.  A PacketPtr is one pointer
// wide; the reference count lives in the packet itself and is a plain
// integer, because a packet never leaves the Testbed (and therefore the OS
// thread) that made it — parallel sweeps give every replication its own
// Testbed.  The last release returns the packet to where it came from: its
// PacketArena slot on the hot path (see arena.hpp), or the heap for the
// packets make_packet mints for tests and tools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

#include "capbench/sim/time.hpp"

namespace capbench::net {

class PacketArena;
template <typename T>
class PacketHandle;

/// Synthetic flow identity (a UDP/TCP 4-tuple) stamped on every generated
/// packet.  Both packet modes carry it: full-mode packets also encode it in
/// their headers, while synthetic packets have no bytes at all — the tuple
/// is what lets a multi-queue NIC compute an RSS hash without parsing.
/// Addresses and ports are in host byte order.
struct FlowTuple {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
};

class Packet {
public:
    /// Creates a synthetic packet: sizes only, no payload bytes.
    /// `frame_len` is the Ethernet frame length without FCS.
    Packet(std::uint64_t id, std::uint32_t frame_len, sim::SimTime sent_at)
        : id_(id), sent_at_(sent_at), frame_len_(frame_len) {}

    /// Creates a full packet owning a copy of its frame bytes (without FCS).
    Packet(std::uint64_t id, std::span<const std::byte> frame, sim::SimTime sent_at);

    Packet(const Packet&) = delete;
    Packet& operator=(const Packet&) = delete;
    ~Packet() = default;

    [[nodiscard]] std::uint64_t id() const { return id_; }

    /// Ethernet frame length in bytes, excluding preamble and FCS.
    [[nodiscard]] std::uint32_t frame_len() const { return frame_len_; }

    [[nodiscard]] sim::SimTime sent_at() const { return sent_at_; }

    [[nodiscard]] bool has_bytes() const { return data_ != nullptr; }

    /// Frame bytes; empty span for synthetic packets.
    [[nodiscard]] std::span<const std::byte> bytes() const {
        return data_ != nullptr ? std::span<const std::byte>{data_, frame_len_}
                                : std::span<const std::byte>{};
    }

    /// Writable frame bytes, for filling a full packet before it is
    /// published.  Only valid for full packets.
    [[nodiscard]] std::span<std::byte> mutable_bytes() {
        return {data_, data_ != nullptr ? frame_len_ : 0};
    }

    [[nodiscard]] const FlowTuple& flow() const { return flow_; }

    /// Stamps the flow identity; called by the generator before the packet
    /// is published as an immutable PacketPtr.
    void set_flow(const FlowTuple& flow) { flow_ = flow; }

private:
    template <typename T>
    friend class PacketHandle;
    friend class PacketArena;

    /// Arena packet: `data` is the payload part of the packet's own slot
    /// (null for synthetic and oversize packets).
    Packet(std::uint64_t id, std::uint32_t frame_len, sim::SimTime sent_at, std::byte* data,
           PacketArena* arena, std::uint16_t size_class)
        : id_(id), sent_at_(sent_at), data_(data), arena_(arena), frame_len_(frame_len),
          size_class_(size_class) {}

    /// The last reference is gone: back to the arena, or to the heap.
    void destroy() const noexcept;

    std::uint64_t id_ = 0;
    sim::SimTime sent_at_{};
    std::byte* data_ = nullptr;             // payload (slot- or self-owned)
    PacketArena* arena_ = nullptr;          // null: a stack or make_packet packet
    std::unique_ptr<std::byte[]> owned_;    // self-owned payload (oversize, make_packet)
    FlowTuple flow_{};
    std::uint32_t frame_len_ = 0;
    mutable std::uint32_t refs_ = 0;        // PacketHandles pointing here
    std::uint16_t size_class_ = 0;          // arena freelist the slot returns to
};

/// Intrusive, single-threaded reference to a Packet.  `T` is `const Packet`
/// for the published, immutable handle (PacketPtr) and `Packet` for the
/// freshly minted one its creator still fills (MutablePacketPtr), which
/// converts to PacketPtr the way shared_ptr<T> converts to
/// shared_ptr<const T>.
template <typename T>
class PacketHandle {
    static_assert(std::is_same_v<std::remove_const_t<T>, Packet>);

public:
    PacketHandle() noexcept = default;
    PacketHandle(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
    PacketHandle(const PacketHandle& other) noexcept : p_(other.p_) { retain(); }
    PacketHandle(PacketHandle&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}

    template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
    PacketHandle(const PacketHandle<U>& other) noexcept  // NOLINT(google-explicit-constructor)
        : p_(other.p_) {
        retain();
    }
    template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
    PacketHandle(PacketHandle<U>&& other) noexcept  // NOLINT(google-explicit-constructor)
        : p_(std::exchange(other.p_, nullptr)) {}

    ~PacketHandle() { release(); }

    /// Copy- and move-assignment (self-assignment safe).
    PacketHandle& operator=(PacketHandle other) noexcept {
        std::swap(p_, other.p_);
        return *this;
    }

    void reset() noexcept { PacketHandle{}.swap(*this); }
    void swap(PacketHandle& other) noexcept { std::swap(p_, other.p_); }

    [[nodiscard]] T* get() const noexcept { return p_; }
    T& operator*() const noexcept { return *p_; }
    T* operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

    /// Handles sharing this packet (0 for an empty handle).
    [[nodiscard]] std::uint32_t use_count() const noexcept {
        return p_ != nullptr ? p_->refs_ : 0;
    }

    template <typename U>
    bool operator==(const PacketHandle<U>& other) const noexcept {
        return p_ == other.get();
    }
    bool operator==(std::nullptr_t) const noexcept { return p_ == nullptr; }

private:
    template <typename U>
    friend class PacketHandle;
    friend class PacketArena;
    friend PacketHandle<Packet> make_packet(std::uint64_t, std::uint32_t, sim::SimTime);
    friend PacketHandle<Packet> make_packet(std::uint64_t, std::span<const std::byte>,
                                            sim::SimTime);

    /// Takes the first reference to a packet nobody references yet.
    explicit PacketHandle(T* adopted) noexcept : p_(adopted) { p_->refs_ = 1; }

    void retain() const noexcept {
        if (p_ != nullptr) ++p_->refs_;
    }
    void release() noexcept {
        if (p_ != nullptr && --p_->refs_ == 0) p_->destroy();
    }

    T* p_ = nullptr;
};

using PacketPtr = PacketHandle<const Packet>;
using MutablePacketPtr = PacketHandle<Packet>;

static_assert(sizeof(PacketPtr) == sizeof(void*));

/// Mints a heap packet outside any arena (tests and tools): synthetic.
[[nodiscard]] MutablePacketPtr make_packet(std::uint64_t id, std::uint32_t frame_len,
                                           sim::SimTime sent_at);

/// Mints a heap packet outside any arena: full, owning a copy of `frame`.
[[nodiscard]] MutablePacketPtr make_packet(std::uint64_t id, std::span<const std::byte> frame,
                                           sim::SimTime sent_at);

/// Consumer interface for frame delivery (switch ports, splitter taps, NICs).
class FrameSink {
public:
    virtual ~FrameSink() = default;

    /// Called at the simulated time the frame has fully arrived.
    virtual void on_frame(const PacketPtr& packet) = 0;
};

}  // namespace capbench::net
