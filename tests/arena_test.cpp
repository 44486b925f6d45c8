// PacketArena and PacketPtr unit tests: size-classed slot recycling, payload
// ownership and aliasing, chunked growth, arena lifetime through its live
// packet count, the oversize fallback, and the intrusive handle's
// reference counting.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capbench/net/arena.hpp"

namespace net = capbench::net;
namespace sim = capbench::sim;

namespace {

TEST(PacketArena, SyntheticPacketsCarrySizesOnly) {
    auto arena = net::PacketArena::create();
    net::PacketPtr p = arena->make_synthetic(7, 1500, sim::SimTime{} + sim::Duration{42});
    EXPECT_EQ(p->id(), 7u);
    EXPECT_EQ(p->frame_len(), 1500u);
    EXPECT_FALSE(p->has_bytes());
    EXPECT_TRUE(p->bytes().empty());
}

TEST(PacketArena, FullPacketsExposeWritablePayload) {
    auto arena = net::PacketArena::create();
    net::MutablePacketPtr p = arena->make_full(1, 64, sim::SimTime{});
    ASSERT_TRUE(p->has_bytes());
    ASSERT_EQ(p->mutable_bytes().size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
        p->mutable_bytes()[i] = static_cast<std::byte>(i);
    net::PacketPtr published = std::move(p);
    EXPECT_FALSE(p);
    ASSERT_EQ(published->bytes().size(), 64u);
    EXPECT_EQ(published->bytes()[63], static_cast<std::byte>(63));
}

TEST(PacketArena, NodesAndPayloadsAreRecycled) {
    auto arena = net::PacketArena::create();
    { auto p = arena->make_full(0, 1500, sim::SimTime{}); }
    EXPECT_EQ(arena->stats().node_allocs, 1u);
    EXPECT_EQ(arena->stats().payload_allocs, 1u);
    for (int i = 1; i <= 100; ++i) {
        auto p = arena->make_full(static_cast<std::uint64_t>(i), 1500, sim::SimTime{});
    }
    EXPECT_EQ(arena->stats().node_allocs, 1u) << "node freelist missed";
    EXPECT_EQ(arena->stats().payload_allocs, 1u) << "payload freelist missed";
    EXPECT_EQ(arena->stats().node_reuses, 100u);
    EXPECT_EQ(arena->stats().payload_reuses, 100u);
}

// The fallback is a packet-owned buffer; the test name predates it.
TEST(PacketArena, OversizeFramesFallBackToOwnedVector) {
    auto arena = net::PacketArena::create();
    const std::uint32_t big = net::PacketArena::kPayloadCapacity + 1;
    auto p = arena->make_full(0, big, sim::SimTime{});
    EXPECT_EQ(p->frame_len(), big);
    EXPECT_EQ(p->bytes().size(), big);
    EXPECT_EQ(arena->stats().oversize_payloads, 1u);
    EXPECT_EQ(arena->stats().payload_allocs, 0u) << "oversize must bypass the payload pool";
}

TEST(PacketArena, PacketsKeepTheArenaAlive) {
    net::PacketPtr survivor;
    const net::PacketArena* raw = nullptr;
    {
        auto arena = net::PacketArena::create();
        raw = arena.get();
        survivor = arena->make_full(0, 128, sim::SimTime{});
        // The owner is dropped here; the arena lives on while it still
        // counts a live packet.
    }
    ASSERT_TRUE(survivor->has_bytes());
    EXPECT_EQ(survivor->bytes().size(), 128u);
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(raw->live_packets(), 1u);
    survivor.reset();  // last packet: its slot goes back, then the arena dies
}

TEST(PacketArena, EveryFrameLengthGetsItsOwnWritableSlot) {
    auto arena = net::PacketArena::create();
    constexpr std::uint32_t kMax = net::PacketArena::kPayloadCapacity + 1;
    std::vector<net::MutablePacketPtr> live;
    for (std::uint32_t len = 0; len <= kMax; ++len) {
        net::MutablePacketPtr p = arena->make_full(len, len, sim::SimTime{});
        ASSERT_TRUE(p->has_bytes()) << len;
        const auto bytes = p->mutable_bytes();
        ASSERT_EQ(bytes.size(), len);
        std::fill(bytes.begin(), bytes.end(), static_cast<std::byte>(len * 7 + 1));
        live.push_back(std::move(p));
    }
    // Filling a later packet never disturbed an earlier one ...
    for (const auto& p : live) {
        const auto expected = static_cast<std::byte>(p->id() * 7 + 1);
        for (const std::byte b : p->bytes()) ASSERT_EQ(b, expected) << "frame " << p->id();
    }
    // ... and no header or payload overlaps another.
    std::vector<std::pair<const std::byte*, const std::byte*>> ranges;
    for (const auto& p : live) {
        const auto* header = reinterpret_cast<const std::byte*>(p.get());
        ranges.emplace_back(header, header + sizeof(net::Packet));
        ranges.emplace_back(p->bytes().data(), p->bytes().data() + p->bytes().size());
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i)
        ASSERT_LE(ranges[i - 1].second, ranges[i].first) << "slots alias";
    EXPECT_EQ(arena->live_packets(), kMax + 1);
    EXPECT_EQ(arena->stats().oversize_payloads, 1u);
    EXPECT_EQ(arena->stats().payload_allocs, kMax) << "every in-range frame took a slot";
}

TEST(PacketArena, SizeClassesRecycleOnlyThroughTheirOwnFreelist) {
    using A = net::PacketArena;
    EXPECT_EQ(A::size_class(0), 0u);
    EXPECT_EQ(A::size_class(1), 1u);
    EXPECT_EQ(A::size_class(64), 1u);
    EXPECT_EQ(A::size_class(65), 2u);
    EXPECT_EQ(A::size_class(A::kPayloadCapacity), A::kSizeClasses - 1);

    auto arena = A::create();
    auto small = arena->make_full(1, 100, sim::SimTime{});
    const std::byte* small_slot = small->bytes().data();
    small.reset();  // class 2 freelist: one slot

    // Another class cannot take it ...
    auto big = arena->make_full(2, 1000, sim::SimTime{});
    EXPECT_NE(big->bytes().data(), small_slot);
    EXPECT_EQ(arena->stats().payload_allocs, 2u);
    EXPECT_EQ(arena->stats().payload_reuses, 0u);
    auto synthetic = arena->make_synthetic(3, 100, sim::SimTime{});
    EXPECT_EQ(arena->stats().node_allocs, 3u);
    EXPECT_EQ(arena->stats().node_reuses, 0u);

    // ... but any frame of its own class does.
    auto same_class = arena->make_full(4, 65, sim::SimTime{});
    EXPECT_EQ(same_class->bytes().data(), small_slot);
    EXPECT_EQ(arena->stats().payload_reuses, 1u);

    // A synthetic packet's header-only slot serves only class 0.
    synthetic.reset();
    auto empty_frame = arena->make_full(5, 0, sim::SimTime{});
    EXPECT_EQ(arena->stats().node_reuses, 2u);
    auto after = arena->make_synthetic(6, 100, sim::SimTime{});
    EXPECT_EQ(arena->stats().node_allocs, 4u) << "class 0 freelist should be empty";
}

TEST(PacketArena, FreshSlotsAreCarvedFromChunks) {
    auto arena = net::PacketArena::create();
    std::vector<net::PacketPtr> held;
    for (std::uint64_t i = 0; i < 1000; ++i)
        held.push_back(arena->make_full(i, 64 + static_cast<std::uint32_t>(i % 1400),
                                        sim::SimTime{}));
    EXPECT_EQ(arena->stats().node_allocs, 1000u);
    // ~830 B per slot on average: about 13 chunks, not 1000 allocations.
    EXPECT_GE(arena->stats().chunk_allocs, 10u);
    EXPECT_LE(arena->stats().chunk_allocs, 16u);
    const std::uint64_t chunks = arena->stats().chunk_allocs;
    held.clear();
    for (std::uint64_t i = 0; i < 1000; ++i)
        held.push_back(arena->make_full(i, 64 + static_cast<std::uint32_t>(i % 1400),
                                        sim::SimTime{}));
    EXPECT_EQ(arena->stats().chunk_allocs, chunks) << "the second round must recycle";
    EXPECT_EQ(arena->stats().payload_reuses, 1000u);
}

TEST(PacketHandle, CopyMoveSelfAssignAndResetKeepTheCountRight) {
    auto arena = net::PacketArena::create();
    net::PacketPtr a = arena->make_full(1, 200, sim::SimTime{});
    EXPECT_EQ(a.use_count(), 1u);

    net::PacketPtr b = a;  // copy
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(a, b);

    net::PacketPtr c = std::move(b);  // move: no new reference
    EXPECT_FALSE(b);
    EXPECT_EQ(b, nullptr);
    EXPECT_EQ(b.use_count(), 0u);
    EXPECT_EQ(c.use_count(), 2u);

    const net::PacketPtr& alias = c;
    c = alias;  // self copy-assignment
    EXPECT_EQ(c.use_count(), 2u);
    c = std::move(c);  // self move-assignment
    ASSERT_TRUE(c);
    EXPECT_EQ(c.use_count(), 2u);

    b = c;  // copy-assignment into an empty handle
    EXPECT_EQ(c.use_count(), 3u);
    b = std::move(a);  // move-assignment drops b's old reference
    EXPECT_FALSE(a);
    EXPECT_EQ(c.use_count(), 2u);

    net::MutablePacketPtr other = arena->make_full(2, 200, sim::SimTime{});
    b = other;  // mutable -> const copy; b's reference to packet 1 goes
    EXPECT_EQ(other.use_count(), 2u);
    EXPECT_EQ(c.use_count(), 1u);
    EXPECT_EQ(arena->live_packets(), 2u);

    b.reset();
    other.reset();
    EXPECT_EQ(arena->live_packets(), 1u);
    c.reset();
    EXPECT_EQ(arena->live_packets(), 0u);
    c.reset();  // resetting an empty handle is a no-op
    EXPECT_FALSE(c);
}

TEST(PacketHandle, LastReleaseReturnsTheSlot) {
    auto arena = net::PacketArena::create();
    net::PacketPtr first = arena->make_full(1, 700, sim::SimTime{});
    const std::byte* slot = first->bytes().data();
    std::vector<net::PacketPtr> copies(5, first);
    first.reset();
    copies.pop_back();
    // Still referenced: a new frame of the class needs a fresh slot.
    net::PacketPtr second = arena->make_full(2, 700, sim::SimTime{});
    EXPECT_NE(second->bytes().data(), slot);
    EXPECT_EQ(arena->stats().payload_reuses, 0u);
    copies.clear();  // the last references go
    net::PacketPtr third = arena->make_full(3, 700, sim::SimTime{});
    EXPECT_EQ(third->bytes().data(), slot);
    EXPECT_EQ(arena->stats().payload_reuses, 1u);
}

TEST(PacketHandle, MakePacketMintsHeapPackets) {
    net::PacketPtr synthetic = net::make_packet(1, 1500, sim::SimTime{});
    EXPECT_EQ(synthetic->frame_len(), 1500u);
    EXPECT_FALSE(synthetic->has_bytes());
    EXPECT_EQ(synthetic.use_count(), 1u);

    std::vector<std::byte> frame(60, std::byte{0x5A});
    net::PacketPtr full = net::make_packet(2, frame, sim::SimTime{});
    frame.assign(60, std::byte{0});  // the packet holds its own copy
    ASSERT_EQ(full->bytes().size(), 60u);
    EXPECT_EQ(full->bytes()[59], std::byte{0x5A});
    net::PacketPtr copy = full;
    EXPECT_EQ(full.use_count(), 2u);
}

}  // namespace
