// Tests for the packet substrate: addresses, headers, checksum, wire
// timing, link, splitter and switch.
#include <gtest/gtest.h>

#include "capbench/net/checksum.hpp"
#include "capbench/net/headers.hpp"
#include "capbench/net/link.hpp"
#include "capbench/net/switch.hpp"
#include "capbench/net/wire.hpp"
#include "capbench/sim/simulator.hpp"

namespace capbench::net {
namespace {

TEST(MacAddr, ParseAndFormatRoundTrip) {
    const auto mac = MacAddr::parse("00:0e:0C:01:02:ff");
    EXPECT_EQ(mac.to_string(), "00:0e:0c:01:02:ff");
}

TEST(MacAddr, ParseRejectsMalformed) {
    EXPECT_THROW(MacAddr::parse("00:11:22:33:44"), std::invalid_argument);
    EXPECT_THROW(MacAddr::parse("00:11:22:33:44:GG"), std::invalid_argument);
    EXPECT_THROW(MacAddr::parse("00-11-22-33-44-55"), std::invalid_argument);
    EXPECT_THROW(MacAddr::parse("00:11:22:33:44:55:66"), std::invalid_argument);
}

TEST(MacAddr, PlusCyclesWithCarry) {
    const auto mac = MacAddr::parse("00:00:00:00:00:ff");
    EXPECT_EQ(mac.plus(1).to_string(), "00:00:00:00:01:00");
    EXPECT_EQ(MacAddr::parse("ff:ff:ff:ff:ff:ff").plus(1).to_string(), "00:00:00:00:00:00");
}

TEST(Ipv4Addr, ParseAndFormatRoundTrip) {
    const auto addr = Ipv4Addr::parse("192.168.10.100");
    EXPECT_EQ(addr.to_string(), "192.168.10.100");
    EXPECT_EQ(addr.value(), 0xC0A80A64u);
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
    EXPECT_THROW(Ipv4Addr::parse("192.168.10"), std::invalid_argument);
    EXPECT_THROW(Ipv4Addr::parse("192.168.10.256"), std::invalid_argument);
    EXPECT_THROW(Ipv4Addr::parse("192.168.10.1.2"), std::invalid_argument);
    EXPECT_THROW(Ipv4Addr::parse("a.b.c.d"), std::invalid_argument);
}

TEST(Checksum, KnownVector) {
    // RFC 1071 example bytes.
    const std::array<std::byte, 8> data{std::byte{0x00}, std::byte{0x01}, std::byte{0xf2},
                                        std::byte{0x03}, std::byte{0xf4}, std::byte{0xf5},
                                        std::byte{0xf6}, std::byte{0xf7}};
    const auto sum = internet_checksum(data);
    // Complement of 0xddf2 per the RFC's running example.
    EXPECT_EQ(sum, static_cast<std::uint16_t>(~0xddf2 & 0xFFFF));
}

TEST(Checksum, OddLengthHandled) {
    const std::array<std::byte, 3> data{std::byte{0x01}, std::byte{0x02}, std::byte{0x03}};
    EXPECT_EQ(internet_checksum(data),
              static_cast<std::uint16_t>(~((0x0102 + 0x0300)) & 0xFFFF));
}

TEST(Ipv4Header, EncodeProducesVerifiableChecksum) {
    Ipv4Header h;
    h.total_length = 100;
    h.identification = 7;
    h.protocol = kIpProtoUdp;
    h.src = Ipv4Addr::parse("192.168.10.100");
    h.dst = Ipv4Addr::parse("192.168.10.12");
    std::array<std::byte, 20> buf{};
    h.encode(buf);
    EXPECT_TRUE(checksum_ok(buf));
    const auto decoded = Ipv4Header::decode(buf);
    EXPECT_EQ(decoded.total_length, 100);
    EXPECT_EQ(decoded.identification, 7);
    EXPECT_EQ(decoded.protocol, kIpProtoUdp);
    EXPECT_EQ(decoded.src, h.src);
    EXPECT_EQ(decoded.dst, h.dst);
}

TEST(Ipv4Header, DecodeRejectsNonIpv4) {
    std::array<std::byte, 20> buf{};
    buf[0] = std::byte{0x60};  // version 6
    EXPECT_THROW(Ipv4Header::decode(buf), std::invalid_argument);
}

TEST(Ipv4Header, FragmentHelpers) {
    Ipv4Header h;
    h.flags_fragment = 0x2000 | 100;  // MF set, offset 100
    EXPECT_TRUE(h.more_fragments());
    EXPECT_EQ(h.fragment_offset(), 100);
}

TEST(EthernetHeader, RoundTrip) {
    EthernetHeader h;
    h.dst = MacAddr::parse("00:0e:0c:01:02:03");
    h.src = MacAddr::parse("00:00:00:00:00:01");
    h.ether_type = kEtherTypeIpv4;
    std::array<std::byte, 14> buf{};
    h.encode(buf);
    const auto decoded = EthernetHeader::decode(buf);
    EXPECT_EQ(decoded.dst, h.dst);
    EXPECT_EQ(decoded.src, h.src);
    EXPECT_EQ(decoded.ether_type, kEtherTypeIpv4);
}

TEST(UdpHeader, RoundTrip) {
    UdpHeader h{9, 9, 80, 0};
    std::array<std::byte, 8> buf{};
    h.encode(buf);
    const auto decoded = UdpHeader::decode(buf);
    EXPECT_EQ(decoded.src_port, 9);
    EXPECT_EQ(decoded.dst_port, 9);
    EXPECT_EQ(decoded.length, 80);
}

TEST(Headers, EncodeBufferTooSmallThrows) {
    std::array<std::byte, 4> tiny{};
    EXPECT_THROW(EthernetHeader{}.encode(tiny), std::invalid_argument);
    EXPECT_THROW(Ipv4Header{}.encode(tiny), std::invalid_argument);
    EXPECT_THROW(UdpHeader{}.encode(tiny), std::invalid_argument);
    EXPECT_THROW(load_be32(tiny, 2), std::out_of_range);
}

TEST(Wire, MinimumFramePadding) {
    EXPECT_EQ(padded_frame_len(40), kMinFrameBytes);
    EXPECT_EQ(padded_frame_len(1514), 1514u);
    EXPECT_EQ(wire_bytes(60), 60u + 24u);
}

TEST(Wire, FrameTimeAtGigabit) {
    // 1538 wire bytes for a full-size frame -> 12.304 us.
    EXPECT_EQ(wire_time(1514).ns(), 1538 * 8);
    // Minimum frame: 84 wire bytes -> 672 ns (the classic 1.488 Mpps).
    EXPECT_EQ(wire_time(40).ns(), 84 * 8);
}

TEST(Wire, MaxRateBelowLineRate) {
    EXPECT_NEAR(max_data_rate_mbps(1514), 984.5, 0.5);
    EXPECT_NEAR(packets_per_second(984.5, 1514), 81'282, 100);
}

TEST(Link, DeliversAfterWireTime) {
    sim::Simulator sim;
    Link link{sim};
    struct Sink : FrameSink {
        std::vector<std::uint64_t> ids;
        void on_frame(const PacketPtr& p) override { ids.push_back(p->id()); }
    } sink;
    link.attach(sink);
    link.transmit(make_packet(1, 1514, sim.now()));
    sim.run();
    ASSERT_EQ(sink.ids.size(), 1u);
    EXPECT_EQ(sim.now().ns(), wire_time(1514).ns());
}

TEST(Link, SerializesBackToBackFrames) {
    sim::Simulator sim;
    Link link{sim};
    struct Sink : FrameSink {
        std::vector<std::int64_t> times;
        sim::Simulator* sim = nullptr;
        void on_frame(const PacketPtr&) override { times.push_back(sim->now().ns()); }
    } sink;
    sink.sim = &sim;
    link.attach(sink);
    link.transmit(make_packet(1, 1514, sim.now()));
    link.transmit(make_packet(2, 1514, sim.now()));
    sim.run();
    ASSERT_EQ(sink.times.size(), 2u);
    EXPECT_EQ(sink.times[1] - sink.times[0], wire_time(1514).ns());
    EXPECT_EQ(link.frames_sent(), 2u);
}

TEST(Splitter, DuplicatesToAllTaps) {
    Splitter splitter;
    struct Sink : FrameSink {
        int frames = 0;
        void on_frame(const PacketPtr&) override { ++frames; }
    } a, b, c, d;
    splitter.attach(a);
    splitter.attach(b);
    splitter.attach(c);
    splitter.attach(d);
    const auto packet = make_packet(1, 100, sim::SimTime{});
    splitter.on_frame(packet);
    EXPECT_EQ(a.frames, 1);
    EXPECT_EQ(b.frames, 1);
    EXPECT_EQ(c.frames, 1);
    EXPECT_EQ(d.frames, 1);
}

TEST(MonitorSwitch, CountsIngressAndMirroredEgress) {
    MonitorSwitch sw;
    Splitter splitter;
    sw.attach_monitor(splitter);
    sw.on_frame(make_packet(1, 100, sim::SimTime{}));
    sw.on_frame(make_packet(2, 200, sim::SimTime{}));
    EXPECT_EQ(sw.ingress_counters().packets, 2u);
    EXPECT_EQ(sw.ingress_counters().bytes, 300u);
    EXPECT_EQ(sw.egress_counters().packets, 2u);
}

TEST(Packet, SyntheticVersusFullBytes) {
    const Packet synthetic{1, 1000, sim::SimTime{}};
    EXPECT_FALSE(synthetic.has_bytes());
    EXPECT_EQ(synthetic.frame_len(), 1000u);
    EXPECT_TRUE(synthetic.bytes().empty());

    std::vector<std::byte> data(64, std::byte{0xAB});
    const Packet full{2, std::move(data), sim::SimTime{}};
    EXPECT_TRUE(full.has_bytes());
    EXPECT_EQ(full.frame_len(), 64u);
    EXPECT_EQ(full.bytes().size(), 64u);
}

}  // namespace
}  // namespace capbench::net
