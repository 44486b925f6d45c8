// Tests for the Section 7.2 future-work extensions: 10-Gigabit links,
// round-robin load distribution, the FreeBSD zero-copy BPF ring, and the
// receive-livelock ablation knob.
#include <gtest/gtest.h>

#include "capbench/harness/experiment.hpp"
#include "capbench/harness/measurement.hpp"
#include "capbench/net/link.hpp"
#include "capbench/net/wire.hpp"

namespace capbench {
namespace {

using namespace harness;

TEST(TenGigabit, WireTimeScales) {
    EXPECT_EQ(net::wire_time_at(1514, 1.0).ns(), net::wire_time(1514).ns());
    EXPECT_EQ(net::wire_time_at(1514, 10.0).ns(), net::wire_time(1514).ns() / 10);
}

TEST(TenGigabit, LinkDeliversTenTimesFaster) {
    sim::Simulator sim;
    net::Link link{sim, 10.0};
    struct Sink : net::FrameSink {
        int frames = 0;
        void on_frame(const net::PacketPtr&) override { ++frames; }
    } sink;
    link.attach(sink);
    link.transmit(net::make_packet(1, 1514, sim.now()));
    sim.run();
    EXPECT_EQ(sim.now().ns(), net::wire_time(1514).ns() / 10);
    EXPECT_EQ(sink.frames, 1);
}

TEST(TenGigabit, GeneratorReachesMultiGigabitRates) {
    RunConfig cfg;
    cfg.packets = 30'000;
    cfg.rate_mbps = 4'000.0;
    cfg.link_gbps = 10.0;
    const auto r = run_once({standard_sut("moorhen")}, cfg);
    EXPECT_GT(r.offered_mbps, 3'500.0);
    // One 2005 sniffer cannot capture 4 Gbit/s of this workload.
    EXPECT_LT(r.suts[0].capture_avg_pct, 70.0);
}

TEST(RoundRobinSplitter, DealsFramesOneByOne) {
    net::RoundRobinSplitter rr;
    struct Sink : net::FrameSink {
        std::vector<std::uint64_t> ids;
        void on_frame(const net::PacketPtr& p) override { ids.push_back(p->id()); }
    } a, b, c;
    rr.attach(a);
    rr.attach(b);
    rr.attach(c);
    for (std::uint64_t i = 0; i < 7; ++i)
        rr.on_frame(net::make_packet(i, 100, sim::SimTime{}));
    EXPECT_EQ(a.ids, (std::vector<std::uint64_t>{0, 3, 6}));
    EXPECT_EQ(b.ids, (std::vector<std::uint64_t>{1, 4}));
    EXPECT_EQ(c.ids, (std::vector<std::uint64_t>{2, 5}));
    // No sinks attached: frames are silently dropped, no crash.
    net::RoundRobinSplitter empty;
    EXPECT_NO_THROW(empty.on_frame(net::make_packet(9, 100, sim::SimTime{})));
}

TEST(Distribution, FourSniffersBeatOneOnTenGig) {
    RunConfig cfg;
    cfg.packets = 60'000;
    cfg.rate_mbps = 3'000.0;
    cfg.link_gbps = 10.0;

    const auto alone = run_once({standard_sut("moorhen")}, cfg);

    std::vector<SutConfig> fleet;
    for (int i = 0; i < 4; ++i) {
        auto sut = standard_sut("moorhen");
        sut.name = "m" + std::to_string(i);
        fleet.push_back(std::move(sut));
    }
    RunConfig dist_cfg = cfg;
    dist_cfg.distribute_round_robin = true;
    const auto spread = run_once(fleet, dist_cfg);
    double aggregate = 0.0;
    for (const auto& s : spread.suts) aggregate += s.capture_avg_pct;

    EXPECT_GT(aggregate, alone.suts[0].capture_avg_pct + 25.0);
    EXPECT_GT(aggregate, 95.0);
    // The distributor deals evenly: each sniffer sees ~25 %.
    for (const auto& s : spread.suts) {
        EXPECT_GT(s.capture_avg_pct, 15.0) << s.name;
        EXPECT_LE(s.capture_avg_pct, 26.0) << s.name;
    }
}

TEST(ZeroCopyBpf, FreeBsdOnlyAndReducesCpu) {
    auto stock = standard_sut("flamingo");
    stock.buffer_bytes = 10ull << 20;
    auto zc = stock;
    zc.name = "flamingo-zc";
    zc.stack = StackKind::kZeroCopyBpf;

    RunConfig cfg;
    cfg.packets = 60'000;
    cfg.rate_mbps = 700.0;
    const auto r = run_once({stock, zc}, cfg);
    const auto& plain = r.suts[0];
    const auto& ring = r.suts[1];
    EXPECT_GE(ring.capture_avg_pct + 1.0, plain.capture_avg_pct);
    EXPECT_LT(ring.cpu_pct, plain.cpu_pct);

    // Wrong OS families are rejected.
    auto on_linux = standard_sut("swan");
    on_linux.stack = StackKind::kZeroCopyBpf;
    EXPECT_THROW(run_once({on_linux}, cfg), std::invalid_argument);
}

TEST(LivelockAblation, ModerationPreventsCollapse) {
    auto normal = standard_sut("moorhen");
    normal.buffer_bytes = 10ull << 20;
    normal.cores = 1;
    auto livelock = normal;
    livelock.name = "moorhen-noNAPI";
    livelock.nic.interrupt_moderation = false;

    RunConfig cfg;
    cfg.packets = 80'000;
    cfg.rate_mbps = 850.0;
    const auto r = run_once({normal, livelock}, cfg);
    EXPECT_GT(r.suts[0].capture_avg_pct, 95.0);
    EXPECT_LT(r.suts[1].capture_avg_pct, r.suts[0].capture_avg_pct - 15.0);
}

TEST(LivelockAblation, NoEffectAtLowRates) {
    auto livelock = standard_sut("moorhen");
    livelock.nic.interrupt_moderation = false;
    livelock.cores = 1;
    RunConfig cfg;
    cfg.packets = 20'000;
    cfg.rate_mbps = 150.0;
    const auto r = run_once({livelock}, cfg);
    EXPECT_GT(r.suts[0].capture_avg_pct, 99.0);
}

}  // namespace
}  // namespace capbench
