// Multi-queue RSS receive path: flow steering across NIC queues, per-queue
// IRQ affinity and counters that sum to the aggregates, the three fanout
// delivery modes, the closed per-app drop identity once fanout enters
// the picture, and the ext_multiqueue scenario's scaling shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capbench/harness/measurement.hpp"
#include "capbench/harness/testbed.hpp"
#include "capbench/report/json.hpp"
#include "capbench/report/writer.hpp"
#include "capbench/scenario/registry.hpp"
#include "capbench/scenario/runner.hpp"

namespace capbench::harness {
namespace {

/// Runs one SUT to completion (generation + full drain) and returns the
/// testbed for inspection.
struct MiniRun {
    explicit MiniRun(TestbedConfig tb) : bed{std::move(tb)} {
        bed.start_suts();
        bool done = false;
        bed.generator().start(sim::SimTime{}, [&] { done = true; });
        while (!done) bed.sim().run(bed.sim().now() + sim::seconds(1));
        bed.sim().run(bed.sim().now() + sim::seconds(3));
    }

    [[nodiscard]] Sut& sut() { return *bed.suts()[0]; }
    [[nodiscard]] std::uint64_t generated() {
        return bed.monitor_switch().egress_counters().packets;
    }

    Testbed bed;
};

TestbedConfig multiqueue_testbed(SutConfig sut, std::uint64_t packets = 20'000,
                                 double rate_mbps = 300.0, std::uint32_t flows = 64) {
    TestbedConfig tb;
    tb.gen.count = packets;
    tb.gen.rate_mbps = rate_mbps;
    tb.gen.flow_count = flows;
    tb.suts.push_back(std::move(sut));
    return tb;
}

SutConfig swan_queues(int queues) {
    SutConfig sut = standard_sut("swan");
    sut.cores = queues;
    sut.nic.queues = queues;
    sut.buffer_bytes = 10u << 20;
    return sut;
}

std::uint64_t sum_over_queues(const Sut& s, std::uint64_t (capture::Nic::*field)(int) const) {
    std::uint64_t total = 0;
    for (int q = 0; q < s.nic().queue_count(); ++q) total += (s.nic().*field)(q);
    return total;
}

TEST(MultiQueue, FlowsSpreadAcrossQueuesAndFrameCountsSumToAggregate) {
    MiniRun run{multiqueue_testbed(swan_queues(4))};
    Sut& s = run.sut();

    ASSERT_EQ(s.nic().queue_count(), 4);
    EXPECT_EQ(s.nic().frames_seen(), run.generated());
    // 64 flows through a uniform indirection table land on every queue.
    for (int q = 0; q < 4; ++q) EXPECT_GT(s.nic().queue_frames(q), 0u) << "queue " << q;
    EXPECT_EQ(sum_over_queues(s, &capture::Nic::queue_frames), s.nic().frames_seen());
    EXPECT_EQ(sum_over_queues(s, &capture::Nic::queue_ring_drops), s.nic().ring_drops());
    EXPECT_EQ(sum_over_queues(s, &capture::Nic::queue_backlog_drops),
              s.nic().backlog_drops());
}

TEST(MultiQueue, IrqAffinityPinsQueueInterruptsRoundRobin) {
    SutConfig sut = swan_queues(4);
    sut.cores = 2;
    sut.nic.irq_affinity = {1, 0};  // queue i -> affinity[i % 2]
    MiniRun run{multiqueue_testbed(std::move(sut))};
    Sut& s = run.sut();
    EXPECT_EQ(s.nic().queue_cpu(0), 1);
    EXPECT_EQ(s.nic().queue_cpu(1), 0);
    EXPECT_EQ(s.nic().queue_cpu(2), 1);
    EXPECT_EQ(s.nic().queue_cpu(3), 0);
}

TEST(MultiQueue, DefaultAffinitySpreadsQueuesOverCpus) {
    SutConfig sut = swan_queues(4);
    sut.cores = 2;  // 4 queues on 2 CPUs: irqbalance-style i % cpus
    MiniRun run{multiqueue_testbed(std::move(sut))};
    Sut& s = run.sut();
    EXPECT_EQ(s.nic().queue_cpu(0), 0);
    EXPECT_EQ(s.nic().queue_cpu(1), 1);
    EXPECT_EQ(s.nic().queue_cpu(2), 0);
    EXPECT_EQ(s.nic().queue_cpu(3), 1);
}

TEST(MultiQueue, ConstructionRejectsBadShapes) {
    sim::Simulator sim;

    SutConfig bad_cpu = swan_queues(2);
    bad_cpu.nic.irq_affinity = {0, 9};  // CPU 9 does not exist on 2 cores
    EXPECT_THROW(Sut(sim, std::move(bad_cpu)), std::invalid_argument);

    SutConfig bad_table = swan_queues(2);
    bad_table.nic.indirection = capture::rss::IndirectionTable::uniform(4);
    EXPECT_THROW(Sut(sim, std::move(bad_table)), std::invalid_argument);

    SutConfig no_queues = standard_sut("swan");
    no_queues.nic.queues = 0;
    EXPECT_THROW(Sut(sim, std::move(no_queues)), std::invalid_argument);

    SutConfig negative_cpu = swan_queues(2);
    negative_cpu.nic.irq_affinity = {-1};
    EXPECT_THROW(Sut(sim, std::move(negative_cpu)), std::invalid_argument);
}

TEST(MultiQueue, SkewedIndirectionConcentratesFramesOnTheHotQueue) {
    SutConfig sut = swan_queues(4);
    sut.nic.indirection_skew = 0.75;
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 300.0, 256)};
    Sut& s = run.sut();

    const std::uint64_t hot = s.nic().queue_frames(0);
    EXPECT_GT(hot, s.nic().frames_seen() / 2);
    for (int q = 1; q < 4; ++q) EXPECT_LT(s.nic().queue_frames(q), hot) << "queue " << q;
}

TEST(MultiQueue, ExplicitIndirectionTableIsHonored) {
    SutConfig sut = swan_queues(4);
    // A table that only ever names queues 0 and 1: queues 2/3 stay idle.
    sut.nic.indirection = capture::rss::IndirectionTable::uniform(2);
    MiniRun run{multiqueue_testbed(std::move(sut))};
    Sut& s = run.sut();
    EXPECT_GT(s.nic().queue_frames(0), 0u);
    EXPECT_GT(s.nic().queue_frames(1), 0u);
    EXPECT_EQ(s.nic().queue_frames(2), 0u);
    EXPECT_EQ(s.nic().queue_frames(3), 0u);
}

TEST(Fanout, MirrorModeDeliversEverythingToEveryApp) {
    SutConfig sut = swan_queues(4);
    sut.app_count = 2;  // fanout defaults to kMirror
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 200.0)};
    Sut& s = run.sut();
    for (std::size_t a = 0; a < 2; ++a) {
        EXPECT_EQ(s.capture_stats(a).delivered, run.generated()) << "app " << a;
        EXPECT_EQ(s.capture_stats(a).fanout_skipped, 0u) << "app " << a;
    }
}

TEST(Fanout, QueueModePinsEachAppToItsQueue) {
    SutConfig sut = swan_queues(4);
    sut.app_count = 4;
    sut.fanout = capture::FanoutMode::kQueue;
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 200.0)};
    Sut& s = run.sut();

    const std::uint64_t into_kernel =
        run.generated() - s.nic().ring_drops() - s.nic().backlog_drops();
    std::uint64_t delivered_total = 0;
    for (std::size_t a = 0; a < 4; ++a) {
        const capture::CaptureStats& st = s.capture_stats(a);
        // Every kernel-side packet either reached this app or went to a
        // sibling: the fanout bucket closes the identity.
        EXPECT_EQ(st.kernel_seen + st.fanout_skipped, into_kernel) << "app " << a;
        EXPECT_GT(st.delivered, 0u) << "app " << a;
        delivered_total += st.delivered;
        // App a only ever sees its pinned queue a: exactly the frames
        // that queue handed to the kernel.
        const int q = static_cast<int>(a);
        EXPECT_EQ(st.kernel_seen, s.nic().queue_frames(q) - s.nic().queue_ring_drops(q) -
                                      s.nic().queue_backlog_drops(q))
            << "app " << a;
    }
    // Each packet went to exactly one app; at this gentle rate none drop.
    EXPECT_EQ(delivered_total, run.generated());
}

TEST(Fanout, ClusterModeDeliversEachPacketToExactlyOneApp) {
    SutConfig sut = swan_queues(2);
    sut.app_count = 3;
    sut.fanout = capture::FanoutMode::kCluster;
    MiniRun run{multiqueue_testbed(std::move(sut), 20'000, 200.0)};
    Sut& s = run.sut();

    const std::uint64_t into_kernel =
        run.generated() - s.nic().ring_drops() - s.nic().backlog_drops();
    std::uint64_t seen_total = 0, delivered_total = 0;
    for (std::size_t a = 0; a < 3; ++a) {
        const capture::CaptureStats& st = s.capture_stats(a);
        EXPECT_EQ(st.kernel_seen + st.fanout_skipped, into_kernel) << "app " << a;
        EXPECT_LT(st.delivered, run.generated()) << "app " << a;  // a strict share
        EXPECT_GT(st.delivered, 0u) << "app " << a;
        seen_total += st.kernel_seen;
        delivered_total += st.delivered;
    }
    EXPECT_EQ(seen_total, into_kernel);  // exactly-one-tap delivery
    EXPECT_EQ(delivered_total, run.generated());
}

// ---- the obs layer keeps the drop identity closed under fanout ---------------

TEST(MultiQueueObs, DropIdentityStaysClosedPerAppWithFanout) {
    SutConfig sut = swan_queues(4);
    sut.app_count = 2;
    sut.fanout = capture::FanoutMode::kCluster;

    RunConfig cfg;
    cfg.packets = 6'000;
    cfg.rate_mbps = 400.0;
    cfg.flow_count = 64;
    cfg.collect_metrics = true;
    const auto result = run_once({std::move(sut)}, cfg);

    ASSERT_TRUE(result.metrics.enabled);
    ASSERT_EQ(result.metrics.suts.size(), 1u);
    std::uint64_t fanout_total = 0;
    for (const auto& app : result.metrics.suts[0].apps) {
        EXPECT_EQ(app.delivered + app.drops_total(), result.metrics.generated);
        fanout_total += app.drop_fanout;
    }
    // Cluster fanout with two apps: each packet skipped exactly one tap.
    EXPECT_GT(fanout_total, 0u);
}

TEST(MultiQueueObs, PerQueueNicCountersAppearInTheRegistry) {
    SutConfig sut = swan_queues(4);

    RunConfig cfg;
    cfg.packets = 6'000;
    cfg.rate_mbps = 300.0;
    cfg.flow_count = 64;
    cfg.collect_metrics = true;
    const auto result = run_once({std::move(sut)}, cfg);

    ASSERT_TRUE(result.metrics.enabled);
    std::uint64_t frames_total = 0;
    int frame_counters = 0;
    for (const auto& [name, value] : result.metrics.counters) {
        if (name.rfind("capture.swan.q", 0) != 0) continue;
        if (name.find(".frames") != std::string::npos) {
            ++frame_counters;
            frames_total += value;
        }
    }
    EXPECT_EQ(frame_counters, 4);
    EXPECT_EQ(frames_total, result.metrics.generated);
}

// ---- the ext_multiqueue scenario through its JSON document ------------------

// The sim is deterministic, so these are exact expectations, with wide
// margins only to keep the check robust against future model tuning:
// capture rate must scale with the queue count at overload, and the
// skewed indirection table must cost a measurable share of that scaling.
TEST(MultiQueueScenario, CaptureScalesWithQueuesAndSkewCostsIt) {
    const scenario::Scenario* s = scenario::find_scenario("ext_multiqueue");
    ASSERT_NE(s, nullptr);
    scenario::RunOptions opts;
    opts.jobs = 4;
    opts.packets = 4'000;
    opts.reps = 1;
    opts.gnuplot_env_fallback = false;
    const auto doc = report::parse_json(report::JsonWriter::serialize(
        report::JsonWriter::document(scenario::run_scenario(*s, opts))));
    EXPECT_EQ(doc.at("id").as_string(), "ext_multiqueue");
    EXPECT_EQ(doc.at("x_label").as_string(), "queues");
    std::map<std::string, const report::JsonValue*> variants;
    for (const auto& v : doc.at("variants").as_array()) variants[v.at("suffix").as_string()] = &v;
    for (const char* suffix : {"-10g", "-40g", "-skew", "-qfan", "-cfan"})
        ASSERT_EQ(variants.count(suffix), 1u) << suffix;

    const auto swan_capture = [](const report::JsonValue& variant, double x) {
        for (const auto& point : variant.at("points").as_array()) {
            if (point.at("x").as_double() != x) continue;
            for (const auto& sut : point.at("suts").as_array()) {
                if (sut.at("name").as_string() == "swan")
                    return sut.at("capture_avg_pct").as_double();
            }
        }
        ADD_FAILURE() << "no swan result at x=" << x;
        return 0.0;
    };
    for (const char* suffix : {"-10g", "-40g"}) {
        const report::JsonValue& v = *variants[suffix];
        std::vector<double> xs;
        for (const auto& point : v.at("points").as_array()) xs.push_back(point.at("x").as_double());
        EXPECT_EQ(xs, (std::vector<double>{1.0, 2.0, 4.0, 8.0})) << suffix;
        const double r1 = swan_capture(v, 1.0);
        const double r2 = swan_capture(v, 2.0);
        const double r4 = swan_capture(v, 4.0);
        EXPECT_GT(r2, r1 + 10) << suffix;
        EXPECT_GT(r4, r2 + 10) << suffix;
    }
    const double balanced4 = swan_capture(*variants["-10g"], 4.0);
    const double skewed4 = swan_capture(*variants["-skew"], 4.0);
    EXPECT_LT(skewed4, balanced4 - 20);

    // Fanout variants split the stream over 4 apps: the per-app rates
    // exist and every drop field is present per SUT.
    for (const char* suffix : {"-qfan", "-cfan"}) {
        for (const auto& point : variants[suffix]->at("points").as_array()) {
            for (const auto& sut : point.at("suts").as_array()) {
                EXPECT_EQ(sut.at("per_app_capture_pct").as_array().size(), 4u) << suffix;
                for (const char* key : {"nic_ring_drops", "backlog_drops", "buffer_drops"})
                    EXPECT_NE(sut.find(key), nullptr) << suffix << " " << key;
            }
        }
    }
}

}  // namespace
}  // namespace capbench::harness
