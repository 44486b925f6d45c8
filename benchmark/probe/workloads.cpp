#include "workloads.hpp"

#include <stdexcept>

#include "capbench/dist/builtin.hpp"
#include "capbench/scenario/registry.hpp"

namespace probe {

namespace harness = capbench::harness;
namespace scenario = capbench::scenario;

namespace {

Workload baseline_sweep() {
    const scenario::Scenario* fig = scenario::find_scenario("fig_6_2");
    if (fig == nullptr) throw std::logic_error("registry has no fig_6_2");
    Workload w{"baseline_sweep", *fig, 20'000};
    w.scenario.preamble = nullptr;
    return w;
}

// The four standard SUTs with increased buffers, 4 apps each running the
// Figure 6.5 filter on full frame bytes.
Workload filter_4app() {
    scenario::Scenario s;
    s.id = "bench_filter_4app";
    s.caption = "4 apps x Fig 6.5 filter, increased buffers, full frame bytes";
    s.sweep = {500, 950};
    s.multi_app = true;
    s.variants = {scenario::Variant{
        "", "",
        [] {
            auto suts = harness::standard_suts();
            harness::apply_increased_buffers(suts);
            for (auto& sut : suts) {
                sut.app_count = 4;
                sut.filter_expression = harness::fig_6_5_filter_expression();
            }
            return suts;
        },
        [](harness::RunConfig& cfg) { cfg.full_bytes = true; }}};
    return Workload{"filter_4app", std::move(s), 100'000};
}

// swan and moorhen with 4 cores and 4 RSS queues on a 10 Gbit link; cluster
// fanout over 4 apps that write 76-byte headers through the async disk
// writer (block policy).  One rate stays below the disk's sustained write
// rate, the other outruns it.
Workload mq_disk_10g() {
    scenario::Scenario s;
    s.id = "bench_mq_disk_10g";
    s.caption = "4 RSS queues, cluster fanout to 4 disk-writing apps, 10 Gbit/s link";
    s.sweep = {1500, 6000};
    s.multi_app = true;
    s.variants = {scenario::Variant{
        "", "",
        [] {
            std::vector<harness::SutConfig> suts{harness::standard_sut("swan"),
                                                 harness::standard_sut("moorhen")};
            harness::apply_increased_buffers(suts);
            for (auto& sut : suts) {
                sut.cores = 4;
                sut.nic.queues = 4;
                sut.app_count = 4;
                sut.fanout = capbench::capture::FanoutMode::kCluster;
                sut.app_load.disk_bytes_per_packet = 76;
                sut.disk_writer.enabled = true;
                sut.disk_writer.spill = capbench::load::SpillPolicy::kBlock;
            }
            return suts;
        },
        [](harness::RunConfig& cfg) {
            cfg.link_gbps = 10.0;
            cfg.flow_count = 4096;
        }}};
    return Workload{"mq_disk_10g", std::move(s), 200'000};
}

}  // namespace

scenario::RunOptions Workload::options(std::uint64_t seed, bool metrics) const {
    scenario::RunOptions opts;
    opts.jobs = 1;
    opts.out = nullptr;
    opts.gnuplot_env_fallback = false;
    opts.packets = packets;
    opts.reps = 1;
    opts.seed = seed;
    opts.metrics = metrics;
    return opts;
}

std::vector<Point> Workload::points(std::uint64_t seed) const {
    if (scenario.axis != scenario::Axis::kRateMbps)
        throw std::logic_error("benchmark workloads sweep the data rate");
    std::vector<Point> out;
    for (const auto& v : scenario.variants) {
        // Mirrors run_scenario: per-variant base config, then the rate.
        harness::RunConfig base;
        base.packets = packets;
        base.seed = seed;
        if (v.tweak) v.tweak(base);
        const auto suts = v.suts();
        for (const double x : scenario.sweep) {
            Point p{v.suffix, x, suts, base};
            p.config.rate_mbps = x;
            out.push_back(std::move(p));
        }
    }
    return out;
}

const Workload& find_workload(const std::string& name) {
    static const std::vector<Workload> all{baseline_sweep(), filter_4app(), mq_disk_10g()};
    for (const auto& w : all)
        if (w.name == name) return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

harness::TestbedConfig testbed_config(const Point& p) {
    // The same generator/link/SUT assembly as harness::run_once.
    const harness::RunConfig& c = p.config;
    harness::TestbedConfig tb;
    tb.suts = p.suts;
    tb.gen.count = c.packets;
    tb.gen.rate_mbps = c.rate_mbps;
    tb.gen.seed = c.seed;
    tb.gen.full_bytes = c.full_bytes;
    tb.gen.flow_count = c.flow_count;
    if (c.use_mwn_dist) {
        tb.gen.size_dist.emplace(capbench::dist::mwn_trace_histogram());
        tb.gen.use_dist = true;
    } else {
        tb.gen.packet_size = c.fixed_size;
        tb.gen.use_dist = false;
    }
    tb.link_gbps = c.link_gbps;
    tb.distribute_round_robin = c.distribute_round_robin;
    tb.event_queue = c.event_queue;
    return tb;
}

}  // namespace probe
