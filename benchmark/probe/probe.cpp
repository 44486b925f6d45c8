// capbench_probe: the measuring half of the repository benchmark (run.py
// is the other half).  It drives the simulator only through its public
// API and prints one JSON document on stdout.
//
//   capbench_probe setup  --workload W --seed N
//       builds and starts every sweep point's Testbed once (cold process)
//   capbench_probe verify --workload W --seed N
//       runs every point with metrics on; simulated outputs + drop ledger
//   capbench_probe run    --workload W --seed N --seconds S
//       repeats the whole workload untraced for S seconds (closed loop),
//       timing a fixed reference kernel between passes
//   capbench_probe trace  --workload W --seed N --seconds S
//       per-layer spans and counters (see README.md)
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/filter/codegen.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/program_cache.hpp"
#include "capbench/bpf/threaded_vm.hpp"
#include "capbench/bpf/verifier.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/capture/rss.hpp"
#include "capbench/harness/testbed.hpp"
#include "capbench/load/disk_writer.hpp"
#include "capbench/net/link.hpp"
#include "capbench/net/switch.hpp"
#include "capbench/obs/metrics.hpp"
#include "capbench/pcap/file.hpp"
#include "capbench/report/json.hpp"
#include "capbench/report/writer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

// Global operator-new count, read around the phases that report heap
// allocations.  The probe runs one sweep worker, but the counter is atomic
// so a threaded caller could not make it racy.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace bpf = capbench::bpf;
namespace harness = capbench::harness;
namespace net = capbench::net;
namespace sim = capbench::sim;
using probe::Point;
using probe::Tracer;
using probe::Workload;

// ---- minimal JSON output --------------------------------------------------

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(std::int64_t v) { return std::to_string(v); }

class Obj {
public:
    Obj& raw(const std::string& key, const std::string& json) {
        if (!body_.empty()) body_ += ',';
        body_ += quote(key) + ':' + json;
        return *this;
    }
    Obj& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
    template <typename T>
    Obj& num(const std::string& key, T v) {
        return raw(key, ::num(v));
    }
    [[nodiscard]] std::string json() const { return '{' + body_ + '}'; }

private:
    std::string body_;
};

std::string array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) out += (i != 0 ? "," : "") + items[i];
    return out + "]";
}

// ---- simulated outputs ----------------------------------------------------

// Every simulated output the benchmark checks for one point.  Equal
// strings <=> equal outputs (doubles print with 17 significant digits).
std::string outputs_json(const std::string& variant, double x, const harness::RunResult& r) {
    std::vector<std::string> suts;
    for (const auto& s : r.suts) {
        std::vector<std::string> pct;
        for (const double v : s.per_app_capture_pct) pct.push_back(num(v));
        suts.push_back(Obj{}
                           .str("name", s.name)
                           .raw("capture_pct", array(pct))
                           .num("cpu_pct", s.cpu_pct)
                           .num("nic_ring_drops", s.nic_ring_drops)
                           .num("backlog_drops", s.backlog_drops)
                           .num("buffer_drops", s.buffer_drops)
                           .json());
    }
    return Obj{}
        .str("variant", variant)
        .num("x", x)
        .num("generated", r.generated)
        .num("offered_mbps", r.offered_mbps)
        .raw("suts", array(suts))
        .json();
}

// Per-app delivered + drop buckets from the lifecycle metrics.
std::string ledger_json(const capbench::obs::RunMetrics& m) {
    std::vector<std::string> apps;
    for (const auto& s : m.suts) {
        for (std::size_t a = 0; a < s.apps.size(); ++a) {
            Obj drops;
            for (const auto& site : capbench::obs::kDropSites)
                drops.num(site.name, s.apps[a].*site.member);
            apps.push_back(Obj{}
                               .str("sut", s.name)
                               .num("app", static_cast<std::uint64_t>(a))
                               .num("delivered", s.apps[a].delivered)
                               .raw("drops", drops.json())
                               .json());
        }
    }
    return Obj{}.num("generated", m.generated).raw("apps", array(apps)).json();
}

std::uint64_t arrivals(const harness::RunResult& r) {
    return r.generated * static_cast<std::uint64_t>(r.suts.size());
}

// ---- provenance -----------------------------------------------------------

std::string provenance(const Workload& w, std::uint64_t seed) {
    const bpf::ExecTier tier = bpf::effective_tier(bpf::exec_tier(), bpf::JitProgram::supported());
    const char* tier_name = tier == bpf::ExecTier::kJit           ? "jit"
                            : tier == bpf::ExecTier::kInterpreter ? "interpreter"
                                                                  : "threaded";
    return Obj{}
        .str("workload", w.name)
        .num("seed", seed)
        .num("packets_per_point", w.packets)
        .str("compiler", PROBE_COMPILER)
        .str("cxx_flags", PROBE_CXX_FLAGS)
        .str("build_type", PROBE_BUILD_TYPE)
        .num("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .str("event_queue", sim::to_string(sim::event_queue_backend_from_env()))
        .str("bpf_tier", tier_name)
        .num("jobs", static_cast<std::uint64_t>(1))
        .json();
}

std::uint64_t peak_rss_kb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// ---- reference kernel ------------------------------------------------------

// A fixed mix of the kinds of work the simulator does, in the benchmark's
// own code so that no change to the simulator moves it: eight independent
// multiply-shift chains (execution throughput), data-dependent branches
// over a 512 KiB table (L2, branch prediction) and a binary-heap event loop
// (the shape of an event queue).  On a shared host a busy sibling
// hyperthread, a lower turbo clock or a neighbour's cache traffic slows it
// and the simulator alike, so every timed phase is paired with one run of
// it and run.py rescales the phase by it (see README.md).
class ReferenceKernel {
public:
    ReferenceKernel() : table_(kTableSize), state_(kStateSize) {
        std::uint64_t x = 1;
        for (auto& v : table_) v = static_cast<std::uint32_t>(x = mix(x + 1));
        heap_.resize(kEvents);  // touch the pages before anything is timed
    }

    /// Host ns of one run; the work is identical every time.
    std::int64_t run_ns() {
        const std::int64_t t0 = probe::now_ns();
        sink_ = chains() ^ branches() ^ events();
        return probe::now_ns() - t0;
    }

private:
    static constexpr std::size_t kTableSize = 1u << 17;  // 512 KiB of u32
    static constexpr std::size_t kStateSize = 1u << 15;  // 256 KiB of u64
    static constexpr std::uint32_t kEvents = 8192;

    static std::uint64_t mix(std::uint64_t x) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        return x ^ (x >> 33);
    }

    static std::uint64_t chains() {
        std::uint64_t c[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        for (std::uint64_t i = 0; i < 1'500'000; ++i)
            for (auto& v : c) v = mix(v + i);
        return c[0] ^ c[1] ^ c[2] ^ c[3] ^ c[4] ^ c[5] ^ c[6] ^ c[7];
    }

    std::uint64_t branches() const {
        std::uint64_t x = 1, acc = 0;
        for (std::uint64_t i = 0; i < 1'000'000; ++i) {
            const std::uint32_t v = table_[x & (kTableSize - 1)];
            if (v & 1) {
                acc += v;
                x = x * 3 + v;
            } else if (v & 2) {
                acc ^= v;
                x += v >> 3;
            } else {
                x ^= v;
                --acc;
            }
            x += i;
        }
        return acc + x;
    }

    std::uint64_t events() {
        using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, id)
        constexpr auto later = std::greater<Event>{};
        std::fill(state_.begin(), state_.end(), 0);
        std::uint64_t r = 1;
        for (std::uint32_t i = 0; i < kEvents; ++i) heap_[i] = {(r = mix(r + i)) & 0xffff, i};
        std::make_heap(heap_.begin(), heap_.end(), later);
        for (int i = 0; i < 200'000; ++i) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            Event& e = heap_.back();
            std::uint64_t h = mix(e.first ^ e.second);
            state_[h & (kStateSize - 1)] += e.first;
            if (state_[(h >> 20) & (kStateSize - 1)] & 1) h += 3;
            e.first += h & 0xfff;
            std::push_heap(heap_.begin(), heap_.end(), later);
        }
        return heap_.front().first;
    }

    std::vector<std::uint32_t> table_;
    std::vector<std::uint64_t> state_;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
    volatile std::uint64_t sink_ = 0;
};

// Keeps the timed passes and their reference kernels on one core.
void pin_to_current_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort: unpinned still measures
}

// ---- modes ----------------------------------------------------------------

std::string mode_setup(const Workload& w, std::uint64_t seed) {
    std::int64_t total = 0;
    for (const Point& p : w.points(seed)) {
        const std::int64_t t0 = probe::now_ns();
        harness::Testbed bed{probe::testbed_config(p)};
        bed.start_suts();
        total += probe::now_ns() - t0;
    }
    // After the cold builds, so the kernel cannot warm anything they use.
    ReferenceKernel ref;
    return Obj{}.num("setup_ns", total).num("ref_ns", ref.run_ns()).json();
}

std::string mode_verify(const Workload& w, std::uint64_t seed) {
    std::vector<std::string> points;
    for (const Point& p : w.points(seed)) {
        harness::RunConfig cfg = p.config;
        cfg.collect_metrics = true;
        try {
            const harness::RunResult r = harness::run_once(p.suts, cfg);
            points.push_back(Obj{}
                                 .raw("outputs", outputs_json(p.variant, p.x, r))
                                 .raw("ledger", ledger_json(r.metrics))
                                 .json());
        } catch (const std::exception& e) {
            points.push_back(Obj{}
                                 .str("variant", p.variant)
                                 .num("x", p.x)
                                 .str("error", e.what())
                                 .json());
        }
    }
    return Obj{}.raw("points", array(points)).json();
}

struct Rep {
    std::int64_t sim_ns = 0;
    std::int64_t render_ns = 0;
    capbench::scenario::ScenarioResult result;
};

// One closed-loop pass over the workload: every point through run_scenario,
// then the figures JSON document rendered to text.
Rep run_workload(const Workload& w, std::uint64_t seed, bool metrics, Tracer& tracer) {
    namespace report = capbench::report;
    Rep rep;
    const std::int64_t t0 = probe::now_ns();
    {
        Tracer::Scope span(tracer, "scenario.run");
        rep.result = capbench::scenario::run_scenario(w.scenario, w.options(seed, metrics));
    }
    const std::int64_t t1 = probe::now_ns();
    std::size_t text_bytes = 0;
    {
        Tracer::Scope span(tracer, "report.render");
        text_bytes = report::JsonWriter::serialize(report::JsonWriter::document(rep.result)).size();
    }
    rep.render_ns = probe::now_ns() - t1;
    rep.sim_ns = t1 - t0;
    if (text_bytes == 0) throw std::logic_error("empty figures document");
    return rep;
}

std::vector<std::string> point_outputs(const capbench::scenario::ScenarioResult& res) {
    std::vector<std::string> out;
    for (const auto& v : res.variants)
        for (const auto& p : v.points) out.push_back(outputs_json(v.suffix, p.x, p.result));
    return out;
}

std::uint64_t total_arrivals(const capbench::scenario::ScenarioResult& res) {
    std::uint64_t n = 0;
    for (const auto& v : res.variants)
        for (const auto& p : v.points) n += arrivals(p.result);
    return n;
}

std::uint64_t total_events(const capbench::scenario::ScenarioResult& res) {
    std::uint64_t n = 0;
    for (const auto& v : res.variants)
        for (const auto& p : v.points) n += p.result.events_executed;
    return n;
}

constexpr int kMinReps = 3;

std::string mode_run(const Workload& w, std::uint64_t seed, double seconds) {
    const std::int64_t deadline = probe::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    Tracer tracer;  // unused spans; the passes are timed directly
    std::vector<std::string> reps;
    std::vector<std::string> first;
    std::vector<bool> unstable;  // points whose outputs changed between passes
    std::uint64_t arrivals_per_rep = 0;
    pin_to_current_cpu();
    ReferenceKernel ref;
    std::int64_t ref_before = ref.run_ns();
    while (static_cast<int>(reps.size()) < kMinReps || probe::now_ns() < deadline) {
        const Rep rep = run_workload(w, seed, /*metrics=*/false, tracer);
        const std::int64_t ref_after = ref.run_ns();
        const auto outputs = point_outputs(rep.result);
        if (first.empty()) {
            first = outputs;
            unstable.assign(first.size(), false);
            arrivals_per_rep = total_arrivals(rep.result);
        }
        for (std::size_t i = 0; i < first.size(); ++i)
            if (i >= outputs.size() || outputs[i] != first[i]) unstable[i] = true;
        reps.push_back(Obj{}
                           .num("sim_ns", rep.sim_ns)
                           .num("render_ns", rep.render_ns)
                           .num("ref_ns", (ref_before + ref_after) / 2)
                           .json());
        ref_before = ref_after;
    }
    std::vector<std::string> unstable_json;
    for (const bool u : unstable) unstable_json.push_back(u ? "true" : "false");
    return Obj{}
        .raw("reps", array(reps))
        .num("arrivals", arrivals_per_rep)
        .raw("outputs", array(first))
        .raw("unstable", array(unstable_json))
        .num("peak_rss_kb", peak_rss_kb())
        .json();
}

// ---- trace mode: per-layer replays ----------------------------------------

// Counts (and optionally keeps) the frames a generator-only replay delivers.
class CountingSink final : public net::FrameSink {
public:
    explicit CountingSink(std::size_t keep = 0) : keep_(keep) {}
    void on_frame(const net::PacketPtr& packet) override {
        ++frames_;
        if (kept_.size() < keep_) kept_.push_back(packet);
    }
    [[nodiscard]] std::uint64_t frames() const { return frames_; }
    [[nodiscard]] const std::vector<net::PacketPtr>& kept() const { return kept_; }

private:
    std::size_t keep_;
    std::uint64_t frames_ = 0;
    std::vector<net::PacketPtr> kept_;
};

struct Replay {
    std::uint64_t generated = 0;
    net::PacketArena::Stats arena;
    std::vector<net::PacketPtr> kept;  // first `keep` frames of sink 0
    std::vector<net::FlowTuple> flows; // every flow tuple of the workload
};

// Generator -> Link -> MonitorSwitch -> Splitter -> `sinks` counting sinks:
// the point's traffic with no SUT behind the splitter.
Replay replay_generator(const Point& p, int sinks, std::size_t keep) {
    harness::TestbedConfig tb = probe::testbed_config(p);
    tb.gen.link_gbps = tb.link_gbps;
    sim::Simulator simulator(tb.event_queue);
    net::Link link(simulator, tb.link_gbps);
    net::MonitorSwitch sw;
    net::Splitter splitter;
    auto arena = net::PacketArena::create();
    capbench::pktgen::Generator gen(simulator, link, tb.gen_nic, tb.gen, arena);
    link.attach(sw);
    sw.attach_monitor(splitter);
    std::vector<std::unique_ptr<CountingSink>> outs;
    for (int i = 0; i < sinks; ++i) {
        outs.push_back(std::make_unique<CountingSink>(i == 0 ? keep : 0));
        splitter.attach(*outs.back());
    }
    gen.start(sim::SimTime{} + p.config.warmup);
    simulator.run();
    Replay r;
    r.generated = gen.stats().packets_sent;
    r.arena = arena->stats();
    for (const auto& out : outs)
        if (out->frames() != r.generated) throw std::logic_error("replay sink lost frames");
    r.kept = outs.front()->kept();
    for (std::uint32_t f = 0; f < std::max<std::uint32_t>(1, tb.gen.flow_count); ++f)
        r.flows.push_back(gen.flow_for(f));
    return r;
}

// A streambuf that counts and discards: the writer replay's null sink.
class NullBuf final : public std::streambuf {
public:
    [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

protected:
    int overflow(int c) override {
        ++bytes_;
        return c == traits_type::eof() ? 0 : c;
    }
    std::streamsize xsputn(const char*, std::streamsize n) override {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

private:
    std::uint64_t bytes_ = 0;
};

using Counters = std::map<std::string, std::uint64_t>;

// Cold, then warm, Testbed construction of every point, with the
// operator-new count of each round.
void trace_testbed_builds(const std::vector<Point>& points, Tracer& tracer, Counters& counters) {
    for (const char* phase : {"harness.testbed_build", "harness.testbed_build.warm"}) {
        const std::uint64_t a0 = g_allocs.load();
        for (const Point& p : points) {
            std::unique_ptr<harness::Testbed> bed;  // destroyed outside the span
            Tracer::Scope span(tracer, phase);
            bed = std::make_unique<harness::Testbed>(probe::testbed_config(p));
            bed->start_suts();
        }
        counters[std::string(phase) + ".allocs"] = g_allocs.load() - a0;
    }
}

// Untraced and traced passes over the whole workload, alternated so host
// drift hits both alike, until `deadline`.  Returns the last traced pass.
capbench::scenario::ScenarioResult trace_passes(const Workload& w, std::uint64_t seed,
                                                std::int64_t deadline, Tracer& tracer,
                                                Counters& counters) {
    capbench::scenario::ScenarioResult traced;
    do {
        for (const bool metrics : {false, true}) {
            Tracer::Scope span(tracer, metrics ? "workload.traced" : "workload.untraced");
            const std::uint64_t a0 = g_allocs.load();
            Rep rep = run_workload(w, seed, metrics, tracer);
            span.set_units(total_arrivals(rep.result));
            if (metrics) {
                traced = std::move(rep.result);
            } else if (counters.count("run.allocs") == 0) {
                counters["run.allocs"] = g_allocs.load() - a0;
                counters["arrivals"] = total_arrivals(rep.result);
                counters["events"] = total_events(rep.result);
                for (const auto& v : rep.result.variants)
                    for (const auto& pt : v.points) counters["generated"] += pt.result.generated;
            }
        }
        ++counters["passes"];
    } while (probe::now_ns() < deadline);
    return traced;
}

// Scheduler registry counters and the per-app drop ledger of a traced
// pass, summed over every point, SUT and app.
void count_traced(const capbench::scenario::ScenarioResult& traced, Counters& counters) {
    static const std::vector<std::string> suffixes{".sched.kernel_items", ".sched.dispatches",
                                                   ".sched.wakeups", ".sched.migrations",
                                                   ".disk_spills"};
    for (const auto& v : traced.variants) {
        for (const auto& pt : v.points) {
            const auto& m = pt.result.metrics;
            for (const auto& [name, value] : m.counters)
                for (const auto& suffix : suffixes)
                    if (name.size() > suffix.size() && name.ends_with(suffix))
                        counters[suffix.substr(1)] += value;
            for (const auto& s : m.suts) {
                for (const auto& app : s.apps) {
                    counters["ledger.opportunities"] += m.generated;
                    counters["ledger.delivered"] += app.delivered;
                    for (const auto& site : capbench::obs::kDropSites)
                        counters[std::string("ledger.drop.") + site.name] += app.*site.member;
                }
            }
        }
    }
}

// Each SUT of the point alone, then the generator alone with one sink
// ("pktgen.replay.1sink", subtracted from each capture.alone.<sut>) and
// with one sink per SUT ("pktgen.replay").
void trace_alone_and_replays(const Point& p, Tracer& tracer, Counters& counters) {
    constexpr int kReplays = 3;
    for (int i = 0; i < kReplays; ++i) {
        for (const auto& sut : p.suts) {
            Tracer::Scope span(tracer, "capture.alone." + sut.name);
            span.set_units(harness::run_once({sut}, p.config).generated);
        }
        for (const bool per_sut : {false, true}) {
            const int sinks = per_sut ? static_cast<int>(p.suts.size()) : 1;
            Tracer::Scope span(tracer, per_sut ? "pktgen.replay" : "pktgen.replay.1sink");
            const Replay r = replay_generator(p, sinks, 0);
            span.set_units(r.generated);
            if (per_sut) {
                counters["arena.reuses"] = r.arena.node_reuses + r.arena.payload_reuses;
                counters["arena.requests"] = r.arena.node_allocs + r.arena.node_reuses +
                                             r.arena.payload_allocs + r.arena.payload_reuses;
            }
        }
    }
}

// Attach cost (compile -> verify -> decode [-> jit]) and the default
// tier's run over the point's own frames.
void trace_bpf(const Point& p, const Replay& frames, Tracer& tracer, Counters& counters) {
    const auto cache = bpf::cache_stats();  // the installs of the workload passes
    counters["bpf.cache_lookups"] = cache.lookups;
    counters["bpf.cache_hits"] = cache.hits;
    const std::string& expr = p.suts.front().filter_expression;
    const std::uint32_t snaplen = p.suts.front().snaplen;
    if (expr.empty() || !p.config.full_bytes) return;
    const bpf::ExecTier tier = bpf::effective_tier(bpf::exec_tier(), bpf::JitProgram::supported());
    bpf::Program prog;
    std::shared_ptr<const bpf::DecodedProgram> decoded;
    std::shared_ptr<const bpf::JitProgram> jit;
    for (int i = 0; i < 20; ++i) {
        Tracer::Scope attach(tracer, "bpf.attach");
        {
            Tracer::Scope s(tracer, "bpf.compile");
            prog = bpf::filter::compile_filter(expr, snaplen);
        }
        bpf::VerifyResult vr;
        {
            Tracer::Scope s(tracer, "bpf.verify");
            vr = bpf::verify(prog);
        }
        if (!vr.ok()) throw std::runtime_error("benchmark filter rejected by the verifier");
        {
            Tracer::Scope s(tracer, "bpf.decode");
            decoded = std::make_shared<const bpf::DecodedProgram>(bpf::decode(prog, vr.facts));
        }
        if (tier == bpf::ExecTier::kJit) {
            Tracer::Scope s(tracer, "bpf.jit");
            jit = bpf::JitProgram::compile(*decoded);
        }
    }
    std::uint64_t runs = 0;
    std::uint64_t insns = 0;
    std::uint64_t accepted = 0;
    {
        Tracer::Scope span(tracer, "bpf.run");
        for (int pass = 0; pass < 100; ++pass) {
            for (const auto& pkt : frames.kept) {
                const auto data = pkt->bytes();
                const auto bytes = data.first(std::min<std::size_t>(data.size(), snaplen));
                const bpf::VmResult r =
                    tier == bpf::ExecTier::kJit ? jit->run(bytes, pkt->frame_len())
                    : tier == bpf::ExecTier::kInterpreter
                        ? bpf::Vm::run(prog, bytes, pkt->frame_len())
                        : bpf::ThreadedVm::run(*decoded, bytes, pkt->frame_len());
                ++runs;
                insns += r.insns_executed;
                accepted += r.accept_len != 0 ? 1 : 0;
            }
        }
        span.set_units(runs);
    }
    counters["bpf.runs"] = runs;
    counters["bpf.insns"] = insns;
    counters["bpf.accepted"] = accepted;
}

// Toeplitz over every flow tuple the workload's generator stamps.
void trace_rss(const Replay& frames, Tracer& tracer, Counters& counters) {
    const auto& key = capbench::capture::rss::microsoft_key();
    const std::size_t passes = std::max<std::size_t>(1, 1'000'000 / frames.flows.size());
    std::uint32_t mix = 0;
    Tracer::Scope span(tracer, "capture.rss_hash");
    for (std::size_t pass = 0; pass < passes; ++pass)
        for (const auto& f : frames.flows)
            mix ^= capbench::capture::rss::hash_ipv4_ports(key, f.src_ip, f.dst_ip, f.src_port,
                                                           f.dst_port);
    span.set_units(passes * frames.flows.size());
    counters["rss.hash_checksum"] = mix;  // keeps the hashing observable
}

// The point's record stream through a BringRing and a pcap FileWriter into
// a counting null sink.
void trace_writer(const Point& p, const Replay& frames, Tracer& tracer, Counters& counters) {
    const auto& sut = p.suts.front();
    if (!sut.disk_writer.enabled || sut.app_load.disk_bytes_per_packet == 0) return;
    NullBuf buf;
    std::ostream out(&buf);
    capbench::pcap::FileWriter writer(out, sut.snaplen);
    capbench::load::BringRing ring(sut.disk_writer.ring_slots);
    const auto drain = [&] {
        while (!ring.empty()) {
            const auto rec = ring.pop();
            writer.write(*rec.packet, rec.caplen, rec.timestamp);
        }
    };
    std::uint64_t records = 0;
    Tracer::Scope span(tracer, "load.writer");
    for (int pass = 0; pass < 50; ++pass) {
        for (const auto& pkt : frames.kept) {
            if (ring.full()) drain();
            const std::uint32_t caplen = std::min(sut.snaplen, pkt->frame_len());
            ring.push(capbench::load::RecordRef{
                pkt, caplen, std::min(caplen, sut.app_load.disk_bytes_per_packet),
                pkt->sent_at()});
            ++records;
        }
    }
    drain();
    span.set_units(records);
    counters["load.records"] = records;
    counters["load.bytes"] = buf.bytes();
}

std::string mode_trace(const Workload& w, std::uint64_t seed, double seconds) {
    const std::int64_t deadline = probe::now_ns() + static_cast<std::int64_t>(seconds * 0.8e9);
    Tracer tracer;
    Counters counters;
    const std::vector<Point> points = w.points(seed);
    const Point& designated = points.back();  // highest rate of the last variant

    trace_testbed_builds(points, tracer, counters);
    count_traced(trace_passes(w, seed, deadline, tracer, counters), counters);
    trace_alone_and_replays(designated, tracer, counters);
    const Replay frames = replay_generator(designated, 1, 4096);
    trace_bpf(designated, frames, tracer, counters);
    trace_rss(frames, tracer, counters);
    trace_writer(designated, frames, tracer, counters);

    std::vector<std::string> spans;
    for (const auto& s : tracer.spans())
        spans.push_back(Obj{}
                            .str("name", s.name)
                            .num("start_ns", s.start_ns)
                            .num("end_ns", s.end_ns)
                            .num("parent", static_cast<std::int64_t>(s.parent))
                            .num("units", s.units)
                            .json());
    Obj cnt;
    for (const auto& [k, v] : counters) cnt.num(k, v);
    return Obj{}
        .raw("spans", array(spans))
        .raw("counters", cnt.json())
        .num("peak_rss_kb", peak_rss_kb())
        .json();
}

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "capbench_probe: " << why
              << "\nusage: capbench_probe setup|verify|run|trace --workload W --seed N"
                 " [--seconds S]\n";
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    // The parent and the change must run one program configuration.
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "CAPBENCH_", 9) == 0) {
            std::cerr << "capbench_probe: refusing to run with " << *e
                      << " set; the benchmark pins every CAPBENCH_* knob to its default\n";
            return 2;
        }
    }
    if (argc < 2) usage("missing mode");
    const std::string mode = argv[1];
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") workload = value;
            else if (flag == "--seed") seed = std::stoull(value);
            else if (flag == "--seconds") seconds = std::stod(value);
            else usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag);
        }
    }
    if (workload.empty() || seed == 0) usage("--workload and a positive --seed are required");
    try {
        const Workload& w = probe::find_workload(workload);
        std::string body;
        if (mode == "setup") body = mode_setup(w, seed);
        else if (mode == "verify") body = mode_verify(w, seed);
        else if (mode == "run") body = mode_run(w, seed, seconds);
        else if (mode == "trace") body = mode_trace(w, seed, seconds);
        else usage("unknown mode " + mode);
        std::cout << Obj{}.raw("provenance", provenance(w, seed)).raw(mode, body).json() << '\n';
    } catch (const std::exception& e) {
        std::cerr << "capbench_probe: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
