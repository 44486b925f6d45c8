// Per-run observability results (ISSUE 5 tentpole, parts 1 + 3).
//
// `RunMetrics` is what a measurement run hands back when
// `RunConfig::collect_metrics` is set: per-SUT/per-app drop attribution,
// packet-lifecycle latency sample sets, CPU usage samples and the counter
// registry snapshot.  The drop taxonomy is closed — every generated packet
// lands in exactly one bucket, so for each app
//
//     generated == delivered + nic_ring + backlog + verdict + bpf_store
//                  + fanout + disk_spill + drain
//
// holds as an exact integer identity (`drain` is the residual still in
// flight — NIC ring, uncommitted verdicts or capture buffers — when the
// measurement window closes; `disk_spill` counts records the capture-to-
// disk writer ring rejected after delivery, so they are not in
// `delivered`).
#pragma once

#include "capbench/profiling/cpusage.hpp"
#include "capbench/sim/stats.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace capbench::capture {
class Nic;
struct CaptureStats;
}

namespace capbench::obs {

/// One app's packet fates: what reached the application plus one cell
/// per drop bucket of the closed taxonomy above.  Built from the raw
/// counters only by app_ledger() below, which the observer's snapshot,
/// the interval sampler and the measurement's stop-time capture rates
/// all call, so every consumer reads the same cells.
struct DropLedger {
    std::uint64_t delivered = 0;

    // Drop attribution.  `nic_ring` and `backlog` happen before the
    // per-app fan-out and are mirrored into every app of the SUT.
    std::uint64_t drop_nic_ring = 0;
    std::uint64_t drop_backlog = 0;
    std::uint64_t drop_verdict = 0;    // rejected by the BPF filter
    std::uint64_t drop_bpf_store = 0;  // capture buffer full / too small
    std::uint64_t drop_fanout = 0;     // routed to another app by the fanout group
    std::uint64_t drop_disk_spill = 0; // spilled by the disk-writer ring
    std::uint64_t drop_drain = 0;      // still in flight at window close

    [[nodiscard]] std::uint64_t drops_total() const;
};

/// One capture app (session) on one SUT: its ledger plus latencies.
struct AppMetrics : DropLedger {
    // Lifecycle latencies, in sim nanoseconds.
    sim::SampleSet latency_ns;  // NIC arrival -> user delivery
    sim::SampleSet enqueue_ns;  // kernel hand-off -> capture-stack enqueue
    sim::SampleSet deliver_ns;  // enqueue -> user delivery
};

/// Where a drop bucket is counted.
enum class DropScope : std::uint8_t {
    kSut,  // before the per-app fan-out: one SUT count, mirrored per app
    kApp,  // per capture app
};

/// One named drop bucket of the closed taxonomy above, addressed as a
/// DropLedger member pointer so every consumer (metric JSON, time-series
/// columns, conservation checks, the overload detector, tests) iterates
/// the same table instead of naming buckets.  `overload` marks terminal
/// loss under load; verdict and fanout are intended filtering/routing and
/// drain is still in flight, so those never open an overload episode.
struct DropSite {
    const char* name;
    std::uint64_t DropLedger::* member;
    DropScope scope;
    bool overload;
};

/// Every drop bucket, in the emission order of `capbench.metrics.v1`.
inline constexpr std::array<DropSite, 7> kDropSites{{
    {"nic_ring", &DropLedger::drop_nic_ring, DropScope::kSut, true},
    {"backlog", &DropLedger::drop_backlog, DropScope::kSut, true},
    {"verdict", &DropLedger::drop_verdict, DropScope::kApp, false},
    {"bpf_store", &DropLedger::drop_bpf_store, DropScope::kApp, true},
    {"fanout", &DropLedger::drop_fanout, DropScope::kApp, false},
    {"disk_spill", &DropLedger::drop_disk_spill, DropScope::kApp, true},
    {"drain", &DropLedger::drop_drain, DropScope::kApp, false},
}};

inline std::uint64_t DropLedger::drops_total() const {
    std::uint64_t total = 0;
    for (const DropSite& site : kDropSites) total += this->*site.member;
    return total;
}

/// Maps one app's raw counters to its ledger: NIC ring and backlog drops
/// from the SUT's `nic`, the endpoint's capture `stats`, the records its
/// disk-writer ring `spilled` (0 without the pipeline) and the packets
/// `generated` so far.  A spilled record was delivered (counted in
/// stats.delivered) but never persisted, so it moves from `delivered` to
/// `disk_spill`; whatever is in no other bucket is still in flight and
/// lands in `drain`, so delivered + Σdrops == generated holds exactly.
/// Throws std::logic_error when the counters cannot close that identity
/// (more spills than deliveries, more fates than generated packets).
[[nodiscard]] DropLedger app_ledger(const capture::Nic& nic,
                                    const capture::CaptureStats& stats,
                                    std::uint64_t spilled, std::uint64_t generated);

struct SutMetrics {
    std::string name;
    std::uint64_t offered = 0;  // frames seen at the NIC
    std::uint64_t ring_drops = 0;
    std::uint64_t backlog_drops = 0;
    sim::SampleSet nic_to_kernel_ns;  // arrival -> IRQ/softirq hand-off
    std::vector<AppMetrics> apps;
    std::vector<profiling::UsageSample> cpu_samples;
};

struct RunMetrics {
    bool enabled = false;
    std::uint64_t generated = 0;
    std::vector<SutMetrics> suts;
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// Accumulates another rep of the same configuration: counts are raw
    /// sums (never averaged, so the drop identity stays exact), sample
    /// sets and CPU samples are concatenated, counters merged by name.
    /// Throws std::logic_error on shape mismatch.
    void merge(const RunMetrics& other);
};

}  // namespace capbench::obs
