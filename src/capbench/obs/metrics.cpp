#include "capbench/obs/metrics.hpp"

#include <stdexcept>

#include "capbench/capture/nic.hpp"
#include "capbench/capture/tap.hpp"

namespace capbench::obs {

DropLedger app_ledger(const capture::Nic& nic, const capture::CaptureStats& stats,
                      std::uint64_t spilled, std::uint64_t generated) {
    if (spilled > stats.delivered)
        throw std::logic_error("drop ledger: disk spills exceed delivered count");
    DropLedger ledger;
    ledger.delivered = stats.delivered - spilled;
    ledger.drop_nic_ring = nic.ring_drops();
    ledger.drop_backlog = nic.backlog_drops();
    ledger.drop_verdict = stats.dropped_filter;
    ledger.drop_bpf_store = stats.dropped_buffer;
    ledger.drop_fanout = stats.fanout_skipped;
    ledger.drop_disk_spill = spilled;
    // The drain residual of monotone counters; it can only go negative if
    // the accounting itself is broken, which we surface rather than clamp.
    const std::uint64_t settled = ledger.delivered + ledger.drops_total();
    if (settled > generated)
        throw std::logic_error("drop ledger: drop buckets exceed generated count");
    ledger.drop_drain = generated - settled;
    return ledger;
}

namespace {

void merge_samples(sim::SampleSet& into, const sim::SampleSet& from) {
    into.reserve(into.size() + from.size());
    for (const double v : from.samples()) into.add(v);
}

}  // namespace

void RunMetrics::merge(const RunMetrics& other) {
    if (!other.enabled) return;
    if (!enabled) {
        *this = other;
        return;
    }
    if (suts.size() != other.suts.size())
        throw std::logic_error("RunMetrics::merge: SUT count mismatch");
    generated += other.generated;
    for (std::size_t s = 0; s < suts.size(); ++s) {
        SutMetrics& a = suts[s];
        const SutMetrics& b = other.suts[s];
        if (a.name != b.name || a.apps.size() != b.apps.size())
            throw std::logic_error("RunMetrics::merge: SUT shape mismatch");
        a.offered += b.offered;
        a.ring_drops += b.ring_drops;
        a.backlog_drops += b.backlog_drops;
        merge_samples(a.nic_to_kernel_ns, b.nic_to_kernel_ns);
        a.cpu_samples.insert(a.cpu_samples.end(), b.cpu_samples.begin(),
                             b.cpu_samples.end());
        for (std::size_t i = 0; i < a.apps.size(); ++i) {
            AppMetrics& x = a.apps[i];
            const AppMetrics& y = b.apps[i];
            x.delivered += y.delivered;
            for (const DropSite& site : kDropSites) x.*site.member += y.*site.member;
            merge_samples(x.latency_ns, y.latency_ns);
            merge_samples(x.enqueue_ns, y.enqueue_ns);
            merge_samples(x.deliver_ns, y.deliver_ns);
        }
    }
    if (counters.size() != other.counters.size())
        throw std::logic_error("RunMetrics::merge: counter count mismatch");
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i].first != other.counters[i].first)
            throw std::logic_error("RunMetrics::merge: counter name mismatch");
        counters[i].second += other.counters[i].second;
    }
}

}  // namespace capbench::obs
