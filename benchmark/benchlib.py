"""Pure logic of the repository benchmark: metric names, output checks,
span arithmetic and the metric formulas.  run.py does the I/O; this module
only computes, so tests/test_benchlib.py can exercise it without a build."""

import hashlib
import json
import statistics
from collections import defaultdict

WORKLOADS = ("baseline_sweep", "filter_4app", "mq_disk_10g")

# The committed expectations are for this seed; any other seed is held out
# and only gets per-point digests.
EXPECTED_SEED = 1

# The probe pairs every timed phase with one run of its reference kernel,
# a fixed mix of ALU chains, branchy table walks and a heap event loop (see
# probe.cpp).  On the reference core, a 4-vCPU KVM Xeon (Sapphire Rapids)
# with quiet neighbours, the kernel took about this long.  Host times are
# reported at that pace: a phase that ran while the core was slowed by a
# factor k took about k times as long, and so did its kernel.
REF_KERNEL_NS = 50e6


def at_ref_pace(ns, ref_ns):
    """A host time rescaled to the reference kernel's nominal pace."""
    return ns * REF_KERNEL_NS / ref_ns


# name -> unit, in print order.
END_TO_END = {
    "host_ns_per_pkt": "ns",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

SUTS = ("swan", "snipe", "moorhen", "flamingo")
SCHED = ("kernel_items", "dispatches", "wakeups", "migrations")
# obs::kDropSites, in the simulator's order.
DROP_SITES = ("nic_ring", "backlog", "verdict", "bpf_store", "fanout", "disk_spill", "drain")


def per_layer_units():
    """Per-layer metric name -> unit, in print order."""
    units = {"sim.events_per_pkt": "count", "sim.host_ns_per_event": "ns"}
    for k in SCHED:
        units[f"hostsim.{k}_per_pkt"] = "count"
    for sut in SUTS:
        units[f"capture.{sut}.host_ns_per_pkt"] = "ns"
    units["capture.delivered_frac"] = "frac"
    for site in DROP_SITES:
        units[f"capture.drop_frac.{site}"] = "frac"
    units.update({
        "capture.rss_host_ns_per_hash": "ns",
        "pktgen.host_ns_per_pkt": "ns",
        "net.arena_reuse_frac": "frac",
        "bpf.insns_per_run": "count",
        "bpf.host_ns_per_run": "ns",
        "bpf.attach_ms": "ms",
        "bpf.cache_hit_frac": "frac",
        "load.writer_host_ns_per_record": "ns",
        "load.disk_spill_frac": "frac",
        "harness.testbed_build_ms": "ms",
        "harness.heap_allocs_per_pkt": "count",
        "report.render_ms": "ms",
        "obs.metrics_overhead_frac": "frac",
    })
    return units


# ---- simulated-output checks ----------------------------------------------

def digest(outputs):
    """Short content hash of one point's simulated outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def conservation_errors(ledger):
    """Apps whose delivered + all drop buckets != generated."""
    errors = []
    for app in ledger["apps"]:
        total = app["delivered"] + sum(app["drops"].values())
        if total != ledger["generated"]:
            errors.append(f"{app['sut']} app{app['app']}: delivered + drops = {total}"
                          f" != generated {ledger['generated']}")
    return errors


def check_points(verified, measured=None, unstable=None, expected=None):
    """Failure reasons per point, [] for a point that passed.

    verified: the verify pass's points ({"outputs", "ledger"} or {"error"}).
    measured: outputs of the timed run_scenario passes, same order (or None).
    unstable: per point, whether the timed passes disagreed among themselves.
    expected: the committed outputs for this seed (or None: held-out seed).
    """
    n = len(verified)
    reasons = [[] for _ in range(n)]
    if measured is not None and len(measured) != n:
        return [["timed run produced a different point count"] for _ in range(n)]
    if expected is not None and len(expected) != n:
        return [["point count differs from the committed expectation"] for _ in range(n)]
    for i, point in enumerate(verified):
        if "error" in point:
            reasons[i].append("threw: " + point["error"])
            continue
        reasons[i] += conservation_errors(point["ledger"])
        outputs = point["outputs"]
        if measured is not None and measured[i] != outputs:
            reasons[i].append("timed run outputs differ from the verify pass")
        if unstable is not None and unstable[i]:
            reasons[i].append("outputs changed between timed passes")
        if expected is not None and expected[i] != outputs:
            reasons[i].append("outputs differ from the committed expectation")
    return reasons


# ---- spans -----------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        intervals = sorted((max(spans[c]["start_ns"], s["start_ns"]),
                            min(spans[c]["end_ns"], s["end_ns"])) for c in children[i])
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s["end_ns"] - s["start_ns"] - covered)
    return out


def span_table(spans):
    """name -> (count, total ns, self ns), in first-seen order."""
    selfs = self_times(spans)
    table = {}
    for s, own in zip(spans, selfs):
        count, total, self_total = table.get(s["name"], (0, 0, 0))
        table[s["name"]] = (count + 1, total + s["end_ns"] - s["start_ns"], self_total + own)
    return table


# ---- metrics ---------------------------------------------------------------

def end_to_end(run, setups, failed, attempted):
    """The end-to-end metrics of one untraced run (see README.md).

    run: the probe's timed passes; setups: one {"setup_ns", "ref_ns"} per
    setup process.  Host times are medians at the reference pace."""
    reps = run["reps"]
    return {
        "host_ns_per_pkt": statistics.median(
            at_ref_pace(r["sim_ns"], r["ref_ns"]) / run["arrivals"] for r in reps),
        "wall_s": statistics.median(
            at_ref_pace(r["sim_ns"] + r["render_ns"], r["ref_ns"]) / 1e9 for r in reps),
        "setup_s": statistics.median(
            at_ref_pace(s["setup_ns"], s["ref_ns"]) for s in setups) / 1e9,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "pass_frac": (attempted - failed) / attempted,
    }


def unscaled(run, setups):
    """The host-time medians as measured, before rescaling, and the
    reference kernel's median: printed beside the metrics, not part of the
    result."""
    reps = run["reps"]
    return {
        "host_ns_per_pkt": statistics.median(r["sim_ns"] / run["arrivals"] for r in reps),
        "wall_s": statistics.median((r["sim_ns"] + r["render_ns"]) / 1e9 for r in reps),
        "setup_s": statistics.median(s["setup_ns"] for s in setups) / 1e9,
        "ref_kernel_ms": statistics.median(r["ref_ns"] for r in reps) / 1e6,
    }


def per_layer(trace):
    """The per-layer metrics of one traced run (see README.md).  A metric
    whose layer the workload does not exercise reads 0."""
    spans = trace["spans"]
    c = trace["counters"]

    def durations(name, parent=None):
        return [s["end_ns"] - s["start_ns"] for s in spans
                if s["name"] == name
                and (parent is None or (s["parent"] >= 0 and spans[s["parent"]]["name"] == parent))]

    def ns_per_unit(name):
        vals = [(s["end_ns"] - s["start_ns"]) / s["units"] for s in spans
                if s["name"] == name and s["units"] > 0]
        return statistics.median(vals) if vals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    gen, arr = c["generated"], c["arrivals"]
    opportunities = c.get("ledger.opportunities", 0)
    m = {
        "sim.events_per_pkt": ratio(c["events"], gen),
        "sim.host_ns_per_event": ratio(
            statistics.median(durations("scenario.run", "workload.untraced")), c["events"]),
    }
    for k in SCHED:
        m[f"hostsim.{k}_per_pkt"] = ratio(c.get(f"sched.{k}", 0), arr)
    replay_one = ns_per_unit("pktgen.replay.1sink")
    for sut in SUTS:
        alone = ns_per_unit(f"capture.alone.{sut}")
        m[f"capture.{sut}.host_ns_per_pkt"] = alone - replay_one if alone else 0.0
    m["capture.delivered_frac"] = ratio(c.get("ledger.delivered", 0), opportunities)
    for site in DROP_SITES:
        m[f"capture.drop_frac.{site}"] = ratio(c.get(f"ledger.drop.{site}", 0), opportunities)
    m["capture.rss_host_ns_per_hash"] = ns_per_unit("capture.rss_hash")
    m["pktgen.host_ns_per_pkt"] = ns_per_unit("pktgen.replay")
    m["net.arena_reuse_frac"] = ratio(c.get("arena.reuses", 0), c.get("arena.requests", 0))
    m["bpf.insns_per_run"] = ratio(c.get("bpf.insns", 0), c.get("bpf.runs", 0))
    m["bpf.host_ns_per_run"] = ns_per_unit("bpf.run")
    attach = durations("bpf.attach")
    m["bpf.attach_ms"] = statistics.median(attach) / 1e6 if attach else 0.0
    m["bpf.cache_hit_frac"] = ratio(c.get("bpf.cache_hits", 0), c.get("bpf.cache_lookups", 0))
    m["load.writer_host_ns_per_record"] = ns_per_unit("load.writer")
    m["load.disk_spill_frac"] = ratio(c.get("disk_spills", 0), opportunities)
    m["harness.testbed_build_ms"] = statistics.mean(durations("harness.testbed_build")) / 1e6
    m["harness.heap_allocs_per_pkt"] = ratio(
        c["run.allocs"] - c["harness.testbed_build.warm.allocs"], arr)
    m["report.render_ms"] = statistics.median(durations("report.render", "workload.untraced")) / 1e6
    m["obs.metrics_overhead_frac"] = (statistics.median(durations("workload.traced"))
                                      / statistics.median(durations("workload.untraced")) - 1)
    return m


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
