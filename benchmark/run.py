#!/usr/bin/env python3
"""The repository benchmark: host cost of the capbench simulator on three
fixed workloads (see README.md).

    python3 benchmark/run.py --workload baseline_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  It builds benchmark/ (which links
../src) into .bench_build/, then runs the probe in fresh processes:

  --trace 0  setup x25 (cold Testbed builds), verify (metrics on: outputs +
             drop ledger), run (untraced, closed loop for --seconds);
             prints the end-to-end metrics, host times rescaled by a
             fixed reference kernel timed beside them.
  --trace 1  verify, then trace (per-layer spans and counters); prints the
             per-layer metrics.

Every simulated output is checked: the verify pass's drop ledger must
conserve packets, the timed passes must reproduce the verify pass, and at
the committed seed every point must equal benchmark/expected/.  Human-readable
lines come first; the last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROBE = BUILD / "capbench_probe"
SETUP_PROCESSES = 25

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def fail(message, code=1):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "capbench_probe", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def probe(mode, workload, seed, seconds=None, timeout=170):
    cmd = [str(PROBE), mode, "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"probe {mode} timed out")
    if out.returncode != 0:
        fail(f"probe {mode} exited with {out.returncode}")
    return json.loads(out.stdout)


def git_describe():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "n/a (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "n/a (not a git checkout)"


def source_digest():
    """Content hash of the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def expected_path(workload):
    return HERE / "expected" / f"{workload}.json"


def load_expected(workload, seed):
    if seed != benchlib.EXPECTED_SEED:
        return None
    path = expected_path(workload)
    if not path.exists():
        fail(f"missing committed expectation {path.relative_to(ROOT)}")
    return json.loads(path.read_text())["points"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="record the verify pass as the committed expectation (seed 1 only)")
    args = ap.parse_args()
    if args.seed < 1 or args.seconds < 1:
        fail("--seed and --seconds must be positive", 2)
    pinned = sorted(k for k in os.environ if k.startswith("CAPBENCH_"))
    if pinned:
        fail("refusing to run with " + ", ".join(pinned) + " set: the benchmark pins every "
             "CAPBENCH_* knob to its default so parent and change run the same program", 2)

    build()
    verified = probe("verify", args.workload, args.seed)
    prov = dict(verified["provenance"], git_describe=git_describe(),
                source_digest=source_digest(), seconds=args.seconds, trace=args.trace)
    points = verified["verify"]["points"]

    if args.write_expected:
        if args.seed != benchlib.EXPECTED_SEED:
            fail(f"expectations are recorded at seed {benchlib.EXPECTED_SEED} only", 2)
        if any("error" in p for p in points):
            fail("verify pass threw; not recording it")
        expected_path(args.workload).parent.mkdir(exist_ok=True)
        expected_path(args.workload).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "points": [p["outputs"] for p in points]}, indent=1) + "\n")
        print(f"wrote {expected_path(args.workload).relative_to(ROOT)}")
        return

    expected = load_expected(args.workload, args.seed)
    report = {"provenance": prov, "verify": points}
    if args.trace == 0:
        setups = [probe("setup", args.workload, args.seed)["setup"]
                  for _ in range(SETUP_PROCESSES)]
        run = probe("run", args.workload, args.seed, args.seconds,
                    timeout=args.seconds + 120)["run"]
        reasons = benchlib.check_points(points, run["outputs"], run["unstable"], expected)
        report.update(setups=setups, run=run)
    else:
        trace = probe("trace", args.workload, args.seed, args.seconds,
                      timeout=args.seconds + 120)["trace"]
        reasons = benchlib.check_points(points, expected=expected)
        report.update(trace=trace)

    print(f"benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    checked = "committed expectation" if expected is not None else "held-out seed, digests only"
    print(f"points ({checked}):")
    for point, why in zip(points, reasons):
        where = point.get("outputs", point)  # a point that threw has no outputs
        label = f"{where['variant']}{where['x']:g}"
        dig = benchlib.digest(point["outputs"]) if "outputs" in point else "-" * 16
        print(f"  {label:>10}  {dig}  {'ok' if not why else 'FAILED: ' + '; '.join(why)}")
    attempted = len(points)
    failed = sum(1 for why in reasons if why)
    print(f"workload digest: {benchlib.digest([p.get('outputs') for p in points])}")
    print(f"failed_frac {failed / attempted:.6g} frac ({failed}/{attempted} points)")

    if args.trace == 0:
        metrics = benchlib.end_to_end(run, setups, failed, attempted)
        units = benchlib.END_TO_END
        print(f"timed passes: {len(run['reps'])}, arrivals per pass: {run['arrivals']}")
        raw = benchlib.unscaled(run, setups)
        print(f"as measured, before rescaling to the reference kernel's "
              f"{benchlib.REF_KERNEL_NS / 1e6:g} ms: kernel {raw['ref_kernel_ms']:.3f} ms, "
              f"host_ns_per_pkt {raw['host_ns_per_pkt']:.6g} ns, wall_s {raw['wall_s']:.6g} s, "
              f"setup_s {raw['setup_s']:.6g} s")
    else:
        metrics = benchlib.per_layer(trace)
        units = benchlib.per_layer_units()
        print(f"traced passes: {trace['counters']['passes']}; span self time (ms):")
        for name, (count, total, own) in benchlib.span_table(trace["spans"]).items():
            print(f"  {name:<34} n={count:<4} total={total / 1e6:10.3f}  self={own / 1e6:10.3f}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:.6g} {units[name]}")

    report.update(metrics=metrics, failures=reasons)
    reports = BUILD / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report) + "\n")
    print(benchlib.result_line(failed == 0, attempted, failed, metrics, units))


if __name__ == "__main__":
    main()
