#!/usr/bin/env python3
"""End-to-end benchmark of the MOSAIC library (see README.md here).

  python3 perfbench/run.py --workload clip_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library and the workload runner
from source into .bench_build/ (once; later runs only re-check the build),
runs one workload, checks its outputs and prints one line per metric
(name, value, unit, sample count) followed, as the last line of standard
output, by one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. Exits non-zero, after printing the result, when an output
check failed; exits non-zero without a result when the build or the run
fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clip_cold", "chip_repeat", "serve_stream")

# Modules whose spans the traced run reports self time for (span names are
# "<module>.<call>"; "bench" is the benchmark's own per-unit glue).
SELF_MODULES = ("litho", "opc", "eval", "geometry", "tile", "cache", "serve",
                "bench")

# Per-layer metrics read as the median of raw samples, with their units.
MEDIAN_METRICS = {
    "litho.kernels.build_ms": "ms",
    "litho.kernels.load_ms": "ms",
    "litho.mask_spectrum_ms": "ms",
    "litho.aerial_ms": "ms",
    "litho.mask_spectrum.count": "count",
    "math.fft_pair_ms": "ms",
    "math.scratch_hit_ratio": "ratio",
    "opc.objective_ms": "ms",
    "opc.iteration_ms": "ms",
    "opc.first_iteration_ms": "ms",
    "opc.iterations": "count",
    "opc.checkpoint_write_ms": "ms",
    "eval.evaluate_ms": "ms",
    "eval.pvband_ms": "ms",
    "tile.partition_ms": "ms",
    "tile.busy_frac": "ratio",
    "tile.stitch_ms": "ms",
    "tile.optimized": "count",
    "tile.pasted": "count",
    "tile.warm_started": "count",
    "tile.core_mismatch_px": "count",
    "tile.seam_disagree_frac": "ratio",
    "cache.fingerprint_ms": "ms",
    "cache.lookup_hit_ms": "ms",
    "cache.lookup_miss_ms": "ms",
    "cache.insert_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.exact_hits": "count",
    "cache.near_miss_hits": "count",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms",
    "serve.generator_late_ms": "ms",
    "serve.busy_frac": "ratio",
    "serve.rejected": "count",
    "serve.retries": "count",
    "executor.tasks": "count",
    "executor.steals": "count",
    "executor.dispatch_us": "us",
}
# Derived per-layer metrics: name -> unit.
DERIVED_METRICS = {
    "tile.optimize_ms.p50": "ms",
    "tile.optimize_ms.max": "ms",
    "tile.mask_repeatable": "ratio",
    "opc.mask_repeatable": "ratio",
    "serve.submit_ms.p50": "ms",
    "serve.submit_ms.p90": "ms",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}
for _module in SELF_MODULES:
    DERIVED_METRICS["self_frac." + _module] = "ratio"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "epe_violations": "count",
    "pvband_nm2": "nm2",
}


def per_layer_units():
    units = dict(MEDIAN_METRICS)
    units.update(DERIVED_METRICS)
    return units


def percentile(samples, p):
    """Percentile p (0..100) of raw samples, linear between closest ranks.

    Non-finite samples (a job that never finished) sort last, so they count
    as missing any latency limit. Returns (value, sample count).
    """
    if not samples:
        return 0.0, 0
    xs = sorted(math.inf if s is None else s for s in samples)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    if rank == lo or xs[lo] == xs[hi]:
        return xs[lo], len(xs)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo), len(xs)


def median(samples):
    return percentile(samples, 50)


def span_self_times(spans):
    """Self time per span: duration minus the union of its children."""
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = union_length(
            [(spans[c][1], spans[c][2]) for c in children.get(i, [])],
            start, end)
        out.append(max(0.0, (end - start) - covered))
    return out


def union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def end_to_end_metrics(raw):
    """Untraced metrics: {name: (value, unit, sample count)}."""
    s, v = raw["samples"], raw["values"]
    passes = max(1, int(v.get("passes", 1)))
    p50 = percentile(s.get("unit_ms", []), 50)
    p90 = percentile(s.get("unit_ms", []), 90)
    return {
        "setup_s": median(s.get("setup_s", [])) + ("s",),
        "wall_s": median(s.get("pass_s", [])) + ("s",),
        "job_p50_ms": p50 + ("ms",),
        "job_p90_ms": p90 + ("ms",),
        "cpu_s": (v.get("cpu_window_s", 0.0) / passes, passes, "s"),
        "peak_rss_mb": (v.get("peak_rss_mb", 0.0), 1, "MB"),
        "epe_violations": (v.get("epe_violations", 0.0), 1, "count"),
        "pvband_nm2": (v.get("pvband_nm2", 0.0), 1, "nm2"),
    }


def per_layer_metrics(raw):
    """Traced metrics: {name: (value, unit, sample count)}. A layer the
    workload does not reach reads 0 with 0 samples."""
    s, v = raw["samples"], raw["values"]
    out = {}
    for name, unit in MEDIAN_METRICS.items():
        out[name] = median(s.get(name, [])) + (unit,)
    tiles = s.get("tile.optimize_ms", [])
    out["tile.optimize_ms.p50"] = percentile(tiles, 50) + ("ms",)
    out["tile.optimize_ms.max"] = (max(tiles) if tiles else 0.0, len(tiles),
                                   "ms")
    rep = s.get("tile.mask_repeatable", [])
    out["tile.mask_repeatable"] = (statistics.fmean(rep) if rep else 0.0,
                                   len(rep), "ratio")
    rep = s.get("opc.mask_repeatable", [])
    out["opc.mask_repeatable"] = (statistics.fmean(rep) if rep else 0.0,
                                  len(rep), "ratio")
    submit = s.get("serve.submit_ms", [])
    out["serve.submit_ms.p50"] = percentile(submit, 50) + ("ms",)
    out["serve.submit_ms.p90"] = percentile(submit, 90) + ("ms",)

    untraced, n0 = median(s.get("unit_ms", []))
    traced, n1 = median(s.get("traced.unit_ms", []))
    overhead = traced / untraced - 1.0 if untraced > 0 and n1 else 0.0
    out["trace.overhead_frac"] = (overhead, n0 + n1, "ratio")

    spans = raw["spans"]
    w0 = v.get("traced.window_start", 0.0)
    w1 = w0 + v.get("traced.window_s", 0.0)
    wall = max(w1 - w0, 1e-12)
    top = [(sp[1], sp[2]) for sp in spans if sp[3] == -1]
    out["trace.covered_frac"] = (union_length(top, w0, w1) / wall, len(top),
                                 "ratio")
    self_by_module = {m: 0.0 for m in SELF_MODULES}
    counts = {m: 0 for m in SELF_MODULES}
    for sp, self_s in zip(spans, span_self_times(spans)):
        module = sp[0].split(".", 1)[0]
        if module in self_by_module:
            self_by_module[module] += self_s
            counts[module] += 1
    for m in SELF_MODULES:
        out["self_frac." + m] = (self_by_module[m] / wall, counts[m], "ratio")
    return out


def self_time_table(raw):
    """Self time per span name over the traced window, largest first."""
    spans = raw["spans"]
    wall = max(raw["values"].get("traced.window_s", 0.0), 1e-12)
    totals = {}
    for sp, self_s in zip(spans, span_self_times(spans)):
        n, t = totals.get(sp[0], (0, 0.0))
        totals[sp[0]] = (n + 1, t + self_s)
    rows = sorted(totals.items(), key=lambda kv: -kv[1][1])
    return [(name, n, t, t / wall) for name, (n, t) in rows]


def source_revision():
    """Git commit of the checkout, or a digest of the sources when the
    checkout is not a git repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure (first time) and build the workload runner."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found: run from the "
                           "repository root")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "mosaic_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "mosaic_bench"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        binary = build(ROOT / ".bench_build" / "perfbench")
    except (RuntimeError, OSError) as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / ("work_" + args.workload)
    raw_path = out_dir / "{}_seed{}_trace{}.raw.json".format(
        args.workload, args.seed, args.trace)
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print("perfbench: workload exited with {}".format(proc.returncode),
              file=sys.stderr)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    metrics = per_layer_metrics(raw) if args.trace else end_to_end_metrics(raw)
    hardware = dict(raw["hardware"], revision=source_revision())
    correct = not raw["check_failures"]
    print("# workload {} seed {} trace {}".format(args.workload, args.seed,
                                                   args.trace))
    print("# hardware " + json.dumps(hardware, sort_keys=True))
    for name, hash_hex in raw["hashes"]:
        print("# mask {} {}".format(name, hash_hex))
    for failure in raw["check_failures"]:
        print("# CHECK FAILED " + failure)
    for failure in raw["check_failures"][:20]:
        print("perfbench: check failed: " + failure, file=sys.stderr)
    if args.trace:
        for name, n, total, share in self_time_table(raw):
            print("# self {:<24} n={:<5} {:9.3f} s {:6.1%}".format(
                name, n, total, share))
    for name, (value, n, unit) in metrics.items():
        print("{:<28} {:>16} {:<6} n={}".format(name, "%.6g" % value, unit, n))

    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {
            name: {"value": value if math.isfinite(value) else 1e12,
                   "unit": unit}
            for name, (value, _, unit) in metrics.items()
        },
    }
    summary = dict(result, hardware=hardware, seed=args.seed,
                   workload=args.workload,
                   samples={k: n for k, (_, n, _) in metrics.items()})
    with open(out_dir / "{}_seed{}_trace{}.json".format(
            args.workload, args.seed, args.trace), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
