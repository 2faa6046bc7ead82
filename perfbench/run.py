"""Benchmark of the geographer package: one workload per run, or all.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
the traced run that reports the per-layer metrics (BENCHMARK.json lists
both). Every metric is printed by name with its unit; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The package is imported from ``src/`` of the checkout and
nowhere else; without it the run exits with code 2 and prints no result.
Only the standard library is used.

End-to-end times are scaled to a fixed host speed by the reference loop
timed next to each call (see ``reference.py``); the raw wall-clock
figures are printed on a comment line above the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cli_queries", "atlas", "verify_grid", "dense_words")

#: Fresh interpreters timed per run for ``setup_s``, after one untimed
#: import that writes the bytecode cache, as an installed package has it.
SETUP_PROBES = {"full": 9, "tiny": 1}

#: Prints the import time, the imported file, and the median of six runs
#: of the reference loop made around the import.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import reference\n"
    "loops = [reference.seconds() for _ in range(3)]\n"
    "t = time.perf_counter()\n"
    "import geographer.cli\n"
    "dt = time.perf_counter() - t\n"
    "loops = sorted(loops + [reference.seconds() for _ in range(3)])\n"
    "print(dt)\n"
    "print(geographer.cli.__file__)\n"
    "print((loops[2] + loops[3]) / 2)\n"
)


def _probe(extra_flags=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Bytecode is written and read as for an installed package, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, *extra_flags, "-c", _IMPORT_PROBE, str(HERE)],
                          env=env, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{proc.stderr}")
    loaded = Path(proc.stdout.split("\n")[1]).resolve()
    if SRC.resolve() not in loaded.parents:
        raise RuntimeError(f"geographer imported from {loaded}, not from {SRC}")
    return proc


def setup_seconds(probes: int) -> float:
    """Median time to import ``geographer.cli`` in a fresh interpreter,
    scaled to the reference host speed by the loop timed around it."""
    _probe()
    scaled = []
    for _ in range(probes):
        import_s, _, loop_s = _probe().stdout.split("\n")[:3]
        scaled.append(reference.scale(float(import_s), float(loop_s)))
    return statistics.median(scaled)


def import_split(probes: int) -> tuple[float, float]:
    """Median ``geographer.cli`` import time under ``-X importtime``, and the
    median share of it spent importing numpy (0 once numpy is gone)."""
    totals, shares = [], []
    for _ in range(probes):
        cumulative = {}
        for line in _probe(("-X", "importtime")).stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) / 1e6)
        total = cumulative["geographer.cli"]
        totals.append(total)
        shares.append(cumulative.get("numpy", 0.0) / total)
    return statistics.median(totals), statistics.median(shares)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check_samples(workload, samples) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for s in samples:
        bad, errors = workload.check(s.payload)
        attempted += s.ops
        failed += min(bad, s.ops)
        messages.extend(errors)
    return attempted, failed, messages


def end_to_end(units, peak_rss_mb: float, setup_s: float) -> dict:
    """Every time is in seconds at the reference host speed. ops_per_s is
    the median over units of the unit's ops per scaled second, so a call
    the scaling misjudges moves it less than a mean would."""
    latencies = [s.scaled_s for unit in units for s in unit]
    rates = [sum(s.ops for s in unit) / sum(s.scaled_s for s in unit) for unit in units]
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p95_ms": (1e3 * percentile(latencies, 0.95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(summary: dict, caches, import_s, wall_untraced: float, wall_traced: float) -> dict:
    """Per-layer metrics of the traced run.

    Self times are given as shares of ``trace.package_s``, the traced time
    spent inside the package. A workload that never calls a layer reads 0
    for it, and a share of 0 is a ratio, not a time stuck at 0 s.
    """
    calls, self_s, package_s = summary["calls"], summary["self_s"], summary["package_s"]
    m = {}
    for name in ("surfaces.compose_word", "linalg.smith_form", "linalg.to_matrix",
                 "mapping_torus.wang_cohomology"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("surfaces.compose_word", "linalg.smith_form", "linalg.to_matrix", "linalg.det",
                 "mapping_torus.wang_cohomology", "circle_bundle.bundle_cohomology",
                 "bundle_manifold.construct", "fiber_sum.fiber_sum_invariants",
                 "geography.realize", "verify.verify_bundle_grid", "cli.main"):
        m[f"{name}.self_share"] = (self_s.get(name, 0.0) / package_s, "ratio")
    for bucket, n in summary["smith_bucket_calls"].items():
        m[f"linalg.smith_form.calls.{bucket}"] = (n, "count")
    for bucket, t in summary["smith_bucket_self_s"].items():
        m[f"linalg.smith_form.self_share.{bucket}"] = (t / package_s, "ratio")
    m["linalg.smith_form.rank_only_share"] = (summary["rank_only_share"], "ratio")
    m["linalg.smith_form.max_bits"] = (summary["max_bits"], "bits")
    for name in caches.NAMES:
        m[f"{name}.hit_ratio"] = (caches.hit_ratio(name), "ratio")
    m["setup.import_geographer_s"] = (import_s[0], "s")
    m["setup.import_numpy_share"] = (import_s[1], "ratio")
    m["trace.package_s"] = (package_s, "s")
    m["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    m["trace.overhead_share"] = ((wall_traced - wall_untraced) / wall_untraced, "ratio")
    return m


def wall_note(samples) -> str:
    """The untraced run's raw wall-clock figures, and how slow the host ran."""
    wall = [s.latency_s for s in samples]
    slowdown = statistics.median(s.loop_s for s in samples) / reference.REFERENCE_S
    return (f"wall clock, unscaled: ops_per_s {sum(s.ops for s in samples) / sum(wall):.6g}, "
            f"latency_p50_ms {1e3 * statistics.median(wall):.6g}, "
            f"latency_p95_ms {1e3 * percentile(wall, 0.95):.6g}; "
            f"median reference loop {slowdown:.3f} x REFERENCE_S")


def run_one(args) -> dict:
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    caches = workloads.Caches()
    probes = SETUP_PROBES[args.size]
    notes = []
    if not args.trace:
        setup_s = setup_seconds(probes)
        units, wall = workloads.measure(workload, workloads.Context(caches, reference_loop=True),
                                        seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = [s for unit in units for s in unit]
        attempted, failed, messages = check_samples(workload, samples)
        metrics = end_to_end(units, peak_rss_mb, setup_s)
        p95 = percentile([s.scaled_s for s in samples], 0.95)
        notes.append(f"{len(units)} units, {len(samples)} timed calls in {wall:.2f} s of wall time, "
                     f"{sum(s.scaled_s > p95 for s in samples)} of them beyond latency_p95_ms")
        notes.append(wall_note(samples))
    else:
        import_s = import_split(probes)
        units = workloads.trace_units(workload, args.seconds)
        untraced, wall_untraced = workloads.measure(workload, workloads.Context(caches), units=units)
        tracer = spans.Tracer()
        caches.clear()
        caches.reset()
        with spans.Patched(tracer):
            traced, wall_traced = workloads.measure(
                workload, workloads.Context(caches, tracer), units=units)
        caches.clear()
        attempted, failed, messages = check_samples(
            workload, [s for unit in untraced + traced for s in unit])
        metrics = per_layer(tracer.summary(), caches, import_s, wall_untraced, wall_traced)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        count = tracer.write(path)
        notes.append(f"{units} units, {wall_untraced:.2f} s untraced and {wall_traced:.2f} s traced; "
                     f"{count} spans written to {path.relative_to(ROOT)}")
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    failed_ratio = failed / attempted if attempted else 1.0
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, size {args.size}")
    for note in notes:
        print(f"# {note}")
    print(f"# attempted {attempted}, failed {failed}, failed_ratio {failed_ratio:g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh interpreter, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = (0, 1) if args.trace else (0,)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                raise RuntimeError(f"workload {name} exited {proc.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "geographer" / "__init__.py").is_file():
        print(f"geographer sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
