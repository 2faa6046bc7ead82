#!/usr/bin/env python3
"""Scaling ladders: the time and memory of one layer against its size.

Usage: python scripts/bench_scaling.py [--out FILE] [--samples N]
           [--dense-max G] [--audit-max G] [--grid-max G] [--cold-max G]

Times five layers of the package in this checkout's ``src/``:

* ``compose_word``: :func:`geographer.surfaces.compose_word` of the
  ``wang_cohomology`` ladder's word, at the same sizes;
* ``wang_cohomology``: :func:`geographer.mapping_torus.wang_cohomology`
  of one seeded dense twist word of genus g, for g = 2 .. G; it keeps no
  cache, so every call is cold. The 2g + 4 letters of the word are drawn
  by the law of perfbench's ``dense_words``: curves with entries in
  {-1, 0, 1}, powers +-1;
* ``audit_bundle``: :func:`geographer.bundle_manifold.audit_bundle` of
  B(g/2, g, g; 0) with cold caches, for g = 2, 4, 8, .. up to G;
* ``verify_bundle_grid``: the whole sweep up to G with cold caches, for
  G = 2 .. max;
* ``cli_cold_start``: a one-shot CLI process, for g = 4, 8, 16, .. and
  the maximum G. Each sample is a fresh interpreter that imports
  ``geographer.cli`` and makes one
  ``main(["realize", "0", "4", "4", "--genus", g])`` call.

Cold means that the caches of ``construct`` and ``bundle_wang_data`` are
cleared before each call, as ``perfbench`` does. Each size runs in a
fresh interpreter, so its peak RSS (``ru_maxrss``) is its own. A sample
times as many calls as fill about 20 ms, at least one, and runs the loop
of ``perfbench/reference.py`` just before and just after them; the time
per call is scaled by ``REFERENCE_S`` over the mean of the two loop
times, so it is given in seconds at that file's reference host speed and
the drift of a shared host cancels. A record holds the median of N
samples, N, the calls per sample and the peak RSS in MB. A
``cli_cold_start`` sample times the import and the call apart, each
scaled by the loop run just before the import and just after the call;
its record holds both medians (``import_median_s`` and, for the call,
``median_s``) and the largest peak RSS of its N interpreters, whose
bytecode is written by one untimed run first. Each layer
holds the least-squares slope of log median time against log size. The
document also holds the Python version, the git rev of the checkout and
whether its ``src/`` or ``scripts/`` differ from that rev, and the host.

Writes one JSON document to FILE, or to stdout.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_S = 0.02


def ladders(args) -> dict:
    """Each layer's size parameter and its sizes."""
    doubling = [2 ** i for i in range(1, args.audit_max.bit_length())]

    def doubling_from_4(top: int) -> list:
        return sorted({*(2 ** i for i in range(2, top.bit_length())), top})

    dense = list(range(2, args.dense_max + 1))
    return {
        "compose_word": ("g", dense),
        "wang_cohomology": ("g", dense),
        "audit_bundle": ("g", doubling),
        "verify_bundle_grid": ("G", list(range(2, args.grid_max + 1))),
        "cli_cold_start": ("g", doubling_from_4(args.cold_max)),
    }


def workload(layer: str, size: int):
    """The call timed at one size of a layer, its set-up done."""
    from geographer import bundle_manifold, mapping_torus, surfaces, verify

    def cold():
        bundle_manifold.construct.cache_clear()
        mapping_torus.bundle_wang_data.cache_clear()

    if layer == "compose_word":
        word = dense_word(size)
        return lambda: surfaces.compose_word(word)
    if layer == "wang_cohomology":
        torus = mapping_torus.MappingTorus(dense_word(size))
        return lambda: mapping_torus.wang_cohomology(torus)
    if layer == "audit_bundle":
        spec = bundle_manifold.BundleManifoldSpec(size // 2, size, size, 0)
        return lambda: (cold(), bundle_manifold.audit_bundle(spec))
    return lambda: (cold(), verify.verify_bundle_grid(size))


def dense_word(genus: int):
    """The seeded dense word of ``genus``: 2g + 4 letters whose curves have
    entries in {-1, 0, 1} and whose powers are +-1, the seed being g."""
    import random

    from geographer.surfaces import Twist, TwistWord

    rng = random.Random(genus)
    letters = []
    for _ in range(2 * genus + 4):
        curve = (0,) * (2 * genus)
        while not any(curve):
            curve = tuple(rng.choice((-1, 0, 1)) for _ in range(2 * genus))
        letters.append(Twist(curve, rng.choice((1, -1))))
    return TwistWord(genus, tuple(letters))


def measure(layer: str, size: int, samples: int) -> dict:
    """One record: the median scaled time per call over ``samples``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import reference

    call = workload(layer, size)
    t0 = perf_counter()
    call()  # also pays the first-call costs outside the samples
    number = max(1, int(SAMPLE_S / (perf_counter() - t0)))
    per_call = []
    for _ in range(samples):
        before = reference.seconds()
        t0 = perf_counter()
        for _ in range(number):
            call()
        elapsed = perf_counter() - t0
        loop_s = (before + reference.seconds()) / 2
        per_call.append(reference.scale(elapsed / number, loop_s))
    return {
        "size": size,
        "median_s": statistics.median(per_call),
        "n": samples,
        "calls_per_sample": number,
        # kilobytes on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


#: One cold-start sample: prints the exit code, the import and call times
#: scaled by the mean of the loop times around them, and ru_maxrss.
_COLD_START_PROBE = """\
import io, sys, time
sys.path[:0] = sys.argv[1:3]
import reference
before = reference.seconds()
t0 = time.perf_counter()
import geographer.cli
t1 = time.perf_counter()
stdout, sys.stdout = sys.stdout, io.StringIO()
code = geographer.cli.main(["realize", "0", "4", "4", "--genus", sys.argv[3]])
t2 = time.perf_counter()
sys.stdout = stdout
loop_s = (before + reference.seconds()) / 2
import resource
print(code, reference.scale(t1 - t0, loop_s), reference.scale(t2 - t1, loop_s),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cold_start_record(size: int, samples: int) -> dict:
    """One ``cli_cold_start`` record: ``samples`` fresh interpreters."""
    argv = [sys.executable, "-c", _COLD_START_PROBE, str(ROOT / "src"), str(ROOT / "perfbench"),
            str(size)]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # read bytecode as an installed package does
    imports, calls, rss = [], [], []
    for i in range(samples + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        fields = proc.stdout.split()
        if proc.returncode or fields[:1] != ["0"]:
            raise RuntimeError(f"cli_cold_start at size {size} failed:\n{proc.stderr}")
        if i:  # the first run writes the bytecode
            import_s, call_s, maxrss = map(float, fields[1:])
            imports.append(import_s)
            calls.append(call_s)
            rss.append(maxrss)
    return {
        "size": size,
        "median_s": statistics.median(calls),
        "import_median_s": statistics.median(imports),
        "n": samples,
        "calls_per_sample": 1,
        "peak_rss_mb": round(max(rss) / 1024, 1),
    }


def run_record(layer: str, size: int, samples: int) -> dict:
    """:func:`measure` in a fresh interpreter."""
    if layer == "cli_cold_start":
        return cold_start_record(size, samples)
    argv = [sys.executable, __file__, "--measure", layer, str(size), "--samples", str(samples)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{layer} at size {size} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def slope(records: list) -> float | None:
    """The least-squares slope of log median time against log size."""
    if len(records) < 2:
        return None
    fit = statistics.linear_regression(
        [math.log(r["size"]) for r in records], [math.log(r["median_s"]) for r in records]
    )
    return round(fit.slope, 3)


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--samples", type=int, default=11)
    parser.add_argument("--dense-max", type=int, default=16)
    parser.add_argument("--audit-max", type=int, default=4096)
    parser.add_argument("--grid-max", type=int, default=40)
    parser.add_argument("--cold-max", type=int, default=4096)
    parser.add_argument("--measure", nargs=2, metavar=("LAYER", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        layer, size = args.measure
        print(json.dumps(measure(layer, int(size), args.samples)))
        return 0
    layers = {}
    for layer, (parameter, sizes) in ladders(args).items():
        records = [run_record(layer, size, args.samples) for size in sizes]
        layers[layer] = {"size": parameter, "slope": slope(records), "records": records}
    rev = git("rev-parse", "HEAD")
    doc = {
        "python": platform.python_version(),
        "git_rev": rev,
        "git_dirty": None if rev is None else bool(git("status", "--porcelain", "--", "src", "scripts")),
        "host": {"machine": platform.machine(), "system": platform.system(), "cpus": os.cpu_count()},
        "time_unit": "seconds per call at the reference host speed of perfbench/reference.py",
        "layers": layers,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
