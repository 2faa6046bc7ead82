"""The four benchmark workloads.

Each workload yields *units* of work from its seed, runs one unit at a
time through the package's public entry points, and hands every result
to an independent check in :mod:`checks`. A unit is one block of CLI
queries, one ``enumerate`` call, one grid sweep, or one batch of twist
words.
Outputs are checked after the timed region; timing covers the package
call only. In an untraced run the reference loop of :mod:`reference` is
timed around and during every timed call (see :class:`Timer`), so that
the call's time can be scaled to a fixed host speed.

Why these four (the per-layer metrics each one moves are listed in
README.md next to this file):

* ``cli_queries``: the one-shot ``geographer realize`` path a user pays
  for per call; caches are cleared before every query, so nothing is
  shared and the high-genus tail is word composition.
* ``atlas``: one ``enumerate`` over a region, where work is shared: most
  ``construct`` calls hit its cache, so caching and per-triple overhead
  show here and not in ``cli_queries``.
* ``verify_grid``: many small Smith forms with no sharing across cases;
  most of them only need a rank.
* ``dense_words``: random dense twist words, the only workload where
  Smith transform entries grow (bundle monodromies are block diagonal).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import signal
import traceback
from dataclasses import dataclass
from time import perf_counter as clock

from geographer import bundle_manifold, cli, mapping_torus, surfaces, verify

import checks
import reference


@dataclass(frozen=True)
class Sample:
    """One timed call: its latency, the operations it covers, its output,
    and the reference loop's time around it (None when not measured)."""

    latency_s: float
    ops: int
    payload: object
    loop_s: float | None = None

    @property
    def scaled_s(self) -> float:
        """The latency in seconds at the reference host speed."""
        return reference.scale(self.latency_s, self.loop_s)


class Caches:
    """The package's memo caches, cleared at fixed points of each workload.

    Hits and misses are read from the original ``cache_info()`` before
    every clear, since clearing resets them.
    """

    NAMES = ("bundle_manifold.construct", "mapping_torus.bundle_wang_data")

    def __init__(self):
        fns = (getattr(bundle_manifold, "construct", None),
               getattr(mapping_torus, "bundle_wang_data", None))
        self.fns = {name: fn for name, fn in zip(self.NAMES, fns)
                    if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info")}
        self.reset()

    def reset(self) -> None:
        self.hits = dict.fromkeys(self.NAMES, 0)
        self.misses = dict.fromkeys(self.NAMES, 0)

    def clear(self) -> None:
        for name, fn in self.fns.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            fn.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


class Timer:
    """Times the block it wraps.

    With ``reference_loop`` set it also times the reference loop right
    before and right after the block, and every ``SAMPLE_PERIOD_S`` of
    wall time inside it, from a ``SIGALRM`` handler. Host speed changes
    within a call, so samples taken during it judge the call's speed far
    better than the two around it. The handler's time is taken out of the
    block's latency, and ``loop_s`` is the mean of all samples.
    """

    SAMPLE_PERIOD_S = 0.025

    def __init__(self, reference_loop: bool):
        self.reference_loop = reference_loop
        self.loop_s = None
        self.inside = []  # (start, end, loop seconds) of each handler call

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        loop_s = reference.seconds()
        self.inside.append((t0, clock(), loop_s))

    def __enter__(self):
        if self.reference_loop:
            self.before_s = reference.seconds()
            self.old_handler = signal.signal(signal.SIGALRM, self._sample)
        self.t0 = clock()
        if self.reference_loop:
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        if self.reference_loop:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = clock()
        self.latency_s = t1 - self.t0
        if self.reference_loop:
            signal.signal(signal.SIGALRM, self.old_handler)
            # A handler that ran after t1 sampled the host but took none of the call's time.
            self.latency_s -= sum(end - start for start, end, _ in self.inside if end <= t1)
            loops = [self.before_s, *(loop_s for _, _, loop_s in self.inside), reference.seconds()]
            self.loop_s = sum(loops) / len(loops)
        return False

    def sample(self, ops: int, payload) -> Sample:
        return Sample(self.latency_s, ops, payload, self.loop_s)


class Context:
    """What a running unit needs besides its input: the caches, the tracer,
    and whether timed calls sample the reference loop."""

    def __init__(self, caches: Caches, tracer=None, reference_loop: bool = False):
        self.caches = caches
        self.tracer = tracer
        self.reference_loop = reference_loop

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.next_op()

    def timer(self) -> Timer:
        return Timer(self.reference_loop)


def _call_cli(argv, ctx: Context) -> tuple[Timer, int | None, str]:
    """Run ``cli.main`` in-process with stdout captured; time the call only."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), ctx.timer() as timer:
        try:
            rc = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crashed run
            rc = None
            err.write(traceback.format_exc())
    return timer, rc, out.getvalue() if rc is not None else err.getvalue()


@dataclass(frozen=True)
class Query:
    triple: tuple[int, int, int]
    mode: str  # "json", "tsv" or "null" (nullity mode, JSON output)

    def argv(self) -> list[str]:
        extra = {"json": [], "tsv": ["--format", "tsv"], "null": ["--null"]}[self.mode]
        return ["realize", *map(str, self.triple), *extra]

    def __str__(self) -> str:
        return " ".join(self.argv())


class CliQueries:
    """Closed loop, one client: a seeded stream of ``realize`` calls.

    Triples are drawn uniformly from the admissible region. The region is
    sorted by the size of the construction (genus, then twist count) and
    cut into ``block`` equal slices; each block of queries takes one
    uniform draw from every slice, ``tsv`` of them at seeded positions with
    ``--format tsv``, plus ``null`` uniform draws with ``--null``, in seeded
    order. Every triple stays equally likely, and a block's total work
    varies little between seeds. The ``--null`` draws come on top of the
    slices because most of them are open cases that construct nothing.
    """

    name = "cli_queries"
    SIZES = {
        "full": dict(sigma_min=-400, b1_max=32, block=50, null=5, tsv=10, unit_s=2.1, min_units=8),
        "tiny": dict(sigma_min=-24, b1_max=4, block=6, null=1, tsv=2, unit_s=0.1),
    }

    def __init__(self, seed: int, size: str):
        p = self.SIZES[size]
        self.p = p
        self.seed = seed
        self.region = checks.region(p["sigma_min"], p["b1_max"])
        by_size = sorted(self.region, key=lambda t: (max((t[1] + t[2]) // 2, 2), t[2], t))
        n = p["block"]
        self.slices = [by_size[i * len(by_size) // n:(i + 1) * len(by_size) // n] for i in range(n)]

    def units(self):
        rng = random.Random(self.seed)
        while True:
            picks = [rng.choice(s) for s in self.slices]
            tsv = set(rng.sample(range(len(picks)), self.p["tsv"]))
            block = [Query(t, "tsv" if i in tsv else "json") for i, t in enumerate(picks)]
            block += [Query(rng.choice(self.region), "null") for _ in range(self.p["null"])]
            rng.shuffle(block)
            yield block

    def run(self, block, ctx: Context) -> list[Sample]:
        samples = []
        for query in block:
            ctx.caches.clear()
            ctx.next_op()
            timer, rc, text = _call_cli(query.argv(), ctx)
            samples.append(timer.sample(1, (query, rc, text)))
        return samples

    def check(self, payload) -> tuple[int, list[str]]:
        query, rc, text = payload
        if rc is None:
            return 1, [f"{query}: raised\n{text}"]
        errors = checks.check_query(query, rc, text)
        return (1 if errors else 0), errors


class Atlas:
    """``enumerate`` over a fixed region; caches cleared once per call.

    The region is the workload, so the seed does not change the input.
    """

    name = "atlas"
    SIZES = {
        "full": dict(sigma_min=-240, b1_max=24, unit_s=3.0),
        "tiny": dict(sigma_min=-16, b1_max=4, unit_s=0.1),
    }

    def __init__(self, seed: int, size: str):
        self.p = self.SIZES[size]
        self.expected = checks.region(self.p["sigma_min"], self.p["b1_max"])
        self.argv = ["enumerate", "--sigma-min", str(self.p["sigma_min"]),
                     "--b1-max", str(self.p["b1_max"])]

    def units(self):
        return itertools.repeat(None)

    def run(self, _unit, ctx: Context) -> list[Sample]:
        ctx.caches.clear()
        ctx.next_op()
        timer, rc, text = _call_cli(self.argv, ctx)
        return [timer.sample(len(self.expected), (rc, text))]

    def check(self, payload) -> tuple[int, list[str]]:
        rc, text = payload
        if rc != 0:
            return len(self.expected), [f"enumerate exited {rc}\n{text}"]
        return checks.check_atlas(text, self.expected)


class VerifyGrid:
    """``verify_bundle_grid`` over all weights up to a fixed genus.

    The grid is the workload, so the seed does not change the input.
    """

    name = "verify_grid"
    SIZES = {"full": dict(grid_max=10, unit_s=2.2), "tiny": dict(grid_max=2, unit_s=0.1)}

    def __init__(self, seed: int, size: str):
        self.p = self.SIZES[size]
        self.cases = checks.grid_cases(self.p["grid_max"])

    def units(self):
        return itertools.repeat(None)

    def run(self, _unit, ctx: Context) -> list[Sample]:
        ctx.caches.clear()
        ctx.next_op()
        with ctx.timer() as timer:
            try:
                report = verify.verify_bundle_grid(self.p["grid_max"])
            except Exception:  # a sweep that raises fails all its cases
                report = traceback.format_exc()
        return [timer.sample(self.cases, report)]

    def check(self, report) -> tuple[int, list[str]]:
        if isinstance(report, str):
            return self.cases, [f"verify_bundle_grid raised\n{report}"]
        return checks.check_grid(report, self.p["grid_max"])


class DenseWords:
    """Wang cohomology of mapping tori of seeded random dense twist words.

    Letters are primitive curves with entries in {-1, 0, 1} and powers
    +-1. Genus 6 still grows Smith transform entries to thousands of bits,
    while its per-word cost has a light enough tail for a steady 95th
    percentile over a few hundred words; genus 7 and 8 do not.
    """

    name = "dense_words"
    SIZES = {
        "full": dict(genus=6, letters=16, batch=20, unit_s=0.55, min_units=10),
        "tiny": dict(genus=2, letters=4, batch=2, unit_s=0.01),
    }

    def __init__(self, seed: int, size: str):
        self.p = self.SIZES[size]
        self.seed = seed

    def units(self):
        rng = random.Random(self.seed)
        n = 2 * self.p["genus"]
        while True:
            batch = []
            for _ in range(self.p["batch"]):
                letters = []
                for _ in range(self.p["letters"]):
                    curve = (0,) * n
                    while not any(curve):
                        curve = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
                    letters.append((curve, rng.choice((1, -1))))
                batch.append(letters)
            yield batch

    def run(self, batch, ctx: Context) -> list[Sample]:
        return [self._run_word(letters, ctx) for letters in batch]

    def _run_word(self, letters, ctx: Context) -> Sample:
        word = surfaces.TwistWord(self.p["genus"], tuple(surfaces.Twist(c, p) for c, p in letters))
        ctx.caches.clear()
        ctx.next_op()
        with ctx.timer() as timer:
            try:
                torus = mapping_torus.MappingTorus(word)
                data = mapping_torus.wang_cohomology(torus)
            except Exception:  # a word that raises is a failed op
                torus, data = None, traceback.format_exc()
        monodromy = None if torus is None else torus.monodromy
        return timer.sample(1, (letters, monodromy, data))

    def check(self, payload) -> tuple[int, list[str]]:
        letters, monodromy, data = payload
        if monodromy is None:
            return 1, [f"wang_cohomology raised\n{data}"]
        errors = checks.check_word(letters, self.p["genus"], monodromy, data)
        return (1 if errors else 0), errors


WORKLOADS = {w.name: w for w in (CliQueries, Atlas, VerifyGrid, DenseWords)}


def trace_units(workload, seconds: float) -> int:
    """Fixed unit count of the traced run: about ``seconds / 2`` of untraced
    work at the speed the benchmark was sized on. It depends on the
    arguments only, so the traced counts repeat exactly between runs and
    between commits."""
    return max(1, round(seconds / 2 / workload.p["unit_s"]))


def measure(workload, ctx: Context, seconds: float | None = None, units: int | None = None):
    """Run whole units until ``units`` units, or until ``seconds`` of wall
    time and at least the workload's ``min_units`` units, which keep ten
    or more calls beyond the 95th latency percentile.

    Returns the samples of each unit, and the wall time of the loop.
    """
    min_units = workload.p.get("min_units", 1)
    done = []
    t0 = clock()
    for unit in workload.units():
        done.append(workload.run(unit, ctx))
        if units is not None and len(done) >= units:
            break
        if seconds is not None and clock() - t0 >= seconds and len(done) >= min_units:
            break
    return done, clock() - t0
