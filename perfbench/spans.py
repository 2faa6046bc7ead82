"""Span tracer for the traced benchmark run.

Public functions of the package are wrapped from outside: every module
namespace of the package that binds a wrapped function gets the wrapper
(``construct``, for instance, is imported by name into ``geography``,
``verify`` and ``cli``). Spans are kept in flat arrays while the run goes
on and written out when it ends; self time is derived afterwards as span
duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

#: (module, function) pairs wrapped in the traced run. Functions a later
#: version of the package no longer has are skipped; their metrics read 0.
WRAPPED = (
    ("cli", "main"),
    ("geography", "realize"),
    ("geography", "realize_null"),
    ("fiber_sum", "fiber_sum_invariants"),
    ("verify", "verify_bundle_grid"),
    ("bundle_manifold", "construct"),
    ("circle_bundle", "bundle_cohomology"),
    ("mapping_torus", "bundle_wang_data"),
    ("mapping_torus", "wang_cohomology"),
    ("surfaces", "compose_word"),
    ("linalg", "smith_form"),
    ("linalg", "rank"),
    ("linalg", "elementary_divisors"),
    ("linalg", "kernel_basis"),
    ("linalg", "cokernel_free_basis"),
    ("linalg", "to_matrix"),
    ("linalg", "det"),
)

#: Callers of ``smith_form`` that keep only the diagonal and drop the
#: four transform matrices.
RANK_ONLY_CALLERS = ("linalg.rank", "linalg.elementary_divisors")

#: Upper edges of the matrix-dimension buckets for ``smith_form``.
DIM_BUCKETS = (4, 8, 16, 32, 64)

SMITH_FIELDS = ("d", "s", "t", "s_inv", "t_inv")

PACKAGE = "geographer"


def bucket_names() -> tuple[str, ...]:
    return tuple(f"dim_le_{edge}" for edge in DIM_BUCKETS) + (f"dim_gt_{DIM_BUCKETS[-1]}",)


def _bucket(dim: int) -> str:
    for edge in DIM_BUCKETS:
        if dim <= edge:
            return f"dim_le_{edge}"
    return f"dim_gt_{DIM_BUCKETS[-1]}"


def matrix_shape(x) -> tuple[int, int] | None:
    """Shape of a 2d array or of a sequence of rows; None if neither."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        return tuple(shape) if len(shape) == 2 else None
    try:
        return (len(x), len(x[0]) if len(x) else 0)
    except TypeError:
        return None


def _tagged_matrix(name: str, args, result):
    """The matrix whose size a linalg span is tagged with."""
    if name == "linalg.smith_form":
        return getattr(result, "d", None)
    if name == "linalg.to_matrix":
        return result
    return args[0] if args else None


def max_entry_bits(matrices) -> int:
    bits = 0
    for mat in matrices:
        for row in mat:
            for x in row:
                bits = max(bits, abs(int(x)).bit_length())
    return bits


class Tracer:
    """Records one span per call of a wrapped function.

    A span holds its name, start, end, parent span, the id of the benchmark
    operation it belongs to, and for ``linalg`` spans the matrix dimension.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.dim = array("l")
        self.tagging = array("d")  # tagging time of child spans, inside this span
        self.stack: list[int] = []
        self.op_id = -1
        self.max_bits = 0

    def next_op(self) -> None:
        self.op_id += 1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        is_linalg = name.startswith("linalg.")
        is_smith = name == "linalg.smith_form"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.dim.append(-1)
            self.tagging.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            # Tagging runs after the span has closed and is charged to no
            # span's self time; it is part of the tracing overhead.
            if is_linalg:
                shape = matrix_shape(_tagged_matrix(name, args, result))
                if shape is not None:
                    self.dim[idx] = max(shape)
            if is_smith:
                mats = [getattr(result, f) for f in SMITH_FIELDS if hasattr(result, f)]
                self.max_bits = max(self.max_bits, max_entry_bits(mats))
            if self.stack:
                self.tagging[self.stack[-1]] += clock() - t1
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Span duration minus child spans and the tagging of child spans."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] - self.tagging[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [own[i] - child[i] for i in range(n)]

    def summary(self) -> dict:
        """Calls and self time per wrapped name, plus the smith_form extras.

        ``package_s`` is the time spent in outermost spans, less tagging:
        the package time every self time is a part of.
        """
        selfs = self.self_times()
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        bucket_calls = {b: 0 for b in bucket_names()}
        bucket_self = {b: 0.0 for b in bucket_names()}
        smith_calls = rank_only = 0
        package_s = 0.0
        for i in range(len(selfs)):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += selfs[i]
            if self.parent[i] < 0:
                package_s += self.end[i] - self.start[i] - self.tagging[i]
            if name == "linalg.smith_form":
                smith_calls += 1
                p = self.parent[i]
                if p >= 0 and self.names[self.name_of[p]] in RANK_ONLY_CALLERS:
                    rank_only += 1
                b = _bucket(self.dim[i])
                bucket_calls[b] += 1
                bucket_self[b] += selfs[i]
        return {
            "calls": calls,
            "self_s": self_s,
            "package_s": package_s,
            "smith_bucket_calls": bucket_calls,
            "smith_bucket_self_s": bucket_self,
            "rank_only_share": rank_only / smith_calls if smith_calls else 0.0,
            "max_bits": self.max_bits,
        }

    def write(self, path) -> int:
        """Write every span as one JSON line to a gzip file; return the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i in range(len(self.start)):
                out.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name_of[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                    "dim": self.dim[i],
                }) + "\n")
        return len(self.start)


class Patched:
    """Install tracing wrappers into every package namespace; undo on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, attr in WRAPPED:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                continue
            wrapper = self.tracer.wrap(f"{mod_name}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self.undo.append((m, key, fn))
        return self

    def __exit__(self, *exc):
        for m, key, fn in reversed(self.undo):
            setattr(m, key, fn)
        self.undo.clear()
        return False
