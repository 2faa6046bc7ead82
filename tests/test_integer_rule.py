"""The one integer rule, at every public entry point.

Each entry point takes the value 3 and an ``Integral`` that is not an
int alike, converting the second with ``int()``, and refuses a bool, a
float and a string with its own text. The rule itself is
``linalg._integral``; the specs, ``Twist`` and ``TwistWord`` apply it
through ``surfaces._exact_int``, and ``geography`` and ``verify`` through
``geography._int_argument``.
"""

import numbers

import pytest

from geographer.bundle_manifold import BundleManifoldSpec
from geographer.errors import InadmissibleError
from geographer.fiber_sum import DolgachevSurface, EllipticSurface, FiberSumSpec
from geographer.geography import enumerate_region, realize, realize_null
from geographer.surfaces import Twist, TwistWord
from geographer.verify import verify_bundle_grid


class Index:
    """An integer that is not an int: it has ``__int__`` and nothing else."""

    def __init__(self, n):
        self.n = n

    def __int__(self):
        return self.n

    def __repr__(self):
        return f"Index({self.n})"


numbers.Integral.register(Index)

TRIPLE = "triple entries must be integers (int, not bool or float)"
GENUS = "genus floor must be None or an integer (int, not bool or float)"
REGION = "region bounds must be integers (int, not bool or float)"


def _report(report):
    return report.grid_max, report.cases, report.failures


#: Each entry point, as a call on one value: what the call gives for 3,
#: read off as plain data or as the (type, text) of a refusal, and the
#: (type, text) of its refusal of a non-integer value, formatted with it.
ENTRY_POINTS = {
    "BundleManifoldSpec": (
        lambda v: tuple(BundleManifoldSpec(1, 1, v, 1)),
        (1, 1, 3, 1),
        (ValueError, "bundle g: non-integer value {!r}"),
    ),
    "FiberSumSpec": (
        lambda v: tuple(FiberSumSpec(EllipticSurface(2), 1, v, 3))[1:],
        (1, 3, 3),
        (ValueError, "fiber sum k: non-integer value {!r}"),
    ),
    "EllipticSurface": (
        lambda v: tuple(EllipticSurface(v)),
        (3,),
        (ValueError, "elliptic surface n: non-integer value {!r}"),
    ),
    "DolgachevSurface": (
        lambda v: tuple(DolgachevSurface(2, v)),
        (2, 3),
        (ValueError, "Dolgachev q: non-integer value {!r}"),
    ),
    "Twist-curve": (
        lambda v: Twist((v, 1)).curve,
        (3, 1),
        (ValueError, "twist curve: non-integer entry {!r} at index 0"),
    ),
    "Twist-power": (
        lambda v: Twist((1, 0), v).power,
        3,
        (ValueError, "twist power: non-integer value {!r}"),
    ),
    "TwistWord-genus": (
        lambda v: TwistWord(v).genus,
        3,
        (ValueError, "word genus: non-integer value {!r}"),
    ),
    "realize-triple": (
        lambda v: realize(0, v, 1).triple,
        (0, 3, 1),
        (InadmissibleError, TRIPLE),
    ),
    "realize-genus": (
        lambda v: realize(0, 2, 2, genus=v).label,
        "B(1,1,3;1)",
        (InadmissibleError, GENUS),
    ),
    "realize_null-triple": (
        lambda v: realize_null(0, v, 0).triple,
        (0, 3, 0),
        (InadmissibleError, TRIPLE),
    ),
    "realize_null-genus": (
        lambda v: realize_null(0, 2, 2, genus=v).label,
        "B(1,1,3;1)",
        (InadmissibleError, GENUS),
    ),
    "enumerate_region-sigma_min": (
        lambda v: list(enumerate_region(v, 2)),
        (InadmissibleError, "sigma lower bound must be non-positive"),
        (InadmissibleError, REGION),
    ),
    "enumerate_region-b1_max": (
        lambda v: [r.triple for r in enumerate_region(0, v)],
        [(0, 2, 0), (0, 2, 2), (0, 3, 1), (0, 3, 3)],
        (InadmissibleError, REGION),
    ),
    "enumerate_region-genus": (
        lambda v: [r.label for r in enumerate_region(0, 2, genus=v)],
        ["B(0,0,3;0)", "B(1,1,3;1)"],
        (InadmissibleError, GENUS),
    ),
    "verify_bundle_grid": (
        lambda v: _report(verify_bundle_grid(v)),
        (3, 39, []),
        (InadmissibleError, "grid bound must be an integer (int, not bool or float)"),
    ),
}

VALUES = {"int": 3, "Integral": Index(3), "bool": True, "float": 2.5, "str": "3"}


def outcome(call, value):
    """What ``call(value)`` gives, or the type and text of its refusal."""
    try:
        return call(value)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_holds_the_one_integer_rule(entry, value):
    call, accepted, (error, text) = ENTRY_POINTS[entry]
    if isinstance(value, (int, Index)) and not isinstance(value, bool):
        assert outcome(call, value) == accepted
    else:
        assert outcome(call, value) == (error, text.format(value))
