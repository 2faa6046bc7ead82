"""Shared hypothesis strategies for exact-arithmetic property tests."""

import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from geographer import linalg
from geographer.circle_bundle import VALID_TAGS, bundle_b1_formula, nullity_closed_form, valid_tags
from geographer.surfaces import Twist, TwistWord

small_ints = st.integers(min_value=-9, max_value=9)

#: Mostly zeros, with unit and non-unit nonzeros.
sparse_ints = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


class Small(int):
    """An int subclass; the package stores such values as plain ints."""


def shape(matrix, width=None):
    """(rows, columns) of a matrix given as rows; None when the rows are ragged.

    ``width`` is the column count reported for a matrix with no rows.
    """
    widths = {len(row) for row in matrix}
    if len(widths) > 1:
        return None
    return (len(matrix), widths.pop() if widths else width)


def minus_identity(matrix):
    """M - I for a square matrix given as rows."""
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def invariant_subspace(matrix):
    """Saturated integral basis (rows) of the fixed subspace ker(M - I)."""
    return linalg.kernel_basis(minus_identity(matrix))


def fraction_det(rows):
    """Independent determinant: plain fraction elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            result = -result
        result *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    assert result.denominator == 1
    return int(result)


@st.composite
def sparse_sign_matrices(draw, max_dim=64, per_row=3, square=False):
    """Matrices over {-1, 0, 1} with about ``per_row`` nonzeros a row.

    Nonzero entries are -1 or +1 with equal odds, so negative pivots are
    as common as positive ones. The entries come from a seeded generator:
    drawing thousands of entries one by one would dominate the run.
    """
    m = draw(st.integers(1, max_dim))
    n = m if square else draw(st.integers(1, max_dim))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = min(1.0, per_row / n)
    return [
        [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


@st.composite
def mixed_rows(draw, width, min_rows=1, max_rows=8):
    """Rows of ``width`` entries, each either dense (``small_ints``) or
    mostly zero with unit and non-unit nonzeros (``sparse_ints``)."""
    row = st.one_of(
        st.lists(small_ints, min_size=width, max_size=width),
        st.lists(sparse_ints, min_size=width, max_size=width),
    )
    return draw(st.lists(row, min_size=min_rows, max_size=max_rows))


@st.composite
def integer_matrices(draw, min_dim=1, max_dim=5, square=False, entries=small_ints):
    m = draw(st.integers(min_dim, max_dim))
    n = m if square else draw(st.integers(min_dim, max_dim))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return rows


@st.composite
def primitive_curves(draw, genus, entries=st.integers(min_value=-4, max_value=4)):
    vec = draw(
        st.lists(entries, min_size=2 * genus, max_size=2 * genus).filter(lambda v: any(v))
    )
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


@st.composite
def twist_words(
    draw,
    max_genus=4,
    max_letters=6,
    entries=st.integers(min_value=-4, max_value=4),
    powers=(-2, -1, 1, 2),
):
    genus = draw(st.integers(1, max_genus))
    count = draw(st.integers(0, max_letters))
    letters = tuple(
        Twist(draw(primitive_curves(genus, entries)), draw(st.sampled_from(powers)))
        for _ in range(count)
    )
    return TwistWord(genus, letters)


def brute_force_bundle_nullity(b):
    """The first bundle weights (d, k, tag) with b1 = b, for each nullity.

    Scans every (tag, k, d) with d <= k <= b, in tag order, then k, then
    d, through the validating closed forms of the package, and keeps the
    first hit for each nullity c.
    """
    first = {}
    for tag in VALID_TAGS:
        for k in range(0, b + 1):
            for d in range(0, k + 1):
                if tag not in valid_tags(d, k) or bundle_b1_formula(d, k, tag) != b:
                    continue
                first.setdefault(nullity_closed_form(d, k, tag), (d, k, tag))
    return first


@st.composite
def unimodular_matrices(draw, n, max_ops=8):
    """Products of elementary row operations, so det is always +-1."""
    mat = linalg.identity(n)
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == "add" and i != j:
            q = draw(st.integers(-3, 3))
            mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]
        elif kind == "swap" and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == "negate":
            mat[i] = [-x for x in mat[i]]
    return mat
