"""Exactness properties of the integer linear algebra core."""

import hashlib
import itertools
import math
import random
import re
import sys
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geographer import linalg
from strategies import (
    bareiss,
    bareiss_det,
    cokernel_free_coordinates,
    fraction_det,
    integer_matrices,
    is_unimodular,
    kernel_coordinates,
    rational_inverse,
    real_size_matrices,
    shape,
    small_ints,
    smith_form,
    sparse_ints,
    sparse_sign_matrices,
    unimodular_matrices,
)


def test_to_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.to_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        linalg.to_matrix([[1.5]])
    with pytest.raises(ValueError):
        linalg.to_matrix([[True]])


def test_to_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        linalg.to_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        linalg.to_matrix([[1], 2])


def test_to_matrix_copies_converts_and_names_the_refused_entry():
    rows = [(1, 2), [3, 4]]
    out = linalg.to_matrix(rows)
    assert out == [[1, 2], [3, 4]] and all(type(row) is list for row in out)
    out[1][0] = 9
    assert rows[1] == [3, 4]

    class Integral(int):
        pass

    converted = linalg.to_matrix([[Integral(5), 1]])
    assert converted == [[5, 1]] and type(converted[0][0]) is int
    for data, text in [
        ([[1, 2], [3]], "ragged matrix: row 1 has 1 entries, not 2"),
        ([[1, 2], [1.5, 2]], "non-integer entry 1.5 at (1, 0)"),
        ([[1, True]], "non-integer entry True at (0, 1)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            linalg.to_matrix(data)


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        linalg.matmul([[1, 2]], [[1, 2]])


FROZEN_EDGE_ROWS = [
    [[1, -2], [3, 4]],
    [[127, -128], [128, -129]],  # the edges of the one-byte packing
    [[2**63 - 1, -(2**63)], [0, 1]],  # the edges of the widest packing
    [[2**63, 0], [0, -(2**70)]],  # too wide to pack
    # each edge of each packing, then one past it on either side
    [[127, -128], [0, 1]],
    [[128, 0], [0, 1]],
    [[0, -129], [0, 1]],
    [[2**15 - 1, -(2**15)], [0, 1]],
    [[2**15, 0], [0, 1]],
    [[0, -(2**15) - 1], [0, 1]],
    [[2**31 - 1, -(2**31)], [0, 1]],
    [[2**31, 0], [0, 1]],
    [[0, -(2**31) - 1], [0, 1]],
    [[2**63, 0], [0, 1]],
    [[0, -(2**63) - 1], [0, 1]],
]


@pytest.mark.parametrize("rows", FROZEN_EDGE_ROWS)
def test_frozen_matrix_keeps_entries_exactly(rows):
    frozen = linalg.FrozenMatrix(rows)
    # the narrowest signed packing whose range holds every entry, if any
    flat = [x for row in rows for x in row]
    limit = {c: 2 ** (8 * array(c).itemsize - 1) for c in "bhiq"}
    code = next((c for c in "bhiq" if all(-limit[c] <= x < limit[c] for x in flat)), None)
    assert getattr(frozen._flat, "typecode", None) == code
    assert len(frozen) == 2
    assert list(frozen) == [tuple(row) for row in rows]
    assert frozen[-1] == tuple(rows[-1])
    assert frozen == rows and rows == frozen
    assert frozen != [[x + 1 for x in row] for row in rows]
    assert all(type(x) is int for row in frozen for x in row)


# and one empty row, which the two-row edge-row test above cannot take
@pytest.mark.parametrize("rows", FROZEN_EDGE_ROWS + [[[]]])
def test_frozen_matrix_packs_tuple_rows_as_it_packs_lists(rows):
    # compose_word builds tuple rows; the packing does not depend on that
    as_tuples = linalg.FrozenMatrix(tuple(map(tuple, rows)))
    as_lists = linalg.FrozenMatrix(rows)
    assert type(as_tuples._flat) is type(as_lists._flat)
    assert getattr(as_tuples._flat, "typecode", None) == getattr(as_lists._flat, "typecode", None)
    assert list(as_tuples._flat) == list(as_lists._flat)
    assert as_tuples == as_lists == rows and len(as_tuples) == len(rows)


@pytest.mark.parametrize("rows", FROZEN_EDGE_ROWS)
def test_frozen_matrix_packs_package_rows_as_the_validating_constructor(rows):
    # FrozenMatrix has one constructor: rows the package computed (here a
    # product with the identity) pack exactly as the rows it was given
    built = linalg.FrozenMatrix(linalg.matmul(rows, linalg.identity(len(rows[0]))))
    given = linalg.FrozenMatrix(rows)
    assert type(built._flat) is type(given._flat)
    assert getattr(built._flat, "typecode", None) == getattr(given._flat, "typecode", None)
    assert list(built._flat) == list(given._flat)
    assert built == given == rows and len(built) == len(given)


def test_identity_and_zeros_hold_python_ints():
    eye = linalg.identity(3)
    assert all(type(x) is int for row in eye for x in row)
    assert linalg.matmul(eye, eye) == eye
    assert shape(linalg.zeros(2, 3)) == (2, 3)


@given(integer_matrices(square=True))
def test_det_matches_fraction_elimination(rows):
    assert bareiss_det(rows) == fraction_det(rows)


@given(integer_matrices(square=True, max_dim=8), st.data())
def test_det_sign_under_row_negation_and_swaps(rows, data):
    # a negated row and a swap each flip the sign; negating a row can make
    # its pivot negative
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows) - 1))
    negated = [[-x for x in row] if r == i else list(row) for r, row in enumerate(rows)]
    swapped = [list(row) for row in rows]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    base = bareiss_det(rows)
    assert bareiss_det(negated) == fraction_det(negated) == -base
    assert bareiss_det(swapped) == fraction_det(swapped) == (base if i == j else -base)


@settings(max_examples=40)
@given(sparse_sign_matrices(square=True))
def test_det_of_sparse_sign_matrices_matches_fraction_elimination(rows):
    assert bareiss_det(rows) == fraction_det(rows)


def test_det_frozen_values():
    # bareiss gives (rank, sign, last pivot); the last pivot is a
    # rank-size minor, |det A| for a nonsingular A
    assert bareiss([[2, 0], [0, 3]]) == (2, 1, 6)
    assert bareiss([[0, 1], [-1, 0]]) == (2, 1, 1)
    assert bareiss([[1, 2], [2, 4]]) == (1, 1, 1)
    assert bareiss([[2, 4], [1, 2]]) == (1, 1, 2)
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [-1, 0]]) == 1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


@given(integer_matrices())
def test_smith_decomposition_properties(rows):
    a = linalg.to_matrix(rows)
    sf = smith_form(a)
    t = rational_inverse(sf.t_inv)
    assert linalg.matmul(linalg.matmul(sf.s, sf.d), t) == a
    assert linalg.matmul(a, sf.t_inv) == linalg.matmul(sf.s, sf.d)
    assert bareiss_det(sf.s) in (1, -1)
    assert bareiss_det(t) in (1, -1)
    diag = sf.diagonal
    assert all(x >= 0 for x in diag)
    for previous, current in zip(diag, diag[1:]):
        if current != 0:
            assert previous != 0 and current % previous == 0
        # a zero never precedes a nonzero entry
        if previous == 0:
            assert current == 0
    off_diagonal = [
        sf.d[i][j]
        for i in range(len(a))
        for j in range(len(a[0]))
        if i != j
    ]
    assert all(x == 0 for x in off_diagonal)


def seeded_matrices(count=300, seed=20261018, max_dim=8):
    """Matrices up to max_dim x max_dim, dense or sparse, with entries up
    to 1, 9 or 50 in absolute value, from a seeded generator."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
        entries = rng.choice(((-9, 9), (-1, 1), (-50, 50)))
        density = rng.choice((0.3, 0.6, 1.0))
        yield [[rng.randint(*entries) if rng.random() < density else 0 for _ in range(n)]
               for _ in range(m)]


#: sha256 of repr((d, s, t_inv)) of the Smith forms of ``seeded_matrices()``,
#: as computed by the release that also kept T and S^-1.
SMITH_DIGEST = "7de8a408894a74980b92647ee914cbadf14e73d8cf6e7fe695354236b06f93d2"


def test_smith_form_entries_are_pinned():
    digest = hashlib.sha256()
    for a in seeded_matrices():
        sf = smith_form(a)
        assert sf._fields == ("d", "s", "t_inv")
        digest.update(repr((sf.d, sf.s, sf.t_inv)).encode())
    assert digest.hexdigest() == SMITH_DIGEST


@given(integer_matrices())
def test_rank_agrees_with_rational_elimination(rows):
    assert linalg.rank(rows) == linalg.rational_rank(rows)


@given(integer_matrices(max_dim=12, entries=st.integers(-50, 50)))
def test_bareiss_rank_matches_rational_and_smith_rank(rows):
    # the three ranks come from three independent eliminations
    smith_rank = sum(1 for x in smith_form(rows).diagonal if x)
    assert linalg.rank(rows) == linalg.rational_rank(rows) == smith_rank


@given(integer_matrices(max_dim=12, entries=st.integers(-50, 50)))
def test_bareiss_rank_of_rank_deficient_products(rows):
    # A B B^T has rank at most 3 for the fixed 3-column B below, so the
    # elimination meets pivotless columns at the large sizes too
    b = [[(i * 7 + j * 3) % 5 - 2 for j in range(3)] for i in range(len(rows[0]))]
    product = linalg.matmul(linalg.matmul(rows, b), linalg.transpose(b))
    assert linalg.rank(product) == linalg.rational_rank(product) <= 3


@settings(max_examples=60)
@given(sparse_sign_matrices())
def test_bareiss_rank_of_sparse_sign_matrices_up_to_64(rows):
    assert linalg.rank(rows) == linalg.rational_rank(rows)


def test_bareiss_negative_pivots_frozen():
    # every pivot of the first is negative; the second needs a swap first.
    # Each negative pivot row is negated, so every pivot is positive and
    # the sign counts the swaps and the negations.
    assert bareiss([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]) == (3, -1, 1)
    assert bareiss([[0, -1], [-1, 1]]) == (2, -1, 1)
    assert bareiss([[-2, 1], [1, -1]]) == (2, 1, 1)
    assert bareiss_det([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]) == -1
    assert bareiss_det([[0, -1], [-1, 1]]) == -1
    assert bareiss_det([[-2, 1], [1, -1]]) == 1
    assert linalg.rank([[-1, 1, 0], [1, -1, 0], [0, 0, -1]]) == 2


@given(integer_matrices())
def test_kernel_is_saturated_and_annihilates(rows):
    a = linalg.to_matrix(rows)
    kernel = smith_form(a).kernel_basis()
    assert shape(kernel, len(a[0])) == (len(a[0]) - linalg.rank(a), len(a[0]))
    if kernel:
        assert linalg.matmul(a, linalg.transpose(kernel)) == linalg.zeros(len(a), len(kernel))
        # a saturated basis has unit invariant factors and primitive rows
        assert smith_form(kernel).elementary_divisors == ()
        assert all(math.gcd(*row) == 1 for row in kernel)


@given(integer_matrices())
def test_cokernel_free_basis_size(rows):
    a = linalg.to_matrix(rows)
    sf = smith_form(a)
    basis = sf.cokernel_free_basis()
    assert shape(basis, len(a)) == (len(a) - linalg.rank(a), len(a))
    if basis:
        coords = cokernel_free_coordinates(sf, basis)
        assert is_unimodular(coords)


def test_cokernel_coordinates_shape_mismatch():
    sf = smith_form([[2, 0], [0, 0]])
    with pytest.raises(ValueError):
        cokernel_free_coordinates(sf, [[1, 2, 3]])


@given(integer_matrices(), st.data())
def test_kernel_coordinates_recover_a_change_of_kernel_basis(rows, data):
    sf = smith_form(rows)
    basis = sf.kernel_basis()
    if basis:
        change = data.draw(unimodular_matrices(len(basis)))
        assert kernel_coordinates(sf, basis) == linalg.identity(len(basis))
        assert kernel_coordinates(sf, linalg.matmul(change, basis)) == change
    else:
        assert kernel_coordinates(sf, [[0] * len(rows[0])]) == []


def test_kernel_coordinates_shape_mismatch():
    sf = smith_form([[2, 0], [0, 0]])
    with pytest.raises(ValueError):
        kernel_coordinates(sf, [[1, 2, 3]])


def maximal_minor_gcd(rows):
    """gcd of the maximal minors of a matrix with at least as many rows as
    columns, over every choice of rows, by fraction elimination."""
    width = len(rows[0])
    return math.gcd(*(fraction_det(pick) for pick in itertools.combinations(rows, width)))


def echelon_pivots(rows):
    return linalg._echelon(rows).pivots


@given(integer_matrices(max_dim=6), st.data())
def test_echelon_pivots_count_the_rank_and_multiply_to_the_minor_gcd(rows, data):
    # stacking extra rows keeps the shape tall enough for maximal minors;
    # a copy of a row and a multiple of one add no rank
    extra = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    rows = rows + [list(rows[i]) for i in extra] + [[3 * x for x in rows[0]]]
    before = [list(row) for row in rows]
    pivots = echelon_pivots(rows)
    assert rows == before  # the input rows are not mutated
    assert len(pivots) == linalg.rational_rank(rows)
    assert all(p > 0 for p in pivots)
    if len(pivots) == len(rows[0]):
        assert math.prod(pivots) == maximal_minor_gcd(rows)


@given(integer_matrices(max_dim=6), st.data())
def test_echelon_pivots_are_invariant_under_unimodular_row_steps(rows, data):
    # a unimodular change of the rows spans the same lattice, whose echelon
    # pivots are determined by it
    change = data.draw(unimodular_matrices(len(rows)))
    changed = linalg.matmul(change, rows)
    assert echelon_pivots(changed) == echelon_pivots(rows)


def test_echelon_pivots_frozen():
    assert echelon_pivots([[2, 1], [0, 3]]) == [2, 3]
    assert echelon_pivots([[4, 0], [6, 0], [0, 1]]) == [2, 1]
    assert echelon_pivots([[0, 0], [0, 0]]) == []
    row = [1, 2]
    assert echelon_pivots([row, row]) == [1]  # one object twice
    assert echelon_pivots([[-3, 1], [0, -2]]) == [3, 2]
    assert linalg._echelon([[4, 0], [6, 0], [0, 1]]) == [[2, 0], [0, 1]]
    assert linalg._echelon([[0, 5], [1, 7]]) == [[1, 7], [0, 5]]


@given(integer_matrices(max_dim=6))
def test_echelon_pivots_are_the_leading_entries_of_its_rows(rows):
    # the elimination records each pivot as it keeps the row
    echelon = linalg._echelon(rows)
    assert echelon.pivots == [abs(next(filter(None, row))) for row in echelon]


@given(integer_matrices(max_dim=6))
def test_echelon_rows_lead_in_increasing_columns_and_span_the_input(rows):
    # the pivot rows are a basis of the lattice of the input rows: they
    # number its rank, and each input row is an integer combination of them
    echelon = linalg._echelon(rows)
    leads = [next(j for j, x in enumerate(row) if x) for row in echelon]
    assert leads == sorted(set(leads))
    assert len(echelon) == linalg.rational_rank(rows)
    for row in rows:
        rest = list(row)
        for pivot_row, j in zip(echelon, leads):
            q, r = divmod(rest[j], pivot_row[j])
            assert r == 0
            rest = [x - q * y for x, y in zip(rest, pivot_row)]
        assert not any(rest)


@given(integer_matrices(max_dim=6))
def test_augmented_echelon_splits_off_the_saturated_left_kernel(rows):
    # the second part is a lattice basis of {c : c M = 0}, the kernel of
    # M^T, so its coordinates over the Smith oracle's kernel basis of M^T
    # are unimodular; the first part maps M onto its row lattice
    moved, kernel = linalg._augmented_echelon(rows)
    assert len(moved) == linalg.rank(rows)
    assert len(moved) + len(kernel) == len(rows)
    sf = smith_form(linalg.transpose(rows))
    if kernel:
        assert not any(map(any, linalg.matmul(kernel, rows)))
        assert is_unimodular(kernel_coordinates(sf, kernel))
    else:
        assert not sf.kernel_basis()
    if moved:
        assert echelon_pivots(linalg.matmul(moved, rows)) == echelon_pivots(rows)


def test_elementary_divisors_frozen():
    def divisors(rows):
        return smith_form(rows).elementary_divisors

    assert divisors([[2, 0], [0, 3]]) == (6,)
    assert divisors([[1, 0], [0, 1]]) == ()
    assert divisors([[2, 0], [0, 2]]) == (2, 2)
    assert divisors([[0, 0], [0, 0]]) == ()


def modular_divisors(rows):
    """``elementary_divisors`` of a nonsingular matrix, modulo |det A|."""
    return linalg.elementary_divisors(rows, abs(bareiss_det(rows)))


def test_modular_elementary_divisors_frozen():
    divisors = modular_divisors  # the modulus is |det A|
    assert divisors([[2, 0], [0, 3]]) == (6,)
    assert divisors([[1, 0], [0, 1]]) == ()
    assert divisors([[2, 0], [0, 2]]) == (2, 2)
    assert divisors([[-5]]) == (5,)
    assert divisors([[4, 6], [6, 4]]) == (2, 10)
    assert divisors([[0, 4], [6, 0]]) == (2, 12)
    with pytest.raises(ValueError, match="non-square"):
        divisors([[1, 2]])


@st.composite
def scrambled_diagonals(draw, max_dim=6):
    """U D V for unimodular U, V and a diagonal D of small divisors that
    share factors, so the invariant factors differ from the diagonal."""
    n = draw(st.integers(1, max_dim))
    diagonal = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 9, 12)), min_size=n, max_size=n))
    d = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    u, v = draw(unimodular_matrices(n)), draw(unimodular_matrices(n))
    return linalg.matmul(linalg.matmul(u, d), v)


@given(
    st.one_of(
        integer_matrices(max_dim=8, square=True),
        integer_matrices(max_dim=8, square=True, entries=sparse_ints),
        scrambled_diagonals(),
    )
)
def test_modular_elementary_divisors_match_smith_form(rows):
    assume(bareiss_det(rows))
    assert modular_divisors(rows) == smith_form(rows).elementary_divisors


def traced_divisors(a):
    """The modular divisors of ``a``, and the largest absolute entry of
    every row the kernel holds, read at each line it runs."""
    kernel = linalg.elementary_divisors.__code__
    largest = 0

    def line(frame, event, arg):
        nonlocal largest
        held = frame.f_locals
        rows = [held.get(name) for name in ("row", "top", "stray")] + list(held.get("block") or ())
        largest = max([largest] + [max(max(row), -min(row)) for row in rows if row])
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code is kernel else None)
    try:
        divisors = modular_divisors(a)
    finally:
        sys.settrace(None)
    return divisors, largest


REAL_SIZE = dict(real_size_matrices())


@pytest.mark.parametrize("label", list(REAL_SIZE))
def test_modular_elementary_divisors_stay_below_the_determinant(label):
    # Dense skew matrices up to 30 x 30 and phi^* - 1 of genus 8-10 words:
    # a full Smith form of a 24 x 24 skew matrix grew transform entries of
    # millions of bits. Here every row held stays below |det A|.
    a = REAL_SIZE[label]
    det = abs(bareiss_det(a))
    divisors, largest = traced_divisors(a)
    assert 0 < largest < det
    assert math.prod(divisors) == det
    assert all(y % x == 0 for x, y in zip(divisors, divisors[1:]))
    if len(a) <= 16:
        assert divisors == smith_form(a).elementary_divisors


@given(st.integers(1, 6).flatmap(unimodular_matrices))
def test_rational_inverse_round_trip(a):
    inv = rational_inverse(a)
    assert linalg.matmul(a, inv) == linalg.identity(len(a))
    assert linalg.matmul(inv, a) == linalg.identity(len(a))


def test_rational_inverse_refuses_singular_and_non_integral_inverses():
    with pytest.raises(ValueError):
        rational_inverse([[1, 2], [2, 4]])
    with pytest.raises(AssertionError):
        rational_inverse([[2, 0], [0, 1]])


@given(st.lists(small_ints, min_size=1, max_size=6))
def test_primitivity_scaling(vec):
    if any(vec):
        g = math.gcd(*vec)
        assert math.gcd(*(x // g for x in vec)) == 1
    else:
        assert math.gcd(*vec) == 0
