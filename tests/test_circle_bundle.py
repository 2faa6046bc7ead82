"""Euler tag checks, Gysin ranks, and the assembled skew pairing."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geographer import bundle_manifold, circle_bundle, linalg
from geographer.bundle_manifold import BundleManifoldSpec, audit_bundle, canonical_class
from geographer.circle_bundle import (
    bundle_b1,
    bundle_b1_formula,
    bundle_weights,
    degeneracy_closed_form,
    lefschetz_pairing,
    nullity_closed_form,
    torus_b1_formula,
)
from geographer.mapping_torus import MappingTorus, WangData, wang_cohomology
from geographer.verify import bundle_grid
from strategies import (
    a_curve,
    b_curve,
    bareiss,
    degeneracy_oracle,
    handle_conjugate,
    intersection_form,
    lifted_wang_data,
    mixed_rows,
    unimodular_matrices,
)


def grid(d_max=8):
    for g in range(1, d_max + 1):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                yield d, k, g


def valid_tags(d, k):
    return [0] + ([1] if d else []) + ([2] if d != k else [])


def test_gysin_first_betti_number():
    for d, k, g in grid(6):
        data = lifted_wang_data(d, k, g)
        for tag in valid_tags(d, k):
            expected = 2 * k - d + 2 if tag == 0 else 2 * k - d + 1
            assert bundle_b1(data, tag) == expected, (d, k, g, tag)


def test_bundle_weights_invert_the_b1_and_degeneracy_closed_forms():
    for k in range(0, 41):
        for d in range(0, k + 1):
            for tag in valid_tags(d, k):
                b1 = bundle_b1_formula(d, k, tag)
                degeneracy = degeneracy_closed_form(d, k, tag)
                assert bundle_weights(b1, degeneracy, tag) == (d, k), (d, k, tag)


def test_pairing_frozen_zero_euler_class():
    data = lifted_wang_data(0, 1, 2)
    q = lefschetz_pairing(data, 0)
    # rows: theta, the fixed classes a1 and b1, then eta
    assert data.invariant_basis == (a_curve(1, 2), b_curve(1, 2))
    assert q == [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ]
    assert linalg.rank(q) == 4
    assert degeneracy_oracle(q, 4) == 0


def test_pairing_frozen_twisted_tag_one():
    data = lifted_wang_data(1, 1, 2)
    q = lefschetz_pairing(data, 1)
    # rows: theta and the fixed class b1, no eta
    assert data.invariant_basis == (b_curve(1, 2),)
    assert q == [[0, 0], [0, 0]]
    assert degeneracy_oracle(q, 2) == 2


def test_degeneracy_oracle_requires_skew_input():
    with pytest.raises(ValueError):
        degeneracy_oracle([[1, 0], [0, 1]], 2)


@pytest.mark.parametrize(
    "q, message",
    [
        ([[0, 1, 0], [-1, 0, 0]], "skew"),
        ([[0, 1]], "skew"),
        ([[0, 1], [1, 0]], "skew"),
        ([[0, 2], [-1, 0]], "skew"),
        ([[1]], "skew"),
        ([[0, True], [-1, 0]], "non-integer"),
        ([[False, 1], [-1, 0]], "non-integer"),
        ([[0, 1.0], [-1, 0]], "non-integer"),
        ([[0, 1], [-1]], "ragged"),
        ([], "no rows"),
    ],
    ids=[
        "non-square", "one-row", "symmetric", "unbalanced", "diagonal",
        "bool", "bool-diagonal", "float", "ragged", "empty",
    ],
)
def test_degeneracy_oracle_refuses_malformed_pairings(q, message):
    with pytest.raises(ValueError, match=message):
        degeneracy_oracle(q, 2)


def test_degeneracy_closed_form_values():
    assert degeneracy_closed_form(1, 1, 1) == 2
    assert degeneracy_closed_form(2, 3, 0) == 2
    assert degeneracy_closed_form(0, 2, 2) == 1
    with pytest.raises(ValueError):
        degeneracy_closed_form(0, 2, 1)
    with pytest.raises(ValueError):
        degeneracy_closed_form(2, 2, 2)


def test_nullity_closed_form_values():
    assert nullity_closed_form(1, 1, 0) == 0
    assert nullity_closed_form(2, 2, 1) == 3
    assert nullity_closed_form(1, 2, 1) == 1
    assert nullity_closed_form(1, 2, 2) == 1
    assert nullity_closed_form(1, 1, 1) == 2


@pytest.mark.parametrize(
    "closed_form", [bundle_b1_formula, degeneracy_closed_form, nullity_closed_form]
)
@pytest.mark.parametrize("d, k", [(2, 1), (1, 0), (-1, 0), (-1, 2)])
def test_closed_forms_refuse_weights_out_of_order(closed_form, d, k):
    # tag 0 is valid for any weights, so only the weight rule refuses these
    text = f"weights must satisfy 0 <= d <= k, got ({d}, {k})"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        closed_form(d, k, 0)


def test_torus_b1_formula_refuses_weights_out_of_order():
    for d, k in [(2, 1), (1, 0), (-1, 0), (-1, 2)]:
        text = f"weights must satisfy 0 <= d <= k, got ({d}, {k})"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            torus_b1_formula(d, k)


def test_each_public_closed_form_is_its_kernel_behind_its_checks():
    # the audit reads the kernels on the spec's validated weights; each
    # public closed form checks its arguments once, then returns the kernel
    for d, k, g, e in bundle_grid(12):
        assert torus_b1_formula(d, k) == circle_bundle._torus_b1(d, k)
        assert bundle_b1_formula(d, k, e) == circle_bundle._bundle_b1(d, k, e)
        assert degeneracy_closed_form(d, k, e) == circle_bundle._degeneracy(d, k, e)
        assert nullity_closed_form(d, k, e) == circle_bundle._nullity(d, k, e)
        assert canonical_class(g) == bundle_manifold._canonical_class(g)
    refusals = [
        ((2, 1, 0), "weights must satisfy 0 <= d <= k, got (2, 1)"),
        ((-1, 0, 0), "weights must satisfy 0 <= d <= k, got (-1, 0)"),
        ((0, 2, 3), "Euler tag must be one of (0, 1, 2), got 3"),
        ((1, 2, -1), "Euler tag must be one of (0, 1, 2), got -1"),
        ((0, 2, 1), "tag 1 requires d != 0 (no twisted a_i^theta class exists)"),
        ((2, 2, 2), "tag 2 requires d != k (the untouched block is empty)"),
    ]
    for closed_form in (bundle_b1_formula, degeneracy_closed_form, nullity_closed_form):
        for args, text in refusals:
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                closed_form(*args)
    with pytest.raises(ValueError, match=r"^weights must satisfy 0 <= d <= k, got \(2, 1\)$"):
        torus_b1_formula(2, 1)
    with pytest.raises(ValueError, match="^genus must be positive$"):
        canonical_class(0)


def test_degeneracy_oracle_equals_closed_form_on_grid():
    for d, k, g in grid(5):
        data = lifted_wang_data(d, k, g)
        for tag in valid_tags(d, k):
            q = lefschetz_pairing(data, tag)
            b1 = bundle_b1(data, tag)
            assert degeneracy_oracle(q, b1) == degeneracy_closed_form(d, k, tag), (
                d,
                k,
                g,
                tag,
            )
            assert linalg.rank(q) % 2 == 0


def test_bareiss_rank_matches_rational_rank_on_every_pairing_up_to_genus_32():
    # The assembled pairing of (d, k, g, tag) depends on g only through
    # g >= k, so g = k covers every pairing of the grid up to g = 32;
    # the largest is 66 x 66, at (0, 32, 32, 0).
    largest = 0
    for k in range(33):
        for d in range(k + 1):
            data = lifted_wang_data(d, k, max(k, 1))
            for tag in valid_tags(d, k):
                q = lefschetz_pairing(data, tag)
                assert linalg.rank(q) == linalg.rational_rank(q), (d, k, tag)
                largest = max(largest, len(q))
    assert largest == 66


def test_echelon_rank_matches_bareiss_and_rational_rank_on_every_pairing_up_to_genus_32():
    # rank counts the pivot rows of the echelon; Bareiss and the Fraction
    # elimination are two independent ranks of the same pairing
    for k in range(33):
        for d in range(k + 1):
            data = lifted_wang_data(d, k, max(k, 1))
            for tag in valid_tags(d, k):
                q = lefschetz_pairing(data, tag)
                assert linalg.rank(q) == bareiss(list(q))[0] == linalg.rational_rank(q), (
                    d,
                    k,
                    tag,
                )


GENERIC = [(g, seed) for g in range(3, 9) for seed in (0, 1)]


def generic_pairings(genus, seed):
    """The pairings at tags 0 and 1 on the generic bases of a dense
    conjugate: echelon bases of a rank-2 fixed lattice in general
    position, not unit vectors."""
    data = wang_cohomology(MappingTorus(handle_conjugate(genus, seed)))
    assert data.invariant_basis
    return [lefschetz_pairing(data, tag) for tag in (0, 1)]


@pytest.mark.parametrize("genus, seed", GENERIC)
def test_echelon_rank_matches_bareiss_and_rational_rank_on_generic_pairings(genus, seed):
    for q in generic_pairings(genus, seed):
        assert linalg.rank(q) == bareiss(list(q))[0] == linalg.rational_rank(q)


def bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


@pytest.mark.parametrize("genus, seed", GENERIC)
def test_echelon_rows_of_the_rank_of_generic_pairings_stay_small(monkeypatch, genus, seed):
    # The rows the echelon of rank keeps on these pairings stay within
    # 64 bits (measured: 1 bit, as the fixed lattice is one handle moved
    # by a symplectic map, on which the cup form is unimodular).
    pairings = generic_pairings(genus, seed)
    echelon = linalg._echelon
    kept = []

    def recorded(rows):
        kept.append(echelon(rows))
        return kept[-1]

    monkeypatch.setattr(linalg, "_echelon", recorded)
    for q in pairings:
        linalg.rank(q)
    assert len(kept) == 2
    assert all(bits(rows) <= 64 for rows in kept)


def test_pairing_rows_of_an_empty_invariant_basis_are_frozen():
    empty = WangData((), (), ())
    assert lefschetz_pairing(empty, 0) == [[0, 1], [-1, 0]]
    assert lefschetz_pairing(empty, 1) == [[0]]
    assert lefschetz_pairing(empty, 2) == [[0]]


def test_pairing_rows_are_fresh_lists():
    data = lifted_wang_data(1, 3, 4)
    for tag in valid_tags(1, 3):
        q = lefschetz_pairing(data, tag)
        assert all(type(row) is list for row in q)
        assert len(set(map(id, q))) == len(q)
        q[1][1] = 7
        assert lefschetz_pairing(data, tag)[1][1] == 0


def test_pairing_does_not_depend_on_genus_beyond_k():
    for d, k in [(0, 0), (1, 3), (3, 3), (0, 5)]:
        for tag in valid_tags(d, k):
            pairings = {
                tuple(map(tuple, lefschetz_pairing(lifted_wang_data(d, k, g), tag)))
                for g in range(max(k, 1), 12)
            }
            assert len(pairings) == 1, (d, k, tag)


def test_nullity_bounds_on_grid():
    for d, k, g in grid(8):
        for tag in valid_tags(d, k):
            nullity = nullity_closed_form(d, k, tag)
            assert 0 <= nullity <= degeneracy_closed_form(d, k, tag)
            if tag == 0:
                assert nullity == 0


@given(st.sampled_from([(0, 1, 2), (1, 2, 3), (2, 3, 4)]), st.data())
def test_pairing_rank_invariant_under_lattice_base_change(weights, data_):
    d, k, g = weights
    data = lifted_wang_data(d, k, g)
    base = data.invariant_basis
    change = data_.draw(unimodular_matrices(len(base)))
    q = lefschetz_pairing(data, 0)
    changed = data._replace(invariant_basis=linalg.matmul(change, base))
    q_changed = lefschetz_pairing(changed, 0)
    assert linalg.rank(q) == linalg.rank(q_changed)


@given(st.sampled_from([(0, 1, 2), (1, 2, 3), (2, 3, 3), (0, 3, 4)]), st.data())
def test_pairing_block_with_a_replaced_basis_matches_products(weights, data_):
    # the cup form is read by the one nonzero of each row of J, never densely
    d, k, g = weights
    data = lifted_wang_data(d, k, g)
    m, n = len(data.invariant_basis), 2 * g
    basis = data_.draw(mixed_rows(n, min_rows=m, max_rows=m))
    replaced = data._replace(invariant_basis=basis)
    q = lefschetz_pairing(replaced, 0)
    block = [row[1:1 + m] for row in q[1:1 + m]]
    j = intersection_form(g)
    assert block == linalg.matmul(linalg.matmul(basis, j), linalg.transpose(basis))


def test_bundle_cohomology_package():
    data = lifted_wang_data(1, 1, 2)
    package = audit_bundle(BundleManifoldSpec(1, 1, 2, 1)).certificate
    assert package.b1 == 2
    assert package.degeneracy == 2
    assert package.nullity == 2
    # the pairing on theta and the fixed class b1 vanishes
    assert data.invariant_basis == (b_curve(1, 2),)
    assert lefschetz_pairing(data, 1) == [[0, 0], [0, 0]]
