"""Twist actions on surface cohomology: conventions, composition, fixed ranks."""

import functools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geographer import linalg, surfaces
from geographer.surfaces import Twist, TwistWord, compose_word, cup_gram
from strategies import (
    Small,
    a_curve,
    b_curve,
    bareiss_det,
    bundle_monodromy_word,
    identity,
    intersection_form,
    invariant_subspace,
    inverse,
    is_symplectic,
    lifted_wang_data,
    minus_identity,
    mixed_rows,
    primitive_curves,
    smith_form,
    sparse_ints,
    twist_transvection,
    twist_words,
    zeros,
)


def negated(matrix):
    return [[-x for x in row] for row in matrix]


def test_intersection_form_frozen():
    assert intersection_form(1) == [[0, 1], [-1, 0]]
    j2 = intersection_form(2)
    assert j2 == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]
    assert linalg.matmul(j2, j2) == negated(identity(4))
    assert bareiss_det(j2) == 1
    assert linalg.transpose(j2) == negated(j2)


def assert_gram_matches_the_dense_form(genus, basis):
    j = intersection_form(genus)
    dense = linalg.matmul(linalg.matmul(basis, j), linalg.transpose(basis))
    assert cup_gram(basis) == dense


@given(st.integers(1, 8).flatmap(lambda g: st.tuples(st.just(g), mixed_rows(2 * g, max_rows=10))))
def test_gram_through_the_rows_of_j_matches_the_dense_form(genus_and_basis):
    # the pairing reads J by the one nonzero of each row, never built densely
    assert_gram_matches_the_dense_form(*genus_and_basis)


@pytest.mark.parametrize("genus", range(1, 13))
def test_gram_of_every_bundle_basis_matches_the_dense_form(genus):
    # every nonempty invariant basis of the bundle path at this genus; the
    # bases are built here, in the test, so a faulty member fails these
    # tests and not the collection of the module
    for k in range(genus + 1):
        for d in range(k + 1):
            basis = lifted_wang_data(d, k, genus).invariant_basis
            if basis:
                assert_gram_matches_the_dense_form(genus, basis)


def test_intersection_form_rejects_genus_zero():
    with pytest.raises(ValueError):
        intersection_form(0)


def test_twist_along_a1_matches_pinned_convention():
    # the sign convention: alpha_1 -> alpha_1 + beta_1, beta_1 fixed
    m = twist_transvection(a_curve(1, 1), 1)
    assert m == ((1, 0), (1, 1))


def test_twist_along_b2_genus_two():
    m = twist_transvection(b_curve(2, 2), 2)
    assert m == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, -1),
        (0, 0, 0, 1),
    )
    assert is_symplectic(m)
    # the first handle block is fixed pointwise
    assert [list(row[:2]) for row in m[:2]] == identity(2)
    assert all(x == 0 for row in m[:2] for x in row[2:])
    assert all(x == 0 for row in m[2:] for x in row[:2])


def test_twist_rejects_bad_curves():
    with pytest.raises(ValueError):
        twist_transvection((2, 0), 1)  # not primitive
    with pytest.raises(ValueError):
        twist_transvection((0, 0), 1)  # zero
    with pytest.raises(ValueError):
        twist_transvection((1, 0, 0, 0), 1)  # wrong length
    with pytest.raises(ValueError):
        Twist((1, 0), 0)  # zero power


@pytest.mark.parametrize(
    "curve",
    [(0, 1), [1, 0], (Small(-1), Small(0))],
    ids=["int-tuple", "list", "int-subclass"],
)
def test_twist_converts_curves_with_int(curve):
    letter = Twist(curve, Small(2))
    assert letter.curve == tuple(int(x) for x in curve)
    assert type(letter.curve) is tuple
    assert all(type(x) is int for x in letter.curve)
    assert letter.power == 2 and type(letter.power) is int


def test_twist_keeps_a_tuple_of_exact_ints():
    curve = (0, 0, 1, 0)
    assert Twist(curve).curve is curve


@pytest.mark.parametrize(
    "curve",
    [(), (0, 0), [0, 0, 0, 0], (2, 0), (2, -4, 6, 0), [Small(3), 0, -3, 0]],
    ids=["empty", "zero", "zero-list", "scaled", "scaled-mixed", "scaled-subclass"],
)
def test_twist_refuses_curves_that_are_not_primitive(curve):
    with pytest.raises(ValueError, match="not primitive"):
        Twist(curve)


@pytest.mark.parametrize(
    "curve",
    [
        (True, False),
        (1.0, 0.0),
        (0.9, 1.2),
        [0, Small(3), 1, 2.0],
        (-2, 3, False, 0),
        (2.0, 0.0),
        (None, 1),
        ("one", 0),
    ],
    ids=["bool", "float", "fraction", "mixed-list", "bool-entry", "scaled-float", "none", "string"],
)
def test_twist_refuses_bools_and_non_integers(curve):
    # int() would make (0.9, 1.2) the curve (0, 1) and (True, False) a_1
    with pytest.raises(ValueError, match="^twist curve: non-integer entry"):
        Twist(curve)


def test_twist_power_and_word_genus_refuse_bools_and_non_integers():
    for power in (2.9, 1.0, True):
        with pytest.raises(ValueError, match="^twist power: non-integer value"):
            Twist((0, 1), power)
    for genus in (2.0, True):
        with pytest.raises(ValueError, match="^word genus: non-integer value"):
            TwistWord(genus)
    word = TwistWord(Small(2), (Twist((1, 0, 0, 0), Small(-2)),))
    assert type(word.genus) is int and type(word.letters[0].power) is int


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: Twist((0, 0.9)), "twist curve: non-integer entry 0.9 at index 1"),
        (lambda: Twist(5), "twist curve: expected a sequence of integers, got 5"),
        (lambda: Twist((0, 1), 2.9), "twist power: non-integer value 2.9"),
        (lambda: TwistWord(2.0), "word genus: non-integer value 2.0"),
    ],
    ids=["curve-entry", "curve-not-a-sequence", "power", "genus"],
)
def test_letter_and_word_refusals_name_the_field(build, text):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == text


def transvection_oracle(curve, genus, power):
    """I - power * (J c) c^T, formed entry by entry."""
    jc = [row[0] for row in linalg.matmul(intersection_form(genus), [[x] for x in curve])]
    return [
        [(i == j) - power * jc[i] * x for j, x in enumerate(curve)]
        for i in range(2 * genus)
    ]


@given(twist_words(max_genus=6, max_letters=12, entries=sparse_ints, powers=(-3, -1, 1, 2)))
def test_compose_word_with_non_unit_curves_matches_transvection_product(word):
    # twist_transvection is checked against the formula, then composed
    # left to right as in test_compose_word_matches_product_of_transvections
    factors = []
    for letter in reversed(word.letters):
        t = twist_transvection(letter.curve, word.genus, letter.power)
        assert [list(row) for row in t] == transvection_oracle(
            letter.curve, word.genus, letter.power
        )
        factors.append(t)
    product = functools.reduce(linalg.matmul, factors, identity(2 * word.genus))
    assert [list(row) for row in compose_word(word)] == product


def transvection_product(word):
    """The matrix of a word as the product of its transvections, formed
    entry by entry: the leftmost letter's matrix is the rightmost factor."""
    factors = [
        transvection_oracle(letter.curve, word.genus, letter.power)
        for letter in reversed(word.letters)
    ]
    return functools.reduce(linalg.matmul, factors, identity(2 * word.genus))


def product_bound(word):
    """The product over the letters of 1 + |p| max|c_i| sum|c_i|."""
    bound = 1
    for letter in word.letters:
        norms = [abs(x) for x in letter.curve]
        bound *= 1 + abs(letter.power) * max(norms) * sum(norms)
    return bound


#: powers whose products cross 2^63 and 2^70, where a packed digit of 8
#: bytes no longer holds an entry
huge_powers = (-(2 ** 70), -(2 ** 63) - 1, -5, 3, 2 ** 63, 2 ** 70)


@given(twist_words(max_genus=4, max_letters=6, entries=st.integers(-5, 5), powers=huge_powers))
def test_compose_word_with_huge_powers_matches_transvection_product(word):
    assert [list(row) for row in compose_word(word)] == transvection_product(word)


def test_compose_word_crosses_the_eight_byte_digit():
    # seeded words whose entries pass 2^63 and 2^70, against the entrywise
    # product; the largest entry of each is checked to cross
    rng = random.Random(29)
    for genus, top in [(2, 2 ** 63), (3, 2 ** 70), (4, 2 ** 140)]:
        letters = []
        while len(letters) < 5:
            curve = tuple(rng.randint(-5, 5) for _ in range(2 * genus))
            if any(curve) and math.gcd(*curve) == 1:
                letters.append(Twist(curve, rng.choice(huge_powers)))
        word = TwistWord(genus, tuple(letters))
        product = transvection_product(word)
        assert [list(row) for row in compose_word(word)] == product
        assert max(abs(x) for row in product for x in row) > top


@given(twist_words(max_genus=6, max_letters=10, entries=st.integers(-5, 5),
                   powers=huge_powers + (-1, 1)))
def test_compose_word_entries_lie_within_the_product_bound(word):
    bound = product_bound(word)
    assert all(abs(x) <= bound for row in compose_word(word) for x in row)


@pytest.mark.parametrize("genus", [1, 64])
def test_empty_word_is_identity_at_every_width(genus):
    identity = tuple(tuple(int(i == j) for j in range(2 * genus)) for i in range(2 * genus))
    assert compose_word(TwistWord(genus)) == identity


@given(st.integers(1, 3).flatmap(lambda g: st.tuples(st.just(g), primitive_curves(g))),
       st.integers(-3, 3).filter(bool))
def test_twist_inverse_law(genus_curve, power):
    genus, curve = genus_curve
    m = twist_transvection(curve, genus, power)
    m_inverse = twist_transvection(curve, genus, -power)
    assert linalg.matmul(m, m_inverse) == identity(2 * genus)


def test_disjoint_handle_twists_commute():
    g = 3
    for c1, c2 in [(a_curve(1, g), b_curve(3, g)), (b_curve(1, g), a_curve(2, g))]:
        m1 = twist_transvection(c1, g)
        m2 = twist_transvection(c2, g)
        assert linalg.matmul(m1, m2) == linalg.matmul(m2, m1)


def test_empty_word_is_identity():
    assert [list(row) for row in compose_word(TwistWord(2))] == identity(4)


def test_word_followed_by_inverse_is_identity():
    word = TwistWord(2, (Twist(a_curve(1, 2)), Twist(b_curve(2, 2), -1)))
    combined = TwistWord(2, word.letters + inverse(word).letters)
    assert [list(row) for row in compose_word(combined)] == identity(4)


def test_kind_counts_partition_the_handles():
    # d twisted, k - d untouched and g - k paired handles: every handle has
    # one kind, and the word spelled from the counts has one letter group
    # per handle
    for g in range(1, 9):
        for k in range(g + 1):
            for d in range(k + 1):
                counts = surfaces.kind_counts(d, k, g)
                assert counts == (d, k - d, g - k) and sum(counts) == g, (d, k, g)
                letters = sum(n * len(kind.letters) for n, kind in zip(counts, surfaces.HANDLE_KINDS))
                assert len(bundle_monodromy_word(d, k, g).letters) == letters == d + 2 * (g - k)


def test_bundle_word_letters_frozen():
    word = bundle_monodromy_word(1, 1, 2)
    assert [(l.curve, l.power) for l in word.letters] == [
        (b_curve(2, 2), 1),
        (a_curve(2, 2), -1),
        (a_curve(1, 2), 1),
    ]
    word = bundle_monodromy_word(2, 3, 4)
    assert [(l.curve, l.power) for l in word.letters] == [
        (b_curve(4, 4), 1),
        (a_curve(4, 4), -1),
        (a_curve(2, 4), 1),
        (a_curve(1, 4), 1),
    ]
    assert bundle_monodromy_word(0, 2, 2).letters == ()
    assert bundle_monodromy_word(0, 3, 3).letters == ()


def test_bundle_word_rejects_bad_weights():
    for d, k, g in [(1, 0, 2), (0, 3, 2), (-1, 0, 2), (0, 0, 0)]:
        with pytest.raises(ValueError):
            bundle_monodromy_word(d, k, g)


def test_bundle_monodromy_frozen_matrix():
    m = compose_word(bundle_monodromy_word(1, 1, 2))
    assert m == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 1, -1),
        (0, 0, -1, 2),
    )
    assert bareiss_det(m) == 1
    assert is_symplectic(m)
    assert invariant_subspace(m) == [[0, 1, 0, 0]]


def test_fixed_subspace_of_identity():
    assert len(invariant_subspace(identity(4))) == 4


def test_untwisted_pair_block_has_no_fixed_vector():
    m = compose_word(bundle_monodromy_word(0, 0, 2))
    assert len(invariant_subspace(m)) == 0


def test_fixed_subspace_rank_formula_on_grid():
    # dim ker(M - I) = 2k - d, by two independent eliminations
    for g in range(1, 7):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                m = compose_word(bundle_monodromy_word(d, k, g))
                a = minus_identity(m)
                from_bareiss = 2 * g - linalg.rank(a)
                from_fractions = 2 * g - linalg.rational_rank(a)
                assert from_bareiss == from_fractions == 2 * k - d, (d, k, g)


def test_fixed_subspace_spans_expected_classes():
    d, k, g = 2, 4, 5
    m = compose_word(bundle_monodromy_word(d, k, g))
    expected = [b_curve(i, g) for i in range(1, d + 1)]
    for i in range(d + 1, k + 1):
        expected.extend([a_curve(i, g), b_curve(i, g)])
    a = minus_identity(m)
    for vec in expected:
        column = linalg.transpose([vec])
        assert linalg.matmul(a, column) == zeros(2 * g, 1)
    assert len(invariant_subspace(m)) == len(expected)
    assert smith_form(expected).elementary_divisors == ()


@given(twist_words())
def test_words_compose_to_symplectic_matrices(word):
    m = compose_word(word)
    assert is_symplectic(m)


@given(twist_words(max_genus=8, max_letters=24))
def test_compose_word_matches_product_of_transvections(word):
    # the leftmost letter acts last, so its matrix is the rightmost factor:
    # compose_word(w1 ... wL) = T(wL) @ ... @ T(w1), multiplied left to right
    factors = [
        twist_transvection(letter.curve, word.genus, letter.power)
        for letter in reversed(word.letters)
    ]
    product = functools.reduce(linalg.matmul, factors, identity(2 * word.genus))
    assert [list(row) for row in compose_word(word)] == product


@given(twist_words(max_genus=3, max_letters=4))
def test_homology_action_is_adjoint_and_symplectic(word):
    # the action on H_1 is the adjoint of the H^1 action under evaluation
    h1 = linalg.transpose(compose_word(word))
    j = intersection_form(word.genus)
    assert linalg.matmul(linalg.matmul(linalg.transpose(h1), j), h1) == j

