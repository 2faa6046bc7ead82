"""Wang-sequence data of mapping tori: ranks, tagged bases, torsion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geographer import linalg
from geographer.errors import ConsistencyError
from geographer.mapping_torus import (
    MappingTorus,
    bundle_wang_data,
    wang_cohomology,
)
from geographer.surfaces import (
    TwistWord,
    a_curve,
    b_curve,
    bundle_monodromy_word,
    compose_word,
)
from strategies import minus_identity, twist_words, unimodular_matrices


def test_product_with_circle_genus_two():
    # identity monodromy: the mapping torus is Sigma_2 x S^1
    data = wang_cohomology(MappingTorus(TwistWord(2)))
    assert data.b1 == 5
    assert data.b2 == 5
    assert len(data.mu_basis) == 4
    assert data.torsion == ()


def test_three_torus_mu_rank():
    data = wang_cohomology(MappingTorus(TwistWord(1)))
    assert len(data.mu_basis) == 2


def test_first_betti_formula_on_grid():
    for g in range(1, 7):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                data = bundle_wang_data(d, k, g)
                assert data.b1 == 2 * k - d + 1, (d, k, g)
                assert data.b2 == data.b1
                assert len(data.mu_basis) == data.b2 - 1


def test_twisted_block_torus_is_torsion_free():
    data = bundle_wang_data(1, 1, 2)
    assert data.b1 == 2
    assert data.torsion == ()
    assert len(data.mu_basis) == 1
    assert data.h1_tags == ("theta", "b1")
    assert data.h2_tags == ("Omega", "a1^theta")


def test_fully_twisted_genus_two_has_no_mu_image():
    data = bundle_wang_data(0, 0, 2)
    assert data.b1 == 1
    assert data.mu_basis == ()


def test_canonical_tags_mixed_weights():
    data = bundle_wang_data(1, 2, 3)
    assert data.h1_tags == ("theta", "b1", "a2", "b2")
    assert data.h2_tags == ("Omega", "a1^theta", "a2^theta", "b2^theta")
    assert data.invariant_basis == (
        b_curve(1, 3),
        a_curve(2, 3),
        b_curve(2, 3),
    )
    assert data.mu_basis == (
        a_curve(1, 3),
        a_curve(2, 3),
        b_curve(2, 3),
    )


def test_wrong_preferred_bases_are_rejected():
    torus = MappingTorus(bundle_monodromy_word(1, 1, 2))
    with pytest.raises(ConsistencyError):
        wang_cohomology(torus, invariant_basis=[a_curve(1, 2)])  # not fixed
    with pytest.raises(ConsistencyError):
        wang_cohomology(torus, invariant_basis=[(0, 2, 0, 0)])  # not saturated
    with pytest.raises(ConsistencyError, match="saturated"):
        wang_cohomology(torus, invariant_basis=[(0, -2, 0, 0)])
    with pytest.raises(ConsistencyError):
        wang_cohomology(torus, mu_basis=[b_curve(1, 2)])  # dies in the cokernel
    with pytest.raises(ConsistencyError):
        wang_cohomology(torus, mu_basis=[(2, 0, 0, 0)])  # index two sublattice


@pytest.mark.parametrize(
    "basis",
    [
        [(1, 0, 0, 0), (1, 0, 0, 0)],  # a repeated fixed vector
        [(1, 0, 0, 0), (0, 0, 0, 0)],  # a zero row
    ],
)
def test_dependent_invariant_basis_is_rejected(basis):
    # the rows are fixed and have no nontrivial invariant factor, but they
    # span a rank-one lattice inside the rank-two fixed lattice of a1, b1
    torus = MappingTorus(bundle_monodromy_word(0, 1, 2))
    with pytest.raises(ConsistencyError, match="linearly dependent"):
        wang_cohomology(torus, invariant_basis=basis)
    assert wang_cohomology(torus, invariant_basis=[a_curve(1, 2), b_curve(1, 2)]).b1 == 3


@given(st.sampled_from([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 3), (1, 4, 5)]), st.data())
def test_unimodular_change_of_canonical_invariant_basis_is_accepted(weights, data_):
    # the coordinates over the saturated kernel basis form a unimodular
    # matrix exactly when the rows are another lattice basis of it
    d, k, g = weights
    canonical = bundle_wang_data(d, k, g)
    torus = MappingTorus(bundle_monodromy_word(d, k, g))
    change = data_.draw(unimodular_matrices(len(canonical.invariant_basis)))
    rows = linalg.matmul(change, canonical.invariant_basis)
    data = wang_cohomology(torus, invariant_basis=rows)
    assert data.invariant_basis == tuple(map(tuple, rows))
    assert (data.b1, data.torsion) == (canonical.b1, canonical.torsion)
    rows[0] = [2 * x for x in rows[0]]  # an index-two sublattice
    with pytest.raises(ConsistencyError, match="saturated"):
        wang_cohomology(torus, invariant_basis=rows)


def test_canonical_bases_verified_against_generic_route():
    # bundle_wang_data passes preferred bases through the generic checks
    for d, k, g in [(0, 0, 1), (1, 1, 2), (2, 3, 4), (0, 3, 3), (3, 3, 3)]:
        data = bundle_wang_data(d, k, g)
        generic = wang_cohomology(MappingTorus(bundle_monodromy_word(d, k, g)))
        assert data.b1 == generic.b1
        assert data.torsion == generic.torsion


@given(twist_words(max_genus=3, max_letters=5))
def test_duality_and_mu_rank_for_arbitrary_words(word):
    data = wang_cohomology(MappingTorus(word))
    assert data.b1 == data.b2
    assert len(data.mu_basis) + 1 == data.b2


@given(twist_words(max_genus=5, max_letters=10))
def test_single_smith_form_matches_separate_calls(word):
    # wang_cohomology reads every basis off one Smith form of phi^* - 1
    torus = MappingTorus(word)
    data = wang_cohomology(torus)
    assert torus.monodromy == compose_word(word)
    a = minus_identity(torus.monodromy)
    assert data.invariant_basis == tuple(map(tuple, linalg.kernel_basis(a)))
    assert data.mu_basis == tuple(map(tuple, linalg.cokernel_free_basis(a)))
    assert data.torsion == linalg.elementary_divisors(a)


@given(twist_words(max_genus=3, max_letters=4), twist_words(max_genus=3, max_letters=4))
def test_torsion_invariant_under_symplectic_base_change(word, change):
    if change.genus != word.genus:
        change = TwistWord(word.genus)
    m = compose_word(word)
    basis_change = compose_word(change)
    conjugated = linalg.matmul(
        linalg.matmul(basis_change, m), linalg.unimodular_inverse(basis_change)
    )
    assert linalg.elementary_divisors(minus_identity(m)) == linalg.elementary_divisors(
        minus_identity(conjugated)
    )
    assert linalg.rank(minus_identity(m)) == linalg.rank(minus_identity(conjugated))


def test_mu_image_operation():
    data = wang_cohomology(MappingTorus(bundle_monodromy_word(0, 1, 2)))
    assert len(data.mu_basis) == 2
    assert all(tag.endswith("^theta") for tag in data.h2_tags[1:])
