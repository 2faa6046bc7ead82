"""sympy's Smith normal form as a third, optional oracle for the Smith
form of the tests, for the elementary divisors found modulo the
determinant, and for the torsion of phi^* - 1, nonsingular or singular.

sympy is not a dependency of the package; these tests are skipped when it
is not installed. Its diagonal may carry signs, so absolute values are
compared with the nonnegative diagonal of :func:`strategies.smith_form`.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geographer import linalg
from geographer.mapping_torus import MappingTorus, wang_cohomology
from geographer.surfaces import compose_word
from strategies import (
    bareiss_det,
    handle_conjugate,
    integer_matrices,
    minus_identity,
    real_size_matrices,
    real_size_words,
    smith_form,
    sparse_ints,
    twist_words,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402


def sympy_diagonal(rows):
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return tuple(abs(int(snf[i, i])) for i in range(min(snf.shape)))


@given(
    st.one_of(
        integer_matrices(max_dim=8),
        integer_matrices(max_dim=8, entries=sparse_ints),
    )
)
def test_smith_diagonal_matches_sympy_on_random_matrices(rows):
    assert smith_form(rows).diagonal == sympy_diagonal(rows)


@given(twist_words(max_genus=4, max_letters=8))
def test_smith_diagonal_matches_sympy_on_twist_words(word):
    a = minus_identity(compose_word(word))
    assert smith_form(a).diagonal == sympy_diagonal(a)


REAL_SIZE = dict(real_size_matrices())


@pytest.mark.parametrize("label", list(REAL_SIZE))
def test_modular_elementary_divisors_match_sympy_at_real_sizes(label):
    # dense skew matrices of dimension 20 to 30 and genus 8-10 words
    a = REAL_SIZE[label]
    assert linalg.rank(a) == linalg.rational_rank(a) == len(a)
    divisors = linalg.elementary_divisors(a, abs(bareiss_det(a)))
    assert divisors == tuple(x for x in sympy_diagonal(a) if x != 1)


REAL_SIZE_WORDS = dict(real_size_words())


@pytest.mark.parametrize("label", list(REAL_SIZE_WORDS))
def test_nonsingular_torsion_matches_sympy_on_real_size_words(label):
    # a nonsingular phi^* - 1 gets its torsion from the echelon of its
    # transpose, modulo the product of that echelon's pivots
    word = REAL_SIZE_WORDS[label]
    a = minus_identity(compose_word(word))
    assert linalg.rank(a) == len(a)
    expected = tuple(x for x in sympy_diagonal(a) if x != 1)
    assert expected
    assert wang_cohomology(MappingTorus(word)).torsion == expected


@pytest.mark.parametrize("genus, seed", [(8, 0), (9, 0), (10, 0), (10, 10)])
def test_singular_torsion_matches_sympy_on_dense_conjugates(genus, seed):
    # a singular phi^* - 1 whose echelon of its transpose has a pivot
    # other than 1 gets its torsion from an echelon block of its image,
    # modulo that block's determinant
    word = handle_conjugate(genus, seed)
    a = minus_identity(compose_word(word))
    assert linalg.rank(a) == 2 * genus - 2
    expected = tuple(x for x in sympy_diagonal(a) if x not in (0, 1))
    assert expected
    assert wang_cohomology(MappingTorus(word)).torsion == expected
