"""Cohomology of the mapping torus of a surface diffeomorphism.

For a twist word phi on a genus g surface, the mapping torus Y fibers over
the circle and its cohomology is controlled by the map A = phi^* - 1 on
H^1 of the fiber: H^1(Y) is spanned by the pullback theta of the circle
volume class together with lifts of the fixed classes of phi^*, and the
connecting map mu identifies H^2(Y) modulo the fiber class with the free
part of the cokernel of A. Degeneracy and nullity downstream are real
ranks, so all bases here are rational-rank data; the integral torsion of A
is computed and reported as a diagnostic only. A generic word has a
nonsingular A, with empty bases and a torsion found by Smith elimination
modulo det A, which keeps no transforms and no entry as large as det A;
a singular A reads its generic bases off one Smith decomposition, held
as rows of Python ints. Preferred bases are certified from A itself, by
pivot counts and pivot products of unimodular echelon forms, so the
canonical bases of the bundle path cost one Bareiss elimination of A and
no Smith form. Every count and index of that certificate is a
``(name, expected, observed)`` record raised by
:func:`~geographer.errors.enforce` under the torus's label, as the
certificates built on these bases are. Bases are rows of fiber
coordinates, and b1 is read off the invariant basis. The torus and its
Wang data are NamedTuple records; the monodromy itself is an immutable,
packed int matrix, computed on first use.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import linalg, surfaces
from .errors import enforce
from .surfaces import TwistWord


class _MappingTorusFields(NamedTuple):
    word: TwistWord


class MappingTorus(_MappingTorusFields):
    """Mapping torus of a twist word; the monodromy matrix is derived.

    It has no ``__slots__``, so :func:`functools.cached_property` can keep
    the packed monodromy in the instance ``__dict__``.
    """

    @property
    def genus(self) -> int:
        return self.word.genus

    @property
    def label(self) -> str:
        letters = len(self.word.letters)
        return f"Y(genus {self.genus}, {letters} letter{'' if letters == 1 else 's'})"

    @cached_property
    def monodromy(self) -> linalg.FrozenMatrix:
        """The pullback action on H^1, kept packed for the torus's lifetime."""
        return linalg.FrozenMatrix(surfaces.compose_word(self.word))


class WangData(NamedTuple):
    """Bases of H^1(Y) and H^2(Y), as rows of fiber coordinates.

    ``invariant_basis`` rows span the fixed lattice of the monodromy on
    H^1 of the fiber; together with theta they give H^1(Y). ``mu_basis``
    rows are fiber classes whose images under the connecting map, wedged
    with theta, complete the fiber volume class Omega to a basis of H^2(Y).
    ``torsion`` lists the nontrivial elementary divisors of phi^* - 1.
    """

    invariant_basis: tuple[tuple[int, ...], ...]
    mu_basis: tuple[tuple[int, ...], ...]
    torsion: tuple[int, ...]

    @property
    def b1(self) -> int:
        """b1(Y), theta and the fixed lattice; by duality also b2(Y)."""
        return 1 + len(self.invariant_basis)


def wang_cohomology(
    torus: MappingTorus,
    invariant_basis=None,
    mu_basis=None,
) -> WangData:
    """Wang-sequence cohomology data of a mapping torus.

    One Bareiss elimination of A = phi^* - 1 gives its rank, and
    :func:`_rank_and_torsion` its torsion. A nonsingular A, as a generic
    word has, fixes no vector: its generic bases are empty and no Smith
    form is computed. A singular A reads its generic bases and torsion
    off one Smith decomposition, whose count of zeros must be the
    Bareiss corank (``kernel_rank_matches_bareiss``). Optional preferred
    bases replace the generic ones after an exact certificate from A.
    Each must have the shape (corank, 2g) first (``invariant_basis_shape``,
    ``mu_basis_shape``); then

    * an invariant basis B must consist of fixed vectors (A v = 0,
      ``invariant_basis_fixed`` counts them), and B^T must reduce by
      unimodular row steps to one pivot per row of B
      (``invariant_basis_rank``: the rows are independent) with product 1
      (``invariant_basis_index``: the gcd of the maximal minors of B, so
      their span is saturated): then B is a lattice basis of ker A;
    * a mu basis must make [A^T; mu] reduce to 2g pivots
      (``mu_basis_rank``) whose product, the order of
      Z^2g / (im A + span mu), is the order of the torsion of coker A
      (``mu_basis_index``): that holds exactly when mu maps to a lattice
      basis of the free part of coker A.

    With both bases given, a singular A costs a Smith form only when its
    minor is not 1, for the torsion alone. Each check is a
    ``(name, expected, observed)`` record, and the first that fails is
    raised by :func:`~geographer.errors.enforce` under the torus's label.
    """
    n = 2 * torus.genus
    a = [list(row) for row in torus.monodromy]
    for i in range(n):
        a[i][i] -= 1
    rank, torsion, sf = _rank_and_torsion(a, invariant_basis is None or mu_basis is None)
    fixed_rank = n - rank
    counts = []
    if sf:
        counts.append(("kernel_rank_matches_bareiss", fixed_rank, sf.diagonal.count(0)))
    if invariant_basis is None:
        inv = sf.kernel_basis() if sf else []  # no Smith form: A is nonsingular
    else:
        inv, shape = _rows(invariant_basis, n)
        counts.append(("invariant_basis_shape", (fixed_rank, n), shape))
    if mu_basis is None:
        mu = sf.cokernel_free_basis() if sf else []
    else:
        mu, shape = _rows(mu_basis, n)
        counts.append(("mu_basis_shape", (fixed_rank, n), shape))
    enforce(torus, counts)

    certificate = []
    if fixed_rank and (invariant_basis is not None or mu_basis is not None):
        image = linalg.transpose(a)  # row j is A e_j
    if fixed_rank and invariant_basis is not None:
        images = linalg.matmul(inv, image)  # row i is A v_i
        pivots = linalg._echelon_pivots(linalg.transpose(inv))
        certificate += [
            ("invariant_basis_fixed", fixed_rank, sum(not any(row) for row in images)),
            ("invariant_basis_rank", fixed_rank, len(pivots)),
            ("invariant_basis_index", 1, math.prod(pivots)),
        ]
    if fixed_rank and mu_basis is not None:
        pivots = linalg._echelon_pivots(image + mu)
        certificate += [
            ("mu_basis_rank", n, len(pivots)),
            ("mu_basis_index", math.prod(torsion), math.prod(pivots)),
        ]
    enforce(torus, certificate)
    return WangData(tuple(map(tuple, inv)), tuple(map(tuple, mu)), torsion)


def _rank_and_torsion(
    a: linalg.Matrix, generic_bases: bool
) -> tuple[int, tuple[int, ...], linalg.SmithForm | None]:
    """Rank and torsion of A, and its Smith form where one is needed.

    This is the one home of the torsion rule. One Bareiss elimination
    gives the rank and a rank-size minor of A, a multiple of the product
    of the nonzero invariant factors, so a minor of 1 proves them all 1.
    A nonsingular A has |det A| for that minor and an empty kernel and
    free cokernel; its torsion comes from Smith elimination modulo the
    determinant, with no transforms. Only a singular A whose generic
    bases are asked for, or whose minor leaves the torsion in doubt,
    costs a Smith form, which is returned (else None). The elimination
    replaces rows and leaves those of A intact.
    """
    rank, _, minor = linalg._bareiss(list(a))
    if rank == len(a):
        return rank, () if minor == 1 else linalg.elementary_divisors(a, abs(minor)), None
    if minor == 1 and not generic_bases:
        return rank, (), None
    sf = linalg.smith_form(a)
    return rank, sf.elementary_divisors, sf


def _rows(basis, n: int) -> tuple[linalg.Matrix, tuple[int, int]]:
    """A given basis as int rows, and its shape; no rows have n columns."""
    rows = linalg.to_matrix(basis) if len(basis) else []
    return rows, (len(rows), len(rows[0]) if rows else n)


@lru_cache(maxsize=None)
def bundle_wang_data(d: int, k: int, g: int) -> WangData:
    """Wang data of the standard bundle monodromy, on its canonical bases.

    The fixed lattice is spanned by b_1 .. b_d and the untouched handles
    a_{d+1}, b_{d+1}, .., a_k, b_k; the free cokernel by a_1 .. a_d and the
    same untouched handles. Both choices are certified exactly by
    :func:`wang_cohomology`, so a wrong canonical basis cannot slip through.
    """
    word = surfaces.bundle_monodromy_word(d, k, g)
    torus = MappingTorus(word)
    inv_rows = [surfaces.b_curve(i, g) for i in range(1, d + 1)]
    mu_rows = [surfaces.a_curve(i, g) for i in range(1, d + 1)]
    for i in range(d + 1, k + 1):
        inv_rows.extend((surfaces.a_curve(i, g), surfaces.b_curve(i, g)))
        mu_rows.extend((surfaces.a_curve(i, g), surfaces.b_curve(i, g)))
    return wang_cohomology(torus, invariant_basis=inv_rows, mu_basis=mu_rows)
