"""Cohomology of the mapping torus of a surface diffeomorphism.

For a twist word phi on a genus g surface, the mapping torus Y fibers over
the circle and its cohomology is controlled by the map A = phi^* - 1 on
H^1 of the fiber: H^1(Y) is spanned by the pullback theta of the circle
volume class together with lifts of the fixed classes of phi^*, and the
connecting map mu identifies H^2(Y) modulo the fiber class with the free
part of the cokernel of A. Degeneracy and nullity downstream are real
ranks, so all bases here are rational-rank data; the integral torsion of A
is computed and reported as a diagnostic only. Rank, torsion and bases
come from one family of unimodular echelon forms
(:func:`~geographer.linalg._echelon`), whose rows measured far smaller
entries than the transforms of a Smith form (see
:mod:`~geographer.linalg`). The echelon of A^T gives the rank of A and
its torsion (:func:`_torsion`). A generic word has a nonsingular A, with
empty bases and a torsion found by Smith elimination of that echelon's
trailing block from its first non-unit pivot on, modulo the product of
that block's pivots, which keeps no transforms and no entry as large as
det A; a singular A gets its torsion the same way from a nonsingular
echelon block of its image. :func:`wang_cohomology` either reads
generic bases off echelon forms with an identity block appended, or is
given a pair of preferred bases; either way the bases pass one
certificate, by pivot counts and pivot products of echelon forms built
from A. It is the one dense path, for any word, and works on the rows of
:func:`~geographer.surfaces.compose_word`. The standard word is a direct
sum of the three genus-1 handle kinds of
:data:`~geographer.surfaces.HANDLE_KINDS`, so the bundle path builds no
genus-g word and no genus-g row: :func:`bundle_wang_data` is the Wang
data of one kind's genus-1 member, certified by :func:`wang_cohomology`
once per cache fill, and the bundle certificate sums the members over
the handles (:func:`~geographer.bundle_manifold.audit_bundle`), reading
each member's values from its :class:`BundleMember`.
Every count and index of a certificate is a ``(name, expected,
observed)`` record raised by :func:`~geographer.errors.enforce` under the
torus's label, as the certificates built on these bases are. Bases are
rows of fiber coordinates, and b1 is read off the invariant basis. The
torus and its Wang data are slotted NamedTuple records, but for a cached
:class:`BundleMember`, whose ``__dict__`` holds one mutable attribute;
only a caller that keeps the monodromy reads it packed, from
``MappingTorus.monodromy``.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from . import linalg, surfaces
from .errors import enforce
from .surfaces import TwistWord


class _MappingTorusFields(NamedTuple):
    word: TwistWord


class MappingTorus(_MappingTorusFields):
    """Mapping torus of a twist word; the monodromy matrix is derived."""

    __slots__ = ()

    def __new__(cls, word):
        if not isinstance(word, TwistWord):
            raise ValueError(f"mapping torus word: expected a TwistWord, got {word!r}")
        return super().__new__(cls, word)

    @property
    def genus(self) -> int:
        return self.word.genus

    @property
    def label(self) -> str:
        letters = len(self.word.letters)
        return f"Y(genus {self.genus}, {letters} letter{'' if letters == 1 else 's'})"

    @property
    def monodromy(self) -> linalg.FrozenMatrix:
        """The pullback action on H^1, packed anew on each read."""
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


def wang_cohomology(torus: MappingTorus, bases=None) -> WangData:
    """Wang-sequence cohomology data of a mapping torus, in two modes.

    A = phi^* - 1 is built from the rows of
    :func:`~geographer.surfaces.compose_word`; the echelon H of A^T gives
    its rank, and :func:`_torsion` its torsion from H. With no ``bases``
    the generic bases are computed: a nonsingular A, as a generic word
    has, fixes no vector, so they are empty; a singular A gets them from
    :func:`_generic_bases`. With the pair
    ``bases=(invariant_basis, mu_basis)`` the given bases are used, and
    anything but a pair is a ValueError. Either way the bases are
    certified exactly from A. Each basis must have the shape (corank, 2g)
    first (``invariant_basis_shape``, ``mu_basis_shape``); then

    * the invariant basis B must consist of fixed vectors (A v = 0,
      ``invariant_basis_fixed`` counts them), and B^T must reduce by
      unimodular row steps to one pivot per row of B
      (``invariant_basis_rank``: the rows are independent) with product 1
      (``invariant_basis_index``: the gcd of the maximal minors of B, so
      their span is saturated): then B is a lattice basis of ker A;
    * the mu basis must make [A^T; mu] reduce to 2g pivots
      (``mu_basis_rank``) whose product, the order of
      Z^2g / (im A + span mu), is the order of the torsion of coker A
      (``mu_basis_index``): that holds exactly when mu maps to a lattice
      basis of the free part of coker A.

    Each check is a ``(name, expected, observed)`` record, and the first
    that fails is raised by :func:`~geographer.errors.enforce` under the
    torus's label.
    """
    n = 2 * torus.genus
    image = linalg.transpose(surfaces.compose_word(torus.word))
    for j in range(n):
        image[j][j] -= 1  # row j is A e_j
    h = linalg._echelon(image)  # a basis of im A
    fixed_rank = n - len(h)
    if bases is not None:  # a pair of row lists, possibly empty
        inv, mu = (linalg.to_matrix(basis) if len(basis) else [] for basis in bases)
    else:
        inv, mu = _generic_bases(image) if fixed_rank else ([], [])
    enforce(torus, [("invariant_basis_shape", (fixed_rank, n), _shape(inv, n)),
                    ("mu_basis_shape", (fixed_rank, n), _shape(mu, n))])
    torsion = _torsion(h, n)
    if fixed_rank:
        images = linalg.matmul(inv, image)  # row i is A v_i
        inv_pivots = linalg._echelon(linalg.transpose(inv)).pivots
        mu_pivots = linalg._echelon(image + mu).pivots
        enforce(torus, [
            ("invariant_basis_fixed", fixed_rank, sum(not any(row) for row in images)),
            ("invariant_basis_rank", fixed_rank, len(inv_pivots)),
            ("invariant_basis_index", 1, math.prod(inv_pivots)),
            ("mu_basis_rank", n, len(mu_pivots)),
            ("mu_basis_index", math.prod(torsion), math.prod(mu_pivots)),
        ])
    return WangData(tuple(map(tuple, inv)), tuple(map(tuple, mu)), torsion)


def _generic_bases(image: linalg.Matrix) -> tuple[linalg.Matrix, linalg.Matrix]:
    """Generic bases of a singular A, given as A^T, read off unimodular
    echelon forms.

    The invariant basis is the saturated kernel of A, from the echelon of
    [A^T | I]. W, a saturated basis of ker A^T, comes likewise from
    [A | I]. The saturation of im A is the kernel of x -> W x, which maps
    Z^2g onto Z^rank(W) because W is saturated, so it identifies the free
    cokernel with Z^rank(W). The mu basis is the I part of each pivot row
    of the echelon of [W^T | I] that leads in its W^T part: its images
    W c are those triangular rows, whose pivots multiply to 1.
    """
    invariant = linalg._augmented_echelon(image)[1]
    w = linalg._augmented_echelon(linalg.transpose(image))[1]
    return invariant, linalg._augmented_echelon(linalg.transpose(w))[0]


def _torsion(h: linalg._Echelon, n: int) -> tuple[int, ...]:
    """The nontrivial invariant factors of A: the one home of the torsion rule.

    H, the echelon of A^T, is a basis of im A. For a nonsingular A it is
    square and its pivots multiply to |det A|; for a singular A of rank r
    the r x r echelon E of H^T, a unimodular change of Z^2g that takes
    im A onto the column lattice of E, is the square block, and the
    pivots of H, a maximal minor of H and so a multiple of the torsion
    order, are read first: pivots all 1 (none for A = 0) prove the
    torsion trivial with no second echelon. The Smith elimination then
    runs only on the trailing block T of the square echelon from its first
    non-unit pivot on, modulo the product of T's pivots: if the square
    echelon is [[U, X], [0, T]] with U upper triangular with unit pivots,
    then U is unimodular, so row steps by U^-1 and column steps that clear
    X take it to I + T, the direct sum, which has the invariant factors of
    T and ones. Only the leading run of unit pivots splits off this way:
    a unit pivot after a non-unit one stays in T.
    """
    t = _unit_run(h.pivots)
    if t < len(h) < n:
        h = linalg._echelon(linalg.transpose(h))
        t = _unit_run(h.pivots)
    if t == len(h):
        return ()
    return linalg.elementary_divisors([row[t:] for row in h[t:]], math.prod(h.pivots[t:]))


def _unit_run(pivots: list[int]) -> int:
    """The length of the leading run of unit pivots."""
    return next((i for i, p in enumerate(pivots) if p != 1), len(pivots))


def _shape(rows: linalg.Matrix, n: int) -> tuple[int, int]:
    """The shape of a basis; no rows have n columns."""
    return len(rows), len(rows[0]) if rows else n


#: The weights (d, k) of the genus-1 members B(d, k, 1) of the kinds of
#: :data:`~geographer.surfaces.HANDLE_KINDS`, in its order.
MEMBER_WEIGHTS = ((1, 1), (0, 1), (0, 0))


class BundleMember(WangData):
    """The Wang data of a genus-1 member, as :func:`bundle_wang_data` keeps it.

    It equals the plain :class:`WangData` of its rows, and carries one
    attribute more: ``audit_values``, empty when the member is made, where
    :func:`~geographer.bundle_manifold.audit_bundle` keeps what it reads
    off the member for each tag class. A tuple subclass cannot declare a
    slot, so the attribute lives in the member's ``__dict__``; it lives
    and dies with the cache entry, so clearing the cache clears it. A fill
    writes the value that any other fill would, so concurrent audits may
    fill it alike.
    """

    def __new__(cls, invariant_basis, mu_basis, torsion):
        member = super().__new__(cls, invariant_basis, mu_basis, torsion)
        member.audit_values = {}
        return member


@lru_cache(maxsize=None)
def bundle_wang_data(d: int, k: int) -> BundleMember:
    """Wang data of the genus-1 member B(d, k, 1), on its canonical rows.

    The three members B(1, 1, 1), B(0, 1, 1) and B(0, 0, 1) are the
    twisted, untouched and paired kinds of
    :data:`~geographer.surfaces.HANDLE_KINDS`: the fixed lattice of the
    twisted kind is spanned by b and its free cokernel by a, the untouched
    kind has a and b for both, and the paired kind has neither. Each is
    certified by :func:`wang_cohomology` on its genus-1 torus, and
    ``handle_block_torsion`` records under that torus's label that it is
    torsion-free. The standard word of any genus is a direct sum of these
    kinds, so the cache holds at most three entries, each with its
    ``audit_values``.
    """
    surfaces._check_weights(d, k, 1)
    kind = surfaces.HANDLE_KINDS[surfaces.kind_counts(d, k, 1).index(1)]
    block = MappingTorus(TwistWord(1, kind.letters))
    torsion = wang_cohomology(block, (kind.invariant, kind.mu)).torsion
    enforce(block, [("handle_block_torsion", (), torsion)])
    return BundleMember(kind.invariant, kind.mu, ())
