"""Invariants of circle bundles over mapping tori with fiber-trivial Euler class.

The Euler class of the bundle lives in the mu-image lattice of the base
(the classes restricting to zero on the surface fiber). Its vanishing or
not decides the first Betti number of the total space through the Gysin
sequence, and the cup-with-symplectic-class pairing on H^1 of the total
space is assembled from three exact rules:

  (i)   lifted fixed classes pair through the cup form of the fiber,
  (ii)  theta pairs to zero with every lifted class,
  (iii) for a trivial Euler class the extra circle class eta pairs with
        theta to +1 and with everything else to zero; otherwise there is
        no eta class.

The rules come from fiber integration of omega = Omega + theta ^ eta and
are validated wholesale by the grid equivalence between the rank of the
assembled matrix and the closed degeneracy formula.

Rows the package built are not validated again: the pairing reads the
invariant basis of the Wang data as it stands and the cup form of the
fiber by the one nonzero of each of its rows, with no dense matrix built,
and :func:`bundle_cohomology` takes the rank of the pairing it just
assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import linalg, surfaces
from .mapping_torus import WangData

VALID_TAGS = (0, 1, 2)


@dataclass(frozen=True)
class EulerClassSpec:
    """Euler class described by its tag and coordinates over the mu basis.

    Tag 0 is the zero class; tag 1 is a single basis vector a_i^theta with
    i <= d; tag 2 is a primitive class supported on the untouched-handle
    block. ``fiber_coefficient`` is the restriction to the surface fiber
    and must vanish for the bundle to be symplectic.
    """

    tag: int
    coefficients: tuple[int, ...] | None = None
    fiber_coefficient: int = 0

    def __post_init__(self):
        if self.coefficients is not None:
            object.__setattr__(
                self, "coefficients", tuple(int(x) for x in self.coefficients)
            )

    @property
    def is_zero(self) -> bool:
        return self.tag == 0


_MISSING_BLOCK = {
    1: "tag 1 requires d != 0 (no twisted a_i^theta class exists)",
    2: "tag 2 requires d != k (the untouched block is empty)",
}


def valid_tags(d: int, k: int) -> tuple[int, ...]:
    """The Euler tags that exist for weights (d, k), in increasing order.

    Tag 0 always; tag 1 needs a twisted block (d != 0), tag 2 an
    untouched one (d != k).
    """
    return (0,) + ((1,) if d != 0 else ()) + ((2,) if d != k else ())


def _check_tag_parameters(d: int, k: int, tag: int) -> None:
    if tag not in VALID_TAGS:
        raise ValueError(f"Euler tag must be one of {VALID_TAGS}, got {tag}")
    if not 0 <= d <= k:
        raise ValueError(f"weights must satisfy 0 <= d <= k, got ({d}, {k})")
    if tag not in valid_tags(d, k):
        raise ValueError(_MISSING_BLOCK[tag])


def default_euler_class(tag: int, d: int, k: int) -> EulerClassSpec:
    """Canonical representative for a tag: the first basis vector of its block."""
    _check_tag_parameters(d, k, tag)
    size = 2 * k - d
    if tag == 0:
        return EulerClassSpec(0)
    index = 0 if tag == 1 else d
    return EulerClassSpec(tag, tuple(1 if i == index else 0 for i in range(size)))


def validate_euler_class(
    data: WangData, spec: EulerClassSpec, d: int, k: int
) -> EulerClassSpec:
    """Check a spec against the canonical block layout of the mu basis.

    Coordinates index the mu basis rows: positions 0..d-1 are the twisted
    block a_1^theta .. a_d^theta, positions d..2k-d-1 the untouched block.
    Returns the Euler class with default coordinates filled in.
    """
    _check_tag_parameters(d, k, spec.tag)
    size = len(data.mu_basis)
    if size != 2 * k - d:
        raise ValueError(
            f"mu basis has rank {size}, inconsistent with weights ({d}, {k})"
        )
    if spec.fiber_coefficient != 0:
        raise ValueError("Euler class must restrict to zero on the fiber")
    if spec.coefficients is None:
        if spec.tag == 0:
            return replace(spec, coefficients=(0,) * size)
        return default_euler_class(spec.tag, d, k)
    coeffs = spec.coefficients
    if len(coeffs) != size:
        raise ValueError(f"coefficient vector of length {len(coeffs)}, expected {size}")
    if spec.tag == 0:
        if any(coeffs):
            raise ValueError("tag 0 demands the zero class")
        return spec
    if spec.tag == 1:
        support = [i for i, x in enumerate(coeffs) if x != 0]
        if len(support) != 1 or coeffs[support[0]] != 1 or support[0] >= d:
            raise ValueError(
                "tag 1 demands exactly one twisted-block basis vector a_i^theta, i <= d"
            )
        return spec
    if any(coeffs[:d]):
        raise ValueError("tag 2 class must be supported on the untouched block")
    if not linalg.is_primitive(coeffs):
        raise ValueError("tag 2 class must be primitive")
    return spec


def bundle_b1_formula(d: int, k: int, tag: int) -> int:
    """Closed form for b1 of B(d, k, g; tag): 2k - d + 2 for a zero Euler
    class, 2k - d + 1 otherwise (the base has b1 = 2k - d + 1)."""
    _check_tag_parameters(d, k, tag)
    return 2 * k - d + _b1_offset(tag)


def bundle_d_for_b1(k: int, tag: int, b: int) -> int:
    """The d for which :func:`bundle_b1_formula` gives b at this k and tag.

    Unchecked: the caller keeps d only when 0 <= d <= k and the tag is
    valid for (d, k).
    """
    return 2 * k + _b1_offset(tag) - b


def _b1_offset(tag: int) -> int:
    """b1 - (2k - d): the base's extra circle, plus eta when e = 0."""
    return 2 if tag == 0 else 1


def bundle_b1(data: WangData, spec: EulerClassSpec) -> int:
    """First Betti number of the total space, from the Gysin sequence.

    A zero Euler class contributes the extra circle class; a nonzero one
    is non-torsion in the mu lattice, so cupping H^0 into H^2 is injective
    and H^1 of the total space equals H^1 of the base.
    """
    return data.b1 + 1 if spec.is_zero else data.b1


def lefschetz_pairing(
    data: WangData, spec: EulerClassSpec
) -> tuple[linalg.Matrix, tuple[str, ...]]:
    """Assemble the skew pairing (x, y) -> integral of x cup y cup omega.

    Basis order: theta, the lifted fixed classes of the Wang data, then
    eta when the Euler class vanishes.
    """
    basis = data.invariant_basis
    m = len(basis)
    size = 1 + m + (1 if spec.is_zero else 0)
    q = linalg.zeros(size, size)
    if m:
        block = linalg._sparse_gram(basis, 2 * data.genus, surfaces.intersection_row)
        for i, row in enumerate(block):
            q[1 + i][1:1 + m] = row
    labels = ("theta",) + data.h1_tags[1:1 + m]
    if spec.is_zero:
        q[0][size - 1] = 1
        q[size - 1][0] = -1
        labels = labels + ("eta",)
    return q, labels


def degeneracy_closed_form(d: int, k: int, tag: int) -> int:
    """Closed form: d for a zero Euler class, d + 1 otherwise."""
    _check_tag_parameters(d, k, tag)
    return d if tag == 0 else d + 1


def nullity_closed_form(d: int, k: int, tag: int) -> int:
    """Closed form for the dimension of the cup-trivial part of H^1.

    Zero Euler class: 0 (the product with a circle kills the kernel).
    Otherwise d, except d + 1 when the untouched block is empty (d = k).
    """
    _check_tag_parameters(d, k, tag)
    if tag == 0:
        return 0
    return d + 1 if d == k else d


def nullity_necessary_check(d: int, k: int, tag: int) -> bool:
    """The two structurally forced facts about the closed forms.

    Nullity vanishes whenever the Euler class does, and nullity never
    exceeds degeneracy. Violations would mean a corrupted closed form.
    """
    nullity = nullity_closed_form(d, k, tag)
    if tag == 0 and nullity != 0:
        return False
    return 0 <= nullity <= degeneracy_closed_form(d, k, tag)


@dataclass(frozen=True)
class BundleCohomology:
    """H^1 rank, pairing table and the two measures of degeneracy."""

    b1: int
    pairing: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    degeneracy: int
    nullity: int


def bundle_cohomology(
    data: WangData, spec: EulerClassSpec, d: int, k: int
) -> BundleCohomology:
    """Full H^1 package for one bundle: b1, the assembled pairing and its
    rank defect as the degeneracy, and the closed-form nullity.

    Nothing here is compared with a closed form; that is the job of
    :func:`geographer.bundle_manifold.audit_bundle`, which checks the
    package before :func:`geographer.bundle_manifold.construct` issues a
    certificate. Invalid Euler classes raise ``ValueError``.
    """
    spec = validate_euler_class(data, spec, d, k)
    b1 = bundle_b1(data, spec)
    q, labels = lefschetz_pairing(data, spec)
    pairing = tuple(map(tuple, q))  # before the elimination reorders the rows of q
    return BundleCohomology(
        b1=b1,
        pairing=pairing,
        labels=labels,
        degeneracy=b1 - linalg._bareiss(q)[0],
        nullity=nullity_closed_form(d, k, spec.tag),
    )
