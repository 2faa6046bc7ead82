"""Invariants of circle bundles over mapping tori with fiber-trivial Euler class.

The Euler class of the bundle lives in the mu-image lattice of the base
(the classes restricting to zero on the surface fiber) and enters only as
its tag: 0 is the zero class, 1 the first row a_1^theta of the twisted
block of the mu basis, 2 the first row of its untouched block. Its
vanishing or not decides the first Betti number of the total space
through the Gysin sequence, and the cup-with-symplectic-class pairing on
H^1 of the total space is assembled from three exact rules:

  (i)   lifted fixed classes pair through the cup form of the fiber,
  (ii)  theta pairs to zero with every lifted class,
  (iii) for a trivial Euler class the extra circle class eta pairs with
        theta to +1 and with everything else to zero; otherwise there is
        no eta class.

The rules come from fiber integration of omega = Omega + theta ^ eta.

The pairing reads the invariant basis of the Wang data as it stands, and
its fiber block is the cup Gram matrix :func:`geographer.surfaces.cup_gram`
of that basis, with no dense form built. The bundle certificate builds it
only on the three genus-1 members of the handle kinds and sums their
ranks over the handles, by the additivity lemma stated in
:func:`geographer.bundle_manifold.audit_bundle`; the summed degeneracy
is checked against the closed formula, and the tests compare it with
this pairing on whole genus-g bases. Each closed form is one function
on weights and a tag already checked (:func:`_torus_b1`,
:func:`_bundle_b1`, :func:`_degeneracy`, :func:`_nullity`): the spec's
constructor refuses weights by the rule of :mod:`geographer.surfaces` and
tags by the rule here, once, so a library caller reads the closed-form
values off ``construct(BundleManifoldSpec(...))``.
:func:`geographer.bundle_manifold.audit_bundle` reads b1, the pairing
and the closed forms, on the spec's validated weights, from here and
compares them; geography inverts them by :func:`bundle_weights`.
"""

from . import linalg, surfaces
from .mapping_torus import WangData

VALID_TAGS = (0, 1, 2)


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


def _check_tag(d: int, k: int, tag: int) -> None:
    if tag not in VALID_TAGS:
        raise ValueError(f"Euler tag must be one of {VALID_TAGS}, got {tag}")
    if tag not in valid_tags(d, k):
        raise ValueError(_MISSING_BLOCK[tag])


def _torus_b1(d: int, k: int) -> int:
    """Closed form for b1 of the mapping torus of weights (d, k): 2k - d + 1."""
    return 2 * k - d + 1


def _bundle_b1(d: int, k: int, tag: int) -> int:
    """Closed form for b1 of B(d, k, g; tag): the base's, plus eta when e = 0."""
    return _torus_b1(d, k) + (tag == 0)


def bundle_weights(b1: int, degeneracy: int, tag: int) -> tuple[int, int]:
    """The weights (d, k) of this b1 and degeneracy at this tag: the one
    inverse of the closed forms. Unchecked; the spec built from them
    checks them."""
    d = degeneracy if tag == 0 else degeneracy - 1
    return d, (b1 - (tag == 0) - 1 + d) // 2


def bundle_b1(data: WangData, tag: int) -> int:
    """First Betti number of the total space, from the Gysin sequence.

    A zero Euler class contributes the extra circle class; a nonzero one
    is a row of the mu basis, a lattice basis of the free cokernel, so it
    is non-torsion, cupping H^0 into H^2 is injective and H^1 of the total
    space equals H^1 of the base.
    """
    return data.b1 + 1 if tag == 0 else data.b1


def lefschetz_pairing(data: WangData, tag: int) -> linalg.Matrix:
    """Assemble the skew pairing (x, y) -> integral of x cup y cup omega.

    Basis order: theta, the lifted fixed classes, then eta at tag 0. Each
    row is built once, fresh; on canonical bases no row has two nonzeros,
    so :func:`~geographer.linalg.rank`, an echelon, takes no Euclid step.
    """
    gram = surfaces.cup_gram(data.invariant_basis) if data.invariant_basis else []
    m = len(gram)
    if tag:
        return [[0] * (1 + m)] + [[0, *row] for row in gram]
    return [[0] * (1 + m) + [1], *([0, *row, 0] for row in gram), [-1] + [0] * (1 + m)]


def _degeneracy(d: int, k: int, tag: int) -> int:
    """Closed form: d for a zero Euler class, d + 1 otherwise."""
    return d if tag == 0 else d + 1


def _nullity(d: int, k: int, tag: int) -> int:
    """Closed form for the dimension of the cup-trivial part of H^1.

    Zero Euler class: 0 (the product with a circle kills the kernel).
    Otherwise d, except d + 1 when the untouched block is empty (d = k).
    """
    if tag == 0:
        return 0
    return d + 1 if d == k else d

