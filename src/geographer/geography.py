"""Admissible triples and their constructive realization.

A triple (a, b, c) of signature, first Betti number and degeneracy is
admissible when a is a non-positive multiple of 8, 0 <= c <= b with b - c
even, and b >= max(0, 2 + a/4). Every admissible triple is realized by a
minimal symplectic 4-manifold of Kodaira dimension one: bundle manifolds
cover a = 0, fiber sums with E(n) cover a <= -16, and Dolgachev sums cover
a = -8; a rule picks each bundle's Euler tag, and the closed forms'
inverse ``circle_bundle.bundle_weights`` its weights. The nullity variant
drops the parity constraint, forbids c = b - 1, and is only partially
realizable; a second rule names its bundles, and unsettled triples are
returned as :class:`OpenProblem` values, never errors. Recipes and open
problems are NamedTuple records.
"""

from typing import Iterator, NamedTuple, Union

from . import surfaces
from .bundle_manifold import BundleManifoldSpec, InvariantCertificate, construct
from .circle_bundle import bundle_weights
from .errors import InadmissibleError, enforce
from .fiber_sum import (
    DolgachevSurface,
    EllipticBase,
    EllipticSurface,
    FiberSumSpec,
    fiber_sum_invariants,
)

RecipeSpec = Union[BundleManifoldSpec, FiberSumSpec]

#: Default Dolgachev multiplicities: the smallest coprime pair >= 2.
DEFAULT_DOLGACHEV = (2, 3)


class Recipe(NamedTuple):
    """A construction together with its certified triple.

    ``triple_kind`` records whether the third coordinate of ``triple`` is
    the degeneracy or the nullity of the construction; ``kind`` and
    ``label`` are read off ``spec``.
    """

    spec: RecipeSpec
    certificate: InvariantCertificate
    triple: tuple[int, int, int]
    triple_kind: str = "degeneracy"
    family: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        if isinstance(self.spec, BundleManifoldSpec):
            return "bundle"
        return "fiber_sum" if isinstance(self.spec.base, EllipticSurface) else "dolgachev_sum"

    @property
    def label(self) -> str:
        return self.spec.label


class OpenProblem(NamedTuple):
    """A null-admissible triple with no known realizing construction."""

    triple: tuple[int, int, int]
    reason: str
    notes: tuple[str, ...] = ()


def default_genus(k: int, floor: int | None = None) -> int:
    """Genus max(k, 2, floor): large enough for every family and for kappa = 1."""
    return max(k, 2, floor or 0)


def _int_argument(x, refusal: str) -> int:
    """An argument of a public function, converted by the one integer rule
    of :func:`surfaces._exact_int`, or ``InadmissibleError(refusal)``."""
    try:
        return surfaces._exact_int(x, refusal)
    except ValueError:
        raise InadmissibleError(refusal) from None


def _genus_argument(genus) -> int | None:
    """The genus floor as given: None, or an integer by the same rule."""
    return None if genus is None else _int_argument(genus, _GENUS_FAILURE)


def certify(spec: RecipeSpec) -> InvariantCertificate:
    """The enforced certificate of a bundle or of a fiber sum."""
    if isinstance(spec, BundleManifoldSpec):
        return construct(spec)
    return fiber_sum_invariants(spec)


def _recipe(
    spec: RecipeSpec,
    triple: tuple[int, int, int],
    triple_kind: str = "degeneracy",
    family: str | None = None,
    notes: tuple[str, ...] = (),
) -> Recipe:
    """Certify ``spec`` and check that it realizes ``triple`` with kappa = 1."""
    cert = certify(spec)
    realized = cert.degeneracy if triple_kind == "degeneracy" else cert.nullity
    enforce(
        spec,
        (
            ("realizes_target_triple", triple, (cert.sigma, cert.b1, realized)),
            ("kappa_is_one", 1, cert.kappa),
        ),
    )
    return Recipe(spec, cert, triple, triple_kind, family, notes)


def realize(a: int, b: int, c: int, genus: int | None = None) -> Recipe:
    """Deterministic recipe for an admissible triple.

    a = 0: the Euler tag is 1 when c = b, else 2 when b is odd, else 0,
    and :func:`bundle_weights` inverts the closed forms at that tag; the
    family is B<tag>(d // 2), and tag 1 gives d = k = b - 1. a <= -16:
    fiber sum with E(-a/8) of weight d = c, k = (b + c) / 2. a = -8: the
    same sum with a Dolgachev surface. ``genus`` raises the genus floor.
    """
    a, b, c = [_int_argument(x, _NON_INTEGER_FAILURE) for x in (a, b, c)]
    failure = _admissibility_failure(a, b, c)
    if failure is not None:
        raise InadmissibleError(failure)
    return _realize_admissible(a, b, c, _genus_argument(genus))


def _realize_admissible(a: int, b: int, c: int, genus: int | None) -> Recipe:
    """:func:`realize` for a triple already found admissible."""
    if a < 0:
        return _recipe(_sum_spec(a, b, c, genus), (a, b, c))
    tag = 1 if c == b else 2 if b % 2 else 0
    spec = _bundle_spec(b, c, tag, genus)
    notes = () if tag != 2 else (
        "a zero-Euler-class bundle would also cover this odd-b triple; "
        "the tag-2 family is preferred for a uniform index range",
    )
    return _recipe(spec, (0, b, c), "degeneracy", f"B{tag}({spec.d // 2})", notes)


def _bundle_spec(b: int, degeneracy: int, tag: int, genus: int | None) -> BundleManifoldSpec:
    """The bundle with this b1, degeneracy and Euler tag."""
    d, k = bundle_weights(b, degeneracy, tag)
    return BundleManifoldSpec(d, k, default_genus(k, genus), tag)


def _sum_spec(a: int, b: int, c: int, genus: int | None) -> FiberSumSpec:
    """The fiber sum of signature a, b1 b and degeneracy c. The section
    and circle classes of its summand die in the sum, so the summand has
    b1 = b + 2."""
    d, k = bundle_weights(b + 2, c, 0)
    return FiberSumSpec(_elliptic_base(a), d, k, default_genus(k, genus))


def _elliptic_base(a: int) -> EllipticBase:
    """E(-a/8) for a <= -16; the default Dolgachev surface for a = -8."""
    return EllipticSurface(-a // 8) if a <= -16 else DolgachevSurface(*DEFAULT_DOLGACHEV)


_NON_INTEGER_FAILURE = "triple entries must be integers (int, not bool or float)"
_GENUS_FAILURE = "genus floor must be None or an integer (int, not bool or float)"
_SIGNATURE_FAILURE = "signature must be a non-positive multiple of 8"


def _admissibility_failure(a: int, b: int, c: int) -> str | None:
    """The first rule the ints (a, b, c) break as a degeneracy triple, or None."""
    if not _signature_allowed(a):
        return _SIGNATURE_FAILURE
    if not 0 <= c <= b:
        return "degeneracy must satisfy 0 <= c <= b"
    if (b - c) % 2 != 0:
        return "b - c must be even"
    return _b1_bound_failure(a, b)


def _null_admissibility_failure(a: int, b: int, c: int) -> str | None:
    """The first rule the ints (a, b, c) break as a nullity triple, or None.

    The nullity variant has no parity constraint, but c = b - 1 is
    impossible: a manifold with nullity b1 - 1 would leave a single
    cup-nontrivial line in H^1, contradicting skewness of the cup square.
    """
    if c == b - 1 and 0 <= c <= b:
        return "nullity b - 1 is impossible: one class would have a nonzero cup square"
    if not _signature_allowed(a):
        return _SIGNATURE_FAILURE
    if not 0 <= c <= b:
        return "nullity must satisfy 0 <= c <= b"
    return _b1_bound_failure(a, b)


def _signature_allowed(a: int) -> bool:
    return a <= 0 and a % 8 == 0


def _b1_bound_failure(a: int, b: int) -> str | None:
    bound = max(0, 2 + a // 4)
    return None if b >= bound else f"b must be at least max(0, 2 + a/4) = {bound}"


OPEN_RING_NOTE = (
    "a realizing manifold would need an H^1 basis x, y, z with x cup y nonzero "
    "and every other product of basis classes zero"
)


def realize_null(a: int, b: int, c: int, genus: int | None = None) -> Recipe | OpenProblem:
    """Recipe with nullity c, or the open cases as explicit values.

    For a = 0, :func:`_bundle_nullity_choice` states which bundle, if
    any, has b1 = b and nullity c. For a < 0 the only nullity the
    constructions certify is 0 via b1 = 0, so b = c = 0 triples get the
    fiber-sum recipe of the same signature and everything else is open.
    """
    a, b, c = [_int_argument(x, _NON_INTEGER_FAILURE) for x in (a, b, c)]
    failure = _null_admissibility_failure(a, b, c)
    if failure is not None:
        raise InadmissibleError(failure)
    genus = _genus_argument(genus)
    if a == 0:
        choice = _bundle_nullity_choice(b, c)
        if choice is not None:
            return _recipe(_bundle_spec(b, *choice, genus), (a, b, c), "nullity")
        notes = (OPEN_RING_NOTE,) if (a, b, c) == (0, 3, 1) else ()
        return OpenProblem(
            triple=(a, b, c),
            reason=(
                f"no bundle family has b1 = {b} and nullity = {c}; whether a "
                "symplectic 4-manifold realizes this nullity triple is open"
            ),
            notes=notes,
        )
    if b == 0:
        return _recipe(_sum_spec(a, 0, 0, genus), (a, 0, 0), "nullity")
    return OpenProblem(
        triple=(a, b, c),
        reason=(
            "nullity is only computed for bundle manifolds and for simply "
            "connected sums; no construction certifies this triple"
        ),
    )


def _bundle_nullity_choice(b: int, c: int) -> tuple[int, int] | None:
    """The (degeneracy, tag) of the bundle with b1 = b and nullity c, or
    None when no bundle has them.

    Of the bundles with these invariants it names the first in tag order,
    then in increasing k. A zero Euler class gives nullity 0, with the
    least k at d = b mod 2. A nonzero one gives nullity d, or d + 1 when
    d = k: tag 1 has c = b at d = k = b - 1, and each c < b - 1 with
    b + c odd at d = c. Tag 2 is never first: tag 1 has its nullity
    d > 0 at the same weights, and tag 0 has d = 0.
    """
    if c == 0 and b >= 2:
        return b % 2, 0
    if c == b >= 2:
        return b, 1
    if 1 <= c < b - 1 and (b + c) % 2:
        return c + 1, 1
    return None


def enumerate_region(
    sigma_min: int, b1_max: int, genus: int | None = None
) -> Iterator[Recipe]:
    """All admissible triples with sigma_min <= a <= 0 and b <= b1_max.

    Deterministic order: a descending from 0, then b ascending, then c
    ascending; every yielded recipe is certificate-checked.
    """
    refusal = "region bounds must be integers (int, not bool or float)"
    sigma_min, b1_max = _int_argument(sigma_min, refusal), _int_argument(b1_max, refusal)
    if sigma_min > 0:
        raise InadmissibleError("sigma lower bound must be non-positive")
    if b1_max < 0:
        raise InadmissibleError("b1 bound must be non-negative")
    genus = _genus_argument(genus)
    for a in range(0, sigma_min - 1, -8):
        for b in range(0, b1_max + 1):
            for c in range(0, b + 1):
                if _admissibility_failure(a, b, c) is None:
                    yield _realize_admissible(a, b, c, genus)

