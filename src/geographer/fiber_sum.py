"""Fiber sums of elliptic surfaces with product bundle manifolds.

E(n, d, k, g) glues the elliptic surface E(n) to B(d, k, g; 0) along a
generic torus fiber on one side and the square-zero symplectic torus
t x s inside the product Y x S^1 on the other. Signature adds (Novikov),
Euler characteristics add along tori, the section and circle loops die in
the sum, and the canonical classes concatenate to (n - 2 + 2g) times the
gluing torus. Signature -8 is reached by substituting a Dolgachev surface
for E(1); its invariants enter as table data. The comparisons of the sum
with its summands, and the identities of every certificate built here
(:meth:`InvariantCertificate.identities`), are raised through
:func:`geographer.errors.enforce` with the label of the base or the sum,
as the bundle certificates and their Wang bases are. The certificate of
each elliptic base is built once and memoized. The surfaces and specs are
NamedTuple records whose constructors refuse bad parameters, bools and
non-integers among them, naming the field.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from . import bundle_manifold, surfaces
from .bundle_manifold import BundleManifoldSpec, InvariantCertificate
from .errors import enforce


class _EllipticFields(NamedTuple):
    n: int


class EllipticSurface(_EllipticFields):
    """The simply connected elliptic surface E(n) without multiple fibers."""

    __slots__ = ()

    def __new__(cls, n):
        n = surfaces._exact_int(n, "elliptic surface n")
        if n < 1:
            raise ValueError("E(n) requires n >= 1")
        return super().__new__(cls, n)

    @property
    def label(self) -> str:
        return f"E({self.n})"


class _DolgachevFields(NamedTuple):
    p: int
    q: int


class DolgachevSurface(_DolgachevFields):
    """E(1) with two multiple fibers of coprime multiplicities p, q >= 2."""

    __slots__ = ()

    def __new__(cls, p, q):
        p = surfaces._exact_int(p, "Dolgachev p")
        q = surfaces._exact_int(q, "Dolgachev q")
        if min(p, q) < 2:
            raise ValueError("Dolgachev multiplicities must be at least 2")
        if math.gcd(p, q) != 1:
            raise ValueError(f"multiplicities ({p}, {q}) must be coprime")
        return super().__new__(cls, p, q)

    @property
    def label(self) -> str:
        return f"E(1)_{{{self.p},{self.q}}}"


EllipticBase = EllipticSurface | DolgachevSurface


@lru_cache(maxsize=None)
def elliptic_invariants(base: EllipticBase) -> InvariantCertificate:
    """Certificate of the bare elliptic or Dolgachev surface.

    E(n): sigma = -8n, chi = 12n, simply connected, canonical class
    (n - 2) times the fiber. n = 2 is the K3 surface, whose canonical
    class vanishes. Dolgachev surfaces carry the sigma, chi, b+ and b-
    of E(1) but are minimal with positive K . [omega], known by citation
    rather than by a fiber-multiple formula.
    """
    if isinstance(base, EllipticSurface):
        n = base.n
        k_dot = n - 2
        kappa = bundle_manifold.kodaira_classify(0, k_dot)
        minimal_reason = (
            "relatively minimal elliptic surface without (-1)-spheres"
            if n >= 2
            else "E(1) is rational, hence not minimal"
        )
        notes = ("b1 = 0, so degeneracy and nullity vanish identically",)
    else:
        n, k_dot, kappa = 1, None, 1  # E(1)'s sigma, chi, b+ and b-
        minimal_reason = "Dolgachev surfaces are minimal elliptic surfaces"
        notes = (
            "K.[omega] > 0 by citation (properly elliptic surface); "
            "invariants do not depend on the multiplicities",
        )
    cert = InvariantCertificate(
        sigma=-8 * n,
        chi=12 * n,
        b1=0,
        b_plus=2 * n - 1,
        b_minus=10 * n - 1,
        k_squared=0,
        k_dot_omega=k_dot,
        kappa=kappa,
        degeneracy=0,
        nullity=0,
        minimal=kappa != bundle_manifold.KODAIRA_NEG_INF,  # all but the rational E(1)
        minimal_reason=minimal_reason,
        checks=("two_chi_plus_three_sigma_equals_K_squared",),
        notes=notes,
    )
    enforce(base, cert.identities())
    return cert


class _FiberSumFields(NamedTuple):
    base: EllipticBase
    d: int
    k: int
    g: int


class FiberSumSpec(_FiberSumFields):
    """E(n) or a Dolgachev surface summed with B(d, k, g; 0)."""

    __slots__ = ()

    def __new__(cls, base, d, k, g):
        if not isinstance(base, EllipticBase):
            raise ValueError(
                f"fiber sum base: expected an elliptic or Dolgachev surface, got {base!r}"
            )
        d = surfaces._exact_int(d, "fiber sum d")
        k = surfaces._exact_int(k, "fiber sum k")
        g = surfaces._exact_int(g, "fiber sum g")
        if isinstance(base, EllipticSurface) and base.n < 2:
            raise ValueError(
                "plain E(1) sums are not used; take a Dolgachev surface for signature -8"
            )
        surfaces._check_weights(d, k, g)
        if g < max(k, 2):
            raise ValueError(f"genus {g} must be at least max(k, 2) = {max(k, 2)}")
        return super().__new__(cls, base, d, k, g)

    @property
    def summand(self) -> BundleManifoldSpec:
        return BundleManifoldSpec(self.d, self.k, self.g, 0)

    @property
    def label(self) -> str:
        if isinstance(self.base, EllipticSurface):
            return f"E({self.base.n},{self.d},{self.k},{self.g})"
        return f"{self.base.label}({self.d},{self.k},{self.g})"


FIBER_SUM_CHECKS = (
    "novikov_signature_additivity",
    "euler_characteristic_additivity_matches_identity",
    "two_chi_plus_three_sigma_equals_K_squared",
    "K_dot_omega_positive",
    "summand_degeneracy_matches_formula",
    "sum_b1_drops_section_and_circle_classes",
)


def fiber_sum_invariants(spec: FiberSumSpec) -> InvariantCertificate:
    """Certificate of the fiber sum, cross-checked against its summands.

    chi is computed twice: by additivity along the square-zero torus and
    by the vanishing of 2 chi + 3 sigma forced by K^2 = 0; the degeneracy
    of the sum equals the weight d, which is checked against the full
    certificate of the bundle summand. b1 and K . [omega] are read off
    the two summand certificates.
    """
    base_cert = elliptic_invariants(spec.base)
    summand_cert = bundle_manifold.construct(spec.summand)
    sigma = base_cert.sigma + summand_cert.sigma
    chi_additive = base_cert.chi + summand_cert.chi
    checks = [
        ("summand_degeneracy_matches_formula", spec.d, summand_cert.degeneracy),
        ("euler_characteristic_additivity_matches_identity", -3 * sigma // 2, chi_additive),
    ]
    # the section and circle loops of the bundle summand die in the sum
    b1 = summand_cert.b1 - 2
    b2 = chi_additive - 2 + 2 * b1
    b_plus = (b2 + sigma) // 2

    if isinstance(spec.base, EllipticSurface):
        # K = K_1 + K_2 + 2T for a fiber sum along the torus T
        k_dot = base_cert.k_dot_omega + summand_cert.k_dot_omega + 2
        checks.append(("K_dot_omega_positive", True, k_dot > 0))
        kappa = bundle_manifold.kodaira_classify(0, k_dot)
        notes = (
            "canonical class is (n - 2 + 2g) times the gluing torus",
        )
    else:
        k_dot = None
        kappa = 1
        notes = (
            "K.[omega] > 0 by citation for the Dolgachev summand; "
            "no fiber-multiple formula is recorded",
        )
    checks.append(("kappa_is_one", 1, kappa))

    cert = InvariantCertificate(
        sigma=sigma,
        chi=chi_additive,
        b1=b1,
        b_plus=b_plus,
        b_minus=b2 - b_plus,
        k_squared=0,
        k_dot_omega=k_dot,
        kappa=kappa,
        degeneracy=spec.d,
        nullity=0 if b1 == 0 else None,
        minimal=True,
        minimal_reason="fiber sums of minimal symplectic manifolds are minimal (Li-Stipsicz)",
        checks=FIBER_SUM_CHECKS,
        notes=notes,
    )
    enforce(spec, (*checks, *cert.identities()))
    return cert
