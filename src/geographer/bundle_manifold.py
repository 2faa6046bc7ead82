"""Certificates for the bundle manifolds B(d, k, g; e).

B(d, k, g; e) is the circle bundle with Euler tag e over the mapping torus
of the standard twist word with weights (d, k, g). The total space carries
a free circle action, which forces signature and Euler characteristic to
vanish; the remaining invariants are computed through the Wang and Gysin
sequences, summed over the handles from the three certified genus-1
members of the handle kinds, and double-checked against closed formulas
before a certificate is issued. :func:`audit_bundle` is that
computation, one exact pass that builds the certificate afresh and
records every check as a :class:`~geographer.errors.Check`; the member
values it sums (Wang b1, Gysin b1 and pairing rank per tag class) are
read from the members' entries of
:func:`~geographer.mapping_torus.bundle_wang_data`, computed once per
fill of that cache. :func:`construct` raises on the first
failed check or :meth:`InvariantCertificate.identities` record through
:func:`geographer.errors.enforce`, which every certificate path shares,
from the Wang bases of the mapping torus on, and ``verify`` counts them
all. Specs, certificates and audits are NamedTuple records; a spec's
constructor refuses bad weights and tags, bools and non-integers among
them, and :meth:`InvariantCertificate.as_dict` builds the plain dict that
documents serialize.
"""

from functools import lru_cache
from typing import NamedTuple

from . import circle_bundle, linalg, mapping_torus, surfaces
from .errors import Check, enforce

#: Sentinel for Kodaira dimension minus infinity (kept JSON-serializable).
KODAIRA_NEG_INF = "-inf"

Kodaira = int | str


def kodaira_classify(k_squared: int, k_dot_omega: int) -> Kodaira:
    """Kodaira dimension from the signs of K^2 and K . [omega].

    The combination K^2 > 0 with K . [omega] = 0 does not occur for
    minimal symplectic 4-manifolds and is reported as outside the table.
    """
    if k_squared > 0 and k_dot_omega == 0:
        raise ValueError("outside table: K^2 > 0 with K.[omega] = 0")
    if k_squared < 0 or k_dot_omega < 0:
        return KODAIRA_NEG_INF
    if k_squared == 0 and k_dot_omega == 0:
        return 0
    if k_squared == 0:
        return 1
    return 2


def canonical_class(g: int) -> int:
    """Coefficient of the fiber torus in the Poincare dual of K.

    The canonical class of B(d, k, g; e) is (2g - 2) times the square-zero
    torus swept by the circle fibers over a section of the mapping torus.
    """
    surfaces._check_genus(g)
    return _canonical_class(g)


def _canonical_class(g: int) -> int:
    return 2 * g - 2


class _BundleFields(NamedTuple):
    d: int
    k: int
    g: int
    e: int


class BundleManifoldSpec(_BundleFields):
    """Weights (d, k, g) and Euler tag e of a bundle manifold."""

    __slots__ = ()

    def __new__(cls, d, k, g, e):
        d = surfaces._exact_int(d, "bundle d")
        k = surfaces._exact_int(k, "bundle k")
        g = surfaces._exact_int(g, "bundle g")
        e = surfaces._exact_int(e, "bundle e")
        surfaces._check_weights(d, k, g)
        circle_bundle._check_tag(d, k, e)
        return super().__new__(cls, d, k, g, e)

    @property
    def label(self) -> str:
        return f"B({self.d},{self.k},{self.g};{self.e})"


class InvariantCertificate(NamedTuple):
    """The invariants of one constructed 4-manifold, plus its audit trail.

    ``k_dot_omega`` is an integer in units of the symplectic area of the
    gluing torus, or None when only positivity is known by citation.
    ``nullity`` is None when no closed form applies. ``checks`` names the
    checks enforced while it was built; each producer also enforces its
    :meth:`identities`, under its own label.
    """

    sigma: int
    chi: int
    b1: int
    b_plus: int
    b_minus: int
    k_squared: int
    k_dot_omega: int | None
    kappa: Kodaira
    degeneracy: int
    nullity: int | None
    minimal: bool
    minimal_reason: str
    checks: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def b2(self) -> int:
        return self.b_plus + self.b_minus

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "chi": self.chi,
            "b1": self.b1,
            "b_plus": self.b_plus,
            "b_minus": self.b_minus,
            "b2": self.b2,
            "K_squared": self.k_squared,
            "K_dot_omega": "unknown" if self.k_dot_omega is None else self.k_dot_omega,
            "kappa": self.kappa,
            "degeneracy": self.degeneracy,
            "nullity": "unknown" if self.nullity is None else self.nullity,
            "minimal": self.minimal,
            "minimal_reason": self.minimal_reason,
            "checks": list(self.checks),
            "notes": list(self.notes),
        }

    def identities(self) -> tuple[tuple[str, object, object], ...]:
        """The identities of every certificate, as ``(name, expected,
        observed)``: an emitted value, and what the others make it."""
        bounds = 0 <= self.degeneracy <= self.b1 and (
            self.nullity is None or 0 <= self.nullity <= self.degeneracy
        )
        return (
            ("sigma_equals_bplus_minus_bminus", self.sigma, self.b_plus - self.b_minus),
            ("chi_equals_euler_identity", self.chi, 2 - 2 * self.b1 + self.b2),
            (
                "two_chi_plus_three_sigma_equals_K_squared",
                self.k_squared,
                2 * self.chi + 3 * self.sigma,
            ),
            ("nullity_le_degeneracy_le_b1", True, bounds),
        )


BUNDLE_CHECKS = (
    "wang_b1_matches_formula",
    "gysin_b1_matches_formula",
    "pairing_rank_even",
    "degeneracy_pairing_rank_matches_formula",
    "nullity_within_degeneracy",
    "sigma_and_chi_vanish_for_free_circle_action",
    "two_chi_plus_three_sigma_equals_K_squared",
    "kappa_matches_genus_dichotomy",
)


class BundleAudit(NamedTuple):
    """One exact pass over B(d, k, g; e): its unenforced certificate and
    every check.

    ``checks`` holds one record per name of :data:`BUNDLE_CHECKS`, in the
    order :func:`construct` enforces them.
    """

    certificate: InvariantCertificate
    checks: tuple[Check, ...]


def audit_bundle(spec: BundleManifoldSpec) -> BundleAudit:
    """Compute B(d, k, g; e) once and compare it with every closed form.

    The standard word of weights (d, k, g) is the direct sum of
    n = (d, k - d, g - k) handles of the three kinds of
    :data:`~geographer.surfaces.HANDLE_KINDS`
    (:func:`~geographer.surfaces.kind_counts`), and each kind is read off
    its certified genus-1 member M_j: B(1, 1, 1) twisted, B(0, 1, 1)
    untouched and B(0, 0, 1) paired, from
    :func:`~geographer.mapping_torus.bundle_wang_data`.

    Lemma (additivity over handles). The handles are J-orthogonal and
    phi^* preserves each, so the fixed lattice is the direct sum of the
    members' fixed lattices, one per handle, and the cup Gram matrix of
    that basis is block diagonal with the members' blocks. The pairing of
    :func:`~geographer.circle_bundle.lefschetz_pairing` is that Gram
    matrix beside the theta/eta block, so with P_j the pairing of M_j at
    the tag e and r0 the rank of the theta/eta block,

        b1(Y) = 1 + sum_j n_j |invariant basis of M_j|,
        rank P = r0 + sum_j n_j (rank P_j - r0).

    The paired member fixes no class, so its pairing is the theta/eta
    block alone and r0 = rank P_paired; likewise b1(Y) of the paired
    member is 1, and the Gysin b1 adds one eta at e = 0 to both sides.
    Each quantity is therefore x(paired) + sum_j n_j (x(M_j) - x(paired)),
    and no row of length 2g is built; only the paired member and the
    kinds with a handle are fetched. A member's values depend on nothing but the member and
    whether e is zero (:func:`_member_values`), so they are read from
    ``bundle_wang_data``'s cache entry, computed by the first audit after
    each fill of that cache and again in each grid sweep, which empties
    them first. The degeneracy is b1 less the rank; the closed forms stay
    the second route, read from their private kernels
    (``circle_bundle._torus_b1``, ``_bundle_b1``, ``_degeneracy``,
    ``_nullity`` and :func:`_canonical_class`) on the weights and tag the
    spec has validated, so no rule is checked twice. A case thus costs
    its records: a plain loop over at most three fetched members, the
    kernels, one certificate and its eight checks. The certificate is
    never cached: it is built afresh on each call, and a failed check is
    recorded, not raised, so a sweep sees every check of every case.
    """
    d, k, g, e = spec
    counts = surfaces.kind_counts(d, k, g)
    # the lemma's sums, from the paired member's values; the paired term
    # vanishes, and a kind with no handle is not fetched
    w0, b0, r0 = wang_b1, b1, rank = _member_values(2, e)
    for j in 0, 1:
        n = counts[j]
        if n:
            w, b, r = _member_values(j, e)
            wang_b1 += n * (w - w0)
            b1 += n * (b - b0)
            rank += n * (r - r0)
    degeneracy = b1 - rank
    # the closed-form kernels, on the weights and tag the spec has checked
    nullity = circle_bundle._nullity(d, k, e)
    k_dot = _canonical_class(g)
    kappa = kodaira_classify(0, k_dot)
    # sigma = 0 and chi = 0 are forced by the free circle action; combined
    # they pin b_plus = b_minus = b1 - 1, the Betti numbers the certificate
    # carries.
    cert = InvariantCertificate(
        sigma=0,
        chi=0,
        b1=b1,
        b_plus=b1 - 1,
        b_minus=b1 - 1,
        k_squared=0,
        k_dot_omega=k_dot,
        kappa=kappa,
        degeneracy=degeneracy,
        nullity=nullity,
        minimal=True,
        minimal_reason=(
            "free-circle-action total space; Kodaira dimension read from the "
            "minimal-model table"
        ),
        checks=BUNDLE_CHECKS,
        notes=(
            "K.[omega] is reported in units of the symplectic area of the fiber torus",
        ),
    )
    # sigma and chi read back off the Betti numbers, 2 chi + 3 sigma, and
    # the closed-form nullity against the computed degeneracy and b1
    sigma, chi, k_squared, bounds = cert.identities()
    checks = (
        Check("wang_b1_matches_formula", circle_bundle._torus_b1(d, k), wang_b1),
        Check("pairing_rank_even", 0, rank % 2),
        Check(
            "degeneracy_pairing_rank_matches_formula",
            circle_bundle._degeneracy(d, k, e),
            degeneracy,
        ),
        Check("nullity_within_degeneracy", True, bounds[2]),
        Check("gysin_b1_matches_formula", circle_bundle._bundle_b1(d, k, e), b1),
        Check("kappa_matches_genus_dichotomy", 0 if g == 1 else 1, kappa),
        Check("sigma_and_chi_vanish_for_free_circle_action", (0, 0), (sigma[2], chi[2])),
        Check(*k_squared),
    )
    return BundleAudit(cert, checks)


def _member_values(j: int, tag: int) -> tuple[int, int, int]:
    """The Wang b1, Gysin b1 and pairing rank of member j at ``tag``.

    Gysin b1 and the pairing change only with whether the tag is zero,
    so the values are kept per tag class in the member's ``audit_values``
    (:class:`~geographer.mapping_torus.BundleMember`) and computed on
    first use: once per fill of ``bundle_wang_data``'s cache, or after
    :func:`_forget_member_values`. The rank is that of the assembled
    pairing, as on the whole genus-g basis.
    """
    member = mapping_torus.bundle_wang_data(*mapping_torus.MEMBER_WEIGHTS[j])
    values = member.audit_values.get(tag != 0)
    if values is None:
        rank = linalg.rank(circle_bundle.lefschetz_pairing(member, tag))
        values = (member.b1, circle_bundle.bundle_b1(member, tag), rank)
        member.audit_values[tag != 0] = values
    return values


def _forget_member_values() -> None:
    """Empty every member's ``audit_values``, so that the next audits rank
    each member's pairing afresh; the certified Wang data stay cached."""
    for weights in mapping_torus.MEMBER_WEIGHTS:
        mapping_torus.bundle_wang_data(*weights).audit_values.clear()


@lru_cache(maxsize=None)
def construct(spec: BundleManifoldSpec) -> InvariantCertificate:
    """Build and fully cross-check the certificate of B(d, k, g; e).

    The certificate and its checks come from :func:`audit_bundle`; the
    first failed check or certificate identity raises
    :class:`ConsistencyError` instead of emitting.
    """
    cert, checks = audit_bundle(spec)
    enforce(spec, checks + cert.identities())
    return cert
