"""Grid verification: every dual-route identity over all bundle weights.

For each 1 <= g <= grid_max, 0 <= d <= k <= g and each valid Euler tag,
the sweep runs :func:`~geographer.bundle_manifold.audit_bundle`, the
exact pass that ``construct`` certifies from, and tallies its checks: the
degeneracy from the assembled pairing rank against the closed form, the
Wang and Gysin first Betti numbers against their formulas, the evenness
of the pairing rank, the nullity bounds, and the signature, Euler and
Kodaira identities of the certificate. The pass is never served from
``construct``'s cache, so every certificate is built and checked afresh.
The member values it sums, the Wang b1, Gysin b1 and pairing rank of the
three genus-1 members of the handle kinds at each tag class, are read
from the members' entries of the memoized
:func:`~geographer.mapping_torus.bundle_wang_data`: a cold sweep
certifies each kind once, and the cache holds three entries, however
large the grid. The sweep first empties the members' ``audit_values``,
so it ranks each member's pairing afresh, once per tag class, and trusts
no rank computed before it. A case then costs its records alone: the
spec, which validates its weights and tag once, the audit's kind sums
and closed forms on them, its certificate and eight check triples, and
an inline ``expected != observed`` scan of them. A mismatch is reported
with the offending weights, in the text of ``errors.mismatch``, instead
of raising. The sweep tallies first and builds its report once.
"""

from typing import Iterator

from . import bundle_manifold, circle_bundle, geography
from .bundle_manifold import BundleManifoldSpec, audit_bundle
from .errors import InadmissibleError, mismatch

#: Each line of the report counts one kind of check, once per case; a
#: case fails a line when any certificate check of that kind fails.
CHECK_NAMES = {
    "degeneracy_pairing_rank_vs_formula": ("degeneracy_pairing_rank_matches_formula",),
    "gysin_b1_vs_formula": ("wang_b1_matches_formula", "gysin_b1_matches_formula"),
    "pairing_rank_even": ("pairing_rank_even",),
    "nullity_bounds": ("nullity_within_degeneracy",),
    "signature_identity": (
        "sigma_and_chi_vanish_for_free_circle_action",
        "two_chi_plus_three_sigma_equals_K_squared",
        "kappa_matches_genus_dichotomy",
    ),
}

_LINE_OF = {check: line for line, checks in CHECK_NAMES.items() for check in checks}


class VerificationReport:
    """The tallies of one sweep: each line of :data:`CHECK_NAMES` is
    counted once per case, and each failure names its case and line.

    The one record of the package that is not a NamedTuple: callers may
    copy a report and set its fields, as the benchmark's self-test does
    to corrupt one.
    """

    __slots__ = ("grid_max", "cases", "counts", "failures")

    def __init__(self, grid_max: int, cases: int, counts: dict[str, int], failures: list[str]):
        self.grid_max = grid_max
        self.cases = cases
        self.counts = counts
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_bundle_grid(grid_max: int) -> VerificationReport:
    """Run every check over the full weight grid up to ``grid_max``, an
    integer of at least 1; any other bound is an :class:`InadmissibleError`."""
    refusal = "grid bound must be an integer (int, not bool or float)"
    grid_max = geography._int_argument(grid_max, refusal)
    if grid_max < 1:
        raise InadmissibleError("grid bound must be at least 1")
    bundle_manifold._forget_member_values()
    cases = 0
    failures = []
    for cases, spec in enumerate(bundle_grid(grid_max), 1):
        for name, expected, observed in audit_bundle(spec).checks:
            if expected != observed:
                case = f"(d={spec.d}, k={spec.k}, g={spec.g}, e={spec.e})"
                failures.append(f"{case} {_LINE_OF[name]}: {mismatch(name, expected, observed)}")
    return VerificationReport(grid_max, cases, dict.fromkeys(CHECK_NAMES, cases), failures)


def bundle_grid(grid_max: int) -> Iterator[BundleManifoldSpec]:
    """Every B(d, k, g; e) with g <= grid_max: g, k, d ascending, then the
    valid tags in increasing order."""
    for g in range(1, grid_max + 1):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                for tag in circle_bundle.valid_tags(d, k):
                    yield BundleManifoldSpec(d, k, g, tag)
