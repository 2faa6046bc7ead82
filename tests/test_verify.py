"""The grid sweep: one uncached exact pass per case, tallied per check."""

import hashlib

import pytest

from geographer import circle_bundle, linalg, mapping_torus
from geographer.bundle_manifold import (
    BUNDLE_CHECKS,
    BundleManifoldSpec,
    audit_bundle,
    construct,
)
from geographer.errors import Check, ConsistencyError
from geographer.verify import CHECK_NAMES, bundle_grid, verify_bundle_grid


def test_audit_records_every_certificate_check_once():
    for spec in [
        BundleManifoldSpec(0, 0, 1, 0),
        BundleManifoldSpec(1, 2, 3, 1),
        BundleManifoldSpec(1, 2, 3, 2),
        BundleManifoldSpec(3, 3, 4, 0),
    ]:
        audit = audit_bundle(spec)
        assert sorted(check.name for check in audit.checks) == sorted(BUNDLE_CHECKS)
        assert all(check.passed for check in audit.checks)
        cert = construct(spec)
        assert cert.checks == BUNDLE_CHECKS
        assert audit.certificate == cert


def test_audit_of_wang_data_with_other_weights_fails_the_wang_b1_check(monkeypatch):
    # B(2,2,3;0) served the untouched member B(0,1,1) for its twisted
    # kind: two fixed classes per twisted handle where the weights (2, 2)
    # demand one, so b1 of the mapping torus reads 5, not 3
    members = {weights: mapping_torus.bundle_wang_data(*weights) for weights in [(0, 1), (0, 0)]}
    members[1, 1] = other = members[0, 1]
    monkeypatch.setattr(mapping_torus, "bundle_wang_data", lambda d, k: members[d, k])
    checks = audit_bundle(BundleManifoldSpec(2, 2, 3, 0)).checks
    assert len(other.invariant_basis) == 2
    assert checks[0] == Check("wang_b1_matches_formula", 3, 5)
    assert not checks[0].passed


def test_a_cold_sweep_leaves_at_most_three_cache_entries():
    # the sweep reads the three genus-1 members, whatever the grid; no
    # genus-g Wang data is kept
    mapping_torus.bundle_wang_data.cache_clear()
    assert verify_bundle_grid(12).passed
    assert mapping_torus.bundle_wang_data.cache_info().currsize <= 3


def test_a_warm_sweep_ranks_each_member_pairing_once_per_tag_class(monkeypatch):
    # the sweep reads each member's values per tag class, zero or nonzero,
    # from its slot in bundle_wang_data's entry: one pairing per member and
    # class, not one per case, and afresh in each sweep
    assert verify_bundle_grid(12).passed
    built = []
    original = circle_bundle.lefschetz_pairing

    def recorded(data, tag):
        built.append((data.invariant_basis, tag != 0))
        return original(data, tag)

    monkeypatch.setattr(circle_bundle, "lefschetz_pairing", recorded)
    assert verify_bundle_grid(12).passed
    members = {mapping_torus.bundle_wang_data(*w).invariant_basis
               for w in mapping_torus.MEMBER_WEIGHTS}
    assert sorted(built) == sorted((basis, nonzero) for basis in members for nonzero in (0, 1))


def test_verify_catches_a_pairing_corrupted_only_at_nonzero_tags(monkeypatch):
    # zeroed at e != 0 only, after a clean sweep has filled the members'
    # slots: the untouched member is the one whose pairing has rank there,
    # so exactly the cases with a nonzero tag and an untouched handle fail
    assert verify_bundle_grid(6).passed
    original = circle_bundle.lefschetz_pairing

    def corrupted(data, tag):
        q = original(data, tag)
        return linalg.zeros(len(q), len(q[0])) if tag else q

    monkeypatch.setattr(circle_bundle, "lefschetz_pairing", corrupted)
    report = verify_bundle_grid(6)
    failed = [f.split(")")[0] + ")" for f in report.failures]
    assert failed == [
        f"(d={s.d}, k={s.k}, g={s.g}, e={s.e})" for s in bundle_grid(6) if s.e and s.k > s.d
    ]
    assert all("degeneracy_pairing_rank_vs_formula" in f for f in report.failures)


def test_an_odd_rank_member_pairing_fails_pairing_rank_even_where_it_is_summed_oddly(monkeypatch):
    # the eta row zeroed in the twisted member's pairing at e = 0: its rank
    # falls from 2 to 1, one below the paired member's, so the summed rank
    # is 2 - d there, odd for exactly the cases with e = 0 and an odd d
    twisted = mapping_torus.bundle_wang_data(*mapping_torus.MEMBER_WEIGHTS[0])
    original = circle_bundle.lefschetz_pairing

    def odd_rank(data, tag):
        q = original(data, tag)
        if data is twisted and tag == 0:
            q[-1] = [0] * len(q[-1])
        return q

    monkeypatch.setattr(circle_bundle, "lefschetz_pairing", odd_rank)
    report = verify_bundle_grid(6)
    assert [f for f in report.failures if " pairing_rank_even: " in f] == [
        f"(d={s.d}, k={s.k}, g={s.g}, e=0) pairing_rank_even: "
        "pairing_rank_even expected 0, observed 1"
        for s in bundle_grid(6)
        if s.e == 0 and s.d % 2
    ]


def test_audit_records_on_the_g_le_12_grid_are_pinned():
    # every certificate and check of every case with g <= 12, pinned as a
    # digest: a change to the kind sums, the closed-form kernels or the
    # records that moves any value or order shows here
    text = "\n".join(repr(audit_bundle(spec)) for spec in bundle_grid(12))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ae7f801da9784db5ad922d973fb3b0c7bcf83aa0a3bf1ffedb268382982344b7"


def test_report_lines_cover_every_certificate_check_once():
    grouped = [name for names in CHECK_NAMES.values() for name in names]
    assert sorted(grouped) == sorted(BUNDLE_CHECKS)


def test_off_by_one_closed_form_is_named_for_the_affected_weights(monkeypatch):
    original = circle_bundle._degeneracy

    def off_by_one_for_tag_two(d, k, tag):
        return original(d, k, tag) + (1 if tag == 2 else 0)

    monkeypatch.setattr(circle_bundle, "_degeneracy", off_by_one_for_tag_two)
    report = verify_bundle_grid(2)
    # tag 2 has closed form d + 1, so the skewed formula demands d + 2
    assert report.failures == [
        f"(d={d}, k={k}, g={g}, e=2) degeneracy_pairing_rank_vs_formula: "
        f"degeneracy_pairing_rank_matches_formula expected {d + 2}, observed {d + 1}"
        for g in (1, 2)
        for k in range(g + 1)
        for d in range(k)
    ]
    assert report.cases == 17
    assert set(report.counts.values()) == {17}


def test_construct_raises_the_first_failed_check(monkeypatch):
    spec = BundleManifoldSpec(0, 1, 1, 2)
    original = circle_bundle._degeneracy
    monkeypatch.setattr(circle_bundle, "_degeneracy", lambda d, k, tag: original(d, k, tag) + 1)
    # construct itself, past its cache, so earlier tests cannot hide the fault
    with pytest.raises(
        ConsistencyError,
        match=r"^B\(0,1,1;2\): degeneracy_pairing_rank_matches_formula expected 2, observed 1$",
    ):
        construct.__wrapped__(spec)
    monkeypatch.setattr(circle_bundle, "_bundle_b1", lambda d, k, tag: 2 * k - d + 7)
    with pytest.raises(
        ConsistencyError,
        match=r"^B\(0,1,1;2\): degeneracy_pairing_rank_matches_formula expected 2, observed 1$",
    ):
        construct.__wrapped__(spec)  # recorded before the Gysin check
    monkeypatch.setattr(circle_bundle, "_degeneracy", original)
    with pytest.raises(
        ConsistencyError, match=r"^B\(0,1,1;2\): gysin_b1_matches_formula expected 9, observed 3$"
    ):
        construct.__wrapped__(spec)


def test_verify_and_construct_render_a_failed_check_alike(monkeypatch):
    spec = BundleManifoldSpec(0, 1, 1, 2)
    original = circle_bundle._degeneracy
    monkeypatch.setattr(circle_bundle, "_degeneracy", lambda d, k, tag: original(d, k, tag) + 1)
    (check,) = [check for check in audit_bundle(spec).checks if not check.passed]
    failures = [f for f in verify_bundle_grid(1).failures if f.startswith("(d=0, k=1, g=1, e=2)")]
    with pytest.raises(ConsistencyError) as exc:
        construct.__wrapped__(spec)
    assert failures == [f"(d=0, k=1, g=1, e=2) degeneracy_pairing_rank_vs_formula: {check}"]
    assert str(exc.value) == f"{spec.label}: {check}"


def test_nullity_check_reads_the_certificate_bounds(monkeypatch):
    # a nullity closed form above the degeneracy d + 1 = 2 of B(1,2,3;1)
    monkeypatch.setattr(circle_bundle, "_nullity", lambda d, k, tag: d + 2)
    audit = audit_bundle(BundleManifoldSpec(1, 2, 3, 1))
    (failed,) = [check for check in audit.checks if not check.passed]
    assert failed == Check("nullity_within_degeneracy", True, False)
    assert failed[1:] == audit.certificate.identities()[3][1:]
