"""Elliptic surfaces, Dolgachev surfaces, and their fiber sums with bundles."""

import re

import pytest

from geographer import bundle_manifold, fiber_sum
from geographer.bundle_manifold import KODAIRA_NEG_INF, InvariantCertificate
from geographer.errors import ConsistencyError
from geographer.fiber_sum import (
    FIBER_SUM_CHECKS,
    DolgachevSurface,
    EllipticSurface,
    FiberSumSpec,
    elliptic_invariants,
    fiber_sum_invariants,
)


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        EllipticSurface(0)
    with pytest.raises(ValueError):
        DolgachevSurface(2, 4)  # not coprime
    with pytest.raises(ValueError):
        DolgachevSurface(1, 3)  # multiplicity below two
    assert EllipticSurface(3).label == "E(3)"
    assert DolgachevSurface(2, 3).label == "E(1)_{2,3}"


def test_elliptic_invariants():
    k3 = elliptic_invariants(EllipticSurface(2))
    assert (k3.sigma, k3.chi, k3.b1) == (-16, 24, 0)
    assert (k3.b_plus, k3.b_minus) == (3, 19)
    assert k3.k_dot_omega == 0 and k3.kappa == 0
    assert k3.minimal

    e3 = elliptic_invariants(EllipticSurface(3))
    assert (e3.sigma, e3.chi) == (-24, 36)
    assert e3.k_dot_omega == 1 and e3.kappa == 1

    rational = elliptic_invariants(EllipticSurface(1))
    assert rational.kappa == KODAIRA_NEG_INF
    assert not rational.minimal


def test_dolgachev_invariants():
    cert = elliptic_invariants(DolgachevSurface(2, 3))
    assert (cert.sigma, cert.chi, cert.b1) == (-8, 12, 0)
    assert (cert.b_plus, cert.b_minus) == (1, 9)
    assert cert.kappa == 1 and cert.minimal
    assert cert.k_dot_omega is None
    assert 2 * cert.chi + 3 * cert.sigma == 0


def test_fiber_sum_spec_validation():
    with pytest.raises(ValueError):
        FiberSumSpec(EllipticSurface(1), 0, 0, 2)  # plain E(1) routed to Dolgachev
    with pytest.raises(ValueError):
        FiberSumSpec(EllipticSurface(2), 0, 3, 2)  # g < k
    with pytest.raises(ValueError):
        FiberSumSpec(EllipticSurface(2), 0, 0, 1)  # g < 2
    with pytest.raises(ValueError):
        FiberSumSpec(EllipticSurface(2), 2, 1, 3)  # d > k
    assert FiberSumSpec(EllipticSurface(2), 1, 2, 2).label == "E(2,1,2,2)"
    assert FiberSumSpec(DolgachevSurface(2, 3), 0, 0, 2).label == "E(1)_{2,3}(0,0,2)"


@pytest.mark.parametrize(
    "base, weights, text",
    [
        (EllipticSurface(2), (0, 0, 0), "genus must be positive"),
        (DolgachevSurface(2, 3), (0, 0, 0), "genus must be positive"),
        (EllipticSurface(4), (0, 0, -1), "genus must be positive"),
        (EllipticSurface(2), (2, 1, 3), "weights must satisfy 0 <= d <= k <= g, got (2, 1, 3)"),
        (EllipticSurface(3), (-1, 0, 2), "weights must satisfy 0 <= d <= k <= g, got (-1, 0, 2)"),
        (DolgachevSurface(2, 3), (1, 3, 2), "weights must satisfy 0 <= d <= k <= g, got (1, 3, 2)"),
        (EllipticSurface(2), (0, 0, 1), "genus 1 must be at least max(k, 2) = 2"),
        (DolgachevSurface(2, 3), (1, 1, 1), "genus 1 must be at least max(k, 2) = 2"),
    ],
)
def test_fiber_sum_spec_refusal_text(base, weights, text):
    with pytest.raises(ValueError) as exc:
        FiberSumSpec(base, *weights)
    assert str(exc.value) == text


def test_fiber_sum_frozen_examples():
    cert = fiber_sum_invariants(FiberSumSpec(EllipticSurface(2), 1, 2, 2))
    assert (cert.sigma, cert.b1, cert.degeneracy) == (-16, 3, 1)
    assert cert.k_dot_omega == 4
    assert cert.kappa == 1
    assert cert.chi == 24
    assert (cert.b_plus, cert.b_minus) == (6, 22)

    cert = fiber_sum_invariants(FiberSumSpec(EllipticSurface(3), 0, 0, 2))
    assert (cert.sigma, cert.b1, cert.degeneracy) == (-24, 0, 0)
    assert cert.k_dot_omega == 5
    assert cert.nullity == 0  # simply connected in H^1 terms

    cert = fiber_sum_invariants(FiberSumSpec(DolgachevSurface(2, 3), 2, 3, 3))
    assert (cert.sigma, cert.b1, cert.degeneracy) == (-8, 4, 2)
    assert cert.kappa == 1
    assert cert.k_dot_omega is None
    assert cert.nullity is None


def test_fiber_sum_grid_identities():
    # b1 = 2k - d and K.[omega] = n - 2 + 2g are the closed forms of the
    # sum, written here as the oracle for the values read off the summands
    for n in range(2, 12):
        for g in range(2, 13):
            for k in range(0, g + 1):
                for d in range(0, k + 1):
                    cert = fiber_sum_invariants(FiberSumSpec(EllipticSurface(n), d, k, g))
                    assert cert.sigma == -8 * n
                    assert cert.b1 == 2 * k - d
                    assert cert.k_squared == 0
                    assert 2 * cert.chi + 3 * cert.sigma == 0
                    assert cert.k_dot_omega == n - 2 + 2 * g > 0
                    assert cert.degeneracy == d
                    assert cert.kappa == 1 and cert.minimal
                    assert cert.chi == 2 - 2 * cert.b1 + cert.b2
                    if cert.b1 == 0:
                        assert cert.sigma % 8 == 0


def test_dolgachev_branch_grid():
    for g in range(2, 5):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                cert = fiber_sum_invariants(FiberSumSpec(DolgachevSurface(2, 3), d, k, g))
                assert cert.sigma == -8
                assert cert.b1 == 2 * k - d
                assert 2 * cert.chi + 3 * cert.sigma == 0
                assert cert.degeneracy == d
                assert cert.kappa == 1


K3_SUM = FiberSumSpec(EllipticSurface(2), 1, 2, 2)


def _skew_summand(monkeypatch, **changes):
    """Serve the fiber sum a summand certificate with ``changes`` applied."""
    cert = bundle_manifold.construct(K3_SUM.summand)._replace(**changes)
    monkeypatch.setattr(bundle_manifold, "construct", lambda spec: cert)


@pytest.mark.parametrize(
    "changes, text",
    [
        ({"degeneracy": 2}, "summand_degeneracy_matches_formula expected 1, observed 2"),
        (
            {"chi": 2},
            "euler_characteristic_additivity_matches_identity expected 24, observed 26",
        ),
        ({"k_dot_omega": -3}, "K_dot_omega_positive expected True, observed False"),
    ],
)
def test_fiber_sum_raises_on_a_skewed_summand(monkeypatch, changes, text):
    _skew_summand(monkeypatch, **changes)
    with pytest.raises(ConsistencyError, match=f"^{re.escape(f'E(2,1,2,2): {text}')}$"):
        fiber_sum_invariants(K3_SUM)


def test_fiber_sum_raises_when_kappa_is_not_one(monkeypatch):
    _skew_summand(monkeypatch)
    monkeypatch.setattr(bundle_manifold, "kodaira_classify", lambda k_squared, k_dot: 2)
    with pytest.raises(
        ConsistencyError, match=r"^E\(2,1,2,2\): kappa_is_one expected 1, observed 2$"
    ):
        fiber_sum_invariants(K3_SUM)


@pytest.mark.parametrize(
    "changes, text",
    [
        # sigma = -15 with chi = 22 = -3 sigma // 2: b2 + sigma is odd, so
        # b_plus is floored and b_plus - b_minus misses sigma by one
        ({"sigma": 1, "chi": -2}, "sigma_equals_bplus_minus_bminus expected -15, observed -16"),
        # sigma = -17 with chi = 25 = -3 sigma // 2 leaves 2 chi + 3 sigma = -1
        (
            {"sigma": -1, "chi": 1},
            "two_chi_plus_three_sigma_equals_K_squared expected 0, observed -1",
        ),
        # b1 of the sum drops to 0, below the degeneracy d = 1
        ({"b1": 2}, "nullity_le_degeneracy_le_b1 expected True, observed False"),
    ],
)
def test_fiber_sum_enforces_its_identities_on_a_skewed_summand(monkeypatch, changes, text):
    _skew_summand(monkeypatch, **changes)
    with pytest.raises(ConsistencyError, match=f"^{re.escape(f'E(2,1,2,2): {text}')}$"):
        fiber_sum_invariants(K3_SUM)


def _skew_certificates(monkeypatch, changes, checks=None):
    """Apply ``changes`` to each certificate ``fiber_sum`` builds, or only to
    those whose ``checks`` are ``checks``."""

    def build(**fields):
        if checks is None or fields["checks"] == checks:
            fields.update(changes)
        return InvariantCertificate(**fields)

    monkeypatch.setattr(fiber_sum, "InvariantCertificate", build)


def test_fiber_sum_enforces_the_euler_identity(monkeypatch):
    # b2 of a sum is read off chi, so only a certificate skewed after the
    # fact can break chi = 2 - 2 b1 + b2
    _skew_certificates(monkeypatch, {"chi": 26}, FIBER_SUM_CHECKS)
    text = "E(2,1,2,2): chi_equals_euler_identity expected 26, observed 24"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(text)}$"):
        fiber_sum_invariants(K3_SUM)


@pytest.mark.parametrize(
    "base, changes, text",
    [
        # E(3): sigma = -24, chi = 36, b_plus = 5, b_minus = 29
        (
            EllipticSurface(3),
            {"b_plus": 6, "b_minus": 28},
            "E(3): sigma_equals_bplus_minus_bminus expected -24, observed -22",
        ),
        (EllipticSurface(3), {"b1": 1}, "E(3): chi_equals_euler_identity expected 36, observed 34"),
        (
            EllipticSurface(3),
            {"k_squared": 1},
            "E(3): two_chi_plus_three_sigma_equals_K_squared expected 1, observed 0",
        ),
        (
            EllipticSurface(3),
            {"degeneracy": 1},
            "E(3): nullity_le_degeneracy_le_b1 expected True, observed False",
        ),
        (
            DolgachevSurface(2, 3),
            {"k_squared": 1},
            "E(1)_{2,3}: two_chi_plus_three_sigma_equals_K_squared expected 1, observed 0",
        ),
    ],
)
def test_elliptic_invariants_enforce_the_identities(monkeypatch, base, changes, text):
    _skew_certificates(monkeypatch, changes)
    with pytest.raises(ConsistencyError, match=f"^{re.escape(text)}$"):
        elliptic_invariants.__wrapped__(base)
