"""Acceptance suite: every exit criterion as one exact-match test.

Each test prints a single summary line; all comparisons are exact integer
equalities, no tolerances anywhere.
"""

import json
import math
import random

from geographer import circle_bundle, linalg
from geographer.bundle_manifold import BundleManifoldSpec, construct
from geographer.circle_bundle import bundle_b1, lefschetz_pairing
from geographer.cli import recipe_document
from geographer.fiber_sum import (
    DolgachevSurface,
    EllipticSurface,
    FiberSumSpec,
    elliptic_invariants,
    fiber_sum_invariants,
)
from geographer.geography import (
    OpenProblem,
    _admissibility_failure,
    _null_admissibility_failure,
    enumerate_region,
    realize,
    realize_null,
)
from geographer.surfaces import Twist, TwistWord, compose_word
from strategies import (
    bundle_monodromy_word,
    identity,
    intersection_form,
    is_symplectic,
    lifted_wang_data,
    minus_identity,
)


def weight_grid(bound):
    for g in range(1, bound + 1):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                yield d, k, g


def tags_for(d, k):
    return [0] + ([1] if d else []) + ([2] if d != k else [])


def test_realization_grid_down_to_minus_eighty():
    realized = 0
    for a in range(0, -81, -8):
        for b in range(0, 13):
            for c in range(0, b + 1):
                if _admissibility_failure(a, b, c) is not None:
                    continue
                recipe = realize(a, b, c)
                cert = recipe.certificate
                assert (cert.sigma, cert.b1, cert.degeneracy) == (a, b, c)
                assert cert.kappa == 1
                assert cert.minimal is True
                realized += 1
    assert realized == 537  # brute-force count of the admissible region
    print(f"\nACCEPTANCE realization grid: PASS ({realized} triples, exact)")


def test_degeneracy_rank_route_equals_closed_form():
    cases = 0
    for d, k, g in weight_grid(8):
        data = lifted_wang_data(d, k, g)
        for tag in tags_for(d, k):
            q = lefschetz_pairing(data, tag)
            b1 = bundle_b1(data, tag)
            assert b1 - linalg.rank(q) == circle_bundle._degeneracy(d, k, tag), (d, k, g, tag)
            cases += 1
    assert cases == 404
    print(f"\nACCEPTANCE degeneracy oracle equivalence: PASS ({cases} cases, exact)")


def test_gysin_first_betti_grid():
    cases = 0
    for d, k, g in weight_grid(8):
        data = lifted_wang_data(d, k, g)
        for tag in tags_for(d, k):
            expected = 2 * k - d + 2 if tag == 0 else 2 * k - d + 1
            assert bundle_b1(data, tag) == expected, (d, k, g, tag)
            cases += 1
    print(f"\nACCEPTANCE Gysin first Betti number grid: PASS ({cases} cases, exact)")


def test_pairing_rank_even_and_complements_degeneracy():
    cases = 0
    for d, k, g in weight_grid(8):
        data = lifted_wang_data(d, k, g)
        for tag in tags_for(d, k):
            q = lefschetz_pairing(data, tag)
            rank_q = linalg.rank(q)
            b1 = bundle_b1(data, tag)
            assert rank_q % 2 == 0, (d, k, g, tag)
            assert rank_q == b1 - circle_bundle._degeneracy(d, k, tag), (d, k, g, tag)
            cases += 1
    print(f"\nACCEPTANCE pairing rank even and rank = b1 - d: PASS ({cases} cases)")


def test_monodromy_fixed_blocks_and_ranks():
    cases = 0
    for d, k, g in weight_grid(8):
        m = compose_word(bundle_monodromy_word(d, k, g))
        eye2 = identity(2)
        for i in range(1, g + 1):
            block = [list(row[2 * i - 2:2 * i]) for row in m[2 * i - 2:2 * i]]
            if i <= d:
                assert block == [[1, 0], [1, 1]], (d, k, g, i)
            elif i <= k:
                assert block == eye2, (d, k, g, i)
            else:
                assert linalg.rank(minus_identity(block)) == 2, (d, k, g, i)
        a = minus_identity(m)
        assert 2 * g - linalg.rank(a) == 2 * k - d, (d, k, g)
        assert 2 * g - linalg.rational_rank(a) == 2 * k - d, (d, k, g)
        cases += 1
    print(f"\nACCEPTANCE monodromy block actions and kernel ranks: PASS ({cases} words)")


def test_named_bundle_families():
    cases = 0
    for ell in range(1, 7):
        b_even, b_odd = 2 * ell, 2 * ell + 1
        for i in range(0, ell):
            g = max(ell - 1 + i, 2)
            cert = construct(BundleManifoldSpec(2 * i, ell - 1 + i, g, 0))
            assert (cert.b1, cert.degeneracy) == (b_even, 2 * i), ("family0", ell, i)
            g = max(ell + i, 2)
            cert = construct(BundleManifoldSpec(2 * i + 1, ell + i, g, 1))
            assert (cert.b1, cert.degeneracy) == (b_even, 2 * (i + 1)), ("family1", ell, i)
            cert = construct(BundleManifoldSpec(2 * i, ell + i, g, 2))
            assert (cert.b1, cert.degeneracy) == (b_odd, 2 * i + 1), ("family2", ell, i)
            cases += 3
        for i in range(1, ell + 1):
            g = max(ell + i, 2)
            cert = construct(BundleManifoldSpec(2 * i, ell + i, g, 1))
            assert (cert.b1, cert.degeneracy) == (b_odd, 2 * i + 1), ("family1-odd", ell, i)
            cases += 1
    print(f"\nACCEPTANCE named bundle families: PASS ({cases} certificates, exact)")


def test_fiber_sum_invariant_grid():
    cases = 0
    for n in range(2, 11):
        for g in range(2, 7):
            for k in range(0, min(g, 6) + 1):
                for d in range(0, k + 1):
                    cert = fiber_sum_invariants(FiberSumSpec(EllipticSurface(n), d, k, g))
                    assert cert.sigma == -8 * n
                    assert cert.b1 == 2 * k - d
                    assert cert.k_dot_omega == n - 2 + 2 * g > 0
                    assert cert.degeneracy == d
                    assert 2 * cert.chi + 3 * cert.sigma == 0
                    cases += 1
    print(f"\nACCEPTANCE fiber sum invariants: PASS ({cases} sums, exact)")


def test_nullity_data_points_and_open_case():
    assert circle_bundle._nullity(0, 0, 0) == 0
    assert circle_bundle._nullity(1, 1, 1) == 2
    assert circle_bundle._nullity(1, 1, 0) == 0
    assert circle_bundle._nullity(2, 2, 1) == 3
    assert _null_admissibility_failure(0, 2, 1) is not None
    result = realize_null(0, 3, 1)
    assert isinstance(result, OpenProblem)
    assert realize_null(0, 3, 0).label == "B(1,1,2;0)"
    assert realize_null(0, 3, 3).label == "B(2,2,2;1)"
    assert realize_null(0, 2, 0).label == "B(0,0,2;0)"
    assert realize_null(0, 2, 2).label == "B(1,1,2;1)"
    print("\nACCEPTANCE nullity data points and the open triple: PASS (exact)")


def test_simply_connected_signatures():
    # Dolgachev surfaces give -8 and E(n) gives -8n; E(2) is the K3 surface,
    # of Kodaira dimension 0, and every other base has kappa = 1
    realized = 0
    for sigma in range(-8, -81, -8):
        n = -sigma // 8
        base = DolgachevSurface(2, 3) if n == 1 else EllipticSurface(n)
        cert = elliptic_invariants(base)
        assert (cert.sigma, cert.b1, cert.degeneracy, cert.nullity) == (sigma, 0, 0, 0)
        assert cert.b_plus - cert.b_minus == sigma
        assert cert.chi == 12 * n
        assert cert.kappa == (0 if n == 2 else 1)
        assert cert.minimal
        realized += 1
    for bad in (lambda: EllipticSurface(0), lambda: DolgachevSurface(1, 3),
                lambda: DolgachevSurface(2, 4)):
        try:
            bad()
        except ValueError:
            pass
        else:
            raise AssertionError("an invalid elliptic base was accepted")
    print(f"\nACCEPTANCE simply connected signatures: PASS ({realized} signatures)")


def test_property_suites():
    rng = random.Random(20260809)
    words_checked = 0
    for _ in range(1000):
        genus = rng.randint(1, 6)
        letters = []
        for _ in range(rng.randint(0, 6)):
            vec = [0] * (2 * genus)
            while not any(vec):
                vec = [rng.randint(-3, 3) for _ in range(2 * genus)]
            gcd = math.gcd(*vec)
            letters.append(
                Twist(tuple(x // gcd for x in vec), rng.choice((-2, -1, 1, 2)))
            )
        m = compose_word(TwistWord(genus, tuple(letters)))
        assert is_symplectic(m)
        j = intersection_form(genus)
        assert linalg.matmul(linalg.matmul(linalg.transpose(m), j), m) == j
        words_checked += 1

    bounds_checked = 0
    for d, k, g in weight_grid(8):
        for tag in tags_for(d, k):
            cert = construct(BundleManifoldSpec(d, k, g, tag))
            assert cert.nullity <= cert.degeneracy <= cert.b1
            bounds_checked += 1

    round_trips = 0
    for recipe in enumerate_region(-16, 4):
        doc = recipe_document(recipe)
        assert json.loads(json.dumps(doc)) == doc
        round_trips += 1

    print(
        f"\nACCEPTANCE property suites: PASS ({words_checked} words, "
        f"{bounds_checked} bound checks, {round_trips} JSON round trips)"
    )
