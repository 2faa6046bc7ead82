"""Admissibility predicates and the realization map."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geographer import geography
from geographer.bundle_manifold import BundleManifoldSpec, construct
from geographer.errors import ConsistencyError, InadmissibleError
from geographer.fiber_sum import (
    DolgachevSurface,
    EllipticSurface,
    FiberSumSpec,
    elliptic_invariants,
    fiber_sum_invariants,
)
from geographer.geography import (
    OpenProblem,
    certify,
    default_genus,
    enumerate_region,
    realize,
    realize_null,
)
from strategies import brute_force_bundle_nullity


def admissible(a, b, c):
    return geography._admissibility_failure(a, b, c) is None


def null_admissible(a, b, c):
    return geography._null_admissibility_failure(a, b, c) is None


def brute_force_admissible(a, b, c):
    """The predicate, written out independently from first principles."""
    multiple_of_eight = (a % 8 == 0) and (a <= 0)
    within = (0 <= c) and (c <= b)
    parity = ((b - c) % 2) == 0
    bound = b >= max(0, 2 + a // 4)
    return multiple_of_eight and within and parity and bound


def test_admissibility_frozen_cases():
    assert admissible(-8, 0, 0)
    assert admissible(0, 2, 0)
    assert admissible(-16, 2, 0)
    assert not admissible(0, 3, 2)  # parity
    assert not admissible(8, 2, 0)  # positive signature
    assert not admissible(0, 1, 1)  # b >= 2 when a = 0
    assert not admissible(0, 0, 0)
    assert not admissible(-4, 0, 0)  # not a multiple of 8
    assert not admissible(-8, 2, 3)  # c > b


def test_null_admissibility_frozen_cases():
    assert not null_admissible(0, 2, 1)  # c = b - 1
    assert null_admissible(0, 3, 1)
    assert null_admissible(0, 3, 3)
    assert null_admissible(0, 2, 2)
    assert not null_admissible(-8, 1, 0)  # c = b - 1 again
    assert null_admissible(-8, 1, 1)
    assert null_admissible(-8, 0, 0)
    assert not null_admissible(0, 1, 1)  # bound b >= 2


@given(
    st.integers(-40, 16),
    st.integers(-1, 8),
    st.integers(-1, 9),
)
def test_admissibility_against_brute_force(a, b, c):
    assert admissible(a, b, c) == brute_force_admissible(a, b, c)


def test_realize_frozen_recipes():
    recipe = realize(0, 4, 4)
    assert recipe.label == "B(3,3,3;1)" and recipe.family == "B1(1)"
    recipe = realize(0, 4, 0)
    assert recipe.label == "B(0,1,2;0)" and recipe.family == "B0(0)"
    recipe = realize(0, 5, 3)
    assert recipe.label == "B(2,3,3;2)" and recipe.family == "B2(1)"
    recipe = realize(0, 5, 5)
    assert recipe.label == "B(4,4,4;1)" and recipe.family == "B1(2)"
    recipe = realize(-16, 3, 1)
    assert recipe.label == "E(2,1,2,2)" and recipe.kind == "fiber_sum"
    recipe = realize(-8, 0, 0)
    assert recipe.kind == "dolgachev_sum"
    assert recipe.spec.base == DolgachevSurface(2, 3)


def test_recipe_raises_when_the_certificate_misses_its_triple(monkeypatch):
    # (0, 4, 4) asks for B(3,3,3;1); B(0,1,3;0) certifies (0, 4, 0)
    other = construct(BundleManifoldSpec(0, 1, 3, 0))
    monkeypatch.setattr(geography, "construct", lambda spec: other)
    text = "B(3,3,3;1): realizes_target_triple expected (0, 4, 4), observed (0, 4, 0)"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(text)}$"):
        realize(0, 4, 4)


def test_recipe_raises_when_kappa_is_not_one(monkeypatch):
    monkeypatch.setattr(geography, "construct", lambda spec: construct(spec)._replace(kappa=0))
    with pytest.raises(
        ConsistencyError, match=r"^B\(3,3,3;1\): kappa_is_one expected 1, observed 0$"
    ):
        realize(0, 4, 4)


def test_realize_rejects_inadmissible():
    with pytest.raises(InadmissibleError, match="non-positive multiple of 8"):
        realize(8, 2, 0)
    with pytest.raises(InadmissibleError, match="even"):
        realize(0, 3, 2)
    with pytest.raises(InadmissibleError, match="at least"):
        realize(0, 1, 1)


NON_INTEGER = "triple entries must be integers (int, not bool or float)"
SIGNATURE = "signature must be a non-positive multiple of 8"

#: One triple per branch of each rule, with the whole refusal text.
REFUSALS = [
    (realize, (0, 2.0, 0), NON_INTEGER),
    (realize, (8, 2, 0), SIGNATURE),
    (realize, (-12, 4, 0), SIGNATURE),
    (realize, (0, 2, 3), "degeneracy must satisfy 0 <= c <= b"),
    (realize, (-16, 2, -2), "degeneracy must satisfy 0 <= c <= b"),
    (realize, (0, 3, 2), "b - c must be even"),
    (realize, (0, 1, 1), "b must be at least max(0, 2 + a/4) = 2"),
    (realize, (0, 0, 0), "b must be at least max(0, 2 + a/4) = 2"),
    (realize_null, (0, 2, True), NON_INTEGER),
    (realize_null, (0, 2, 1), "nullity b - 1 is impossible: one class would have a nonzero cup square"),
    (realize_null, (8, 2, 1), "nullity b - 1 is impossible: one class would have a nonzero cup square"),
    (realize_null, (8, 2, 2), SIGNATURE),
    (realize_null, (-4, 2, 0), SIGNATURE),
    (realize_null, (0, 2, 3), "nullity must satisfy 0 <= c <= b"),
    (realize_null, (0, 3, -1), "nullity must satisfy 0 <= c <= b"),
    (realize_null, (0, 1, 1), "b must be at least max(0, 2 + a/4) = 2"),
    (realize_null, (0, 0, 0), "b must be at least max(0, 2 + a/4) = 2"),
]


@pytest.mark.parametrize("fn, triple, text", REFUSALS)
def test_refusal_text_of_every_rule(fn, triple, text):
    with pytest.raises(InadmissibleError) as exc:
        fn(*triple)
    assert str(exc.value) == text
    if text == NON_INTEGER:
        return  # the integer rule runs in realize, before the predicates on ints
    failure = (
        geography._admissibility_failure if fn is realize else geography._null_admissibility_failure
    )
    assert failure(*triple) == text


NON_INTEGER_TRIPLES = [
    (-8.0, 2, 0),
    (0, 4.0, 4),
    (0, 3, 1.0),
    (True, 2, 0),
    (0, True, True),
    (0, 2, False),
]


@pytest.mark.parametrize("triple", NON_INTEGER_TRIPLES)
def test_non_integer_triples_are_inadmissible(triple):
    for fn in realize, realize_null:
        with pytest.raises(InadmissibleError) as exc:
            fn(*triple)
        assert str(exc.value) == NON_INTEGER


@pytest.mark.parametrize("bounds", [(-8.0, 2), (-8, 2.0), (False, 2), (0, True)])
def test_enumerate_rejects_non_integer_bounds(bounds):
    with pytest.raises(InadmissibleError, match="integers"):
        list(enumerate_region(*bounds))


def test_realize_soundness_region():
    for a in range(0, -25, -8):
        for b in range(0, 7):
            for c in range(0, b + 1):
                if not admissible(a, b, c):
                    continue
                recipe = realize(a, b, c)
                cert = recipe.certificate
                assert (cert.sigma, cert.b1, cert.degeneracy) == (a, b, c)
                assert cert.kappa == 1
                assert cert.minimal
                assert 2 * cert.chi + 3 * cert.sigma == 0


def test_realize_euler_tag_parity_split():
    for b in range(2, 9):
        for c in range(b % 2, b + 1, 2):
            recipe = realize(0, b, c)
            tag = recipe.spec.e
            if b % 2 == 0:
                assert tag in (0, 1)
            else:
                assert tag in (1, 2)
            if c == b:
                assert recipe.spec.d == recipe.spec.k


def test_realize_is_pure():
    assert realize(0, 6, 2) == realize(0, 6, 2)
    assert realize(-24, 4, 2) == realize(-24, 4, 2)


def test_realize_genus_floor():
    recipe = realize(0, 4, 0, genus=7)
    assert recipe.spec.g == 7
    cert = recipe.certificate
    assert (cert.sigma, cert.b1, cert.degeneracy) == (0, 4, 0)
    assert default_genus(3) == 3
    assert default_genus(0) == 2
    assert default_genus(1, floor=5) == 5


def test_realize_null_data_points():
    assert realize_null(0, 2, 0).label == "B(0,0,2;0)"
    assert realize_null(0, 2, 2).label == "B(1,1,2;1)"
    assert realize_null(0, 3, 0).label == "B(1,1,2;0)"
    assert realize_null(0, 3, 3).label == "B(2,2,2;1)"
    result = realize_null(0, 3, 1)
    assert isinstance(result, OpenProblem)
    assert result.triple == (0, 3, 1)
    assert result.notes  # carries the required ring-structure note
    assert isinstance(realize_null(0, 4, 2), OpenProblem)
    found = realize_null(0, 4, 1)
    assert found.spec == BundleManifoldSpec(1, 2, 2, 1)
    assert found.certificate.nullity == 1


def test_realize_null_respects_verified_triples():
    for b in range(2, 7):
        for c in range(0, b + 1):
            if not null_admissible(0, b, c):
                continue
            result = realize_null(0, b, c)
            if isinstance(result, OpenProblem):
                # open exactly in the middle range with b - c even
                assert 0 < c < b and (b - c) % 2 == 0
            else:
                assert result.certificate.nullity == c
                assert result.certificate.b1 == b
                assert result.triple_kind == "nullity"


@pytest.mark.parametrize("genus", [None, 7])
def test_bundle_nullity_search_matches_brute_force_scan(monkeypatch, genus):
    # the recipe is replaced by what it would certify, so that only the
    # rule and the spec it names are under test here
    monkeypatch.setattr(
        geography, "_recipe", lambda spec, triple, kind: (spec, triple, kind)
    )
    for b in range(0, 41):
        first = brute_force_bundle_nullity(b)
        for c in range(0, b + 1):
            choice = geography._bundle_nullity_choice(b, c)
            if c not in first:
                assert choice is None, (b, c)
                continue
            d, k, tag = first[c]
            spec = BundleManifoldSpec(d, k, default_genus(k, genus), tag)
            assert geography._bundle_spec(b, *choice, genus) == spec, (b, c)
            assert realize_null(0, b, c, genus) == (spec, (0, b, c), "nullity"), (b, c)


def test_realize_null_negative_signature():
    recipe = realize_null(-8, 0, 0)
    assert recipe.kind == "dolgachev_sum"
    assert recipe.certificate.nullity == 0
    recipe = realize_null(-16, 0, 0)
    assert recipe.spec.base == EllipticSurface(2)
    assert recipe.certificate.kappa == 1
    assert isinstance(realize_null(-8, 2, 2), OpenProblem)
    with pytest.raises(InadmissibleError, match="impossible"):
        realize_null(0, 2, 1)


def test_enumerate_frozen_regions():
    triples = [r.triple for r in enumerate_region(-8, 2)]
    assert triples == [
        (0, 2, 0),
        (0, 2, 2),
        (-8, 0, 0),
        (-8, 1, 1),
        (-8, 2, 0),
        (-8, 2, 2),
    ]
    assert [r.triple for r in enumerate_region(0, 2)] == [(0, 2, 0), (0, 2, 2)]
    assert list(enumerate_region(0, 0)) == []
    assert [r.triple for r in enumerate_region(-8, 1)] == [(-8, 0, 0), (-8, 1, 1)]


def test_enumerate_order_is_deterministic():
    triples = [r.triple for r in enumerate_region(-16, 4)]
    # signature descends from zero; within a signature b then c ascend
    sigmas = [t[0] for t in triples]
    assert sigmas == sorted(sigmas, reverse=True)
    for sigma in set(sigmas):
        chunk = [(t[1], t[2]) for t in triples if t[0] == sigma]
        assert chunk == sorted(chunk)



def test_enumerate_checks_admissibility_once_per_triple(monkeypatch):
    seen = []
    original = geography._admissibility_failure

    def counted(a, b, c):
        seen.append((a, b, c))
        return original(a, b, c)

    monkeypatch.setattr(geography, "_admissibility_failure", counted)
    recipes = list(enumerate_region(-16, 4))
    # three signatures, fifteen (b, c) with 0 <= c <= b <= 4 each
    assert len(seen) == len(set(seen)) == 45
    assert [r.triple for r in recipes] == [t for t in seen if original(*t) is None]


def test_certify_dispatches_on_the_spec():
    bundle = BundleManifoldSpec(1, 2, 3, 2)
    assert certify(bundle) is construct(bundle)
    for base in (EllipticSurface(3), DolgachevSurface(2, 3)):
        spec = FiberSumSpec(base, 1, 2, 2)
        assert certify(spec) == fiber_sum_invariants(spec)


def test_enumerate_builds_each_elliptic_base_once():
    elliptic_invariants.cache_clear()
    sums = [r.spec for r in enumerate_region(-80, 12) if isinstance(r.spec, FiberSumSpec)]
    info = elliptic_invariants.cache_info()
    assert info.misses == len({spec.base for spec in sums}) < len(sums)
    assert info.hits + info.misses == len(sums)
