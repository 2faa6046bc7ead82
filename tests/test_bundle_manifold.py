"""Certificates of the bundle manifolds and the Kodaira classifier."""

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geographer import bundle_manifold, circle_bundle, linalg, mapping_torus
from geographer.bundle_manifold import (
    KODAIRA_NEG_INF,
    BundleAudit,
    BundleManifoldSpec,
    audit_bundle,
    canonical_class,
    construct,
    kodaira_classify,
)
from geographer.circle_bundle import bundle_b1, lefschetz_pairing, valid_tags
from geographer.errors import ConsistencyError, enforce
from geographer.fiber_sum import DolgachevSurface, EllipticSurface, FiberSumSpec
from geographer.mapping_torus import MappingTorus, wang_cohomology
from geographer.surfaces import Twist, TwistWord
from strategies import bundle_monodromy_word

SRC = Path(__file__).resolve().parent.parent / "src" / "geographer"


def test_kodaira_table():
    assert kodaira_classify(0, 0) == 0
    assert kodaira_classify(0, 5) == 1
    assert kodaira_classify(-1, 3) == KODAIRA_NEG_INF
    assert kodaira_classify(0, -2) == KODAIRA_NEG_INF
    assert kodaira_classify(4, 1) == 2
    assert kodaira_classify(4, -1) == KODAIRA_NEG_INF


def test_kodaira_outside_table():
    with pytest.raises(ValueError, match="outside table"):
        kodaira_classify(1, 0)


def test_canonical_class_coefficients():
    assert canonical_class(1) == 0
    assert canonical_class(2) == 2
    assert canonical_class(5) == 8
    with pytest.raises(ValueError):
        canonical_class(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        BundleManifoldSpec(1, 0, 2, 0)  # d > k
    with pytest.raises(ValueError):
        BundleManifoldSpec(0, 0, 2, 1)  # tag 1 needs d != 0
    with pytest.raises(ValueError):
        BundleManifoldSpec(1, 1, 2, 2)  # tag 2 needs d != k
    with pytest.raises(ValueError):
        BundleManifoldSpec(0, 0, 0, 0)  # genus
    with pytest.raises(ValueError):
        BundleManifoldSpec(0, 3, 2, 0)  # k > g
    assert BundleManifoldSpec(1, 1, 2, 1).label == "B(1,1,2;1)"


@pytest.mark.parametrize(
    "weights, text",
    [
        ((0, 0, 0, 0), "genus must be positive"),
        ((0, 0, -1, 0), "genus must be positive"),
        ((2, 1, 3, 0), "weights must satisfy 0 <= d <= k <= g, got (2, 1, 3)"),
        ((-1, 1, 3, 0), "weights must satisfy 0 <= d <= k <= g, got (-1, 1, 3)"),
        ((1, 3, 2, 0), "weights must satisfy 0 <= d <= k <= g, got (1, 3, 2)"),
        ((1, 2, 3, 3), "Euler tag must be one of (0, 1, 2), got 3"),
        ((0, 2, 3, 1), "tag 1 requires d != 0 (no twisted a_i^theta class exists)"),
        ((2, 2, 3, 2), "tag 2 requires d != k (the untouched block is empty)"),
        ((0, 0, 2**62, 0), f"genus {2**62} is too large: its 2g coordinates cannot be indexed"),
    ],
)
def test_spec_refusal_text(weights, text):
    with pytest.raises(ValueError) as exc:
        BundleManifoldSpec(*weights)
    assert str(exc.value) == text


def test_certificate_twisted_tag_one():
    cert = construct(BundleManifoldSpec(1, 1, 2, 1))
    assert (cert.sigma, cert.chi, cert.b1) == (0, 0, 2)
    assert (cert.b_plus, cert.b_minus) == (1, 1)
    assert cert.degeneracy == 2
    assert cert.nullity == 2
    assert cert.kappa == 1
    assert cert.k_squared == 0
    assert cert.k_dot_omega == 2
    assert cert.minimal


def test_certificate_product_case():
    cert = construct(BundleManifoldSpec(2, 3, 5, 0))
    assert (cert.sigma, cert.b1, cert.degeneracy, cert.nullity) == (0, 6, 2, 0)
    assert cert.kappa == 1
    assert cert.k_dot_omega == 8
    assert (cert.b_plus, cert.b_minus) == (5, 5)


def test_torus_like_genus_one_case():
    cert = construct(BundleManifoldSpec(0, 0, 1, 0))
    assert cert.kappa == 0
    assert cert.k_dot_omega == 0
    assert cert.b1 == 2


def test_grid_identities():
    for g in range(1, 6):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                for tag in [0] + ([1] if d else []) + ([2] if d != k else []):
                    cert = construct(BundleManifoldSpec(d, k, g, tag))
                    assert cert.sigma == 0 and cert.chi == 0
                    assert 2 * cert.chi + 3 * cert.sigma == 0
                    assert cert.b_plus == cert.b_minus == cert.b1 - 1
                    assert cert.kappa == (0 if g == 1 else 1)
                    assert cert.nullity <= cert.degeneracy <= cert.b1
                    assert cert.chi == 2 - 2 * cert.b1 + cert.b2


def test_construct_is_deterministic_and_cached():
    spec = BundleManifoldSpec(1, 2, 3, 2)
    first = construct(spec)
    second = construct(BundleManifoldSpec(1, 2, 3, 2))
    assert first == second
    assert first is second  # pure function, memoized


def test_an_equal_spec_built_twice_hits_the_construct_cache():
    first = construct(BundleManifoldSpec(2, 3, 4, 1))
    before = construct.cache_info()
    second = construct(BundleManifoldSpec(2, 3, 4, 1))
    after = construct.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert second is first


def test_spec_repr_names_its_fields():
    assert repr(BundleManifoldSpec(1, 1, 2, 0)) == "BundleManifoldSpec(d=1, k=1, g=2, e=0)"


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: Twist((2, 0)), "twist curve (2, 0) is not primitive"),
        (lambda: TwistWord(0), "genus must be positive"),
        (lambda: BundleManifoldSpec(0, 0, 1, 1), "tag 1 requires d != 0"),
        (lambda: EllipticSurface(0), "E(n) requires n >= 1"),
        (lambda: DolgachevSurface(2, 4), "multiplicities (2, 4) must be coprime"),
        (lambda: FiberSumSpec(EllipticSurface(2), 0, 1, 1), "genus 1 must be at least"),
        (lambda: MappingTorus("x"), "mapping torus word: expected a TwistWord, got 'x'"),
        (lambda: MappingTorus(TwistWord(1).letters),
         "mapping torus word: expected a TwistWord, got ()"),
    ],
    ids=["Twist", "TwistWord", "BundleManifoldSpec", "EllipticSurface", "DolgachevSurface",
         "FiberSumSpec", "MappingTorus", "MappingTorus-letters"],
)
def test_validated_records_refuse_a_bad_value_through_the_constructor(build, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        build()


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: BundleManifoldSpec(1.0, 1, 2, 1), "bundle d: non-integer value 1.0"),
        (lambda: BundleManifoldSpec(1, 1, 2, True), "bundle e: non-integer value True"),
        (lambda: EllipticSurface(2.5), "elliptic surface n: non-integer value 2.5"),
        (lambda: DolgachevSurface(2.0, 3), "Dolgachev p: non-integer value 2.0"),
        (lambda: FiberSumSpec(EllipticSurface(2), 0, 0, 2.0), "fiber sum g: non-integer value 2.0"),
        (lambda: FiberSumSpec("x", 0, 0, 2),
         "fiber sum base: expected an elliptic or Dolgachev surface, got 'x'"),
    ],
    ids=["BundleManifoldSpec-float", "BundleManifoldSpec-bool", "EllipticSurface",
         "DolgachevSurface", "FiberSumSpec", "FiberSumSpec-base"],
)
def test_specs_refuse_bools_and_non_integers_naming_the_field(build, text):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == text


def test_no_record_is_built_through_replace_or_make():
    # NamedTuple._replace and _make skip the validating __new__
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "._replace(" not in source and "._make(" not in source, path.name


def test_certificate_serializes_to_json():
    dictionary = construct(BundleManifoldSpec(1, 1, 2, 1)).as_dict()
    assert json.loads(json.dumps(dictionary)) == dictionary
    assert dictionary["K_dot_omega"] == 2
    assert dictionary["nullity"] == 2


#: One skew of the certificate of B(1,1,2;1) per identity (b1 = 2,
#: b_plus = b_minus = 1, degeneracy = nullity = 2), each breaking that
#: identity alone.
BUNDLE_IDENTITY_SKEWS = [
    ({"b_plus": 2, "b_minus": 0}, "sigma_equals_bplus_minus_bminus expected 0, observed 2"),
    ({"b1": 3}, "chi_equals_euler_identity expected 0, observed -2"),
    ({"k_squared": 4}, "two_chi_plus_three_sigma_equals_K_squared expected 4, observed 0"),
    ({"nullity": 3}, "nullity_le_degeneracy_le_b1 expected True, observed False"),
]


@pytest.mark.parametrize("changes, text", BUNDLE_IDENTITY_SKEWS)
def test_construct_enforces_the_certificate_identities(monkeypatch, changes, text):
    original = bundle_manifold.audit_bundle

    def skewed(spec):
        cert, checks = original(spec)
        return BundleAudit(cert._replace(**changes), checks)

    monkeypatch.setattr(bundle_manifold, "audit_bundle", skewed)
    with pytest.raises(ConsistencyError, match=f"^{re.escape(f'B(1,1,2;1): {text}')}$"):
        construct.__wrapped__(BundleManifoldSpec(1, 1, 2, 1))


class _CountedLabel:
    reads = 0

    @property
    def label(self):
        type(self).reads += 1
        return "S"


def test_enforce_renders_the_label_only_when_a_check_fails():
    subject = _CountedLabel()
    enforce(subject, [("a", 1, 1), ("b", (0, 0), (0, 0))])
    assert _CountedLabel.reads == 0
    with pytest.raises(ConsistencyError, match=r"^S: b expected 1, observed 2$"):
        enforce(subject, [("a", 1, 1), ("b", 1, 2), ("c", 1, 3)])
    assert _CountedLabel.reads == 1


def _consistency_raises(tree):
    """The enclosing function (or None at module level) of each
    ``raise ConsistencyError`` in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ConsistencyError":
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_consistency_error_is_raised_only_by_enforce():
    raisers = {}
    for path in sorted(SRC.glob("*.py")):
        functions = _consistency_raises(ast.parse(path.read_text(encoding="utf-8")))
        if functions:
            raisers[path.stem] = set(functions)
    assert raisers == {"errors": {"enforce"}}


@st.composite
def bundle_specs(draw, max_genus=64):
    """A bundle spec (d, k, g, e) with g <= max_genus and a valid tag."""
    g = draw(st.integers(1, max_genus))
    k = draw(st.integers(0, g))
    d = draw(st.integers(0, k))
    return BundleManifoldSpec(d, k, g, draw(st.sampled_from(valid_tags(d, k))))


@given(bundle_specs())
@example(BundleManifoldSpec(32, 64, 64, 0))
@example(BundleManifoldSpec(0, 64, 64, 2))
@example(BundleManifoldSpec(0, 0, 64, 0))
@example(BundleManifoldSpec(64, 64, 64, 1))
def test_kind_sum_matches_the_dense_route_at_cli_sizes(spec):
    # the audit sums the three genus-1 members over the handles; the dense
    # route composes the whole genus-g word, computes its generic bases and
    # ranks the pairing on them
    d, k, g, e = spec
    dense = wang_cohomology(MappingTorus(bundle_monodromy_word(d, k, g)))
    b1 = bundle_b1(dense, e)
    degeneracy = b1 - linalg.rank(lefschetz_pairing(dense, e))
    cert = audit_bundle(spec).certificate
    assert (cert.b1, cert.degeneracy) == (b1, degeneracy), spec


def test_a_warm_audit_builds_no_pairing_until_the_cache_is_cleared(monkeypatch):
    # a cold audit certifies each member it fetches and builds and ranks its
    # pairing once, at most three of each, kept with the member in
    # bundle_wang_data's entry; a warm one at the same tag class builds and
    # ranks none, and after cache_clear the next audit is cold again
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(mapping_torus, "wang_cohomology",
                        recorded("torus", mapping_torus.wang_cohomology))
    monkeypatch.setattr(circle_bundle, "lefschetz_pairing",
                        recorded("pairing", circle_bundle.lefschetz_pairing))
    monkeypatch.setattr(linalg, "rank", recorded("rank", linalg.rank))
    for d, k, g, e in [(2, 5, 9, 0), (2, 5, 9, 1), (0, 0, 6, 0), (3, 3, 3, 1), (0, 7, 7, 2)]:
        spec = BundleManifoldSpec(d, k, g, e)
        for _ in range(2):
            mapping_torus.bundle_wang_data.cache_clear()
            calls.clear()
            cold = audit_bundle(spec)
            fetched = 1 + sum(1 for n in (d, k - d) if n)
            assert sorted(calls) == sorted(["torus", "pairing", "rank"] * fetched), spec
            calls.clear()
            assert audit_bundle(spec) == cold
            audit_bundle(BundleManifoldSpec(d, k, g + 1, e))  # the same kinds, one more handle
            assert calls == [], spec
