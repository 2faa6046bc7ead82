"""Wang-sequence data of mapping tori: ranks, tagged bases, torsion."""

import hashlib
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geographer import linalg, mapping_torus, surfaces
from geographer.bundle_manifold import BundleManifoldSpec, audit_bundle, construct
from geographer.errors import ConsistencyError
from geographer.mapping_torus import (
    MEMBER_WEIGHTS,
    MappingTorus,
    bundle_wang_data,
    wang_cohomology,
)
from geographer.surfaces import Twist, TwistWord, compose_word
from geographer.verify import bundle_grid, verify_bundle_grid
from strategies import (
    a_curve,
    b_curve,
    bundle_monodromy_word,
    cokernel_free_coordinates,
    conjugated_words,
    dense_words,
    handle_conjugate,
    is_unimodular,
    kernel_coordinates,
    lifted_wang_data,
    long_words,
    minus_identity,
    rational_inverse,
    smith_coordinate_verdict,
    smith_form,
    twist_words,
    unimodular_matrices,
)


def test_product_with_circle_genus_two():
    # identity monodromy: the mapping torus is Sigma_2 x S^1
    data = wang_cohomology(MappingTorus(TwistWord(2)))
    assert data.b1 == 5
    assert len(data.mu_basis) == 4
    assert data.torsion == ()


def test_three_torus_mu_rank():
    data = wang_cohomology(MappingTorus(TwistWord(1)))
    assert len(data.mu_basis) == 2


def test_first_betti_formula_on_grid():
    for g in range(1, 7):
        for k in range(0, g + 1):
            for d in range(0, k + 1):
                data = lifted_wang_data(d, k, g)
                assert data.b1 == 2 * k - d + 1, (d, k, g)
                assert len(data.mu_basis) == data.b1 - 1


def test_twisted_block_torus_is_torsion_free():
    data = lifted_wang_data(1, 1, 2)
    assert data.b1 == 2
    assert data.torsion == ()
    assert len(data.mu_basis) == 1
    assert data.invariant_basis == (b_curve(1, 2),)
    assert data.mu_basis == (a_curve(1, 2),)


def test_fully_twisted_genus_two_has_no_mu_image():
    data = lifted_wang_data(0, 0, 2)
    assert data.b1 == 1
    assert data.mu_basis == ()


def test_canonical_tags_mixed_weights():
    data = lifted_wang_data(1, 2, 3)
    assert data.invariant_basis == (
        b_curve(1, 3),
        a_curve(2, 3),
        b_curve(2, 3),
    )
    assert data.mu_basis == (
        a_curve(1, 3),
        a_curve(2, 3),
        b_curve(2, 3),
    )


def refusal(text):
    """``pytest.raises`` for exactly this ``ConsistencyError`` text."""
    return pytest.raises(ConsistencyError, match=f"^{re.escape(text)}$")


def test_wrong_preferred_bases_are_rejected():
    torus = MappingTorus(bundle_monodromy_word(1, 1, 2))
    canonical = lifted_wang_data(1, 1, 2)
    inv, mu = canonical.invariant_basis, canonical.mu_basis
    with refusal("Y(genus 2, 3 letters): invariant_basis_fixed expected 1, observed 0"):
        wang_cohomology(torus, ([a_curve(1, 2)], mu))
    with refusal("Y(genus 2, 3 letters): invariant_basis_index expected 1, observed 2"):
        wang_cohomology(torus, ([(0, 2, 0, 0)], mu))
    with refusal("Y(genus 2, 3 letters): invariant_basis_index expected 1, observed 2"):
        wang_cohomology(torus, ([(0, -2, 0, 0)], mu))
    with refusal("Y(genus 2, 3 letters): mu_basis_rank expected 4, observed 3"):
        wang_cohomology(torus, (inv, [b_curve(1, 2)]))  # dies in the cokernel
    with refusal("Y(genus 2, 3 letters): mu_basis_index expected 1, observed 2"):
        wang_cohomology(torus, (inv, [(2, 0, 0, 0)]))  # index two sublattice


# B(0,1,2): a1, b1 span both the fixed lattice and the free cokernel
HANDLE = [a_curve(1, 2), b_curve(1, 2)]


@pytest.mark.parametrize(
    "given, text",
    [
        (
            ([a_curve(1, 2)], HANDLE),
            "invariant_basis_shape expected (2, 4), observed (1, 4)",
        ),
        (([], HANDLE), "invariant_basis_shape expected (2, 4), observed (0, 4)"),
        ((HANDLE, [(1, 0, 0), (0, 1, 0)]), "mu_basis_shape expected (2, 4), observed (2, 3)"),
        (
            (HANDLE, [a_curve(1, 2)]),
            "mu_basis_shape expected (2, 4), observed (1, 4)",
        ),
    ],
)
def test_wrong_shape_basis_is_refused_before_its_rows_are_used(monkeypatch, given, text):
    # the fixed lattice of a1, b1 in genus 2 has rank two
    torus = MappingTorus(bundle_monodromy_word(0, 1, 2))
    echelon, calls = linalg._echelon, []
    monkeypatch.setattr(linalg, "_echelon", lambda rows: calls.append(rows) or echelon(rows))
    with refusal(f"Y(genus 2, 2 letters): {text}"):
        wang_cohomology(torus, given)
    # only the echelon of A^T ran, so no given row is certified
    assert calls == [linalg.transpose(minus_identity(compose_word(torus.word)))]


@pytest.mark.parametrize(
    "basis",
    [
        [(1, 0, 0, 0), (1, 0, 0, 0)],  # a repeated fixed vector
        [(1, 0, 0, 0), (0, 0, 0, 0)],  # a zero row
    ],
)
def test_dependent_invariant_basis_is_rejected(basis):
    # the rows are fixed and have no nontrivial invariant factor, but they
    # span a rank-one lattice inside the rank-two fixed lattice of a1, b1
    torus = MappingTorus(bundle_monodromy_word(0, 1, 2))
    with refusal("Y(genus 2, 2 letters): invariant_basis_rank expected 2, observed 1"):
        wang_cohomology(torus, (basis, HANDLE))
    assert wang_cohomology(torus, (HANDLE, HANDLE)).b1 == 3


def _scaled(c, row):
    return tuple(c * x for x in row)


# B(1,2,3): the fixed lattice is spanned by b1, a2, b2 and the free
# cokernel by a1, a2, b2; each case spoils one of them
A1, A2, B1, B2 = a_curve(1, 3), a_curve(2, 3), b_curve(1, 3), b_curve(2, 3)
INV, MU = [B1, A2, B2], [A1, A2, B2]


@pytest.mark.parametrize(
    "given, text",
    [
        (([A1, A2, B2], MU), "invariant_basis_fixed expected 3, observed 2"),
        (
            ([B1, A2, tuple(map(sum, zip(B1, A2)))], MU),
            "invariant_basis_rank expected 3, observed 2",
        ),
        (
            ([_scaled(3, B1), A2, B2], MU),
            "invariant_basis_index expected 1, observed 3",
        ),
        ((INV, [B1, A2, B2]), "mu_basis_rank expected 6, observed 5"),
        (
            (INV, [A1, _scaled(2, A2), _scaled(3, B2)]),
            "mu_basis_index expected 1, observed 6",
        ),
    ],
)
def test_each_wang_record_shows_both_values(given, text):
    with refusal(f"Y(genus 3, 3 letters): {text}"):
        wang_cohomology(MappingTorus(bundle_monodromy_word(1, 2, 3)), given)


def test_generic_bases_that_drop_a_row_trip_the_shape_record(monkeypatch):
    # w T^2 w^-1 fixes a rank-11 lattice, so it has generic bases to
    # compute; computed bases pass the certificate that given ones pass,
    # so an invariant basis that lost a row is refused by its shape
    word = next(iter(dense_words(1)))
    double = Twist(word.letters[0].curve, 2)
    torus = MappingTorus(TwistWord(word.genus, word.letters + (double,) + word.inverse().letters))
    generic_bases = mapping_torus._generic_bases

    def dropped(a):
        inv, mu = generic_bases(a)
        return inv[:-1], mu

    monkeypatch.setattr(mapping_torus, "_generic_bases", dropped)
    with refusal(f"{torus.label}: invariant_basis_shape expected (11, 12), observed (10, 12)"):
        wang_cohomology(torus)


@given(st.sampled_from([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 3), (1, 4, 5)]), st.data())
def test_unimodular_change_of_canonical_invariant_basis_is_accepted(weights, data_):
    # the rows are another lattice basis of the fixed lattice exactly when
    # they are fixed, independent and span a saturated lattice
    d, k, g = weights
    canonical = lifted_wang_data(d, k, g)
    torus = MappingTorus(bundle_monodromy_word(d, k, g))
    change = data_.draw(unimodular_matrices(len(canonical.invariant_basis)))
    rows = linalg.matmul(change, canonical.invariant_basis)
    data = wang_cohomology(torus, (rows, canonical.mu_basis))
    assert data.invariant_basis == tuple(map(tuple, rows))
    assert (data.b1, data.torsion) == (canonical.b1, canonical.torsion)
    rows[0] = [2 * x for x in rows[0]]  # an index-two sublattice
    with refusal(f"{torus.label}: invariant_basis_index expected 1, observed 2"):
        wang_cohomology(torus, (rows, canonical.mu_basis))


def test_canonical_bases_verified_against_generic_route():
    # the lifted canonical bases agree with the generic route
    for d, k, g in [(0, 0, 1), (1, 1, 2), (2, 3, 4), (0, 3, 3), (3, 3, 3)]:
        data = lifted_wang_data(d, k, g)
        generic = wang_cohomology(MappingTorus(bundle_monodromy_word(d, k, g)))
        assert data.b1 == generic.b1
        assert data.torsion == generic.torsion


@given(
    st.one_of(
        twist_words(max_genus=6, max_letters=5),
        conjugated_words(max_genus=6, max_letters=5),
        long_words(max_genus=6),
    )
)
def test_duality_and_mu_rank_for_arbitrary_words(word):
    torus = MappingTorus(word)
    data = wang_cohomology(torus)
    assert len(data.mu_basis) + 1 == data.b1  # b2(Y) = b1(Y)
    assert data.torsion == smith_form(minus_identity(torus.monodromy)).elementary_divisors


@given(
    st.one_of(
        twist_words(max_genus=6, max_letters=10),
        conjugated_words(max_genus=6, max_letters=5),
        long_words(max_genus=6),
    )
)
def test_generic_route_matches_smith_form(word):
    # A nonsingular phi^* - 1 gets its torsion from elimination modulo its
    # determinant and empty bases; a singular one reads its bases off
    # echelon forms and its torsion off an echelon block. Both must give
    # the lattices and the torsion of the Smith oracle. The rows need not
    # be Smith's: WangData promises the lattices, not a choice of rows.
    torus = MappingTorus(word)
    data = wang_cohomology(torus)
    assert torus.monodromy == compose_word(word)
    a = minus_identity(torus.monodromy)
    sf = smith_form(a)
    assert data.torsion == sf.elementary_divisors
    assert len(data.invariant_basis) == len(sf.kernel_basis())
    assert len(data.mu_basis) == len(sf.cokernel_free_basis())
    if data.invariant_basis:
        assert not any(map(any, linalg.matmul(data.invariant_basis, linalg.transpose(a))))
        assert is_unimodular(kernel_coordinates(sf, data.invariant_basis))
        assert is_unimodular(cokernel_free_coordinates(sf, data.mu_basis))


@given(twist_words(max_genus=3, max_letters=4), twist_words(max_genus=3, max_letters=4))
def test_torsion_invariant_under_symplectic_base_change(word, change):
    if change.genus != word.genus:
        change = TwistWord(word.genus)
    m = compose_word(word)
    basis_change = compose_word(change)
    conjugated = linalg.matmul(
        linalg.matmul(basis_change, m), rational_inverse(basis_change)
    )
    assert smith_form(minus_identity(m)).elementary_divisors == smith_form(
        minus_identity(conjugated)
    ).elementary_divisors
    assert linalg.rank(minus_identity(m)) == linalg.rank(minus_identity(conjugated))


def test_mu_image_operation():
    data = wang_cohomology(MappingTorus(bundle_monodromy_word(0, 1, 2)))
    assert len(data.mu_basis) == 2
    assert linalg.rank([list(row) for row in data.mu_basis]) == 2


def cli_size_weights():
    """(d, k, g) at genus up to 32: the corners and inner points of each
    weight triangle, where the twisted, untouched and paired blocks meet."""
    for g in (8, 16, 24, 32):
        for d, k in [(0, 0), (0, g), (g, g), (0, g // 2), (g // 2, g // 2), (g // 2, g),
                     (1, g - 1), (g // 4, 3 * g // 4), (g - 1, g)]:
            yield d, k, g


@pytest.mark.parametrize("d, k, g", list(cli_size_weights()))
def test_canonical_bases_at_cli_sizes_match_generic_route(d, k, g):
    data = lifted_wang_data(d, k, g)
    generic = wang_cohomology(MappingTorus(bundle_monodromy_word(d, k, g)))
    assert (data.b1, data.torsion) == (generic.b1, generic.torsion) == (2 * k - d + 1, ())
    assert smith_coordinate_verdict(
        MappingTorus(bundle_monodromy_word(d, k, g)), data.invariant_basis, data.mu_basis
    ) is None


def canonical_rows(d, k, g):
    """The canonical bases of B(d, k, g), spelled out again: b_i and a_i
    of the twisted handles, then both curves of each untouched one."""
    untouched = [curve(i, g) for i in range(d + 1, k + 1) for curve in (a_curve, b_curve)]
    return ([b_curve(i, g) for i in range(1, d + 1)] + untouched,
            [a_curve(i, g) for i in range(1, d + 1)] + untouched)


def oracle_weights():
    """Every (d, k, g) with g <= 12, then a few at g = 24 and g = 100."""
    for g in range(1, 13):
        for k in range(g + 1):
            for d in range(k + 1):
                yield d, k, g
    yield from [(0, 0, 24), (5, 17, 24), (24, 24, 24), (3, 3, 100), (40, 70, 100), (0, 100, 100)]


def test_handle_blocks_match_dense_route_on_canonical_rows():
    # the certified members lifted handle by handle and the dense certificate
    # agree on every field
    for d, k, g in oracle_weights():
        dense = wang_cohomology(MappingTorus(bundle_monodromy_word(d, k, g)), canonical_rows(d, k, g))
        assert lifted_wang_data(d, k, g) == dense, (d, k, g)


@pytest.mark.parametrize("d", [1, 2])
def test_wrong_row_inside_one_handle_is_refused(monkeypatch, d):
    # 2 b lies on the twisted handle but spans an index-two sublattice; the
    # certificate of the twisted kind's genus-1 torus refuses it, read by
    # the audit of a bundle with one twisted handle and with two
    twisted, untouched, paired = surfaces.HANDLE_KINDS
    doubled = surfaces.HandleKind(twisted.letters, ((0, 2),), twisted.mu)
    monkeypatch.setattr(surfaces, "HANDLE_KINDS", (doubled, untouched, paired))
    label = MappingTorus(TwistWord(1, [Twist(a_curve(1, 1))])).label
    with refusal(f"{label}: invariant_basis_index expected 1, observed 2"):
        audit_bundle(BundleManifoldSpec(d, 2, 3, 0))


def test_block_with_torsion_is_refused(monkeypatch):
    # a squared twist along a fixes b and leaves Z/2 in its cokernel: the
    # genus-1 certificate passes with that torsion, the record of a
    # torsion-free block does not
    twisted, untouched, paired = surfaces.HANDLE_KINDS
    squared = surfaces.HandleKind((Twist((1, 0), 2),), twisted.invariant, twisted.mu)
    monkeypatch.setattr(surfaces, "HANDLE_KINDS", (squared, untouched, paired))
    label = MappingTorus(TwistWord(1, squared.letters)).label
    with refusal(f"{label}: handle_block_torsion expected (), observed (2,)"):
        construct.__wrapped__(BundleManifoldSpec(1, 1, 2, 0))


@pytest.mark.parametrize(
    "weights, text",
    [
        ((2, 1), "weights must satisfy 0 <= d <= k <= g, got (2, 1, 1)"),
        ((0, 2), "weights must satisfy 0 <= d <= k <= g, got (0, 2, 1)"),
        ((-1, 0), "weights must satisfy 0 <= d <= k <= g, got (-1, 0, 1)"),
    ],
)
def test_bundle_wang_data_refuses_bad_weights(weights, text):
    # only the genus-1 members exist; a genus too large to index is
    # refused by the bundle spec (test_bundle_manifold)
    with pytest.raises(ValueError) as exc:
        bundle_wang_data.__wrapped__(*weights)
    assert str(exc.value) == text


def test_bundle_path_builds_no_genus_g_curve(monkeypatch):
    # the bundle certificate is read off the genus-1 table alone: no
    # curve of the genus-g word is built, however large g is
    lengths = []
    exact_curve = surfaces._exact_curve

    def recorded(curve):
        curve = exact_curve(curve)
        lengths.append(len(curve))
        return curve

    monkeypatch.setattr(surfaces, "_exact_curve", recorded)
    cert = construct(BundleManifoldSpec(3, 7, 200, 0))
    assert cert.b1 == 2 * 7 - 3 + 2
    assert all(n <= 2 for n in lengths), max(lengths, default=0)


def test_bundle_certificate_at_the_largest_indexable_genus():
    # no row of length 2g is built on the bundle path: a genus whose rows
    # would not fit in any memory is certified from the three members, and
    # the cache holds those three
    g = sys.maxsize // 2
    for d, k, e in [(0, 0, 0), (g // 2, g, 0), (g // 3, 2 * g // 3, 1), (1, g, 2)]:
        cert = construct(BundleManifoldSpec(d, k, g, e))
        assert (cert.b1, cert.degeneracy) == (2 * k - d + 1 + (e == 0), d + (e != 0))
        assert cert.k_dot_omega == 2 * g - 2
    assert bundle_wang_data.cache_info().currsize == 3


def test_each_cold_call_certifies_at_most_three_blocks(monkeypatch):
    # a cold audit certifies the paired member, the base of the sum, and
    # the member of each kind with a handle, once each, kept in
    # bundle_wang_data's cache, which is cleared here; a warm one none
    tori = []
    dense = mapping_torus.wang_cohomology

    def recorded(torus, bases=None):
        tori.append(torus)
        return dense(torus, bases)

    monkeypatch.setattr(mapping_torus, "wang_cohomology", recorded)
    for d, k, g in [(2, 5, 9), (0, 0, 6), (3, 3, 3), (0, 7, 7), (4, 4, 40)]:
        bundle_wang_data.cache_clear()
        tori.clear()
        audit_bundle(BundleManifoldSpec(d, k, g, 0))
        used = {j for j, n in enumerate(surfaces.kind_counts(d, k, g)) if n} | {2}
        assert sorted(torus.word.letters for torus in tori) == sorted(
            surfaces.HANDLE_KINDS[j].letters for j in used), (d, k, g)
        tori.clear()
        audit_bundle(BundleManifoldSpec(d, k, g, 0))
        assert tori == [], (d, k, g)
    bundle_wang_data.cache_clear()


def test_genus_one_members_are_the_handle_kinds():
    # B(1, 1, 1), B(0, 1, 1) and B(0, 0, 1) are the twisted, untouched and
    # paired kinds, on their canonical rows
    assert MEMBER_WEIGHTS == ((1, 1), (0, 1), (0, 0))
    for j, (weights, kind) in enumerate(zip(MEMBER_WEIGHTS, surfaces.HANDLE_KINDS)):
        assert surfaces.kind_counts(*weights, 1) == tuple(int(i == j) for i in range(3))
        assert bundle_wang_data(*weights) == mapping_torus.WangData(kind.invariant, kind.mu, ())


def test_cold_sweep_certifies_each_kind_once(monkeypatch):
    # every B(d, k, g) of a sweep lifts its kinds' genus-1 members, so the
    # whole grid certifies three genus-1 tori, one per kind
    tori = []
    dense = mapping_torus.wang_cohomology

    def recorded(torus, bases=None):
        tori.append(torus)
        return dense(torus, bases)

    monkeypatch.setattr(mapping_torus, "wang_cohomology", recorded)
    assert verify_bundle_grid(6).passed
    assert all(torus.genus == 1 for torus in tori)
    assert sorted(torus.word.letters for torus in tori) == sorted(
        kind.letters for kind in surfaces.HANDLE_KINDS)


def test_bundle_path_computes_no_smith_form(monkeypatch):
    # the Smith form is a test oracle only, and the bundle path computes
    # no generic bases either: its canonical bases are given and certified
    assert not hasattr(linalg, "smith_form")
    assert not hasattr(linalg, "SmithForm")

    def refuse(a):
        raise AssertionError("generic bases computed on the bundle path")

    monkeypatch.setattr(mapping_torus, "_generic_bases", refuse)
    for spec in bundle_grid(10):
        bundle_wang_data.cache_clear()
        audit_bundle(spec)
    for d, k, g in cli_size_weights():
        bundle_wang_data.cache_clear()
        audit_bundle(BundleManifoldSpec(d, k, g, 0))


def test_nonsingular_generic_path_computes_no_smith_form(monkeypatch):
    # a nonsingular phi^* - 1 has empty bases and computes none; the
    # package has no Smith form to call on either path
    assert not hasattr(linalg, "smith_form")
    calls = []
    generic_bases = mapping_torus._generic_bases

    def recorded(a):
        calls.append(len(a))
        return generic_bases(a)

    monkeypatch.setattr(mapping_torus, "_generic_bases", recorded)
    for word in dense_words(20):
        data = wang_cohomology(MappingTorus(word))
        assert (data.b1, data.invariant_basis, data.mu_basis) == (1, (), ())
        assert data.torsion
    assert calls == []
    # a conjugate around a double twist is singular and gets generic bases
    double = Twist(word.letters[0].curve, 2)
    conjugate = TwistWord(word.genus, word.letters + (double,) + word.inverse().letters)
    data = wang_cohomology(MappingTorus(conjugate))
    assert calls == [12]
    assert len(data.invariant_basis) == len(data.mu_basis) == 11


def bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


@pytest.mark.parametrize("genus, seed", [(8, 0), (9, 0), (10, 0), (10, 10)])
def test_generic_bases_of_dense_conjugates_stay_small(genus, seed):
    # A dense word on g - 1 handles conjugated by a dense genus-g word has
    # a rank-2 fixed lattice in general position. Smith transforms gave
    # these bases entries of 8,519 to 76,569 bits; the echelon bases stay
    # within 64 bits (18 at most), and pass the certificate again when
    # they are given.
    torus = MappingTorus(handle_conjugate(genus, seed))
    data = wang_cohomology(torus)
    assert data.b1 == 3 and data.torsion
    assert bits(data.invariant_basis) <= 64 and bits(data.mu_basis) <= 64
    assert wang_cohomology(torus, (data.invariant_basis, data.mu_basis)) == data


def test_compute_path_packs_no_monodromy(monkeypatch):
    # construct, the grid sweep and the generic route all work on the rows
    # of compose_word; only a caller reading MappingTorus.monodromy packs
    def refuse(rows):
        raise AssertionError("a FrozenMatrix was packed on the compute path")

    monkeypatch.setattr(linalg, "FrozenMatrix", refuse)
    construct.cache_clear()
    bundle_wang_data.cache_clear()
    for spec in [(0, 0, 1, 0), (1, 1, 2, 1), (2, 3, 5, 0), (1, 4, 9, 2), (0, 16, 24, 0)]:
        construct(BundleManifoldSpec(*spec))
    report = verify_bundle_grid(3)
    assert report.cases and not report.failures
    word = next(iter(dense_words(1, genus=4)))
    double = Twist(word.letters[0].curve, 2)
    conjugate = TwistWord(word.genus, word.letters + (double,) + word.inverse().letters)
    assert wang_cohomology(MappingTorus(word)).b1 == 1
    assert wang_cohomology(MappingTorus(conjugate)).b1 > 1  # singular: echelon bases
    monkeypatch.undo()
    torus = MappingTorus(word)
    assert type(torus.monodromy) is linalg.FrozenMatrix
    assert torus.monodromy == compose_word(word)
    assert not hasattr(torus, "__dict__")


@pytest.mark.parametrize(
    "rows",
    [
        [a_curve(1, 2)],
        [a_curve(1, 2), b_curve(1, 2)],
        [a_curve(1, 2), b_curve(1, 2), a_curve(2, 2)],
    ],
)
def test_bases_are_read_only_as_a_pair(rows):
    # one basis's rows where the pair belongs is refused, never read as
    # an (invariant, mu) pair, nor as rows of one
    torus = MappingTorus(bundle_monodromy_word(0, 1, 2))
    with pytest.raises(ValueError):
        wang_cohomology(torus, rows)
    with pytest.raises(ValueError):
        wang_cohomology(torus, tuple(rows))


def preferred_verdict(torus, invariant_basis, mu_basis):
    """What wang_cohomology makes of a preferred pair: (data, None) or
    (None, the text it refuses the pair with)."""
    try:
        return wang_cohomology(torus, (invariant_basis, mu_basis)), None
    except ConsistencyError as exc:
        return None, str(exc)


MUTATIONS = (
    "none",
    "double_row",
    "duplicate_row",
    "unfixed_row",
    "double_mu_row",
    "duplicate_mu_row",
    "mu_plus_image",
)


def candidate_bases(torus, generic, mutation, draw_change, draw_index, draw_scale):
    """The generic bases of a torus under a unimodular change, then mutated.

    ``generic`` is the torus's Wang data without preferred bases.
    ``draw_change(r)`` gives an r x r unimodular matrix, ``draw_index(r)``
    a row index below r and ``draw_scale()`` a nonzero multiplier.
    """
    inv = [list(row) for row in generic.invariant_basis]
    mu = [list(row) for row in generic.mu_basis]
    r = len(inv)
    if not r:
        return inv, mu
    inv = linalg.matmul(draw_change(r), inv)
    mu = linalg.matmul(draw_change(r), mu)
    i, j = draw_index(r), draw_index(r)
    image = linalg.transpose(minus_identity(torus.monodromy))  # row j is A e_j
    moved = next((c for c, row in enumerate(image) if any(row)), None)  # A e_moved != 0
    if mutation == "double_row":
        inv[i] = [2 * x for x in inv[i]]
    elif mutation == "duplicate_row" and r > 1:
        inv[i] = list(inv[(i + 1) % r])
    elif mutation == "unfixed_row" and moved is not None:
        # e_moved is not fixed, nor is any fixed row plus it
        inv[i] = [x + (c == moved) for c, x in enumerate(inv[i])]
    elif mutation == "double_mu_row":
        mu[i] = [2 * x for x in mu[i]]
    elif mutation == "duplicate_mu_row" and r > 1:
        mu[i] = list(mu[(i + 1) % r])
    elif mutation == "mu_plus_image":
        # adding an image vector of A leaves the class in the cokernel alone
        q = draw_scale()
        mu[i] = [x + q * y for x, y in zip(mu[i], image[j])]
    return inv, mu


@settings(max_examples=300, deadline=None)
@given(
    twist_words(max_genus=5, max_letters=6, powers=(-2, -1, 1, 2)),
    st.sampled_from(MUTATIONS),
    st.data(),
)
def test_certificate_agrees_with_smith_coordinate_oracle(word, mutation, data_):
    # twists with power +-2 make torsion in coker(phi^* - 1) common
    torus = MappingTorus(word)
    generic = wang_cohomology(torus)
    inv, mu = candidate_bases(
        torus,
        generic,
        mutation,
        lambda r: data_.draw(unimodular_matrices(r)),
        lambda r: data_.draw(st.integers(0, r - 1)),
        lambda: data_.draw(st.sampled_from((-3, -1, 1, 2))),
    )
    data, message = preferred_verdict(torus, inv, mu)
    name = smith_coordinate_verdict(torus, inv, mu)
    if name is None:
        assert message is None
    else:
        assert message.startswith(f"{torus.label}: {name} expected ")
    if message is None:
        assert data.invariant_basis == tuple(map(tuple, inv))
        assert data.mu_basis == tuple(map(tuple, mu))
        assert (data.b1, data.torsion) == (generic.b1, generic.torsion)


def test_certificate_accepts_smith_bases_of_dense_genus_six_words():
    # The drawn words fix no vector, so their bases are empty and only the
    # torsion is compared. Each is also conjugated around a double twist,
    # w T^2 w^-1, which fixes a rank-11 lattice whose Smith bases have
    # entries of tens of bits. The certificate accepts the Smith oracle's
    # bases and the generic ones alike.
    for word in dense_words(20):
        double = Twist(word.letters[0].curve, 2)
        conjugate = TwistWord(word.genus, word.letters + (double,) + word.inverse().letters)
        for w in (word, conjugate):
            torus = MappingTorus(w)
            a = minus_identity(torus.monodromy)
            sf = smith_form(a)
            assert linalg.matmul(a, sf.t_inv) == linalg.matmul(sf.s, sf.d)
            generic = wang_cohomology(torus)
            smith_bases = (sf.kernel_basis(), sf.cokernel_free_basis())
            for inv, mu in (smith_bases, (generic.invariant_basis, generic.mu_basis)):
                data = wang_cohomology(torus, (inv, mu))
                assert (data.b1, data.torsion) == (generic.b1, generic.torsion)
                assert data.invariant_basis == tuple(map(tuple, inv))
                assert data.mu_basis == tuple(map(tuple, mu))
            inv, mu = generic.invariant_basis, generic.mu_basis
        assert (generic.b1, generic.torsion) == (12, (2,))
        with pytest.raises(ConsistencyError, match="invariant_basis_index expected 1, observed"):
            wang_cohomology(torus, ([tuple(2 * x for x in inv[0])] + list(inv[1:]), mu))


def test_certificate_with_torsion():
    # a double twist along a1 in genus 2: coker(phi^* - 1) has torsion Z/2
    torus = MappingTorus(TwistWord(2, (Twist(a_curve(1, 2), 2),)))
    generic = wang_cohomology(torus)
    assert generic.torsion == (2,)
    inv, mu = generic.invariant_basis, generic.mu_basis
    assert preferred_verdict(torus, inv, mu)[0].torsion == (2,)
    doubled = [tuple(2 * x for x in mu[0])] + list(mu[1:])
    message = "Y(genus 2, 1 letter): mu_basis_index expected 2, observed 4"
    assert preferred_verdict(torus, inv, doubled)[1] == message
    assert smith_coordinate_verdict(torus, inv, doubled) == "mu_basis_index"


def random_word(rng):
    """A twist word of genus <= 5 with curve entries up to +-4 and powers
    +-1 and +-2, as the property tests draw them."""
    genus = rng.randint(1, 5)
    letters = []
    for _ in range(rng.randint(0, 6)):
        curve = [0]
        while not any(curve):
            curve = [rng.randint(-4, 4) for _ in range(2 * genus)]
        g = math.gcd(*curve)
        letters.append(Twist(tuple(x // g for x in curve), rng.choice((-2, -1, 1, 2))))
    return TwistWord(genus, tuple(letters))


def unimodular(rng, r):
    mat = linalg.identity(r)
    for _ in range(8):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            q = rng.randint(-3, 3)
            mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]
    return mat


def test_echelon_intermediates_on_random_words(monkeypatch):
    # Every row _echelon forms while it finds the rank and torsion of A
    # and computes or certifies the bases of 150 random words, under every
    # mutation, is traced. The rows stay within twice the bits of the
    # input of their route plus one: the rows _echelon is given, or A
    # itself for the torsion route of a singular A, whose second echelon
    # works on the output of the first, the echelon of A^T (measured: largest 41 bits, on an
    # input of 27 bits; a torsion route grew 22 bits of A to 35). On the
    # unit-vector bases and the member pairings of the bundle path they
    # keep the bits of their input: one, or none for a zero pairing.
    rng = random.Random(20261018)
    kernel = linalg._echelon
    torsion = mapping_torus._torsion
    torsion_input = []  # the bits of A while the torsion route runs
    calls = []

    echelon_input = {}  # the bits of the rows each live echelon came from

    def traced_torsion(h, n):
        torsion_input.append(echelon_input[id(h)])
        try:
            return torsion(h, n)
        finally:
            torsion_input.pop()

    def traced(rows):
        largest = bits(rows)

        def line(frame, event, arg):
            nonlocal largest
            for name in ("row", "top"):
                row = frame.f_locals.get(name)
                if row:
                    largest = max(largest, bits([row]))
            return line

        sys.settrace(lambda frame, event, arg: line if frame.f_code is kernel.__code__ else None)
        try:
            echelon = kernel(rows)
        finally:
            sys.settrace(None)
            calls.append((torsion_input[-1] if torsion_input else bits(rows), largest))
        echelon_input[id(echelon)] = bits(rows)
        return echelon

    monkeypatch.setattr(mapping_torus, "_torsion", traced_torsion)
    monkeypatch.setattr(linalg, "_echelon", traced)
    for _ in range(150):
        torus = MappingTorus(random_word(rng))
        generic = wang_cohomology(torus)
        for mutation in MUTATIONS:
            inv, mu = candidate_bases(
                torus,
                generic,
                mutation,
                lambda r: unimodular(rng, r),
                rng.randrange,
                lambda: rng.choice((-3, -1, 1, 2)),
            )
            preferred_verdict(torus, inv, mu)
    assert calls
    assert all(largest <= 2 * start + 1 for start, largest in calls)
    calls.clear()
    for spec in bundle_grid(6):
        bundle_wang_data.cache_clear()
        audit_bundle(spec)
    assert calls and all(largest == start <= 1 for start, largest in calls), set(calls)


@pytest.mark.parametrize(
    "word, second",
    [
        *(pytest.param(word, 0, id=f"dense{i}") for i, word in enumerate(dense_words(3))),
        pytest.param(handle_conjugate(3, 1), 1, id="conjugate"),  # pivots 2 and 23
        pytest.param(bundle_monodromy_word(0, 1, 2), 0, id="bundle"),  # unit pivots
    ],
)
def test_rank_and_torsion_take_one_echelon_of_a_transpose(monkeypatch, word, second):
    # the rank and the torsion of A come from H, the one echelon of A^T,
    # and from one echelon of H^T when A is singular and a pivot of H is
    # not 1; a nonsingular A runs no other echelon at all
    image = linalg.transpose(minus_identity(compose_word(word)))
    h = linalg._echelon(image)
    echelon, calls = linalg._echelon, []
    monkeypatch.setattr(linalg, "_echelon", lambda rows: calls.append(rows) or echelon(rows))
    wang_cohomology(MappingTorus(word))
    assert calls.count(image) == 1
    assert calls.count(linalg.transpose(h)) == second
    if len(h) == len(image):
        assert calls == [image]


def test_torsion_keeps_a_unit_pivot_that_follows_a_non_unit_one():
    # pivots 2, 1, 2: only the leading run of unit pivots splits off, and
    # here it is empty, so the whole block is reduced; dropping every unit
    # pivot would give (2, 2)
    h = linalg._echelon([[2, 1, 0], [0, 1, 1], [0, 0, 2]])
    assert h.pivots == [2, 1, 2]
    assert mapping_torus._torsion(h, 3) == (4,)


def test_torsion_of_pivots_one_then_d_reduces_one_entry(monkeypatch):
    # a dense word whose H has pivots (1, ..., 1, D): the Smith elimination
    # is handed the 1 x 1 block [D] modulo D, not the whole of H
    def pivots(word):
        return linalg._echelon(linalg.transpose(minus_identity(compose_word(word)))).pivots

    word = next(w for w in dense_words(50) if pivots(w)[:-1] == [1] * 11 and pivots(w)[-1] > 1)
    d = pivots(word)[-1]
    divisors, blocks = linalg.elementary_divisors, []
    monkeypatch.setattr(
        linalg, "elementary_divisors",
        lambda rows, modulus: blocks.append((rows, modulus)) or divisors(rows, modulus),
    )
    assert wang_cohomology(MappingTorus(word)).torsion == (d,)
    assert len(blocks) == 1
    (rows, modulus), = blocks
    assert modulus == d and len(rows) == 1 and len(rows[0]) == 1 and abs(rows[0][0]) == d


def test_generic_wang_data_and_monodromy_are_pinned():
    # the Wang data and monodromy of 500 dense words and of 40 singular
    # handle conjugates with generic bases, pinned as a digest: a change to
    # the composition, the echelon or the generic bases that moves any
    # basis row shows here, to be kept or re-pinned on purpose
    words = [*dense_words(500), *(handle_conjugate(g, s) for g in range(3, 7) for s in range(10))]
    tori = [MappingTorus(word) for word in words]
    text = "\n".join(repr((tuple(wang_cohomology(t)), tuple(t.monodromy))) for t in tori)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "426e1b78fa903a1dacd549482e389a7e07c461f90a6ee2a5479fa8011215d9c6"
