"""Shared hypothesis strategies for exact-arithmetic property tests."""

import math
import random
from fractions import Fraction
from typing import NamedTuple

from hypothesis import strategies as st

from geographer import linalg, surfaces
from geographer.linalg import Matrix, identity
from geographer.circle_bundle import VALID_TAGS, bundle_b1_formula, nullity_closed_form, valid_tags
from geographer.mapping_torus import MEMBER_WEIGHTS, WangData, bundle_wang_data
from geographer.surfaces import HANDLE_KINDS, Twist, TwistWord, compose_word

small_ints = st.integers(min_value=-9, max_value=9)

#: Mostly zeros, with unit and non-unit nonzeros.
sparse_ints = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


class Small(int):
    """An int subclass; the package stores such values as plain ints."""


def shape(matrix, width=None):
    """(rows, columns) of a matrix given as rows; None when the rows are ragged.

    ``width`` is the column count reported for a matrix with no rows.
    """
    widths = {len(row) for row in matrix}
    if len(widths) > 1:
        return None
    return (len(matrix), widths.pop() if widths else width)


class SmithForm(NamedTuple):
    """Diagonal form D of A, with the two transforms the oracles read.

    There are unimodular S and T with A = S @ D @ T. The diagonal is
    nonnegative and satisfies d1 | d2 | ... ; only S and the exact inverse
    T^-1 are kept, so A @ t_inv == s @ d.
    """

    d: Matrix
    s: Matrix
    t_inv: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.d), len(self.d[0]))
        return tuple(self.d[i][i] for i in range(k))

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        """Nontrivial invariant factors (entries different from 0 and 1)."""
        return tuple(x for x in self.diagonal if x not in (0, 1))

    def _free(self, size: int) -> list[int]:
        diag = self.diagonal
        return [i for i in range(size) if i >= len(diag) or diag[i] == 0]

    def kernel_basis(self) -> Matrix:
        """Columns of T^-1 over the zero diagonal: a saturated basis of ker A."""
        return [[row[j] for row in self.t_inv] for j in self._free(len(self.t_inv))]

    def cokernel_free_basis(self) -> Matrix:
        """Columns of S over the zero diagonal: a basis of the free cokernel."""
        return [[row[i] for row in self.s] for i in self._free(len(self.s))]


def smith_form(a) -> SmithForm:
    """Smith form of an integer matrix, with S and T^-1.

    Classical pivoting algorithm: move a nonzero entry to the pivot
    position, shrink it to the gcd of its row and column by Euclidean
    steps, then absorb any entry of the remaining block it fails to
    divide. Row operations are mirrored on S, column operations on T^-1,
    so ``a @ t_inv == S @ D`` holds throughout. Both are held transposed
    while the algorithm runs, so that every transform update is a row
    operation and every swap a swap of row references.
    """
    d = [list(row) for row in a]
    m, n = len(d), len(d[0])
    s_tr = identity(m)
    t_inv_tr = identity(n)

    def row_op(i, j, q):
        # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        s_tr[j] = [x + q * y for x, y in zip(s_tr[j], s_tr[i])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in d:
            if row[j]:
                row[i] -= q * row[j]
        t_inv_tr[i] = [x - q * y for x, y in zip(t_inv_tr[i], t_inv_tr[j])]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        s_tr[i], s_tr[j] = s_tr[j], s_tr[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        t_inv_tr[i], t_inv_tr[j] = t_inv_tr[j], t_inv_tr[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        s_tr[i] = [-x for x in s_tr[i]]

    for pivot in range(min(m, n)):
        # the first nonzero entry of the remaining block, in row-major order
        found = next((i for i in range(pivot, m) if any(d[i][pivot:])), None)
        if found is None:
            break
        swap_rows(pivot, found)
        swap_cols(pivot, next(j for j in range(pivot, n) if d[pivot][j]))
        while True:
            if d[pivot][pivot] < 0:
                negate_row(pivot)
            p = d[pivot][pivot]
            r = next((i for i in range(pivot + 1, m) if d[i][pivot] != 0), None)
            if r is not None:
                q = d[r][pivot] // p
                if q:
                    row_op(r, pivot, q)
                if d[r][pivot] != 0:
                    swap_rows(pivot, r)
                continue
            c = next((j for j in range(pivot + 1, n) if d[pivot][j] != 0), None)
            if c is not None:
                q = d[pivot][c] // p
                if q:
                    col_op(c, pivot, q)
                if d[pivot][c] != 0:
                    swap_cols(pivot, c)
                continue
            if p == 1:
                break  # 1 divides every entry of the remaining block
            stray = next(
                (i for i in range(pivot + 1, m) if any(x % p for x in d[i][pivot + 1:])),
                None,
            )
            if stray is None:
                break
            row_op(pivot, stray, -1)
    return SmithForm(
        d=d,
        s=[list(col) for col in zip(*s_tr)],
        t_inv=[list(col) for col in zip(*t_inv_tr)],
    )


def lift(v, i, genus):
    """The genus-1 vector ``v`` placed on handle i of a genus ``genus`` surface."""
    if not 1 <= i <= genus:
        raise ValueError(f"handle index {i} out of range for genus {genus}")
    return (0,) * (2 * i - 2) + tuple(v) + (0,) * (2 * (genus - i))


def a_curve(i, genus):
    """Coefficient vector of the class a_i."""
    return lift((1, 0), i, genus)


def b_curve(i, genus):
    """Coefficient vector of the class b_i."""
    return lift((0, 1), i, genus)


def handle_kinds(d, k, g):
    """The kind index of handles 1 .. g of the standard word, read off the
    package's one kind rule, ``surfaces.kind_counts``."""
    surfaces._check_weights(d, k, g)
    return [j for j, n in enumerate(surfaces.kind_counts(d, k, g)) for _ in range(n)]


def bundle_monodromy_word(d, k, g):
    """The monodromy word of the bundle family with weights (d, k, g).

    The letters of each handle's kind, lifted to that handle, from handle
    g down to handle 1: for every handle i above k the pair of a positive
    twist along b_i and a negative twist along a_i; handles between d+1
    and k are untouched; handles 1..d get one positive twist along a_i.
    The letters for distinct handles commute.
    """
    kinds = list(enumerate(handle_kinds(d, k, g), 1))
    return TwistWord(g, tuple(
        Twist(lift(letter.curve, i, g), letter.power)
        for i, j in reversed(kinds) for letter in HANDLE_KINDS[j].letters
    ))


def lifted_wang_data(d, k, g):
    """The whole-basis oracle: the Wang data of B(d, k, g) on its canonical
    rows of length 2g, each handle's genus-1 member rows lifted to it.

    The package certifies the genus-1 members only and sums them over the
    handles; this spells the genus-g bases out, for the dense route and
    the pairing to be checked against.
    """
    members = [bundle_wang_data(*MEMBER_WEIGHTS[j]) for j in handle_kinds(d, k, g)]
    inv = [lift(v, i, g) for i, member in enumerate(members, 1) for v in member.invariant_basis]
    mu = [lift(v, i, g) for i, member in enumerate(members, 1) for v in member.mu_basis]
    return WangData(tuple(inv), tuple(mu), ())


def minus_identity(matrix):
    """M - I for a square matrix given as rows."""
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]


def invariant_subspace(matrix):
    """Saturated integral basis (rows) of the fixed subspace ker(M - I)."""
    return smith_form(minus_identity(matrix)).kernel_basis()


def intersection_form(genus):
    """Block diagonal skew form J with J(a_i, b_i) = +1, built densely.

    The same matrix also represents the cup-product pairing of H^1 in the
    dual basis (alpha_i pairs with beta_i to +1), so it doubles as the
    symplectic condition matrix for monodromy actions.
    """
    if genus < 1:
        raise ValueError("genus must be positive")
    j = linalg.zeros(2 * genus, 2 * genus)
    for i in range(0, 2 * genus, 2):
        j[i][i + 1] = 1
        j[i + 1][i] = -1
    return j


def is_symplectic(m):
    """M^T J M = J together with det M = 1."""
    mat = linalg.to_matrix(m)
    n = len(mat)
    if len(mat[0]) != n or n % 2 != 0:
        return False
    j = intersection_form(n // 2)
    return linalg.matmul(linalg.transpose(mat), linalg.matmul(j, mat)) == j \
        and bareiss_det(mat) == 1


def twist_transvection(curve, genus, power=1):
    """Action on H^1 of the ``power``-fold twist along ``curve``: the word
    of that one letter, with the curve validated as a letter and checked
    against the genus."""
    letter = Twist(tuple(curve), power)
    if len(letter.curve) != 2 * genus:
        raise ValueError(f"curve of length {len(letter.curve)} for genus {genus}")
    return compose_word(TwistWord(genus, (letter,)))


def degeneracy_oracle(q, b1):
    """Degeneracy as the rank defect of a validated skew pairing matrix."""
    mat = linalg.to_matrix(q)
    if len(mat) != len(mat[0]) or linalg.transpose(mat) != [[-x for x in row] for row in mat]:
        raise ValueError("pairing matrix must be skew-symmetric")
    return b1 - linalg.rank(mat)


def rational_inverse(rows):
    """Exact inverse of an invertible square matrix whose inverse is integral.

    Gauss-Jordan elimination over the rationals on [A | I], independent of
    ``smith_form``; entries stay ints until a division reaches them, and
    zero entries of a pivot row are skipped. A singular matrix raises
    ValueError; the inverse must come out integral.
    """
    n = len(rows)
    mat = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        p = mat[col][col]
        if p != 1:
            mat[col] = [x / Fraction(p) if x else x for x in mat[col]]
        top = mat[col]
        for r in range(n):
            factor = mat[r][col]
            if r != col and factor != 0:
                mat[r] = [x - factor * y if y else x for x, y in zip(mat[r], top)]
    inverse = [row[n:] for row in mat]
    assert all(Fraction(x).denominator == 1 for row in inverse for x in row)
    return [[int(x) for x in row] for row in inverse]


def bareiss(m):
    """Fraction-free row echelon elimination of ``m`` in place.

    Returns (rank, sign, last pivot), where sign is that of the row
    permutation times -1 for every negated row. Every entry stays a minor
    of the input (Bareiss, Math. Comp. 22, 1968), so each division is
    exact. Columns without a pivot are skipped. Rows are replaced, never
    mutated, so eliminating a shallow copy of the list leaves the input
    rows intact. The last pivot is, up to sign, a rank-size minor of the
    input. A negative pivot row is negated: that is elimination of the
    input with that row negated, whose later minors all contain the row
    and so only change sign. With positive pivots a row with a zero in
    the pivot column needs no update whenever the pivot equals the
    previous one. A rank and a determinant independent of the echelon of
    the package.
    """
    nrows, ncols = len(m), len(m[0])
    rank_ = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank_, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank_:
            m[rank_], m[pivot_row] = m[pivot_row], m[rank_]
            sign = -sign
        top = m[rank_]
        p = top[col]
        if p < 0:
            top = m[rank_] = [-x for x in top]
            p = -p
            sign = -sign
        for r in range(rank_ + 1, nrows):
            row = m[r]
            x = row[col]
            if x == 0 and p == prev:
                continue
            # Both rows are zero left of col, so the update zeroes row[col].
            m[r] = [(p * y - x * z) // prev for y, z in zip(row, top)]
        prev = p
        rank_ += 1
        if rank_ == nrows:
            break
    return rank_, sign, prev


def bareiss_det(rows):
    """Determinant by fraction-free elimination: the sign and the last pivot
    of :func:`bareiss`, or 0 for a singular matrix."""
    if len(rows[0]) != len(rows):
        raise ValueError("determinant of a non-square matrix")
    rank, sign, last = bareiss(list(rows))
    return sign * last if rank == len(rows) else 0


def fraction_det(rows):
    """Independent determinant: plain fraction elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            result = -result
        result *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    assert result.denominator == 1
    return int(result)


@st.composite
def sparse_sign_matrices(draw, max_dim=64, per_row=3, square=False):
    """Matrices over {-1, 0, 1} with about ``per_row`` nonzeros a row.

    Nonzero entries are -1 or +1 with equal odds, so negative pivots are
    as common as positive ones. The entries come from a seeded generator:
    drawing thousands of entries one by one would dominate the run.
    """
    m = draw(st.integers(1, max_dim))
    n = m if square else draw(st.integers(1, max_dim))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = min(1.0, per_row / n)
    return [
        [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


@st.composite
def mixed_rows(draw, width, min_rows=1, max_rows=8):
    """Rows of ``width`` entries, each either dense (``small_ints``) or
    mostly zero with unit and non-unit nonzeros (``sparse_ints``)."""
    row = st.one_of(
        st.lists(small_ints, min_size=width, max_size=width),
        st.lists(sparse_ints, min_size=width, max_size=width),
    )
    return draw(st.lists(row, min_size=min_rows, max_size=max_rows))


@st.composite
def integer_matrices(draw, min_dim=1, max_dim=5, square=False, entries=small_ints):
    m = draw(st.integers(min_dim, max_dim))
    n = m if square else draw(st.integers(min_dim, max_dim))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return rows


@st.composite
def primitive_curves(draw, genus, entries=st.integers(min_value=-4, max_value=4)):
    vec = draw(
        st.lists(entries, min_size=2 * genus, max_size=2 * genus).filter(lambda v: any(v))
    )
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


@st.composite
def twist_words(
    draw,
    max_genus=4,
    max_letters=6,
    entries=st.integers(min_value=-4, max_value=4),
    powers=(-2, -1, 1, 2),
):
    genus = draw(st.integers(1, max_genus))
    count = draw(st.integers(0, max_letters))
    letters = tuple(
        Twist(draw(primitive_curves(genus, entries)), draw(st.sampled_from(powers)))
        for _ in range(count)
    )
    return TwistWord(genus, letters)


@st.composite
def conjugated_words(draw, max_genus=4, max_letters=6, powers=(-2, -1, 1, 2)):
    """w T^p w^-1 for a drawn word w and one drawn twist T^p: the monodromy
    fixes a lattice of rank 2g - 1, so phi^* - 1 is singular."""
    word = draw(twist_words(max_genus, max_letters, powers=powers))
    twist = Twist(draw(primitive_curves(word.genus)), draw(st.sampled_from(powers)))
    return TwistWord(word.genus, word.letters + (twist,) + word.inverse().letters)


@st.composite
def long_words(draw, max_genus):
    """Words of 2g to 2g + 2 letters with unit curve entries and powers.
    Each letter fixes the hyperplane orthogonal to its curve, so a word of
    fewer than 2g letters fixes a vector; these are the draws where
    phi^* - 1 can be nonsingular."""
    genus = draw(st.integers(1, max_genus))
    count = draw(st.integers(2 * genus, 2 * genus + 2))
    curves = primitive_curves(genus, st.integers(-1, 1))
    letters = tuple(
        Twist(draw(curves), draw(st.sampled_from((-1, 1)))) for _ in range(count)
    )
    return TwistWord(genus, letters)


def dense_words(count, genus=6, letters=16, seed=20261018):
    """Seeded random dense twist words: curve entries in {-1, 0, 1} and
    powers +-1, drawn as the dense-word benchmark draws them."""
    rng = random.Random(seed)
    n = 2 * genus
    for _ in range(count):
        word = []
        for _ in range(letters):
            curve = (0,) * n
            while not any(curve):
                curve = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
            word.append(Twist(curve, rng.choice((1, -1))))
        yield TwistWord(genus, tuple(word))


def dense_skew(n, seed, entries=9):
    """A seeded dense skew-symmetric n x n matrix with entries up to
    +-``entries``; nonsingular for even n, as a rule."""
    rng = random.Random(seed)
    a = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-entries, entries)
            a[j][i] = -a[i][j]
    return a


def real_size_matrices():
    """(label, A) for nonsingular inputs at the sizes the CLI reaches: dense
    skew matrices of dimension 20, 24 and 30, and phi^* - 1 of dense twist
    words of genus 8 to 10 with 2g + 4 letters, two of each."""
    for n in (20, 24, 30):
        for seed in (1, 2):
            yield f"skew{n}-{seed}", dense_skew(n, 1000 * n + seed)
    for label, word in real_size_words():
        yield label, minus_identity(compose_word(word))


def real_size_words():
    """(label, word) for the dense twist words of :func:`real_size_matrices`:
    genus 8 to 10, 2g + 4 letters, two of each."""
    for genus in (8, 9, 10):
        # a word of fewer than 2g letters fixes a vector
        words = dense_words(2, genus=genus, letters=2 * genus + 4, seed=genus)
        for i, word in enumerate(words):
            yield f"genus{genus}-{i}", word


def handle_conjugate(genus, seed=0):
    """w u w^-1 for a dense word u on the first genus - 1 handles and a
    dense genus-g word w of g letters, both seeded. u has 2g + 2 letters
    and fixes the last handle; where it fixes nothing on the others,
    phi^* - 1 has rank 2g - 2 and its rank-2 fixed lattice is that handle
    moved by w into general position."""
    inner = next(dense_words(1, genus=genus - 1, letters=2 * genus + 2, seed=seed))
    outer = next(dense_words(1, genus=genus, letters=genus, seed=seed + 1))
    padded = tuple(Twist(letter.curve + (0, 0), letter.power) for letter in inner.letters)
    return TwistWord(genus, outer.letters + padded + outer.inverse().letters)


def brute_force_bundle_nullity(b):
    """The first bundle weights (d, k, tag) with b1 = b, for each nullity.

    Scans every (tag, k, d) with d <= k <= b, in tag order, then k, then
    d, through the validating closed forms of the package, and keeps the
    first hit for each nullity c.
    """
    first = {}
    for tag in VALID_TAGS:
        for k in range(0, b + 1):
            for d in range(0, k + 1):
                if tag not in valid_tags(d, k) or bundle_b1_formula(d, k, tag) != b:
                    continue
                first.setdefault(nullity_closed_form(d, k, tag), (d, k, tag))
    return first


@st.composite
def unimodular_matrices(draw, n, max_ops=8):
    """Products of elementary row operations, so det is always +-1."""
    mat = linalg.identity(n)
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == "add" and i != j:
            q = draw(st.integers(-3, 3))
            mat[i] = [x + q * y for x, y in zip(mat[i], mat[j])]
        elif kind == "swap" and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == "negate":
            mat[i] = [-x for x in mat[i]]
    return mat


def cokernel_free_coordinates(sf, vectors):
    """Coordinates of row vectors in the free part of the cokernel of A.

    ``sf`` must be the Smith decomposition of A (an m x n matrix); the
    vectors live in Z^m. Column i of the result is the image of vector i.
    """
    vecs = linalg.to_matrix(vectors)
    m = len(sf.s)
    if len(vecs[0]) != m:
        raise ValueError(f"vectors of length {len(vecs[0])} do not live in Z^{m}")
    free = sf._free(m)
    if not free:
        return []
    # S^-1 restricted to the free rows, times the vectors as columns
    s_inv = rational_inverse(sf.s)
    return linalg.transpose(linalg.matmul(vecs, linalg.transpose([s_inv[i] for i in free])))


def kernel_coordinates(sf, vectors):
    """Coordinates of kernel vectors over the saturated basis of ker A.

    ``sf`` must be the Smith decomposition of A (an m x n matrix) and the
    rows of ``vectors`` must lie in ker A in Z^n. Row i of the result
    holds the coordinates of vector i over ``sf.kernel_basis()``: with
    A = S D T, a kernel vector v has T v supported on the zero diagonal,
    where the kernel basis is the columns of T^-1, so the coordinates are
    the rows of T there applied to v.
    """
    vecs = linalg.to_matrix(vectors)
    n = len(sf.t_inv)
    if len(vecs[0]) != n:
        raise ValueError(f"vectors of length {len(vecs[0])} do not live in Z^{n}")
    free = sf._free(n)
    if not free:
        return []
    t = rational_inverse(sf.t_inv)
    return linalg.matmul(vecs, linalg.transpose([t[j] for j in free]))


def is_unimodular(a):
    mat = linalg.to_matrix(a)
    return len(mat) == len(mat[0]) and bareiss_det(mat) in (1, -1)


def smith_coordinate_verdict(torus, invariant_basis, mu_basis):
    """The name of the record a preferred basis pair is refused by, or None.

    The route the certificate of ``wang_cohomology`` replaced: both bases
    are checked through their coordinates over the bases of one Smith
    decomposition of A = phi^* - 1. An invariant basis must consist of
    fixed vectors whose coordinates over the saturated kernel basis have
    determinant +-1 (0 means dependent rows, any other value a lattice
    that is not saturated); a mu basis must have coordinates in the free
    cokernel of determinant +-1 (0 means classes that are dependent
    there, any other value a sublattice of that index). Both bases must
    have the shape ``wang_cohomology`` demands; the checks come in the
    order it enforces them.
    """
    a = minus_identity(torus.monodromy)
    sf = smith_form(a)
    if invariant_basis and any(map(any, linalg.matmul(invariant_basis, linalg.transpose(a)))):
        return "invariant_basis_fixed"
    if invariant_basis:
        index = abs(bareiss_det(kernel_coordinates(sf, invariant_basis)))
        if index != 1:
            return "invariant_basis_index" if index else "invariant_basis_rank"
    if mu_basis:
        index = abs(bareiss_det(cokernel_free_coordinates(sf, mu_basis)))
        if index != 1:
            return "mu_basis_index" if index else "mu_basis_rank"
    return None
