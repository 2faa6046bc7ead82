"""Exact linear algebra over the integers.

Small dense matrices only. A matrix is a list of rows, each a list of
Python ints, so arithmetic is arbitrary precision and never touches
floating point; functions that return a matrix return fresh rows the
caller may mutate, except :func:`_echelon`, which may return rows of its
input. Each operation is one function that trusts its rows to be exact
ints, as the package builds them, and leaves them intact;
:func:`to_matrix` validates and copies rows that come from outside the
package. Ranks, lattice bases and torsion come from one family of
unimodular echelon forms: :func:`_echelon` reduces rows by Euclid row
steps to pivot rows that lead in distinct columns and span the same
lattice. The number of pivots is the rank (:func:`rank`), and for a
matrix of full column rank their product is the gcd of the maximal
minors, so the echelon both certifies a given basis of a kernel or of a
free cokernel and, appended with an identity block, computes one
(:func:`_augmented_echelon`). On
phi^* - 1 of dense genus-10 conjugated words its bases kept entries of at
most 18 bits, where Smith transforms reached 76,569 bits. The echelon
is also the one elimination of phi^* - 1: the echelon H of A^T gives
its rank, and the product of H's pivots, a maximal minor of H, is a
multiple of the order of the torsion of coker A, so pivots all 1 prove it
trivial. Torsion needs no transforms: :func:`elementary_divisors` runs
the Smith elimination of the trailing block of a square echelon (H
itself for a nonsingular A) from its first non-unit pivot on, since the
leading run of unit pivots splits off as an identity summand, modulo
that block's determinant R, the product of its pivots, whose multiples
its column lattice contains; for most dense words the block is the last
pivot alone, 1 x 1. Every entry it keeps stays
below the modulus R / (d_1 ... d_i) of its stage, where a full Smith
form of a dense 24 x 24 matrix grows entries of millions of bits.
:func:`rational_rank` is an independent Fraction-based elimination used
to cross-check ranks.

Most matrices here are sparse with entries in {-1, 0, 1}, and the
kernels cost in proportion to their nonzeros where they can. Products and
the echelon find the nonzeros of a row by a C-level scan
(:func:`itertools.compress`) instead of testing every entry in Python, so
a row that leads in its own column, as every row of a bundle pairing
does, costs the echelon one scan and no Euclid step.
"""
import math
from itertools import chain, compress

Matrix = list[list[int]]


def to_matrix(data) -> Matrix:
    """Copy ``data`` into a rectangular list of rows of Python ints; int
    rows of one length pass one C-level check, others are scanned by entry."""
    try:
        rows = list(map(list, data))
    except TypeError:
        raise ValueError("expected a 2d matrix given as a sequence of rows") from None
    if not rows:
        raise ValueError("expected a 2d matrix, got no rows")
    if len(set(map(len, rows))) == 1 and set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged matrix: row {i} has {len(row)} entries, not {width}")
        for j, x in enumerate(row):
            if not _integral(x):
                raise ValueError(f"non-integer entry {x!r} at ({i}, {j})")
            row[j] = int(x)
    return rows


def _integral(x) -> bool:
    """The rule for every entry from outside the package: an integral
    number that is not a bool. Only entries that are not exact ints reach
    it, so ``numbers`` is imported here, not by every CLI start."""
    import numbers

    return not isinstance(x, bool) and isinstance(x, numbers.Integral)


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def matmul(a, b) -> Matrix:
    """Exact product A @ B; the shapes are checked.

    Each output row is a combination of rows of B; zero coefficients are
    skipped by a C-level scan, which pays off on the sparse, mostly
    unit-vector bases used throughout the package.
    """
    if len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    width = len(b[0])
    inner = range(len(b))
    out = []
    for row in a:
        acc = [0] * width
        for j in compress(inner, row):
            x = row[j]
            acc = [u + x * v for u, v in zip(acc, b[j])]
        out.append(acc)
    return out


class FrozenMatrix:
    """An immutable int matrix that iterates as tuples of int rows.

    For matrices that are kept, not computed with. The entries are packed
    into one array of the narrowest signed machine int (1 to 8 bytes) that
    holds them all, against 28 or more bytes for a Python int object, and
    are kept as one flat tuple of Python ints when they do not fit in 64
    bits. It equals any sequence of rows with the same entries. The rows
    are packed as given, exact ints as the package builds them.
    """

    __slots__ = ("_flat", "_rows")

    def __init__(self, rows):
        # no CLI path builds one, so a CLI start does not import array
        from array import array

        self._rows = len(rows)
        flat = [x for row in rows for x in row]
        # x fits a signed k-bit int exactly when max(x, ~x) has under k bits
        bits = max(max(flat), ~min(flat)).bit_length() if flat else 0
        code = next((c for c in "bhiq" if bits < 8 * array(c).itemsize), None)
        self._flat = tuple(flat) if code is None else array(code, flat)

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, i: int) -> tuple[int, ...]:
        width = len(self._flat) // self._rows
        start = range(self._rows)[i] * width
        return tuple(self._flat[start:start + width])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        try:
            return tuple(self) == tuple(map(tuple, other))
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return f"FrozenMatrix({tuple(self)!r})"


class _Echelon(list):
    """The rows :func:`_echelon` keeps, and their pivots."""

    __slots__ = ("pivots",)


def _echelon(rows) -> _Echelon:
    """The pivot rows of an echelon form reached by unimodular row steps.

    Rows are bucketed by their leading column. Where several rows lead in
    one column, Euclid steps (a row minus an integer multiple of the row
    with the smallest entry there) leave one of them leading with the gcd
    of the column, up to sign, and send the others on to the bucket of
    their new leading column; rows that vanish are dropped. The rows kept
    lead in distinct columns, in increasing order, and span the lattice of
    the input rows; their leading entries, taken positive, are the pivots,
    kept in ``pivots`` of the list returned. For a matrix of full column
    rank the pivots number the columns and their product is the gcd of the
    maximal minors, which unimodular row steps preserve; fewer pivots mean
    a lower rank. The input rows are trusted as they are and are not
    mutated, but a row kept unchanged is returned as it is, not copied.
    """
    columns = range(len(rows[0]))
    leading = [[] for _ in columns]
    for row in rows:
        j = next(compress(columns, row), None)
        if j is not None:
            leading[j].append(row)
    kept_rows = _Echelon()
    kept_rows.pivots = []
    for col in columns:
        bucket = leading[col]
        while len(bucket) > 1:
            top, *others = sorted(bucket, key=lambda row: abs(row[col]))
            p = top[col]
            kept = [top]
            for row in others:
                q = row[col] // p
                row = [x - q * y for x, y in zip(row, top)]
                if row[col]:
                    kept.append(row)
                else:
                    j = next(compress(columns, row), None)
                    if j is not None:
                        leading[j].append(row)
            bucket = kept
        if bucket:
            kept_rows.append(bucket[0])
            kept_rows.pivots.append(abs(bucket[0][col]))
    return kept_rows


def _augmented_echelon(m) -> tuple[Matrix, Matrix]:
    """The echelon of [M | I], split by the M parts of its pivot rows.

    A row of the echelon is (c M, c) for an integer row vector c. Returns
    the I parts c of the pivot rows whose M part is nonzero, then of those
    whose M part is zero. The rows with a nonzero M part lead in distinct
    columns of M, so no combination of them has a zero M part, and the
    second list is a saturated basis of the left kernel {c : c M = 0}.
    """
    width = len(m[0])
    augmented = [row + [int(i == j) for j in range(len(m))] for i, row in enumerate(m)]
    moved, kernel = [], []
    for row in _echelon(augmented):
        (moved if any(row[:width]) else kernel).append(row[width:])
    return moved, kernel


def rank(a) -> int:
    """Rank as the number of pivot rows of :func:`_echelon`; no minor is formed."""
    return len(_echelon(a))


def rational_rank(a) -> int:
    """Rank by Gaussian elimination over the rationals.

    Kept deliberately independent of :func:`rank` and :func:`_echelon`
    so they can be played against each other as exact oracles. Entries
    start as ints and become Fractions only where an update reaches them;
    zero entries of the pivot row are skipped, so sparse matrices of the
    sizes the CLI accepts stay cheap. :mod:`fractions` is imported here,
    not at module level, so that importing the package does not load it.
    """
    from fractions import Fraction

    rows = to_matrix(a)
    nrows, ncols = len(rows), len(rows[0])
    rank_ = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank_, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        top = rows[rank_]
        for r in range(rank_ + 1, nrows):
            if rows[r][col] != 0:
                factor = Fraction(rows[r][col]) / top[col]
                rows[r] = [x - factor * y if y else x for x, y in zip(rows[r], top)]
        rank_ += 1
    return rank_


def elementary_divisors(rows, modulus: int) -> tuple[int, ...]:
    """Nontrivial invariant factors of a nonsingular square matrix, by Smith
    elimination modulo its determinant.

    The diagonal of the Smith form of A, less its ones, with no
    transforms. The package runs it only on triangular echelon blocks,
    modulo the product of their pivots: on the trailing block, from the
    first non-unit pivot on, of the echelon of the transpose of a
    nonsingular phi^* - 1 or, for a singular one, of the r x r echelon
    that carries the torsion of its cokernel. The columns of A span a
    lattice L of index R = |det A| in Z^n, so L contains R Z^n, and an
    entry may change by a multiple of R without changing Z^n / L (Domich,
    Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.4.14). Each stage pivots
    on the remaining block as the classical Smith elimination does: Euclid
    row steps clear the pivot column; once it is clear, a column step
    touches the pivot row alone, so an entry there is reduced modulo the
    pivot p and, if nonzero, becomes the pivot. A row with an entry p does
    not divide is added to the pivot row. A row is reduced to residues of
    least absolute value once one of its entries reaches R. When p divides
    every entry of its row and of the block, the stage splits off the
    summand Z/d with d = gcd(p, R); the rest has order R/d, so the next
    stage works modulo R/d, and as p divides every entry left, d divides
    the next divisor. ``rows`` must have determinant +-``modulus`` and are
    not mutated; every row kept has entries below the modulus of its stage
    in absolute value.
    """
    r = modulus
    block = [_centred(list(row), r) for row in rows]
    found = []
    while r > 1:
        t = next((i for i, row in enumerate(block) if any(row)), None)
        if t is None:  # a 1 x 1 block that R divides
            found.append(r)
            break
        block[0], block[t] = block[t], block[0]
        c = next(j for j, x in enumerate(block[0]) if x)
        for row in block:
            row[0], row[c] = row[c], row[0]
        while True:
            top = block[0]
            if top[0] < 0:
                top = block[0] = [-x for x in top]
            p = top[0]
            i = next((i for i in range(1, len(block)) if block[i][0]), None)
            if i is not None:
                row = block[i]
                q = row[0] // p
                if q:
                    row = block[i] = _centred([x - q * y for x, y in zip(row, top)], r)
                if row[0]:
                    block[0], block[i] = row, top
                continue
            j = next((j for j in range(1, len(top)) if top[j] % p), None)
            if j is not None:
                top[j] %= p  # the column step, on the one nonzero of column 0
                for row in block:
                    row[0], row[j] = row[j], row[0]
                continue
            if p == 1:
                break
            stray = next((row for row in block[1:] if any(x % p for x in row)), None)
            if stray is None:
                break
            block[0] = _centred([x + y for x, y in zip(top, stray)], r)
        d = math.gcd(p, r)
        if d > 1:
            found.append(d)
            r //= d
        block = [_centred(row[1:], r) for row in block[1:]]
    return tuple(found)


def _centred(row: list[int], modulus: int) -> list[int]:
    """``row``, or its residues of least absolute value once an entry
    reaches the modulus."""
    if max(row) < modulus and -min(row) < modulus:
        return row
    half = modulus // 2
    return [(x + half) % modulus - half for x in row]
