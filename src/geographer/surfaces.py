"""First (co)homology of a closed oriented surface and its twist actions.

A genus ``g`` surface carries the symplectic basis a1, b1, ..., ag, bg of
H_1 with a_i . b_i = +1, and the dual basis alpha_1, beta_1, ... of H^1.
A class is its coefficient vector over that basis.
A Dehn twist along a simple closed curve acts on these lattices by an
integral transvection; words of twists compose to integral symplectic
matrices, returned as immutable tuples of int rows. Each letter is
applied as a rank-one update that touches only the rows over the support
of its curve and their partner rows, each row packed as one Python int of
fixed-width digits, so a letter whose curve has s nonzero coefficients
costs 2s int multiply-adds, each linear in the packed row's size, with no
list per row; the rows are decoded once, at the end.
The standard bundle word is spelled once, as the table
:data:`HANDLE_KINDS` of three handle kinds (twisted, untouched and
paired), each with its genus-1 letters and canonical rows;
:func:`kind_counts` counts the handles of each kind from the weights, the
one home of the rule that orders them.
Letters and words are NamedTuple records whose constructors validate
them: a letter whose curve is already a tuple of exact ints keeps it as
it is, and bools and non-integral curve entries, powers and genera are
refused with a text that names the field.
Everything here is a pure function of integer data.
"""

import math
import struct
import sys
from functools import partial
from itertools import compress
from typing import NamedTuple

from . import linalg

IntRows = tuple[tuple[int, ...], ...]


class _TwistFields(NamedTuple):
    curve: tuple[int, ...]
    power: int


class Twist(_TwistFields):
    """One Dehn twist letter: a primitive curve class and a nonzero power."""

    __slots__ = ()

    def __new__(cls, curve, power=1):
        curve = _exact_curve(curve)
        power = _exact_int(power, "twist power")
        if power == 0:
            raise ValueError("twist power must be nonzero")
        if math.gcd(*curve) != 1:
            raise ValueError(f"twist curve {curve} is not primitive")
        return super().__new__(cls, curve, power)


class _TwistWordFields(NamedTuple):
    genus: int
    letters: tuple[Twist, ...]


class TwistWord(_TwistWordFields):
    """An ordered product of twists; the leftmost letter acts last."""

    __slots__ = ()

    def __new__(cls, genus, letters=()):
        genus = _exact_int(genus, "word genus")
        _check_genus(genus)
        letters = tuple(letters)
        for letter in letters:
            if len(letter.curve) != 2 * genus:
                raise ValueError(f"curve of length {len(letter.curve)} in a genus {genus} word")
        return super().__new__(cls, genus, letters)


def _exact_curve(curve) -> tuple[int, ...]:
    """A twist curve as a tuple of exact ints, each entry held to the rule
    of :func:`linalg._integral`; a tuple of exact ints is kept as it is."""
    if type(curve) is not tuple:
        try:
            curve = tuple(curve)
        except TypeError:
            raise ValueError(
                f"twist curve: expected a sequence of integers, got {curve!r}"
            ) from None
    if set(map(type, curve)) <= {int}:
        return curve
    for i, x in enumerate(curve):
        if not linalg._integral(x):
            raise ValueError(f"twist curve: non-integer entry {x!r} at index {i}")
    return tuple(map(int, curve))


def _exact_int(x, name: str) -> int:
    """``x`` as an exact int, by the rule of :func:`linalg._integral`;
    ``name`` names the field in a refusal."""
    if type(x) is int:
        return x
    if not linalg._integral(x):
        raise ValueError(f"{name}: non-integer value {x!r}")
    return int(x)


def cup_gram(basis) -> linalg.Matrix:
    """B J B^T, the cup pairing of the classes given as the rows of B.

    Row c of the intersection form J has one nonzero, +1 in column c ^ 1
    for even c and -1 for odd c, so entry (i, l) sums +-B[i][c] B[l][c ^ 1]
    over the nonzeros c of row i, found by a C-level scan; J is never built.
    """
    columns = range(len(basis[0]))
    support = [list(compress(columns, row)) for row in basis]
    by_column = [[] for _ in columns]  # (row index, entry) of each nonzero of B
    for i, (row, cols) in enumerate(zip(basis, support)):
        for c in cols:
            by_column[c].append((i, row[c]))
    out = []
    for row, cols in zip(basis, support):
        gram_row = [0] * len(basis)
        for c in cols:
            x = -row[c] if c & 1 else row[c]
            for i, y in by_column[c ^ 1]:
                gram_row[i] += x * y
        out.append(gram_row)
    return out


def compose_word(word: TwistWord) -> IntRows:
    """Pullback action on H^1 of the whole word.

    Pullbacks compose in the opposite order of the diffeomorphisms, so the
    matrix of the leftmost (last applied) letter multiplies from the right.
    Each letter is the transvection T = I - p (J c) c^T, and
    T M = M - p (J c)(c^T M): one combination of the rows of M over the
    support of c, subtracted from the rows where J c is nonzero, which are
    the partners of that support. The sign is pinned by the convention
    that the twist along a_i sends alpha_i to alpha_i + beta_i and fixes
    beta_i.

    Each row x of M is kept packed, as the one int sum_i x_i 2^(w i). The
    packing is linear, so a row combination is the same combination of
    packed ints, and a letter costs one int multiply-add per support row
    (to form c^T M) and one per partner row. A packed int is the exact
    integer whatever size its digits x_i reach, so no intermediate value
    needs a bound; only the decoding at the end does. Entry (i, l) of T M
    is M_il - p (J c)_i sum_j c_j M_jl, and |(J c)_i| <= ||c||_inf, so

        ||T M||_max <= ||M||_max (1 + |p| ||c||_inf ||c||_1),

    and the product of these factors over the letters bounds every entry
    of the result, as ||I||_max = 1. With w at least bound.bit_length() + 1
    (a whole number of bytes) every entry is below 2^(w-1) in absolute
    value, so the digits of least absolute value are the entries: adding
    2^(w-1) to each digit makes them all nonnegative, and flipping each
    digit's top bit back leaves each one in two's complement, to be read
    off the bytes of the row; a genus-1 row, of two digits, is split by
    one shift instead.
    """
    n = 2 * word.genus
    bound = 1
    for c, p in word.letters:
        bound *= 1 + abs(p) * max(map(abs, c)) * sum(map(abs, c))
    bits = bound.bit_length() + 1  # with the sign
    k = 1 if bits <= 8 else 2 if bits <= 16 else 4 if bits <= 32 else 8 if bits <= 64 else -(-bits // 8)
    w = 8 * k
    rows = list(map((1).__lshift__, range(0, w * n, w)))
    for c, p in word.letters:
        support = list(compress(range(n), c))
        combo = 0
        for j in support:
            combo += c[j] * rows[j]
        for j in support:
            # (J c) pairs a_i with b_i: (J c)_{2i} = c_{2i+1}, (J c)_{2i+1} = -c_{2i}
            rows[j ^ 1] -= (p * c[j] if j & 1 else -p * c[j]) * combo
    out = []
    if n == 2:  # a genus-1 row is split by one shift
        half, mask = 1 << (w - 1), (1 << w) - 1
        for row in rows:
            low = ((row + half) & mask) - half
            out.append((low, (row - low) >> w))
        return tuple(out)
    tops = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")  # 2^(w-1) in each digit
    size = n * k
    if k <= 8:
        layout = f"<{n}{_SIGNED[k]}"
        for row in rows:
            out.append(struct.unpack(layout, ((row + tops) ^ tops).to_bytes(size, "little")))
    else:  # each digit's k bytes, converted by int.from_bytes
        layout = "<" + f"{k}s" * n
        for row in rows:
            digits = struct.unpack(layout, ((row + tops) ^ tops).to_bytes(size, "little"))
            out.append(tuple(map(_from_signed_bytes, digits)))
    return tuple(out)


#: The struct codes of little-endian two's complement ints of 1, 2, 4 and 8 bytes.
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}
_from_signed_bytes = partial(int.from_bytes, byteorder="little", signed=True)


class HandleKind(NamedTuple):
    """One kind of handle of the standard word, on its genus-1 torus: its
    letters, and its canonical rows of the fixed lattice and of the free
    cokernel."""

    letters: tuple[Twist, ...]
    invariant: IntRows
    mu: IntRows


# twisted, untouched and paired: the standard word spelled handle by handle
HANDLE_KINDS = (
    HandleKind((Twist((1, 0)),), ((0, 1),), ((1, 0),)),
    HandleKind((), ((1, 0), (0, 1)), ((1, 0), (0, 1))),
    HandleKind((Twist((0, 1)), Twist((1, 0), -1)), (), ()),
)


def kind_counts(d: int, k: int, g: int) -> tuple[int, int, int]:
    """How many handles of each kind of :data:`HANDLE_KINDS` the word of
    weights (d, k, g) has: handles 1 .. d are twisted, d + 1 .. k untouched
    and k + 1 .. g paired."""
    return d, k - d, g - k


def _check_weights(d: int, k: int, g: int) -> None:
    _check_genus(g)
    _check_weight_order(d, k, g)


def _check_genus(g: int) -> None:
    """The genus rule g >= 1, of words and weights; a genus whose 2g
    coordinates no sequence can index is refused too."""
    if g < 1:
        raise ValueError("genus must be positive")
    if 2 * g > sys.maxsize:
        raise ValueError(f"genus {g} is too large: its 2g coordinates cannot be indexed")


def _check_weight_order(d: int, k: int, g: int) -> None:
    """The weight rule 0 <= d <= k <= g."""
    if not 0 <= d <= k <= g:
        raise ValueError(f"weights must satisfy 0 <= d <= k <= g, got {(d, k, g)}")
