"""Output checks by routes independent of the code under test.

Every rule the checks need is restated here from the paper in plain
integer and Fraction arithmetic: admissibility, the bundle monodromy word
and its action on H^1, the assembled cup-with-omega pairing, the Gysin
first Betti number, the nullity realizability search and the grid case
count. The only package function used is ``linalg.rational_rank``, the
Fraction elimination the package keeps as an oracle independent of its
Smith form. Each check returns a list of failure messages; empty means
the output is correct.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from geographer.linalg import rational_rank

TSV_COLUMNS = (
    "a", "b", "c", "kind", "recipe", "family", "sigma", "chi", "b1", "b_plus",
    "b_minus", "K_squared", "K_dot_omega", "kappa", "degeneracy", "nullity", "minimal",
)

_BUNDLE_LABEL = re.compile(r"B\((\d+),(\d+),(\d+);(\d+)\)$")
_SUM_LABEL = re.compile(r"E\((\d+),(\d+),(\d+),(\d+)\)$")
_DOLGACHEV_LABEL = re.compile(r"E\(1\)_\{(\d+),(\d+)\}\((\d+),(\d+),(\d+)\)$")


def admissible(a: int, b: int, c: int) -> bool:
    """(a, b, c) is admissible: 8 | a <= 0, 0 <= c <= b, b = c mod 2, 4b >= 8 + a."""
    return a <= 0 and a % 8 == 0 and 0 <= c <= b and (b - c) % 2 == 0 and 4 * b >= max(0, 8 + a)


def region(sigma_min: int, b1_max: int) -> list[tuple[int, int, int]]:
    """Admissible triples in the order ``enumerate`` lists them."""
    return [(a, b, c)
            for a in range(0, sigma_min - 1, -8)
            for b in range(b1_max + 1)
            for c in range(b + 1)
            if admissible(a, b, c)]


def _bundle_families(b: int):
    """(d, k, tag, b1, nullity) of every bundle with b1 = b, by the closed forms."""
    for k in range(b + 1):
        for d in range(k + 1):
            yield d, k, 0, 2 * k - d + 2, 0
            if d:
                yield d, k, 1, 2 * k - d + 1, d + 1 if d == k else d
            if d < k:
                yield d, k, 2, 2 * k - d + 1, d


def null_realizable(a: int, b: int, c: int) -> bool:
    """Whether the constructions realize nullity c (else the case is open)."""
    if a < 0:
        return b == 0 and c == 0
    return any(b1 == b and nullity == c for _, _, _, b1, nullity in _bundle_families(b))


def grid_cases(grid_max: int) -> int:
    """Number of (d, k, g, tag) cases with 1 <= g <= grid_max and a valid tag."""
    return sum(1 + (d != 0) + (d != k)
               for g in range(1, grid_max + 1) for k in range(g + 1) for d in range(k + 1))


# --- H^1 of a surface and twist actions, in lists of Python ints ---------

def basis_vector(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def cup(u, v) -> int:
    """Symplectic pairing with alpha_i . beta_i = +1, coordinates (a1, b1, ...)."""
    return sum(u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i] for i in range(len(u) // 2))


def j_times(c) -> list[int]:
    """J c for the block form J = [[0, 1], [-1, 0]] per handle."""
    out = [0] * len(c)
    for i in range(0, len(c), 2):
        out[i], out[i + 1] = c[i + 1], -c[i]
    return out


def compose(n: int, letters) -> list[list[int]]:
    """Action on H^1 of a twist word: M = T_last ... T_first, T = I - p (Jc) c^T."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for curve, power in letters:
        jc = j_times(curve)
        support = [i for i, x in enumerate(curve) if x]
        row = [sum(curve[i] * m[i][col] for i in support) for col in range(n)]
        for i, x in enumerate(jc):
            if x:
                scale = power * x
                m[i] = [mi - scale * r for mi, r in zip(m[i], row)]
    return m


def apply(m, v) -> list[int]:
    return [sum(x * y for x, y in zip(r, v)) for r in m]


def minus_identity(m) -> list[list[int]]:
    return [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(m)]


def bundle_letters(d: int, k: int, g: int):
    """The bundle monodromy word: b_i, a_i^-1 for handles above k, a_i for i <= d."""
    n = 2 * g
    letters = []
    for i in range(g, k, -1):
        letters += [(basis_vector(2 * i - 1, n), 1), (basis_vector(2 * i - 2, n), -1)]
    letters += [(basis_vector(2 * i - 2, n), 1) for i in range(d, 0, -1)]
    return letters


@lru_cache(maxsize=None)
def bundle_invariants(d: int, k: int, g: int, e: int) -> tuple[int, int] | str:
    """(b1, degeneracy) of B(d, k, g; e), or a message naming what failed.

    The canonical fixed classes b_1..b_d and the untouched handles are
    checked to be fixed by the monodromy and to span ker(M - I) over Q.
    The pairing on H^1 of the total space has basis theta, the fixed
    classes and, for a zero Euler class, eta; fixed classes pair through
    the cup form, theta pairs with eta to 1 and with everything else to 0.
    """
    n = 2 * g
    m = compose(n, bundle_letters(d, k, g))
    fixed = [basis_vector(2 * i - 1, n) for i in range(1, d + 1)]
    for i in range(d + 1, k + 1):
        fixed += [basis_vector(2 * i - 2, n), basis_vector(2 * i - 1, n)]
    if any(apply(m, v) != list(v) for v in fixed):
        return f"canonical class not fixed by the monodromy of B({d},{k},{g};{e})"
    if n - rational_rank(minus_identity(m)) != len(fixed):
        return f"canonical classes do not span the fixed space of B({d},{k},{g};{e})"
    size = 1 + len(fixed) + (e == 0)
    q = [[0] * size for _ in range(size)]
    for i, u in enumerate(fixed):
        for j, v in enumerate(fixed):
            q[1 + i][1 + j] = cup(u, v)
    if e == 0:
        q[0][size - 1], q[size - 1][0] = 1, -1
    return size, size - rational_rank(q)


# --- cli_queries ----------------------------------------------------------

def _as_int(x):
    """TSV cells as ints where they are ints; "unknown" and labels stay strings."""
    try:
        return int(x)
    except (TypeError, ValueError):
        return x


def _realized_fields(query, text: str):
    """Flatten a realize document (JSON or TSV) into one dict of fields."""
    if query.mode == "tsv":
        lines = text.split("\n")
        if len(lines) != 3 or lines[2] != "" or tuple(lines[0].split("\t")) != TSV_COLUMNS:
            raise ValueError("TSV output is not one header plus one row")
        row = dict(zip(TSV_COLUMNS, lines[1].split("\t")))
        label = row["recipe"]
        if (m := _BUNDLE_LABEL.match(label)):
            d, k, g, e = map(int, m.groups())
        elif (m := _SUM_LABEL.match(label)):
            d, k, g, e = (*map(int, m.groups()[1:]), 0)
        elif (m := _DOLGACHEV_LABEL.match(label)):
            d, k, g, e = (*map(int, m.groups()[2:]), 0)
        else:
            raise ValueError(f"unknown recipe label {label!r}")
        fields = {key: _as_int(row[key]) for key in TSV_COLUMNS}
        fields.update(parameter="degeneracy", d=d, k=k, g=g, e=e)
        return fields
    doc = json.loads(text)
    if doc.get("status") != "realized":
        raise ValueError(f"status {doc.get('status')!r}, expected 'realized'")
    recipe, cert, triple = doc["recipe"], doc["certificate"], doc["triple"]
    fields = dict(cert)
    fields.update(a=triple["a"], b=triple["b"], c=triple["c"], parameter=triple["parameter"],
                  kind=recipe["kind"], d=recipe["d"], k=recipe["k"], g=recipe["g"],
                  e=recipe.get("e", 0))
    return fields


def check_query(query, rc: int, text: str) -> list[str]:
    """Check one ``realize`` call: exit code, document, and bundle degeneracy."""
    a, b, c = query.triple
    open_expected = query.mode == "null" and not null_realizable(a, b, c)
    want_rc = 3 if open_expected else 0
    if rc != want_rc:
        return [f"{query}: exit code {rc}, expected {want_rc}"]
    try:
        if open_expected:
            doc = json.loads(text)
            got = (doc["status"], doc["triple"]["a"], doc["triple"]["b"], doc["triple"]["c"])
            errors = [] if got == ("open", a, b, c) else [f"open document {got}"]
        else:
            errors = _realized_errors(query, _realized_fields(query, text))
    except (ValueError, KeyError, TypeError) as exc:
        errors = [f"unreadable output: {exc}"]
    return [f"{query}: {e}" for e in errors]


def _realized_errors(query, f: dict) -> list[str]:
    a, b, c = query.triple
    errors = []
    param = "nullity" if query.mode == "null" else "degeneracy"
    if (f["a"], f["b"], f["c"], f["parameter"]) != (a, b, c, param):
        errors.append(f"document triple {(f['a'], f['b'], f['c'], f['parameter'])}")
    if (f["sigma"], f["b1"], f[param], f["kappa"]) != (a, b, c, 1):
        errors.append(f"certificate (sigma, b1, {param}, kappa) = "
                      f"{(f['sigma'], f['b1'], f[param], f['kappa'])}")
    if f["sigma"] != f["b_plus"] - f["b_minus"] or f["chi"] != 2 - 2 * f["b1"] + f["b_plus"] + f["b_minus"]:
        errors.append("sigma or chi identity fails")
    bundle = bundle_invariants(f["d"], f["k"], f["g"], f["e"])
    if isinstance(bundle, str):
        return errors + [bundle]
    bundle_b1, degeneracy = bundle
    # A fiber sum kills the section and circle classes of its bundle summand.
    want_b1 = bundle_b1 if f["kind"] == "bundle" else bundle_b1 - 2
    if (f["b1"], f["degeneracy"]) != (want_b1, degeneracy):
        errors.append(f"(b1, degeneracy) = {(f['b1'], f['degeneracy'])}, "
                      f"pairing route gives {(want_b1, degeneracy)}")
    return errors


# --- atlas ----------------------------------------------------------------

def check_atlas(text: str, expected: list[tuple[int, int, int]]) -> tuple[int, list[str]]:
    """Row count from the restated rule; each row's columns match its triple.

    Returns the number of triples missing or wrong, and messages.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or tuple(lines[0].split("\t")) != TSV_COLUMNS:
        return len(expected), ["atlas header differs from the TSV columns"]
    rows = lines[1:]
    errors = []
    if len(rows) != len(expected):
        errors.append(f"atlas has {len(rows)} rows, the admissibility rule gives {len(expected)}")
    bad = abs(len(rows) - len(expected))
    for line, (a, b, c) in zip(rows, expected):
        values = line.split("\t")
        r = {key: _as_int(v) for key, v in zip(TSV_COLUMNS, values)}
        try:
            ok = (len(values) == len(TSV_COLUMNS)
                  and (r["a"], r["b"], r["c"]) == (a, b, c)
                  and (r["sigma"], r["b1"], r["degeneracy"], r["kappa"]) == (a, b, c, 1)
                  and r["sigma"] == r["b_plus"] - r["b_minus"]
                  and r["chi"] == 2 - 2 * r["b1"] + r["b_plus"] + r["b_minus"])
        except TypeError:  # a cell that should be a number is not
            ok = False
        if not ok:
            bad += 1
            if len(errors) < 5:
                errors.append(f"atlas row for {(a, b, c)} reads {line!r}")
    return bad, errors


# --- verify_grid ----------------------------------------------------------

def check_grid(report, grid_max: int) -> tuple[int, list[str]]:
    """The sweep passed and covered the independently counted cases."""
    want = grid_cases(grid_max)
    failures = list(getattr(report, "failures", []))
    errors = [f"grid failure: {f}" for f in failures[:5]]
    if not report.passed and not failures:
        errors.append("grid report did not pass")
    if report.cases != want:
        errors.append(f"grid ran {report.cases} cases, expected {want}")
    bad = len(failures) + abs(report.cases - want)
    if errors and not bad:
        bad = 1
    return bad, errors


# --- dense_words ----------------------------------------------------------

def check_word(letters, genus: int, monodromy, data) -> list[str]:
    """b1 = 1 + 2g - rank_Q(M - I), with M composed here, plus fixed rows."""
    n = 2 * genus
    m = compose(n, letters)
    errors = []
    if [[int(x) for x in row] for row in monodromy] != m:
        errors.append("monodromy differs from the composed twist word")
    want_b1 = 1 + n - rational_rank(minus_identity(m))
    if data.b1 != want_b1:
        errors.append(f"b1 = {data.b1}, 1 + 2g - rank(M - I) = {want_b1}")
    if any(apply(m, v) != list(v) for v in data.invariant_basis):
        errors.append("an invariant basis row is not fixed by the monodromy")
    return errors
