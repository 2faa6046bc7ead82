"""Command line front end: realize, invariants, enumerate, verify.

Exit codes are stable contracts: 0 success, 1 verification failure,
2 inadmissible input, 3 open problem (null mode only), 64 usage error,
74 output could not be written (sysexits EX_IOERR).
Output goes to stdout unless --out is given; JSON documents carry a
schema_version and per-field justification strings so certificates are
self-documenting.

:func:`main` may be called any number of times in one process. The
parser is built on the first call, not at import, and every later call
reuses it: argparse keeps no parse state on a parser, and help and error
texts look up the terminal width, stdout and stderr only when written.

Refusals map to exit codes in :func:`main` alone: a ``cmd_*`` function
only computes and renders, and ``main`` turns what it raises into one
stderr line and an exit code, 2, 74 or 1.

Each output part is stated once: :func:`_document` heads every JSON
document, :func:`_certified` writes the certificate block, and
:func:`_json` and :func:`_tsv` are the only writers. :func:`_json` is
the package's own JSON writer and the only one: it writes the bytes of
``json.dumps(doc, indent=2)`` and a newline, so a CLI start does not
import :mod:`json`; only a string that needs escapes is passed to it. A
TSV row is six head values, then the certificate record's first fields
in order; an open problem in TSV is one headerless ``open<TAB>reason``
line.
"""

import argparse
import os
import sys
from functools import cache

from . import geography
from .bundle_manifold import BundleManifoldSpec, InvariantCertificate
from .errors import ConsistencyError, InadmissibleError
from .fiber_sum import DolgachevSurface, EllipticSurface, FiberSumSpec
from .geography import OpenProblem, Recipe
from .verify import verify_bundle_grid

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INADMISSIBLE = 2
EXIT_OPEN = 3
EXIT_USAGE = 64
EXIT_IO_ERROR = 74

GENUS_ENV = "GEOGRAPHER_GENUS_DEFAULT"

TSV_COLUMNS = (
    "a",
    "b",
    "c",
    "kind",
    "recipe",
    "family",
    "sigma",
    "chi",
    "b1",
    "b_plus",
    "b_minus",
    "K_squared",
    "K_dot_omega",
    "kappa",
    "degeneracy",
    "nullity",
    "minimal",
)

CITATIONS = {
    "sigma": "vanishes under a free circle action; adds under torus gluing (Novikov)",
    "chi": "vanishes under a free circle action; adds along square-zero tori",
    "b1": "Wang sequence of the mapping torus and Gysin sequence of the circle bundle",
    "K_squared": "canonical class is Poincare dual to a multiple of a square-zero torus",
    "K_dot_omega": "fiber-torus multiple of the canonical class paired with omega",
    "kappa": "minimal-model table on the signs of K^2 and K.[omega]",
    "degeneracy": "rank defect of cup-with-[omega] on H^1; equals b1 - rank of the skew pairing",
    "nullity": "dimension of the cup-trivial subspace of H^1; a lower bound for the degeneracy",
    "minimal": "fiber sums of minimal symplectic manifolds are minimal (Li-Stipsicz)",
}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def certificate_checks(cert: InvariantCertificate) -> list[dict]:
    """The certificate's identity records, then the names of the checks
    enforced while it was built.

    The nullity record is left out when the nullity is unknown.
    """
    checks = [
        {"name": name, "passed": expected == observed}
        for name, expected, observed in cert.identities()
        if cert.nullity is not None or name != "nullity_le_degeneracy_le_b1"
    ]
    checks.extend({"name": name, "passed": True} for name in cert.checks)
    return checks


def _spec_fields(spec) -> dict:
    """The spec's fields by name; a fiber sum's base fields come first."""
    fields = spec._asdict()
    base = fields.pop("base", None)
    return {**base._asdict(), **fields} if base else fields


def _document(status: str, **fields) -> dict:
    """A JSON document: the schema version and status, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION, "status": status, **fields}


def _triple(triple, parameter: str) -> dict:
    a, b, c = triple
    return {"a": a, "b": b, "c": c, "parameter": parameter}


def _certified(cert: InvariantCertificate) -> dict:
    """The certificate, its checks and the citations that justify it."""
    return {
        "certificate": cert.as_dict(),
        "checks": certificate_checks(cert),
        "citations": dict(CITATIONS),
    }


def recipe_document(recipe: Recipe) -> dict:
    return _document(
        "realized",
        triple=_triple(recipe.triple, recipe.triple_kind),
        recipe={
            "kind": recipe.kind,
            "label": recipe.label,
            "family": recipe.family,
            **_spec_fields(recipe.spec),
        },
        **_certified(recipe.certificate),
        notes=list(recipe.notes),
    )


def open_document(problem: OpenProblem) -> dict:
    return _document(
        "open",
        triple=_triple(problem.triple, "nullity"),
        reason=problem.reason,
        notes=list(problem.notes),
    )


def invariants_document(label: str, fields: dict, cert: InvariantCertificate) -> dict:
    return _document("computed", manifold={"label": label, **fields}, **_certified(cert))


def _json_string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json

    return json.dumps(s)


def _json_write(x, indent: str, out) -> None:
    """Pass the text of ``x`` to ``out`` in pieces; ``indent`` is the
    newline and indentation that close ``x``."""
    if isinstance(x, str):
        out(_json_string(x))
    elif x is None or x is True or x is False:
        out("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out(int.__repr__(x))
    elif isinstance(x, (dict, list)):
        is_dict = isinstance(x, dict)
        if not x:
            out("{}" if is_dict else "[]")
            return
        inner = indent + "  "
        sep = ("{" if is_dict else "[") + inner
        for item in x.items() if is_dict else x:
            out(sep)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out(_json_string(key) + ": ")
            _json_write(item, inner, out)
            sep = "," + inner
        out(indent + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json(doc) -> str:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it, and a newline.

    A document holds str, int, bool, None, lists and dicts with str keys;
    anything else, a float too, is a ``TypeError``.
    """
    parts = []
    _json_write(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _tsv(rows) -> str:
    """The header row, then ``rows``, each ended by a newline."""
    return "\n".join(["\t".join(TSV_COLUMNS), *rows]) + "\n"


def _tsv_value(x) -> str:
    if x is None:
        return "unknown"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _tsv_row(head: tuple, cert: InvariantCertificate) -> str:
    """Six head values (a, b, c, kind, recipe, family), then the first
    fields of ``cert``: they are the remaining columns, in record order."""
    return "\t".join(map(_tsv_value, (*head, *cert[: len(TSV_COLUMNS) - 6])))


def recipe_tsv_row(recipe: Recipe) -> str:
    head = (*recipe.triple, recipe.kind, recipe.label, recipe.family or "-")
    return _tsv_row(head, recipe.certificate)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        if "\0" in out_path:  # open raises ValueError, not OSError, for it
            raise OSError("embedded null byte")
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class _GenusFloorError(Exception):
    """The genus floor in the environment is not an integer."""


def _genus_floor(args) -> int | None:
    if getattr(args, "genus", None) is not None:
        return args.genus
    env = os.environ.get(GENUS_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _GenusFloorError(f"{GENUS_ENV} must be an integer, got {env!r}") from exc
    return None


def cmd_realize(args) -> int:
    realize = geography.realize_null if args.null else geography.realize
    result = realize(args.a, args.b, args.c, genus=_genus_floor(args))
    opened = isinstance(result, OpenProblem)
    if args.format == "json":
        text = _json(open_document(result) if opened else recipe_document(result))
    else:
        text = f"open\t{result.reason}\n" if opened else _tsv([recipe_tsv_row(result)])
    _emit(text, args.out)
    return EXIT_OPEN if opened else EXIT_OK


def cmd_invariants(args) -> int:
    if args.bundle is not None:
        spec = BundleManifoldSpec(*args.bundle)
    elif args.fibersum is not None:
        n, d, k, g = args.fibersum
        spec = FiberSumSpec(EllipticSurface(n), d, k, g)
    else:
        p, q, d, k, g = args.dolgachev
        spec = FiberSumSpec(DolgachevSurface(p, q), d, k, g)
    cert = geography.certify(spec)
    if args.format == "json":
        text = _json(invariants_document(spec.label, _spec_fields(spec), cert))
    else:
        head = (cert.sigma, cert.b1, cert.degeneracy, "invariants", spec.label, "-")
        text = _tsv([_tsv_row(head, cert)])
    _emit(text, args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    # rows are rendered as the recipes stream in; a bad region, checked by
    # the generator at its first row, or a failing recipe raises before
    # anything is written
    recipes = geography.enumerate_region(args.sigma_min, args.b1_max, genus=_genus_floor(args))
    if args.format == "json":
        text = _json([recipe_document(r) for r in recipes])
    else:
        text = _tsv(map(recipe_tsv_row, recipes))
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_bundle_grid(args.grid_max)
    lines = [f"bundle weight grid up to g = {report.grid_max}", f"cases: {report.cases}"]
    for name, count in report.counts.items():
        lines.append(f"{name}: {count} checked")
    if report.passed:
        lines.append("RESULT: PASS")
    else:
        lines.extend(f"FAIL {failure}" for failure in report.failures)
        lines.append("RESULT: FAIL")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


@cache
def _build_parser() -> _Parser:
    """The CLI parser, built on the first call and returned again after it."""
    # --help prints the docstring up to its note on parser reuse
    description = __doc__ and __doc__.partition("\n\n:func:`main`")[0]
    parser = _Parser(prog="geographer", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    realize = sub.add_parser("realize", help="realize a triple (a, b, c)")
    realize.add_argument("a", type=int, help="signature, a non-positive multiple of 8")
    realize.add_argument("b", type=int, help="first Betti number")
    realize.add_argument("c", type=int, help="degeneracy (or nullity with --null)")
    realize.add_argument("--null", action="store_true", help="treat c as the nullity")
    realize.add_argument("--genus", type=int, default=None, help="raise the genus floor")
    realize.add_argument("--format", choices=("json", "tsv"), default="json")
    realize.add_argument("--out", default=None, help="write output to a file")

    invariants = sub.add_parser("invariants", help="certificate of one construction")
    group = invariants.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", nargs=4, type=int, metavar=("D", "K", "G", "E"))
    group.add_argument("--fibersum", nargs=4, type=int, metavar=("N", "D", "K", "G"))
    group.add_argument("--dolgachev", nargs=5, type=int, metavar=("P", "Q", "D", "K", "G"))
    invariants.add_argument("--format", choices=("json", "tsv"), default="json")
    invariants.add_argument("--out", default=None)

    enumerate_ = sub.add_parser("enumerate", help="realize a whole region of triples")
    enumerate_.add_argument("--sigma-min", type=int, required=True, dest="sigma_min")
    enumerate_.add_argument("--b1-max", type=int, required=True, dest="b1_max")
    enumerate_.add_argument("--genus", type=int, default=None)
    enumerate_.add_argument("--format", choices=("json", "tsv"), default="tsv")
    enumerate_.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the dual-route identity grid")
    verify.add_argument("--grid-max", type=int, required=True, dest="grid_max")
    verify.add_argument("--out", default=None)

    return parser


COMMANDS = {
    "realize": cmd_realize,
    "invariants": cmd_invariants,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
}

#: The stderr head of an :class:`InadmissibleError`, by command, formatted
#: from the parsed arguments; any other ``ValueError`` is "invalid parameters".
INADMISSIBLE_HEADS = {
    "realize": "inadmissible triple ({a}, {b}, {c})",
    "enumerate": "invalid region",
    "verify": "invalid grid",
}


def _refuse(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except _GenusFloorError as exc:
        return _refuse(f"invalid genus floor: {exc}", EXIT_INADMISSIBLE)
    except InadmissibleError as exc:
        head = INADMISSIBLE_HEADS.get(args.command, "invalid parameters").format_map(vars(args))
        return _refuse(f"{head}: {exc}", EXIT_INADMISSIBLE)
    except ValueError as exc:  # a spec the recipe cannot build, such as a huge genus
        return _refuse(f"invalid parameters: {exc}", EXIT_INADMISSIBLE)
    except OSError as exc:
        target = args.out or "stdout"
        return _refuse(f"{parser.prog}: cannot write output to {target}: {exc}", EXIT_IO_ERROR)
    except ConsistencyError as exc:
        return _refuse(f"{parser.prog}: certificate check failed: {exc}", EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    sys.exit(main())
