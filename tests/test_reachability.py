"""The reachability gate: every function of ``src/`` runs for some CLI
command, or is listed in :data:`ALLOWLIST` with its one user.

A fresh interpreter installs a ``sys.settrace`` hook that records call
events only, before it imports ``geographer.cli``, so calls made at
import count. It runs each argv of :data:`ARGV` through ``cli.main``,
then the benchmark's ``dense_words`` workload (``perfbench/run.py`` with
:data:`DENSE_WORDS`) in-process through ``runpy``, and prints the file
and first line of every code object called in each. The functions are
the ``def`` statements of ``src/geographer/*.py``, found by ``ast``; the
code of a decorated function starts at its first decorator. Adding a
function that no command runs thus needs a stated user here, and an
entry whose function a command reaches, or which no longer exists,
fails as well.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geographer.cli import GENUS_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN = ROOT / "perfbench" / "run.py"

#: Every command, both formats, ``--null``, a refusal of each exit code
#: and ``--help``, each with the exit code it must return.
ARGV = [
    (["realize", "0", "4", "4"], 0),
    (["realize", "0", "5", "1"], 0),
    (["realize", "0", "6", "2", "--format", "tsv"], 0),
    (["realize", "0", "4", "4", "--genus", "5"], 0),
    (["realize", "-8", "6", "2"], 0),
    (["realize", "-16", "3", "1", "--format", "tsv"], 0),
    (["realize", "0", "4", "1", "--null"], 0),
    (["realize", "-16", "0", "0", "--null"], 0),
    (["realize", "0", "3", "1", "--null"], 3),
    (["realize", "0", "3", "1", "--null", "--format", "tsv"], 3),
    (["realize", "-8", "2", "0", "--null"], 3),
    (["invariants", "--bundle", "1", "1", "2", "1"], 0),
    (["invariants", "--bundle", "1", "2", "3", "0", "--format", "tsv"], 0),
    (["invariants", "--fibersum", "2", "1", "2", "2"], 0),
    (["invariants", "--dolgachev", "2", "3", "2", "3", "3", "--format", "tsv"], 0),
    (["enumerate", "--sigma-min", "-16", "--b1-max", "4"], 0),
    (["enumerate", "--sigma-min", "-8", "--b1-max", "3", "--format", "json"], 0),
    (["verify", "--grid-max", "3"], 0),
    (["realize", "0", "3", "2"], 2),
    (["realize", "0", "4", "4", "--genus", str(2**62)], 2),
    (["enumerate", "--sigma-min", "8", "--b1-max", "2"], 2),
    (["verify", "--grid-max", "0"], 2),
    (["invariants", "--bundle", "1", "0", "2", "0"], 2),
    (["invariants", "--dolgachev", "2", "4", "1", "1", "2"], 2),
    (["realize", "0", "4", "4", "--out", str(ROOT / "no such dir" / "out.json")], 74),
    (["realize"], 64),
    (["realize", "0", "4", "4", "--bogus"], 64),
    (["--help"], 0),
]

#: One unit of two genus-2 words, as the benchmark's self-test runs it;
#: seed 2 is the first whose unit holds a singular word, whose generic
#: bases come from the augmented echelon, and a word with torsion.
DENSE_WORDS = ["--workload", "dense_words", "--size", "tiny", "--seed", "2", "--seconds", "0"]

DENSE = "perfbench dense_words: the generic Wang path of a dense word"
FAILURE = "the text of a failed check, rendered only when one fails"

#: The functions no command runs, each with its one user.
ALLOWLIST = {
    "linalg.FrozenMatrix.__init__": DENSE,
    "linalg.FrozenMatrix.__len__": DENSE,
    "linalg.FrozenMatrix.__getitem__": DENSE,
    "linalg.FrozenMatrix.__iter__": DENSE,
    "linalg._augmented_echelon": DENSE,
    "linalg.rational_rank": DENSE,
    "linalg.elementary_divisors": DENSE,
    "linalg._centred": DENSE,
    "mapping_torus.MappingTorus.monodromy": DENSE,
    "mapping_torus._generic_bases": DENSE,
    "linalg._integral": (
        "library callers whose arguments are not exact ints: the specs, Twist and "
        "TwistWord, to_matrix, and geography's and verify's public entry points"
    ),
    "errors.mismatch": FAILURE,
    "fiber_sum.EllipticSurface.label": FAILURE,
    "mapping_torus.MappingTorus.label": FAILURE,
}

_PROBE = """\
import contextlib, io, json, os, runpy, sys

src, run, argvs, bench = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), json.loads(sys.argv[4])
called = set()


def tracer(frame, event, arg):
    # returns None, so no frame gets a local tracer: call events only
    called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.settrace(tracer)
sys.path.insert(0, src)
import geographer.cli

sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    codes = [geographer.cli.main(argv) for argv in argvs]
cli = sorted(called)
called.clear()
sys.path.insert(0, os.path.dirname(run))
sys.argv = [run, *bench]
bench_out = io.StringIO()
with contextlib.redirect_stdout(bench_out), contextlib.redirect_stderr(sink):
    try:
        runpy.run_path(run, run_name="__main__")
    except SystemExit as exc:
        exit_code = exc.code
sys.settrace(None)
result = json.loads(bench_out.getvalue().splitlines()[-1])
print(json.dumps({"codes": codes, "bench": [exit_code, result["correct"]],
                  "called": {"cli": cli, "dense_words": sorted(called)}}))
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` of every ``def`` in ``src/``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "geographer").glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), f"{path.stem}.")
    return found


@pytest.fixture(scope="module")
def trace():
    env = {k: v for k, v in os.environ.items() if k != GENUS_ENV}
    argvs = json.dumps([argv for argv, _ in ARGV])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(RUN), argvs, json.dumps(DENSE_WORDS)],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    functions = defined_functions()
    reached = {
        run: {functions[os.path.realpath(path), line]
              for path, line in called if (os.path.realpath(path), line) in functions}
        for run, called in out["called"].items()
    }
    return out, set(functions.values()), reached


def test_the_tracer_sees_calls_at_import_in_main_and_in_the_benchmark(trace):
    out, _, reached = trace
    assert out["codes"] == [code for _, code in ARGV]
    assert out["bench"] == [0, True]
    # Twist.__new__ runs for the CLI only when surfaces builds its handle table
    assert {"cli.main", "cli.cmd_verify", "surfaces.Twist.__new__"} <= reached["cli"]
    assert "mapping_torus.wang_cohomology" in reached["dense_words"]


def test_every_src_function_is_reached_by_a_command_or_allowlisted(trace):
    _, functions, reached = trace
    unreached = sorted(functions - reached["cli"] - ALLOWLIST.keys())
    assert not unreached, f"no command reaches {unreached}: delete them, or allowlist their user"


def test_the_allowlist_names_only_functions_that_exist_and_no_command_reaches(trace):
    _, functions, reached = trace
    gone = sorted(ALLOWLIST.keys() - functions)
    run = sorted(ALLOWLIST.keys() & reached["cli"])
    assert not gone and not run, f"allowlisted, but gone: {gone}; but a command reaches: {run}"


def test_the_benchmark_reaches_every_function_allowlisted_for_it(trace):
    _, _, reached = trace
    dense = {name for name, user in ALLOWLIST.items() if user == DENSE}
    missed = sorted(dense - reached["dense_words"])
    assert not missed, f"allowlisted for dense_words, which does not reach {missed}"
