"""Command line contracts: exit codes, emitters, round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geographer import circle_bundle, cli
from geographer.bundle_manifold import BundleManifoldSpec, InvariantCertificate, construct
from geographer.cli import (
    EXIT_INADMISSIBLE,
    EXIT_IO_ERROR,
    EXIT_OK,
    EXIT_OPEN,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    GENUS_ENV,
    certificate_checks,
    main,
)
from strategies import zeros

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_json_document(capsys):
    code, out, _ = run(capsys, "realize", "0", "4", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["recipe"]["label"] == "B(3,3,3;1)"
    assert doc["certificate"]["degeneracy"] == 4
    assert all(check["passed"] for check in doc["checks"])
    assert doc["citations"]
    # emitted text parses back to the identical document
    assert json.loads(json.dumps(doc)) == doc


def test_realize_tsv_single_row(capsys):
    code, out, _ = run(capsys, "realize", "0", "4", "4", "--format", "tsv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a\tb\tc\t")
    assert lines[1].split("\t")[4] == "B(3,3,3;1)"


def test_realize_inadmissible_exit(capsys):
    code, out, err = run(capsys, "realize", "8", "2", "0")
    assert code == EXIT_INADMISSIBLE
    assert "non-positive multiple of 8" in err
    assert out == ""


def test_realize_open_case(capsys):
    code, out, _ = run(capsys, "realize", "0", "3", "1", "--null")
    assert code == EXIT_OPEN
    doc = json.loads(out)
    assert doc["status"] == "open"
    assert "open" in doc["reason"]
    assert doc["notes"]


def test_realize_null_success(capsys):
    code, out, _ = run(capsys, "realize", "0", "3", "3", "--null")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["recipe"]["label"] == "B(2,2,2;1)"
    assert doc["triple"]["parameter"] == "nullity"


def test_invariants_bundle(capsys):
    code, out, _ = run(capsys, "invariants", "--bundle", "1", "1", "2", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    cert = doc["certificate"]
    assert (cert["b1"], cert["degeneracy"], cert["nullity"]) == (2, 2, 2)
    names = {check["name"] for check in doc["checks"]}
    assert "degeneracy_pairing_rank_matches_formula" in names


def test_invariants_fibersum_and_dolgachev(capsys):
    code, out, _ = run(capsys, "invariants", "--fibersum", "2", "1", "2", "2")
    assert code == EXIT_OK
    cert = json.loads(out)["certificate"]
    assert (cert["sigma"], cert["b1"]) == (-16, 3)

    code, out, _ = run(capsys, "invariants", "--dolgachev", "2", "3", "2", "3", "3")
    assert code == EXIT_OK
    cert = json.loads(out)["certificate"]
    assert (cert["sigma"], cert["b1"], cert["degeneracy"]) == (-8, 4, 2)
    assert cert["K_dot_omega"] == "unknown"


def test_invariants_tag_two_with_low_weight(capsys):
    code, out, _ = run(capsys, "invariants", "--bundle", "0", "2", "2", "2")
    assert code == EXIT_OK
    assert json.loads(out)["certificate"]["degeneracy"] == 1


def test_enumerate_tsv_contract(capsys):
    code, out, _ = run(capsys, "enumerate", "--sigma-min", "-8", "--b1-max", "2")
    assert code == EXIT_OK
    assert "\r" not in out
    lines = out.split("\n")
    assert lines[-1] == ""  # single trailing newline
    rows = lines[:-1]
    assert len(rows) == 7  # header plus six triples
    header = rows[0]
    assert header.split("\t")[:6] == ["a", "b", "c", "kind", "recipe", "family"]
    assert sum(1 for row in rows if row == header) == 1
    parsed = [row.split("\t")[:3] for row in rows[1:]]
    assert parsed == [
        ["0", "2", "0"],
        ["0", "2", "2"],
        ["-8", "0", "0"],
        ["-8", "1", "1"],
        ["-8", "2", "0"],
        ["-8", "2", "2"],
    ]


def test_enumerate_empty_region_has_header_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--sigma-min", "0", "--b1-max", "0")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].split("\t")[0] == "a"


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--sigma-min", "-8", "--b1-max", "2",
                       "--format", "json")
    assert code == EXIT_OK
    docs = json.loads(out)
    assert len(docs) == 6
    assert json.loads(json.dumps(docs)) == docs


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--grid-max", "1")
    assert code == EXIT_OK
    assert "RESULT: PASS" in out
    assert "cases:" in out


def test_verify_full_grid_case_count(capsys):
    code, out, _ = run(capsys, "verify", "--grid-max", "8")
    assert code == EXIT_OK
    cases_line = next(line for line in out.splitlines() if line.startswith("cases:"))
    assert int(cases_line.split(":")[1]) >= 300
    assert "RESULT: PASS" in out


def test_realize_is_byte_identical_across_runs(capsys):
    first = run(capsys, "realize", "-24", "5", "3")
    second = run(capsys, "realize", "-24", "5", "3")
    assert first == second and first[0] == EXIT_OK


def test_verify_catches_injected_pairing_fault(capsys, monkeypatch):
    original = circle_bundle.lefschetz_pairing

    def corrupted(data, tag):
        q = original(data, tag)
        return zeros(len(q), len(q[0]))  # kill the pairing entirely

    monkeypatch.setattr(circle_bundle, "lefschetz_pairing", corrupted)
    code, out, _ = run(capsys, "verify", "--grid-max", "2")
    assert code == 1
    assert "RESULT: FAIL" in out
    assert "FAIL (d=" in out


def test_verify_catches_pairing_fault_after_construct_has_run(capsys, monkeypatch):
    # every case is computed afresh: a warm construct cache hides nothing
    for g in (1, 2):
        for k in range(g + 1):
            for d in range(k + 1):
                for tag in circle_bundle.valid_tags(d, k):
                    construct(BundleManifoldSpec(d, k, g, tag))
    original = circle_bundle.lefschetz_pairing

    def corrupted(data, tag):
        q = original(data, tag)
        return zeros(len(q), len(q[0]))

    monkeypatch.setattr(circle_bundle, "lefschetz_pairing", corrupted)
    code, out, _ = run(capsys, "verify", "--grid-max", "2")
    assert code == 1
    assert "RESULT: FAIL" in out
    assert "FAIL (d=" in out


def test_failed_certificate_check_exits_1_without_traceback(capsys, monkeypatch):
    original = circle_bundle.lefschetz_pairing

    def corrupted(data, tag):
        q = original(data, tag)
        return zeros(len(q), len(q[0]))

    monkeypatch.setattr(circle_bundle, "lefschetz_pairing", corrupted)
    construct.cache_clear()  # B(0,1,2;0) is built afresh, with the zeroed pairing
    code, out, err = run(capsys, "realize", "0", "4", "0")
    assert (code, out) == (EXIT_VERIFY_FAILED, "")
    assert err == (
        "geographer: certificate check failed: B(0,1,2;0): "
        "degeneracy_pairing_rank_matches_formula expected 0, observed 4\n"
    )


@pytest.mark.parametrize(
    "changes, broken",
    [
        ({"b_plus": 2, "b_minus": 0}, "sigma_equals_bplus_minus_bminus"),
        ({"b1": 3}, "chi_equals_euler_identity"),
        ({"k_squared": 4}, "two_chi_plus_three_sigma_equals_K_squared"),
        ({"nullity": 3}, "nullity_le_degeneracy_le_b1"),
    ],
)
def test_certificate_checks_fail_exactly_the_broken_identity(changes, broken):
    cert = construct(BundleManifoldSpec(1, 1, 2, 1))._replace(**changes)
    checks = certificate_checks(cert)
    assert [c["name"] for c in checks if not c["passed"]] == [broken]
    assert [c["name"] for c in checks[4:]] == list(cert.checks)


VERIFY_GRID_3 = """\
bundle weight grid up to g = 3
cases: 39
degeneracy_pairing_rank_vs_formula: 39 checked
gysin_b1_vs_formula: 39 checked
pairing_rank_even: 39 checked
nullity_bounds: 39 checked
signature_identity: 39 checked
RESULT: PASS
"""


def test_verify_output_is_pinned(capsys):
    assert run(capsys, "verify", "--grid-max", "3") == (EXIT_OK, VERIFY_GRID_3, "")


def test_usage_errors_exit_64(capsys):
    assert run(capsys, )[0] == EXIT_USAGE
    assert run(capsys, "realize", "zero", "4", "4")[0] == EXIT_USAGE
    assert run(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run(capsys, "realize", "0")[0] == EXIT_USAGE


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, "realize", "0", "2", "0", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["recipe"]["label"] == "B(0,0,2;0)"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("realize", "0", "4", "4"), EXIT_OK),
        (("realize", "0", "4", "4", "--format", "tsv"), EXIT_OK),
        (("realize", "0", "3", "1", "--null"), EXIT_OPEN),
        (("realize", "0", "3", "1", "--null", "--format", "tsv"), EXIT_OPEN),
        (("invariants", "--bundle", "1", "1", "2", "1"), EXIT_OK),
        (("invariants", "--bundle", "1", "1", "2", "1", "--format", "tsv"), EXIT_OK),
        (("enumerate", "--sigma-min", "-16", "--b1-max", "4", "--format", "json"), EXIT_OK),
        (("enumerate", "--sigma-min", "-16", "--b1-max", "4"), EXIT_OK),
        (("verify", "--grid-max", "2"), EXIT_OK),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x),
)
def test_out_file_gets_exactly_the_stdout_bytes(capsys, tmp_path, argv, exit_code):
    code, stdout, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "") and stdout
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target)) == (exit_code, "", "")
    assert target.read_bytes() == stdout.encode()


def test_tsv_certificate_columns_are_the_record_fields_in_order():
    # a reordered or inserted certificate field must fail here rather
    # than silently shift the TSV columns
    assert cli.TSV_COLUMNS[:6] == ("a", "b", "c", "kind", "recipe", "family")
    assert [c.lower() for c in cli.TSV_COLUMNS[6:]] == [
        f.lower() for f in InvariantCertificate._fields[:11]
    ]


def test_genus_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("GEOGRAPHER_GENUS_DEFAULT", "5")
    code, out, _ = run(capsys, "realize", "0", "2", "0")
    assert code == EXIT_OK
    assert json.loads(out)["recipe"]["g"] == 5
    # an explicit flag beats the environment
    code, out, _ = run(capsys, "realize", "0", "2", "0", "--genus", "6")
    assert json.loads(out)["recipe"]["g"] == 6


def test_genus_environment_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("GEOGRAPHER_GENUS_DEFAULT", "tall")
    code, _, err = run(capsys, "realize", "0", "2", "0")
    assert code == EXIT_INADMISSIBLE
    assert "GEOGRAPHER_GENUS_DEFAULT" in err


def test_realize_reports_a_bad_genus_variable_as_enumerate_does(capsys, monkeypatch):
    # the triple is admissible; only the genus floor is at fault
    monkeypatch.setenv("GEOGRAPHER_GENUS_DEFAULT", "abc")
    code, out, err = run(capsys, "realize", "0", "4", "4")
    assert code == EXIT_INADMISSIBLE
    assert out == ""
    assert err.startswith("invalid genus floor: ")
    assert "inadmissible" not in err
    _, _, enumerate_err = run(capsys, "enumerate", "--sigma-min", "-8", "--b1-max", "2")
    assert err == enumerate_err


def test_enumerate_genus_environment_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("GEOGRAPHER_GENUS_DEFAULT", "tall")
    code, out, err = run(capsys, "enumerate", "--sigma-min", "-8", "--b1-max", "2")
    assert code == EXIT_INADMISSIBLE
    assert out == ""
    assert "GEOGRAPHER_GENUS_DEFAULT" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("realize", "0", "4", "4"),
        ("enumerate", "--sigma-min", "-8", "--b1-max", "2"),
        ("verify", "--grid-max", "1"),
    ],
)
def test_unwritable_out_exits_74(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_IO_ERROR == 74
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(target) in err
    assert not target.exists()


#: One in-process sequence of calls: argv, the GEOGRAPHER_GENUS_DEFAULT
#: value it runs under (None: unset) and its exit code.
REUSE_SEQUENCE = [
    (("--help",), None, EXIT_OK),
    (("realize", "--help"), None, EXIT_OK),
    (("realize", "0", "4", "4", "--bogus"), None, EXIT_USAGE),
    (("realize", "zero", "4", "4"), None, EXIT_USAGE),
    (("realize", "0", "4", "4", "--format", "tsv"), None, EXIT_OK),
    (("realize", "0", "4", "4"), None, EXIT_OK),
    (("realize", "0", "2", "0"), "5", EXIT_OK),
    (("realize", "0", "2", "0"), "x", EXIT_INADMISSIBLE),
    (("realize", "0", "2", "0"), None, EXIT_OK),
]


def test_a_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)

    def call(argv, genus_floor, fresh):
        if genus_floor is None:
            monkeypatch.delenv(GENUS_ENV, raising=False)
        else:
            monkeypatch.setenv(GENUS_ENV, genus_floor)
        if fresh:
            cli._build_parser.cache_clear()
        return run(capsys, *argv)

    cli._build_parser.cache_clear()
    reused = [call(*REUSE_SEQUENCE[0][:2], fresh=False)]
    per_build = len(built)
    reused += [call(argv, floor, fresh=False) for argv, floor, _ in REUSE_SEQUENCE[1:]]
    assert per_build > 0 and len(built) == per_build

    fresh = [call(argv, floor, fresh=True) for argv, floor, _ in REUSE_SEQUENCE]
    assert len(built) == per_build * (1 + len(REUSE_SEQUENCE))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [code for _, _, code in REUSE_SEQUENCE]
    # --help prints the module docstring without its note on reuse
    assert "self-documenting." in reused[0][1] and ":func:" not in reused[0][1]
    # JSON is the default again after a TSV call, and the variable is read per call
    assert json.loads(reused[5][1])["recipe"]["label"] == "B(3,3,3;1)"
    assert json.loads(reused[6][1])["recipe"]["g"] == 5 != json.loads(reused[8][1])["recipe"]["g"]


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "0", "99999999999999999999", "1"],
        ["realize", "-8", "100000000000000000000", "2"],
        ["realize", "0", "4", "4", "--genus", "4611686018427387904"],
        ["enumerate", "--sigma-min", "0", "--b1-max", "2", "--genus", "99999999999999999999"],
    ],
)
def test_unindexable_genus_exits_2_without_traceback(argv):
    # a genus whose 2g coordinates cannot be indexed is refused by the
    # spec, before any vector is built
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "geographer.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INADMISSIBLE, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid parameters: genus ")
    assert proc.stderr.endswith(" is too large: its 2g coordinates cannot be indexed\n")
    assert proc.stderr.count("\n") == 1


def _refusal(argv, code, line, genus_floor=None, corrupt=False):
    name = " ".join(argv)
    if genus_floor is not None:
        name += f" with {GENUS_ENV}={genus_floor}"
    if corrupt:
        name += " with the pairing zeroed"
    return pytest.param(argv, genus_floor, corrupt, code, line, id=name)


_GENUS_TOO_LARGE = "is too large: its 2g coordinates cannot be indexed"
_NO_DIRECTORY = "[Errno 2] No such file or directory: '{out}'"

#: Every refusal the CLI makes: argv, the exit code and the one stderr
#: line, where the library states the reason and the CLI passes its text
#: on. Each runs under a genus floor variable (None: unset) and, for exit 1,
#: with the Lefschetz pairing zeroed. ``{out}`` is a path in a missing
#: directory; a path holding a NUL byte, which only an in-process caller
#: can pass, is an unwritable output too.
REFUSALS = [
    _refusal(("realize", "0", "3", "2"), EXIT_INADMISSIBLE,
             "inadmissible triple (0, 3, 2): b - c must be even"),
    _refusal(("realize", "8", "2", "0", "--format", "tsv"), EXIT_INADMISSIBLE,
             "inadmissible triple (8, 2, 0): signature must be a non-positive multiple of 8"),
    _refusal(("realize", "0", "3", "4", "--null"), EXIT_INADMISSIBLE,
             "inadmissible triple (0, 3, 4): nullity must satisfy 0 <= c <= b"),
    _refusal(("realize", "0", "3", "2", "--null"), EXIT_INADMISSIBLE,
             "inadmissible triple (0, 3, 2): nullity b - 1 is impossible: "
             "one class would have a nonzero cup square"),
    _refusal(("realize", "0", "4", "4", "--genus", "4611686018427387904"), EXIT_INADMISSIBLE,
             f"invalid parameters: genus 4611686018427387904 {_GENUS_TOO_LARGE}"),
    _refusal(("invariants", "--bundle", "1", "0", "2", "0"), EXIT_INADMISSIBLE,
             "invalid parameters: weights must satisfy 0 <= d <= k <= g, got (1, 0, 2)"),
    _refusal(("invariants", "--bundle", "0", "2", "2", "1"), EXIT_INADMISSIBLE,
             "invalid parameters: tag 1 requires d != 0 (no twisted a_i^theta class exists)"),
    _refusal(("invariants", "--fibersum", "0", "1", "2", "2"), EXIT_INADMISSIBLE,
             "invalid parameters: E(n) requires n >= 1"),
    _refusal(("invariants", "--dolgachev", "2", "4", "1", "1", "2"), EXIT_INADMISSIBLE,
             "invalid parameters: multiplicities (2, 4) must be coprime"),
    _refusal(("enumerate", "--sigma-min", "0", "--b1-max", "2", "--genus", "99999999999999999999"),
             EXIT_INADMISSIBLE, f"invalid parameters: genus 99999999999999999999 {_GENUS_TOO_LARGE}"),
    _refusal(("enumerate", "--sigma-min", "8", "--b1-max", "2"), EXIT_INADMISSIBLE,
             "invalid region: sigma lower bound must be non-positive"),
    _refusal(("enumerate", "--sigma-min", "0", "--b1-max", "-1", "--format", "json"),
             EXIT_INADMISSIBLE, "invalid region: b1 bound must be non-negative"),
    _refusal(("verify", "--grid-max", "0"), EXIT_INADMISSIBLE,
             "invalid grid: grid bound must be at least 1"),
    _refusal(("verify", "--grid-max", "-5"), EXIT_INADMISSIBLE,
             "invalid grid: grid bound must be at least 1"),
    _refusal(("realize", "0", "4", "4"), EXIT_INADMISSIBLE,
             f"invalid genus floor: {GENUS_ENV} must be an integer, got 'tall'", genus_floor="tall"),
    _refusal(("enumerate", "--sigma-min", "-8", "--b1-max", "2"), EXIT_INADMISSIBLE,
             f"invalid genus floor: {GENUS_ENV} must be an integer, got '1.5'", genus_floor="1.5"),
    *(
        _refusal((*argv, "--out", "{out}"), EXIT_IO_ERROR,
                 f"geographer: cannot write output to {{out}}: {_NO_DIRECTORY}")
        for argv in [
            ("realize", "0", "4", "4"),
            ("realize", "0", "3", "1", "--null"),
            ("invariants", "--bundle", "1", "1", "2", "1"),
            ("enumerate", "--sigma-min", "-8", "--b1-max", "2"),
            ("verify", "--grid-max", "1"),
        ]
    ),
    _refusal(("realize", "0", "4", "4", "--out", "a\0b"), EXIT_IO_ERROR,
             "geographer: cannot write output to a\0b: embedded null byte"),
    _refusal(("realize", "0", "4", "0"), EXIT_VERIFY_FAILED,
             "geographer: certificate check failed: B(0,1,2;0): "
             "degeneracy_pairing_rank_matches_formula expected 0, observed 4", corrupt=True),
]


@pytest.mark.parametrize("argv, genus_floor, corrupt, exit_code, line", REFUSALS)
def test_each_refusal_is_one_stderr_line_and_its_exit_code(
    capsys, monkeypatch, tmp_path, argv, genus_floor, corrupt, exit_code, line
):
    out = str(tmp_path / "missing" / "out")
    if genus_floor is None:
        monkeypatch.delenv(GENUS_ENV, raising=False)
    else:
        monkeypatch.setenv(GENUS_ENV, genus_floor)
    if corrupt:
        original = circle_bundle.lefschetz_pairing

        def corrupted(data, tag):
            q = original(data, tag)
            return zeros(len(q), len(q[0]))

        monkeypatch.setattr(circle_bundle, "lefschetz_pairing", corrupted)
    argv = [arg.format(out=out) for arg in argv]
    assert run(capsys, *argv) == (exit_code, "", line.format(out=out) + "\n")
    assert not os.path.exists(out)


def _ints(low, high, n=1):
    """``n`` integers in [low, high] as argv text."""
    return st.lists(st.integers(low, high).map(str), min_size=n, max_size=n)


def _options(**choices):
    """Each option given or not, as ``--name value`` with a drawn value."""
    return st.tuples(
        *(st.one_of(st.just([]), values.map(lambda v, n=name: [f"--{n}", *v]))
          for name, values in choices.items())
    ).map(lambda given: [arg for option in given for arg in option])


def _flags(*flags):
    return st.lists(st.sampled_from(flags), unique=True, max_size=2)


_formats = st.sampled_from(["json", "tsv", "xml"]).map(lambda f: [f])
_unwritable = "--out=" + os.path.join(os.devnull, "out")

#: argv from the CLI grammar at sizes that finish in milliseconds:
#: |a| <= 64, b and c <= 12, a genus <= 64, a grid <= 3, small regions.
_commands = st.one_of(
    st.tuples(
        st.just(["realize"]), _ints(-64, 64), _ints(-3, 12, 2),
        _options(genus=_ints(-3, 64), format=_formats),
        _flags("--null", "--help", _unwritable),
    ),
    *(
        st.tuples(
            st.just(["invariants", f"--{kind}"]), _ints(-2, 12, arity - 1), _ints(-2, 64),
            _options(format=_formats), _flags("--help", _unwritable),
        )
        for kind, arity in [("bundle", 4), ("fibersum", 4), ("dolgachev", 5)]
    ),
    st.tuples(
        st.just(["enumerate", "--sigma-min"]), _ints(-24, 8), st.just(["--b1-max"]), _ints(-2, 6),
        _options(genus=_ints(-3, 64), format=_formats), _flags("--help", _unwritable),
    ),
    st.tuples(st.just(["verify", "--grid-max"]), _ints(-3, 3), _flags("--help", _unwritable)),
    st.lists(st.sampled_from(["bogus", "--help", "realize", "-8"]), max_size=3).map(lambda a: [a]),
).map(lambda parts: [arg for part in parts for arg in part])

#: Tokens that are no integer, or that argparse reads as an option.
_JUNK = ["x", "", "1.5", "0x10", "1e3", "+-2", "-", "--", "--bogus"]


@st.composite
def _argvs(draw):
    """argv from the grammar; half of them with one token replaced by junk."""
    argv = draw(_commands)
    if argv and draw(st.booleans()):
        argv[draw(st.integers(0, len(argv) - 1))] = draw(st.sampled_from(_JUNK))
    return argv


_genus_floors = st.one_of(
    st.none(),
    st.integers(-3, 64).map(str),
    st.sampled_from(["tall", "", "1.5", "0x3", "4 4", "-"]),
)


@given(_argvs(), _genus_floors)
def test_no_argv_ends_in_a_traceback(argv, genus_floor):
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop(GENUS_ENV, None)
        if genus_floor is not None:
            os.environ[GENUS_ENV] = genus_floor
        code = main(argv)
    assert code in {EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INADMISSIBLE, EXIT_OPEN, EXIT_USAGE,
                    EXIT_IO_ERROR}
    assert code in (EXIT_OK, EXIT_OPEN) or stdout.getvalue() == ""
    assert "Traceback" not in stderr.getvalue()


def test_cli_import_does_not_load_numpy():
    probe = "import sys, geographer.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cold_import_loads_no_dataclasses_fractions_inspect_json_numbers_or_array():
    # the records are NamedTuples, cli writes JSON itself, and linalg
    # imports fractions, numbers and array where they are used, so a CLI
    # start pays for none of these modules
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import geographer.cli; "
        "print(sorted({'dataclasses', 'fractions', 'inspect', 'json', 'numbers', 'array'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_compiles_no_forward_reference():
    # the NamedTuple records see evaluated annotations: a postponed one is
    # compiled into a typing.ForwardRef at class creation, on every start
    probe = (
        "import sys, typing; sys.path.insert(0, sys.argv[1]); refs = []; "
        "init = typing.ForwardRef.__init__; "
        "typing.ForwardRef.__init__ = lambda self, *a, **kw: (refs.append(a), init(self, *a, **kw))[1]; "
        "import geographer.cli; print(refs)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: A fresh interpreter that reaches the integral rule with ``numbers`` not
#: yet imported (``fractions`` imports it, so Fraction comes last), then
#: prints each refusal text and what a registered non-int Integral class
#: converts to.
_INTEGRAL_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from geographer import linalg, surfaces
print('numbers' in sys.modules)

def refusal(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)

def refusals(bad):
    print(refusal(lambda: linalg.to_matrix([[1, bad]])))
    print(refusal(lambda: surfaces.Twist((1, bad))))
    print(refusal(lambda: surfaces.Twist((0, 1), bad)))

refusals(1.0)
print('numbers' in sys.modules)
refusals(True)
from fractions import Fraction
refusals(Fraction(1, 2))

class Index:
    def __init__(self, n):
        self.n = n
    def __int__(self):
        return self.n
    def __repr__(self):
        return f"Index({self.n})"

print(refusal(lambda: linalg.to_matrix([[Index(5)]])))
import numbers
numbers.Integral.register(Index)
print(linalg.to_matrix([[Index(5), 1]]))
print(tuple(surfaces.Twist((Index(0), Index(1)), Index(2))))
"""


def test_integral_rule_imports_numbers_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _INTEGRAL_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    def refusals(bad):
        return [
            f"non-integer entry {bad} at (0, 1)",
            f"twist curve: non-integer entry {bad} at index 1",
            f"twist power: non-integer value {bad}",
        ]

    assert proc.stdout.splitlines() == [
        "False",
        *refusals("1.0"),
        "True",
        *refusals("True"),
        *refusals("Fraction(1, 2)"),
        "non-integer entry Index(5) at (0, 0)",
        "[[5, 1]]",
        "((0, 1), 2)",
    ]


def test_cold_import_builds_no_parser():
    # main builds the parser on its first call, so an import never pays for it
    probe = (
        "import argparse, sys; sys.path.insert(0, sys.argv[1]); built = []; "
        "init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: built.append(self) or init(self, *a, **k); "
        "import geographer.cli; imported = len(built); "
        "code = geographer.cli.main(['realize']); print(imported, code, len(built) > 0)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(EXIT_USAGE), "True"]


#: sha256 of stdout and the exit code of commands at the sizes the
#: benchmark runs, from the release before the canonical Wang bases were
#: certified without a Smith form; stderr is empty for each.
BYTE_CONTRACT = [
    (("verify", "--grid-max", "10"), 0,
     "279ce3b223aeb8b3f2ba9f02fd70eed3e5d7412a068282f925402ba8716cf30b"),
    (("enumerate", "--sigma-min", "-240", "--b1-max", "24"), 0,
     "873b08fe1d739f014faeb7ee101a1ef8a8138fe72e4c4e9ef07c1627c001d6d0"),
    (("realize", "0", "32", "32"), 0,
     "212da161f30e1b1f114d885f0ed1fb1e679788d900ae37569cae3fb855d20c80"),
    (("realize", "-400", "32", "0"), 0,
     "3f143ffeff5a66784bd2f2e695edc2c563bd500fd7c84984163b0b72dc331526"),
    (("realize", "0", "3", "1", "--null"), EXIT_OPEN,
     "1ed33a6025102273e3d95739877caa2f959a42fc539fb2e11ec2566b84d8bef0"),
    (("invariants", "--bundle", "0", "32", "32", "0"), 0,
     "c8735cf8753ad0c6ef1f20d2380db8c99fc8f47bcb032f38ee6d4b7d436c811b"),
    # every Euler tag, both output formats, the nullity search and both fiber sums
    (("invariants", "--bundle", "1", "3", "3", "2"), 0,
     "4409c971b3cec748771d028af930e72fe4fdad8ae7d4dd18c688d15dd5f0753d"),
    (("invariants", "--bundle", "2", "2", "3", "1", "--format", "tsv"), 0,
     "a2dd60bd8d22505a564f5a8024ee2a7af170cd3d147904b0f15bfa05f59b59fa"),
    (("realize", "0", "7", "3", "--format", "tsv"), 0,
     "09930e37e2bdb1418512a02adc3c951733e060c25f8e9c40ca91afe841192e87"),
    (("realize", "0", "5", "5"), 0,
     "4c4f0057500305fb035386455cd32cf8802d51736109c7300f53b5e3ea85ac8f"),
    (("realize", "0", "5", "2", "--null"), 0,
     "fd75b8068353797e4b4894f066a9b154abab03c293b5fd66505cb308c9dcb7c4"),
    (("invariants", "--fibersum", "3", "1", "2", "2"), 0,
     "667787c91ff2eee4e4df3a096736be25f4ac75b4aa342144935e6a9791fefdc3"),
    (("invariants", "--dolgachev", "2", "3", "2", "3", "3", "--format", "tsv"), 0,
     "bf0f9beb9741ae70e4862ec9c8d72214520cbbcfe6ac11cf7a1f16cd7613baf4"),
    # Dolgachev JSON: the recipe's p and q come first, from the fiber sum's base
    (("realize", "-8", "6", "2"), 0,
     "61b79378f3d0d6925dfe547a33c2066abd3689543b9bd4abafaf067687fb69d0"),
    # each nullity recipe: tag 0 with d = 1, tag 1 with d < k and with
    # d = k, and the fiber sum of b = 0
    (("realize", "0", "3", "0", "--null"), 0,
     "a0f07d7fe4c3f2c44d8319a26dd3f47560bf150c422ea30038e5312516718a3f"),
    (("realize", "0", "4", "1", "--null"), 0,
     "4c4783be21e6e89c2326b18232209fe0658410592ff42b17739095035efc83a9"),
    (("realize", "0", "6", "6", "--null"), 0,
     "e3516c79b7e5b4d1bc130fbaaeb643550918e8389163d06d29c58d79e0483e50"),
    (("realize", "-16", "0", "0", "--null"), 0,
     "991a6e399df7e51ee512c9d61756857a4512ca4991a9def9d1e916abefcd8b23"),
    # the zero-Euler-class family as JSON, and a genus floor above k
    (("realize", "0", "4", "0"), 0,
     "5e5a2fc9196336dca52aedf6ce071cc9936ab53663332cbd99910abc546c39b1"),
    (("realize", "0", "7", "3", "--genus", "9"), 0,
     "000c1e0d7a0f8ceb595942f736e75c61732d44a08c95ae6a33317ee737055b9e"),
    # the open-problem TSV line, a nullity recipe and a fiber sum as TSV,
    # the fiber-sum invariants row and an enumerated region as JSON
    (("realize", "0", "3", "1", "--null", "--format", "tsv"), EXIT_OPEN,
     "3eda63f337693491f7bf90de7e8a65fc63da686f03ff30cd704facd6893b2f43"),
    (("realize", "0", "4", "1", "--null", "--format", "tsv"), 0,
     "efe6b6089a324637823615e95289b43f393b24d0b0ae08dbd9678f57f9cd1292"),
    (("realize", "-16", "3", "1", "--format", "tsv"), 0,
     "f0d438d45d15fb7b4fb92e0b5590447ae491797a6bfc6ceb922d48e5363a876d"),
    (("invariants", "--fibersum", "3", "1", "2", "2", "--format", "tsv"), 0,
     "9529b44f27c760e76ffcbd41fd3af2b11c3776dc28ecf23c8ea661be4368da53"),
    (("enumerate", "--sigma-min", "-24", "--b1-max", "6", "--format", "json"), 0,
     "3feb6186fc7740c218bd4857a486c5602217082a4207ba91927760935e2f0c7e"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", BYTE_CONTRACT, ids=[" ".join(c[0]) for c in BYTE_CONTRACT]
)
def test_stdout_bytes_at_benchmark_sizes(capsys, argv, exit_code, digest):
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (exit_code, digest, "")


#: Characters a JSON writer must escape or pass, each drawn often: the two
#: escaped ASCII marks, control characters, DEL, non-ASCII, non-BMP and
#: lone surrogates.
_json_chars = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ud800\udfff\U0001f600\U0010ffff'),
    st.characters(max_codepoint=0x7F),
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0x10000),
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.text(_json_chars),
)
_json_documents = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(_json_chars), inner, max_size=4),
    max_leaves=24,
)


@given(_json_documents)
def test_json_writer_gives_the_stdlib_bytes(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [1.5, {"a": [0.0]}, {1: 2}, {None: 1}, {True: 1}, {"a": {(1,): 2}}, (1, 2), [b"x"]],
    ids=["float", "nested-float", "int-key", "none-key", "bool-key", "tuple-key", "tuple", "bytes"],
)
def test_json_writer_refuses_floats_and_non_str_keys(doc):
    with pytest.raises(TypeError):
        cli._json(doc)
