"""The scripts under scripts/ run end to end at tiny sizes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from geographer.circle_bundle import valid_tags

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_bundle_table_prints_its_header_and_every_case():
    proc = run_script("bundle_table.py", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "d\tk\tg\te\tb1\trank_Q\tdegeneracy\tnullity\tkappa"
    cases = [
        (d, k, g, tag)
        for g in (1, 2) for k in range(g + 1) for d in range(k + 1) for tag in valid_tags(d, k)
    ]
    assert [tuple(map(int, line.split("\t")[:4])) for line in lines[1:]] == cases


def test_bundle_table_bytes_are_pinned():
    proc = run_script("bundle_table.py", "6")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "0d2c9b4547300e65842ecdb25b5ef70ba503b40a7e07e89fea176a9ff9ec5f47"
    )


def test_geography_atlas_realizes_the_region_and_passes_its_sweep():
    proc = run_script("geography_atlas.py", "-16", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "25 admissible triples realized" in lines
    assert lines[-1].startswith("verification sweep over ") and lines[-1].endswith(": PASS")


def test_bench_scaling_writes_one_record_per_size_of_each_ladder(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script(
        "bench_scaling.py", "--out", str(out), "--samples", "1",
        "--dense-max", "3", "--audit-max", "4", "--grid-max", "3", "--cold-max", "8",
        "--enumerate-max", "16",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert {"python", "git_rev", "git_dirty", "host", "time_unit", "layers"} <= set(doc)
    sizes = {"compose_word": ("g", [2, 3]), "wang_cohomology": ("g", [2, 3]), "audit_bundle": ("g", [2, 4]),
             "verify_bundle_grid": ("G", [2, 3]), "cli_cold_start": ("g", [4, 8]),
             "enumerate": ("-sigma_min", [2, 4, 8, 16])}
    assert set(doc["layers"]) == set(sizes)
    for name, (parameter, ladder) in sizes.items():
        layer = doc["layers"][name]
        assert layer["size"] == parameter and isinstance(layer["slope"], float)
        assert [record["size"] for record in layer["records"]] == ladder
        # a cold-start sample is one import and one call, timed apart
        extra = {"import_median_s"} if name == "cli_cold_start" else set()
        for record in layer["records"]:
            fields = {"size", "median_s", "n", "calls_per_sample", "peak_rss_mb"}
            assert set(record) == fields | extra
            assert record["n"] == 1 and record["calls_per_sample"] >= 1
            assert record["median_s"] > 0 and record["peak_rss_mb"] > 0
            assert all(record[field] > 0 for field in extra)
    assert all(r["calls_per_sample"] == 1 for r in doc["layers"]["cli_cold_start"]["records"])
