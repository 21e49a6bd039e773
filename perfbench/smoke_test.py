"""Smoke test for the benchmark: every workload at p = 11 or 13.

    python3 -m pytest -q perfbench/smoke_test.py

Runs each workload once untraced and twice traced with the same seed, through
run.main, with the primes swapped for tiny ones.  Checks that the outputs are
correct, that the metric names and units are exactly those BENCHMARK.json
declares, that the traced counts repeat exactly, and that the benchmark
refuses to run without the program's sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY_BINS = {
    "enum-cold": [[11, 13]],
    "enum-warm": [[13]],
    "exists-sweep": [[13], [11]],   # one prime = 1 mod 6, one = 5 mod 6
    "cross-check": [[11], [13]],
}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(monkeypatch, workload: str, seed: int, trace: int) -> dict:
    monkeypatch.setattr(run, "BINS", TINY_BINS)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_workloads_match_the_spec():
    assert sorted(run.BINS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(TINY_BINS) == sorted(run.BINS)
    assert sorted(run.WHY) == sorted(run.BINS)


@pytest.mark.parametrize("workload", sorted(TINY_BINS))
def test_untraced_metrics(monkeypatch, workload):
    metrics = _run(monkeypatch, workload, 7, 0)
    assert {k: m["unit"] for k, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", sorted(TINY_BINS))
def test_traced_counts_repeat(monkeypatch, workload):
    first = _run(monkeypatch, workload, 7, 1)
    second = _run(monkeypatch, workload, 7, 1)
    assert {k: m["unit"] for k, m in first.items()} == _units("per_layer")
    counts = {k for k, m in first.items() if m["unit"] == "count"}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["cli.stdout_bytes"] == second["cli.stdout_bytes"]


def test_traced_layers_see_their_work(monkeypatch):
    cold = _run(monkeypatch, "enum-cold", 3, 1)
    assert cold["genus2.classes"]["value"] > 0
    assert cold["genus2.richelot_codomains.calls"]["value"] > 0
    assert cold["strategies.fits.raw"]["value"] > 0
    cross = _run(monkeypatch, "cross-check", 3, 1)
    assert cross["strategies.howe_type_points.calls"]["value"] > 0
    assert cross["howe.howe_isomorphic.calls"]["value"] > 0
    sweep = _run(monkeypatch, "exists-sweep", 3, 1)
    assert sweep["ellcurve.supersingular_lambda_set.calls"]["value"] > 0
    assert sweep["arith.divmod.quotient_terms"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "cross-check", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
