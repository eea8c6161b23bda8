"""Smoke test of the benchmark itself: every workload at a tiny size.

    python -m pytest bench/test_smoke.py

Each run, with ``--seconds 0``, makes one attempt.  It must print, as its
last line, the result object with every metric BENCHMARK.json names for
that mode, and must have checked the returned reconstruction against the
truth.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    prefix = f"# {workload} "
    summary = json.loads(next(l for l in lines if l.startswith(prefix))[len(prefix):])
    assert summary["ok"] + summary["wrong"] == 1  # the result check ran
    assert result["failed"] == summary["broken"]
    if trace == "1":
        assert summary["spans_consistent"] and summary["outcomes_unchanged_by_tracing"]
    else:
        assert len(summary["setup_samples_s"]) > 1  # this process and the probes


def import_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("harness")


def test_run_spec_half_of_cli_roundtrip(tmp_path, monkeypatch):
    """The one attempt above is simulate-then-run; this checks the other
    half of cli_roundtrip, one ``run --spec`` call."""
    harness = import_harness(monkeypatch)
    attempt = harness.make_attempt(harness.WORKLOADS["cli_roundtrip"], 1, 1)
    assert attempt.mode == "run_spec"
    outcome = harness.run_cli(attempt, tmp_path / "attempt")
    harness.check(attempt, outcome)
    assert outcome.status == "ok", outcome


@pytest.mark.parametrize("raised, broken", [
    ("ChainTomoError", False),  # the package declined the input
    ("ValueError", True),  # escaped the package's error taxonomy
])
def test_only_untyped_errors_count_as_failed(monkeypatch, raised, broken):
    harness = import_harness(monkeypatch)
    attempt = harness.make_attempt(harness.WORKLOADS["short_chain"], 1, 0)
    exc = {"ChainTomoError": harness.ChainTomoError("declined", stage="invert"),
           "ValueError": ValueError("bug")}[raised]

    def run_tomography(*args, **kwargs):
        raise exc

    monkeypatch.setattr(harness.tomography, "run_tomography", run_tomography)
    outcome = harness.run_library(attempt)
    harness.check(attempt, outcome)
    assert outcome.status == "failed"
    assert outcome.broken is broken
    assert harness.summarize([outcome])["broken"] == int(broken)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
