"""Smoke test of the benchmark itself, at tiny sizes and run lengths.

    python3 -m pytest bench/test_bench.py

It checks that every metric BENCHMARK.json names is printed with its
unit, that the output checks are live (a corrupted expectation raises
the error ratio above 0), and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
SEED = 3
SECONDS = 0.05  # one pass or one call


def tiny(workload: str, trace: bool = False, expected: dict | None = None) -> dict:
    return run.run_workload(workload, SEED, SECONDS, trace, size="tiny", expected=expected)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = tiny(workload, trace)
    lines = capsys.readouterr().out.splitlines()
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(re.fullmatch(rf"\s+{re.escape(name)}\s+\S+ {re.escape(unit)}", line)
                   for line in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_golden_pattern_is_a_failure(monkeypatch):
    golden = run.load_golden()
    golden["son"] = golden["brother"]
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    result = tiny("gold-warm")
    assert result["failed"] > 0 and not result["correct"]


def test_wrong_deep_graph_digest_is_a_failure():
    expected = run.load_expected()
    expected["deep-graph@tiny"]["phrase_digests"]["uncle"] = "0" * 16
    result = tiny("deep-graph", expected=expected)
    assert result["failed"] > 0 and not result["correct"]


def test_wrong_ingest_output_is_a_failure(monkeypatch):
    expected = run.load_expected()
    expected["ingest@tiny"]["counts"]["triples"] += 1
    real_counts = run.gen.counts
    monkeypatch.setattr(run.gen, "counts",
                        lambda lines: {**real_counts(lines), "triples": real_counts(lines)["triples"] + 1})
    result = tiny("ingest", expected=expected)
    # the generator check passes; every ingest call prints a count that differs
    assert result["failed"] >= 2 and result["failed"] == result["attempted"] - 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gold-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
