"""Whole-pipeline relations: input changes that must not change a link result."""

from __future__ import annotations

import json
import random

import pytest

from relink.cli import RunConfig, build_linker, data_path
from relink.evaluate import load_gold


def _phrases() -> list[str]:
    phrases = {e.phrase for e in load_gold(data_path("gold.jsonl"))}
    phrases.update(
        p.strip() for p in data_path("phrases.txt").read_text("utf-8").splitlines()
    )
    return sorted(phrases - {""})


def _results(cfg: RunConfig) -> dict[str, str]:
    """Each phrase's whole ``LinkResult`` as JSON text, trace included."""
    linker = build_linker(cfg)
    return {
        phrase: json.dumps(linker.link(phrase).to_json(), sort_keys=True)
        for phrase in _phrases()
    }


@pytest.fixture(scope="module")
def bundled_results() -> dict[str, str]:
    return _results(RunConfig())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_line_order_and_duplicates_do_not_change_results(tmp_path, bundled_results, seed):
    rng = random.Random(seed)
    lines = data_path("family_geo.nt").read_text("utf-8").splitlines()
    lines += [f"  {line}\t" for line in rng.sample(lines, len(lines) // 3)]
    lines += ["", "# comment", "   ", "\t# indented comment"]
    rng.shuffle(lines)
    graph = tmp_path / "shuffled.nt"
    graph.write_text("\n".join(lines) + "\n", "utf-8")
    results = _results(RunConfig(kg=str(graph)))
    assert len(results) == 31
    assert results == bundled_results
