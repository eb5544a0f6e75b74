"""Whole-pipeline relations: input changes that must not change a link result."""

from __future__ import annotations

import json
import random

import pytest

from relink import kg, text
from relink.cli import RunConfig, build_linker, data_path
from relink.evaluate import load_gold

from .oracles import disjoint_triples, ntriples_line


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


def test_disjoint_predicates_do_not_change_results(tmp_path, bundled_results):
    """A predicate that shares no token with any phrase or explanation
    scores at most EDIT_WEIGHT (0.3), below the default threshold of
    0.6, however close its spelling."""
    explanations = json.loads(data_path("explanations.json").read_text("utf-8"))
    vocabulary = {
        token
        for words in [*explanations, *explanations.values(), *_phrases()]
        for token in text.tokenize(words)
    }
    bundled = kg.load(data_path("family_geo.nt"))
    extra = disjoint_triples(random.Random(7), vocabulary, sorted(bundled.entity_set), 300, 600)
    labels = {text.tokenize_name(kg.local_name(t.predicate)) for t in extra}
    tokens = {token for label in labels for token in label}
    assert len(labels) >= 290 and tokens.isdisjoint(vocabulary)
    assert any(text.edit_similarity(t, w) >= 0.8 for t in tokens for w in vocabulary)
    lines = data_path("family_geo.nt").read_text("utf-8").splitlines()
    graph = tmp_path / "disjoint.nt"
    graph.write_text("\n".join(lines + [ntriples_line(t) for t in extra]) + "\n", "utf-8")
    results = _results(RunConfig(kg=str(graph)))
    assert len(results) == 31
    assert results == bundled_results
