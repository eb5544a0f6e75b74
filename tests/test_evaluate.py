from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relink import classify, evaluate as ev, kg
from relink.cli import data_path
from relink.linking import GraphLabels
from relink.patterns import MetaPattern, SubgraphPattern, instantiate
from relink.text import tokenize

EX = "http://example.org/ontology/"
FOAF = "http://xmlns.com/foaf/0.1/"


def P(*edges, types=None):
    return SubgraphPattern.make(edges, types)


MIL = P(("x", EX + "spouse", "z"), ("z", EX + "mother", "y"))


def test_score_exact_match():
    assert ev.score(MIL, MIL) == (1.0, 1.0, 1.0)
    assert ev.exact_match(MIL, MIL)


def test_score_partial_rp1_vs_two_edges():
    predicted = P(("x", EX + "mother", "y"))
    p, r, f1 = ev.score(predicted, MIL)
    assert (p, r) == (1.0, 0.5)
    assert f1 == pytest.approx(2 / 3)
    assert not ev.exact_match(predicted, MIL)


def test_score_no_match():
    assert ev.score(None, MIL) == (0.0, 0.0, 0.0)


def test_score_requires_nonempty_gold():
    with pytest.raises(Exception):
        ev.score(MIL, None)  # type: ignore[arg-type]


def test_score_invariant_under_renaming():
    rng = random.Random(3)
    variables = list(MIL.variables())
    for _ in range(10):
        perm = variables[:]
        rng.shuffle(perm)
        renamed = MIL.rename(dict(zip(variables, perm)))
        assert ev.score(renamed, MIL) == (1.0, 1.0, 1.0)
        assert ev.score(MIL, renamed) == (1.0, 1.0, 1.0)


def test_score_rp4_edge_order_irrelevant():
    a = P(("z", EX + "country", "x"), ("z", FOAF + "gender", "y"))
    b = P(("z", FOAF + "gender", "x"), ("z", EX + "country", "y"))
    assert ev.score(a, b) == (1.0, 1.0, 1.0)


def test_score_multiset_edges_not_double_counted():
    # two predicted spouse edges cannot both claim the single gold edge
    predicted = P(("x", EX + "spouse", "z"), ("y", EX + "spouse", "z"))
    gold = P(("a", EX + "spouse", "b"))
    p, r, f1 = ev.score(predicted, gold)
    assert (p, r) == (0.5, 1.0)


def test_score_wrong_shape_partial_credit():
    chain = P(("x", EX + "country", "z"), ("z", FOAF + "gender", "y"))
    diverging = P(("z", EX + "country", "x"), ("z", FOAF + "gender", "y"))
    p, r, _ = ev.score(chain, diverging)
    assert (p, r) == (0.5, 0.5)


# -- baselines -----------------------------------------------------------------


def test_keyword_match_compound_misses(family_labels):
    assert ev.keyword_match("mother-in-law", family_labels) is None


def test_keyword_match_simple_hits(family_labels):
    sp = ev.keyword_match("founder", family_labels)
    assert [(e.rel) for e in sp.edges] == [EX + "founder"]


def test_keyword_match_wordless_phrase_misses():
    # the predicate's local name "_" tokenizes to no words, like "?!"
    g = kg.load(["<http://x.org/a> <http://x.org/_> <http://x.org/b> ."])
    assert ev.keyword_match("?!", GraphLabels.of(g)) is None


def _keyword_reference(phrase, labels):
    """RP1 over the predicate whose label tokens equal the phrase's."""
    iri = labels.relation_keys.get(tuple(tokenize(phrase)))
    return None if iri is None else instantiate(MetaPattern.RP1, [iri])


def _corpus_phrases() -> list[str]:
    """Gold, harvest and golden-file phrases, lexicon surfaces (which
    ``keyword_match`` must not use) and the bundled predicate labels."""
    golden = Path(__file__).parent / "golden"
    phrases = {e.phrase for e in ev.load_gold(data_path("gold.jsonl"))}
    phrases.update(data_path("phrases.txt").read_text("utf-8").splitlines())
    for path in (data_path("training.jsonl"), golden / "harvest_k10.jsonl"):
        phrases.update(ex.phrase for ex in classify.load_examples(path))
    for name in ("link_patterns.json", "link_traces.json"):
        phrases.update(json.loads((golden / name).read_text("utf-8")))
    phrases.update(json.loads(data_path("lexicon.json").read_text("utf-8")))
    return sorted(phrases)


def test_keyword_match_is_label_lookup_on_corpus(family_labels):
    phrases = _corpus_phrases()
    for label in family_labels.relation_labels.values():
        phrases.append(" ".join(label))
    hits = 0
    for phrase in phrases:
        want = _keyword_reference(phrase, family_labels)
        assert ev.keyword_match(phrase, family_labels) == want, phrase
        hits += want is not None
    assert hits >= len(family_labels.relation_labels)


@settings(max_examples=300, deadline=None)
@given(
    phrase=st.lists(
        st.sampled_from(
            ["founder", "birth", "place", "Mother", "wife", "person", "-", "_", "?", "of"]
        )
        | st.text(max_size=4),
        max_size=4,
    ).map(" ".join)
)
def test_keyword_match_is_label_lookup(family_labels, phrase):
    assert ev.keyword_match(phrase, family_labels) == _keyword_reference(phrase, family_labels)


def test_similarity_search_always_answers(family_labels):
    sp = ev.similarity_search("mother-in-law", family_labels)
    assert sp is not None and len(sp.edges) == 1
    # highest token overlap is the single-edge mother predicate
    assert sp.edges[0].rel == EX + "mother"


def test_data_driven_baseline_mother_in_law(linker):
    sp = ev.data_driven("mother-in-law", linker)
    assert {(e.src, e.rel, e.dst) for e in sp.edges} == {
        ("x", EX + "spouse", "z"),
        ("z", EX + "mother", "y"),
    }


def test_data_driven_baseline_nested_blind(linker):
    # without nesting the explanation yields one relation: no answer
    assert ev.data_driven("great-grandparent", linker) is None


def test_run_baseline_unknown_method(linker):
    with pytest.raises(ValueError):
        ev.run_baseline("magic", "x", linker)


# -- full evaluation -----------------------------------------------------------


@pytest.fixture(scope="module")
def gold_set():
    return ev.load_gold(data_path("gold.jsonl"))


def test_evaluate_worked_examples_perfect(linker, gold_set):
    subset = [
        g for g in gold_set
        if g.phrase in ("mother-in-law", "grandparent", "great-grandparent", "sportsman")
    ]
    report = ev.evaluate(subset, ["our_approach"], linker)
    method = report.method("our_approach")
    assert method.f1 == 1.0
    assert method.exact_rate == 1.0


def test_evaluate_keyword_precision_near_zero(linker, gold_set):
    report = ev.evaluate(gold_set, ["keyword_match"], linker)
    assert report.method("keyword_match").precision == 0.0


def test_evaluate_rejects_repeated_method(linker, gold_set):
    with pytest.raises(ValueError, match="method listed more than once: 'keyword_match'"):
        ev.evaluate(gold_set, ["keyword_match", "keyword_match"], linker)


def test_evaluate_empty_methods(linker, gold_set):
    report = ev.evaluate(gold_set, [], linker)
    assert report.methods == []
    assert report.notes  # the omitted-backend note is always present


def test_evaluate_requires_gold(linker):
    with pytest.raises(ValueError):
        ev.evaluate([], ["keyword_match"], linker)


def test_evaluate_macro_f1_bounds(linker, gold_set):
    report = ev.evaluate(gold_set, list(ev.METHODS), linker)
    for method in report.methods:
        assert 0.0 <= method.f1 <= 1.0
        assert 0.0 <= method.precision <= 1.0
        assert 0.0 <= method.recall <= 1.0
        if method.f1 == 1.0:
            assert all(s.f1 == 1.0 for s in method.per_phrase)


def test_report_json_stable(linker, gold_set):
    a = ev.evaluate(gold_set, ["keyword_match", "our_approach"], linker)
    b = ev.evaluate(gold_set, ["keyword_match", "our_approach"], linker)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_render_text_contains_methods(linker, gold_set):
    report = ev.evaluate(gold_set, ["keyword_match"], linker)
    text = report.render_text()
    assert "keyword_match" in text
    assert "note:" in text


# -- classification metrics and ablation ----------------------------------------


def test_classification_metrics_handmade():
    gold = [MetaPattern.RP2, MetaPattern.RP2, MetaPattern.RP3]
    predicted = [MetaPattern.RP2, MetaPattern.RP4, MetaPattern.RP3]
    m = ev.classification_metrics(gold, predicted)
    # precision averages over predicted classes: RP2 1/1, RP3 1/1, RP4 0/1
    assert m.precision == pytest.approx((1.0 + 1.0 + 0.0) / 3)
    # recall averages over gold classes: RP2 1/2, RP3 1/1
    assert m.recall == pytest.approx((0.5 + 1.0) / 2)
    assert m.accuracy == pytest.approx(2 / 3)


def test_classification_metrics_single_class_gold():
    gold = [MetaPattern.RP2, MetaPattern.RP2]
    predicted = [MetaPattern.RP2, MetaPattern.RP3]
    m = ev.classification_metrics(gold, predicted)
    assert m.recall == 0.5  # well-defined over the one gold class
    assert m.precision == pytest.approx((1.0 + 0.0) / 2)


def _ablation_split(training_examples):
    manual = [e for e in training_examples if e.origin == "manual"]
    return manual[:54], manual[54:]


def test_ablation_masked_not_worse(training_examples):
    train_set, test_set = _ablation_split(training_examples)
    report = ev.ablate_masking(train_set, test_set)
    assert report.masked.f1 >= report.unmasked.f1


def test_ablation_deterministic(training_examples):
    train_set, test_set = _ablation_split(training_examples)
    a = ev.ablate_masking(train_set, test_set, seed=42)
    b = ev.ablate_masking(train_set, test_set, seed=42)
    assert a.to_json() == b.to_json()


def test_gold_file_round_trip(tmp_path, gold_set):
    path = tmp_path / "gold.jsonl"
    ev.save_gold(gold_set, path)
    assert ev.load_gold(path) == gold_set


@pytest.mark.parametrize(
    "line, reason",
    [(b"{not json", "Expecting"),
     (b"[1]", "not a JSON object"),
     (b'{"phrase": "son"}', "missing key 'gold_pattern'"),
     (b'{"phrase": "son", "gold_pattern": {"edges": [{"src": "x"}]}}', "missing key 'rel'"),
     (b'{"phrase": "son", "gold_pattern": {"edges": []}}', "at least one edge")],
    ids=["not-json", "not-object", "missing-key", "missing-edge-key", "no-edges"],
)
def test_load_gold_names_file_and_line(tmp_path, gold_set, line, reason):
    path = tmp_path / "gold.jsonl"
    good = json.dumps(gold_set[0].to_json()).encode()
    path.write_bytes(good + b"\n\n" + line + b"\n" + good + b"\n")
    with pytest.raises(kg.DataError, match=reason) as err:
        ev.load_gold(path)
    assert str(err.value).startswith(f"{path} line 3: ")


def test_timing_interleaves_methods(linker, monkeypatch):
    """One warm-up pass per method, then rounds that each run one pass of
    every method in the requested order, so a slow spell hits all alike."""
    gold = ev.load_gold(data_path("gold.jsonl"))[:2]
    methods = ["our_approach", "keyword_match", "data_driven"]
    calls = []

    def recording(method, phrase, linker):
        calls.append((method, phrase))
        return None

    monkeypatch.setattr(ev, "run_baseline", recording)
    report = ev.evaluate(gold, methods, linker, timing=True, timing_reps=3)

    def one_pass_each():
        return [(m, e.phrase) for m in methods for e in gold]

    scoring, warm_up, rounds = one_pass_each(), one_pass_each(), one_pass_each() * 3
    assert calls == scoring + warm_up + rounds
    for m in report.methods:
        assert m.mean_time is not None and m.mean_time >= 0
        assert m.time_variance is not None and m.time_variance >= 0
