from __future__ import annotations

import json
from pathlib import Path

import pytest

from relink import kg, linking
from relink.assemble import PERMISSIVE, STRICT, LinkConfig, Linker, link_data_driven
from relink.cli import data_path
from relink.explain import ExplanationService, FixtureProvider
from relink.linking import MetaElements, PseudoRelation, RelationHit, Span
from relink.patterns import MetaPattern, SubgraphPattern, has_instance, source_sink

EX = "http://example.org/ontology/"
FOAF = "http://xmlns.com/foaf/0.1/"
RES = "http://example.org/resource/"
GOLDEN = Path(__file__).parent / "golden"


def edges_of(pattern: SubgraphPattern):
    return [(e.src, e.rel, e.dst) for e in pattern.edges]


def test_link_mother_in_law(linker):
    result = linker.link("mother-in-law")
    assert result.matched
    assert edges_of(result.pattern) == [
        ("x", EX + "spouse", "z"),
        ("z", EX + "mother", "y"),
    ]
    assert result.pattern.type_map() == {
        "z": EX + "Person",
        "y": EX + "Person",
    }
    # the sentence-order candidate was tried and rejected before the swap
    candidates = [s for s in result.trace if s["step"] == "candidate"]
    assert candidates[0]["accepted"] is False
    assert candidates[0]["order"][0].endswith("mother")
    assert candidates[1]["accepted"] is True


def test_link_founder_direct_rp1(linker):
    result = linker.link("founder")
    assert result.matched
    assert edges_of(result.pattern) == [("x", EX + "founder", "y")]
    assert result.depth == 0
    assert result.trace[0]["step"] == "direct-match"


def test_link_unknown_phrase_no_match(linker):
    result = linker.link("xyzzy")
    assert not result.matched
    assert [s["step"] for s in result.trace] == ["explanation-miss"]


def test_link_single_relation_sentence(linker):
    # "mom" explains to "a mother": one relation, single-edge answer
    result = linker.link("mom")
    assert edges_of(result.pattern) == [("x", EX + "mother", "y")]


def test_link_single_relation_with_type_restriction(family_graph, lexicon, classifier):
    explainer = ExplanationService(
        [FixtureProvider({"maternal figure": "the mother of a person"})]
    )
    linker = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    result = linker.link("maternal figure")
    assert edges_of(result.pattern) == [("x", EX + "mother", "y")]
    assert result.pattern.type_map() == {"y": EX + "Person"}


def test_link_no_relations_in_explanation(family_graph, lexicon, classifier):
    explainer = ExplanationService(
        [FixtureProvider({"gubbins": "a very nice thing indeed"})]
    )
    linker = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    result = linker.link("gubbins")
    assert not result.matched
    assert any(
        s["step"] == "no-match" and "no relations" in s["reason"]
        for s in result.trace
    )


def test_link_grandparent_chain(linker):
    result = linker.link("grandparent")
    assert edges_of(result.pattern) == [
        ("x", EX + "parent", "z"),
        ("z", EX + "parent", "y"),
    ]


def test_link_great_grandparent_three_edges(linker):
    result = linker.link("great-grandparent")
    assert edges_of(result.pattern) == [
        ("x", EX + "parent", "z"),
        ("z", EX + "parent", "v1"),
        ("v1", EX + "parent", "y"),
    ]
    assert result.depth == 2
    assert any(s["step"] == "nested-phrase" for s in result.trace)


def test_link_uncle_via_nested_brother(linker):
    result = linker.link("uncle")
    assert edges_of(result.pattern) == [
        ("x", EX + "parent", "z"),
        ("z", EX + "relative", "v1"),
        ("v1", FOAF + "gender", "y"),
    ]


def test_link_countrywoman_diverging(linker):
    result = linker.link("countrywoman")
    assert result.matched
    got = set(edges_of(result.pattern))
    assert got == {
        ("z", FOAF + "gender", "x"),
        ("z", EX + "country", "y"),
    }


def test_link_strict_results_always_instantiate(linker, family_graph):
    for phrase in ("mother-in-law", "grandparent", "uncle", "sportsman", "homeland"):
        result = linker.link(phrase)
        assert result.matched
        assert has_instance(family_graph, result.pattern)


def test_link_candidate_budget(linker):
    for phrase in ("mother-in-law", "sportsman", "son", "countrywoman"):
        result = linker.link(phrase)
        candidates = [s for s in result.trace if s["step"] == "candidate"]
        assert len(candidates) <= 4


def test_link_deterministic_including_trace(family_graph, lexicon, classifier):
    def fresh_linker():
        explainer = ExplanationService(
            [FixtureProvider("src/relink/data/explanations.json")]
        )
        return Linker(family_graph, explainer, lexicon, classifier, LinkConfig())

    a = fresh_linker().link("great-grandmother")
    b = fresh_linker().link("great-grandmother")
    assert a.to_json() == b.to_json()


def test_link_stepmother_fails_unspliceable(linker):
    result = linker.link("stepmother")
    assert not result.matched
    reasons = [s.get("reason") for s in result.trace if s["step"] == "candidate"]
    assert "unspliceable nested pattern" in reasons


def test_link_co_sister_known_failure(linker):
    result = linker.link("co-sister")
    assert not result.matched
    # the nested brother phrase itself resolved fine
    nested = [s for s in result.trace if s["step"] == "nested-phrase"]
    assert any(s["phrase"] == "brother" for s in nested)


@pytest.mark.parametrize(
    "phrase, nested_plans, ends", [("great-grandmother", 2, 1), ("co-sister", 8, 2)]
)
def test_nested_ends_found_once_per_pair(linker, monkeypatch, phrase, nested_plans, ends):
    """The source and sink of a nested pattern are found once for each
    nested pattern, when its pseudo-relation is made, not once for each
    candidate plan that holds it. great-grandmother tries the nested
    grandparent pattern in the two RP2 orders of one pair. co-sister tries
    the folded spouse pattern, which has two sinks and so cannot be
    spliced, with the nested brother pattern in all four plans of one
    pair."""
    calls = []
    real = linking.source_sink

    def counted(sp):
        calls.append(sp)
        return real(sp)

    monkeypatch.setattr(linking, "source_sink", counted)
    result = linker.link(phrase)
    orders = [s["order"] for s in result.trace if s["step"] == "candidate"]
    assert sum(name.startswith("nested:") for o in orders for name in o) == nested_plans
    assert len(calls) == ends


@pytest.mark.parametrize("phrase, folds, ends", [("chainword", 2, 1), ("parentline", 3, 2)])
def test_fold_ends_found_only_for_pairs_that_follow(
    family_graph, lexicon, classifier, monkeypatch, phrase, folds, ends
):
    """Every accepted pair of a fold over three or more mentions records a
    fold step, but only a pair that another pair follows becomes a
    pseudo-relation, so its ends are found: chainword folds twice and
    parentline three times."""
    calls = []
    real = linking.source_sink

    def counted(sp):
        calls.append(sp)
        return real(sp)

    monkeypatch.setattr(linking, "source_sink", counted)
    explainer = ExplanationService([FixtureProvider(FOLD_SENTENCES)])
    linker = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    result = linker.link(phrase)
    assert result.matched
    assert sum(s["step"] == "fold" for s in result.trace) == folds
    assert len(calls) == ends


def test_pseudo_relation_ends_leave_equality_alone(linker):
    grandparent = linker.link("grandparent").pattern
    a = PseudoRelation("grandparent", grandparent)
    b = PseudoRelation("grandparent", SubgraphPattern.from_json(grandparent.to_json()))
    assert a == b and hash(a) == hash(b)
    assert a.ends == source_sink(grandparent) == ("x", "y")
    assert "ends" not in repr(a)
    # co-sister's fold is two spouse edges from one subject: two sinks
    fold = next(s for s in linker.link("co-sister").trace if s["step"] == "fold")
    folded = SubgraphPattern.from_json(fold["pattern"])
    assert source_sink(folded) is None
    assert PseudoRelation("(fold)", folded).ends is None


def test_recursion_depth_cap(family_graph, lexicon, classifier):
    explanations = {
        "matryoshka": "a doll inside a bigger matryoshka",
        "doll": "a toy figure of a matryoshka",
    }
    explainer = ExplanationService([FixtureProvider(explanations)])
    linker = Linker(
        family_graph, explainer, lexicon, classifier, LinkConfig(max_recursion_depth=2)
    )
    result = linker.link("matryoshka")
    assert not result.matched
    assert result.depth <= 2


def test_cycle_guard_self_referential_explanation(family_graph, lexicon, classifier):
    explainer = ExplanationService(
        [FixtureProvider({"ouroboros": "an ouroboros eating an ouroboros"})]
    )
    linker = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    result = linker.link("ouroboros")  # must terminate
    assert not result.matched


def test_permissive_mode_waives_validation(family_graph, lexicon, classifier):
    # the fixture has no mother->spouse chain, so strict rejects the
    # sentence-order candidate; permissive takes it as-is
    explainer = ExplanationService(
        [FixtureProvider({"motherwife": "the mother of a person's spouse"})]
    )
    linker = Linker(
        family_graph, explainer, lexicon, classifier,
        LinkConfig(validation="permissive"),
    )
    result = linker.link("motherwife")
    assert result.matched
    assert edges_of(result.pattern)[0][1] == EX + "mother"
    assert any(s["step"] == "validation-waived" for s in result.trace)


def test_permissive_identity_substitution_waives_once(family_graph, lexicon, classifier):
    """A sentence whose only relation is a nested pattern returns that
    pattern as linked: it is not validated again, so the permissive trace
    waives it once, in the nested link."""
    explainer = ExplanationService(
        [FixtureProvider({"elder": "a grandparent"}),
         FixtureProvider(data_path("explanations.json"))]
    )
    linker = Linker(
        family_graph, explainer, lexicon, classifier,
        LinkConfig(validation="permissive"),
    )
    result = linker.link("elder")
    assert [e[1] for e in edges_of(result.pattern)] == [EX + "parent", EX + "parent"]
    steps = [s["step"] for s in result.trace]
    assert steps.count("validation-waived") == 1
    assert steps[-2:] == ["elements", "single-relation"]
    assert result.trace[-1]["nested"] == "grandparent"


def test_fallback_rescues_misclassification(family_graph, lexicon, classifier):
    # a classifier stuck on RP2 still links countrywoman through the
    # shape fallback
    class StubRP2:
        def predict(self, ms):
            return MetaPattern.RP2, 1.0

    explainer = ExplanationService(
        [FixtureProvider("src/relink/data/explanations.json")]
    )
    linker = Linker(family_graph, explainer, lexicon, StubRP2(), LinkConfig())
    rescued = linker.link("countrywoman")
    assert rescued.matched
    assert set(edges_of(rescued.pattern)) == {
        ("z", FOAF + "gender", "x"),
        ("z", EX + "country", "y"),
    }
    # both RP2 orders fail in the graph before the fallback's RP4 holds
    tried = [(s["meta_pattern"], s["accepted"])
             for s in rescued.trace if s["step"] == "candidate"]
    assert tried == [("RP2", False), ("RP2", False), ("RP4", True)]


@pytest.mark.parametrize("predicted, expected", [
    ("RP2", ["RP2", "RP2 swapped", "RP4", "RP3"]),
    ("RP3", ["RP3", "RP2", "RP2 swapped", "RP4"]),
    ("RP4", ["RP4", "RP2", "RP2 swapped", "RP3"]),
])
def test_candidate_order_per_predicted_shape(family_graph, lexicon, predicted, expected):
    # founder and mother share no node in the graph, so every candidate is
    # rejected and the trace lists the whole plan: the predicted shape
    # first, then the rest in tie-break order, the chain in both orders
    class Stub:
        def predict(self, ms):
            return MetaPattern(predicted), 1.0

    explainer = ExplanationService(
        [FixtureProvider({"foundermother": "the founder of your mother"})]
    )
    linker = Linker(family_graph, explainer, lexicon, Stub(), LinkConfig())
    result = linker.link("foundermother")
    assert not result.matched
    ordered = [EX + "founder", EX + "mother"]
    tried = [
        s["meta_pattern"] + (" swapped" if s["order"] != ordered else "")
        for s in result.trace if s["step"] == "candidate"
    ]
    assert tried == expected
    assert not any(s["accepted"] for s in result.trace if s["step"] == "candidate")


def test_concurrent_links_match_sequential(linker, family_graph, lexicon, classifier):
    import threading

    phrases = ["mother-in-law", "grandparent", "uncle", "sportsman"]
    sequential = {p: linker.link(p).to_json() for p in phrases}

    explainer = ExplanationService(
        [FixtureProvider("src/relink/data/explanations.json")]
    )
    shared = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    results: dict[str, dict] = {}

    def work(phrase: str):
        results[phrase] = shared.link(phrase).to_json()

    threads = [threading.Thread(target=work, args=(p,)) for p in phrases]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == sequential


def test_fold_assembles_three_real_relations(family_graph, lexicon, classifier):
    # three directly linked relations: the first pair folds into a
    # pseudo-relation, which then chains with the third
    explainer = ExplanationService(
        [FixtureProvider({"chainword": "the child of your spouse's mother"})]
    )
    linker = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    result = linker.link("chainword")
    assert result.matched
    assert len(result.pattern.edges) == 3
    assert any(s["step"] == "fold" for s in result.trace)
    rels = [e.rel.rsplit("/", 1)[-1] for e in result.pattern.edges]
    assert sorted(rels) == ["child", "mother", "spouse"]
    assert has_instance(family_graph, result.pattern)


def test_link_outputs_match_golden_file(linker):
    golden = json.loads((GOLDEN / "link_patterns.json").read_text("utf-8"))
    for phrase, expected in golden.items():
        result = linker.link(phrase)
        got = result.pattern.to_json() if result.pattern else None
        assert got == expected, phrase


def _split_confidence(result: dict) -> tuple[dict, list]:
    """A ``to_json`` result without its classifier confidences, and those."""
    steps = [dict(step) for step in result["trace"]]
    confidences = [step.pop("confidence") for step in steps if "confidence" in step]
    return {**result, "trace": steps}, confidences


def _assert_results_match(linker: Linker, golden: dict) -> None:
    """Each phrase's whole result, trace included, equals its golden one.

    Only the classifier confidence is compared within a tolerance, since
    it comes out of numpy training.
    """
    for phrase, expected in golden.items():
        got, got_conf = _split_confidence(linker.link(phrase).to_json())
        want, want_conf = _split_confidence(expected)
        assert got == want, phrase
        assert got_conf == pytest.approx(want_conf, abs=1e-6), phrase


@pytest.mark.parametrize(
    "name, validation",
    [("link_traces.json", STRICT), ("link_traces_permissive.json", PERMISSIVE)],
    ids=[STRICT, PERMISSIVE],
)
def test_link_traces_match_golden_file(
    family_graph, explainer, lexicon, classifier, name, validation
):
    """Every gold and phrases.txt phrase in each validation mode."""
    from relink.evaluate import load_gold

    golden = json.loads((GOLDEN / name).read_text("utf-8"))
    phrases = {e.phrase for e in load_gold(data_path("gold.jsonl"))}
    phrases.update(
        p.strip() for p in data_path("phrases.txt").read_text("utf-8").splitlines()
    )
    assert set(golden) == phrases - {""}
    linker = Linker(family_graph, explainer, lexicon, classifier,
                    LinkConfig(validation=validation))
    _assert_results_match(linker, golden)


# sentences of three and four directly linked relations, which fold left
FOLD_SENTENCES = {
    "chainword": "the child of your spouse's mother",
    "motherline": "the mother of the father of the mother of your parent",
    "parentline": "the parent of your parent's parent's parent",
    "spouseline": "the spouse of the child of your spouse's mother",
}


@pytest.mark.parametrize("validation", [STRICT, PERMISSIVE])
def test_folds_match_golden_file(family_graph, lexicon, classifier, validation):
    """Folds that complete, and folds over four mentions. chainword folds
    twice in both modes; parentline folds three times (its RP4 reading
    included); motherline and spouseline fold three times only without
    validation, and in strict mode stop after one and two folds."""
    golden = json.loads((GOLDEN / "link_folds.json").read_text("utf-8"))
    assert set(golden[validation]) == set(FOLD_SENTENCES)
    explainer = ExplanationService([FixtureProvider(FOLD_SENTENCES)])
    linker = Linker(family_graph, explainer, lexicon, classifier,
                    LinkConfig(validation=validation))
    _assert_results_match(linker, golden[validation])


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(max_recursion_depth=0)
    with pytest.raises(ValueError):
        LinkConfig(validation="sloppy")


def test_link_config_theta_range():
    for bad in (-0.1, 1.5, 7):
        with pytest.raises(ValueError, match="theta_rel"):
            LinkConfig(theta_rel=bad)
    LinkConfig(theta_rel=0.0)
    LinkConfig(theta_rel=1.0)


def test_empty_phrase_rejected(linker):
    with pytest.raises(ValueError):
        linker.link("  ")


# -- data-driven baseline assembly ---------------------------------------------


def _elems(*relations: str) -> MetaElements:
    hits = tuple(
        RelationHit(Span(2 * i, 2 * i + 1), rel, 1.0) for i, rel in enumerate(relations)
    )
    return MetaElements((), hits)


def test_data_driven_spouse_mother(family_graph):
    sp = link_data_driven(_elems(EX + "spouse", EX + "mother"), family_graph)
    assert edges_of(sp) == [("x", EX + "spouse", "z"), ("z", EX + "mother", "y")]


def test_data_driven_prefers_rp2_when_ambiguous():
    # both the chain and the diverging shape instantiate; gold would be
    # the diverging one, but the unguided baseline returns the chain
    lines = [
        f"<{RES}a> <{EX}country> <{RES}c> .",
        f'<{RES}c> <{FOAF}gender> "none" .',
        f'<{RES}a> <{FOAF}gender> "female" .',
    ]
    g = kg.load(lines)
    sp = link_data_driven(_elems(EX + "country", FOAF + "gender"), g)
    assert edges_of(sp) == [
        ("x", EX + "country", "z"),
        ("z", FOAF + "gender", "y"),
    ]


def test_data_driven_prefers_rp3_over_rp4():
    # neither chain order instantiates; the shared target (c) and the
    # shared source (a) both do, and the fixed order puts RP3 first
    lines = [
        f"<{RES}a> <{EX}p> <{RES}c> .",
        f"<{RES}b> <{EX}q> <{RES}c> .",
        f"<{RES}a> <{EX}q> <{RES}e> .",
    ]
    g = kg.load(lines)
    sp = link_data_driven(_elems(EX + "p", EX + "q"), g)
    assert edges_of(sp) == [("x", EX + "p", "z"), ("y", EX + "q", "z")]


def test_data_driven_no_cooccurrence(family_graph):
    sp = link_data_driven(_elems(EX + "founder", EX + "mother"), family_graph)
    assert sp is None


def test_data_driven_needs_two_relations(family_graph):
    assert link_data_driven(_elems(EX + "mother"), family_graph) is None


# -- splicing ------------------------------------------------------------------


def test_splice_identity_for_single_edge_pseudo(family_graph, lexicon, classifier):
    explainer = ExplanationService(
        [
            FixtureProvider(
                {
                    "genetrix": "the mommy of your parent",
                    "mommy": "a mother",
                }
            )
        ]
    )
    linker = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    result = linker.link("genetrix")
    # nested "mommy" resolves to a single mother edge and splices in place
    assert result.matched
    assert edges_of(result.pattern) == [
        ("x", EX + "parent", "z"),
        ("z", EX + "mother", "y"),
    ]
