from __future__ import annotations

import json
import math
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relink import kg, linking, text
from relink.assemble import LinkConfig, Linker
from relink.cli import data_path
from relink.evaluate import load_gold
from relink.linking import (
    DEFAULT_THETA_REL,
    EDIT_WEIGHT,
    MAX_MENTION_TOKENS,
    GraphLabels,
    Lexicon,
    LexiconError,
    PseudoRelation,
    RelationHit,
    Span,
    TypeHit,
    content_spans,
    detect_elements,
    detect_relations,
    detect_types,
    direct_match,
    link_simple,
    mention_score,
)
from relink.patterns import PatternEdge, SubgraphPattern
from relink.text import edit_similarity, jaccard, levenshtein, tokenize

from .oracles import (
    LETTERS,
    disjoint_triples,
    near_miss,
    random_load_graph,
    reference_detect_types,
    reference_levenshtein,
    reference_link_simple,
    reference_load,
    reference_tokenize,
    shared_token_triples,
)

EX = "http://example.org/ontology/"
RES = "http://example.org/resource/"
PSEUDO = PseudoRelation("mother in law", SubgraphPattern.make([("x", EX + "spouse", "y")]))


def test_tokenize_strips_possessive_and_splits_hyphens():
    assert tokenize("the mother of a person's spouse") == [
        "the", "mother", "of", "a", "person", "spouse",
    ]
    assert tokenize("mother-in-law") == ["mother", "in", "law"]
    assert tokenize("One's OWN  Country!") == ["one", "own", "country"]


def test_tokenize_keeps_unicode_words():
    assert tokenize("café au lait") == ["café", "au", "lait"]
    assert tokenize("naïve approach") == ["naïve", "approach"]


# no token match can hold a space, so tokenizing the joined parts gives
# each part's own tokens. Tokenizing a token again need not give it back
# (the token "i̇stanbul" of "İstanbul" splits at its combining dot), so
# mention detection scores a window's own tokens and never joins them
_TOKEN_CHAR = st.sampled_from("aZ İ'_-s ") | st.characters()


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.text(_TOKEN_CHAR, max_size=8), max_size=5))
@example(parts=["İstanbul", "i̇stanbul"])
@example(parts=["person'", "s", "'s", "a_b", "_"])
def test_tokenize_of_joined_parts_is_tokens_of_each(parts):
    assert text.tokenize(" ".join(parts)) == [w for p in parts for w in text.tokenize(p)]


# apostrophes, "s" and "S", and letters whose lowercase is two code
# points (İ), is the letter itself (ſ, the long s), is ASCII (the Kelvin
# sign) or depends on the next letter (Σ)
_APOSTROPHE_TEXT = st.text(st.sampled_from("'sSİſ\u212aΣa_ -") | st.characters(), max_size=24)


@settings(max_examples=500, deadline=None)
@given(s=_APOSTROPHE_TEXT)
@example(s="the brother's wife's sister'S")
@example(s="İ's ſ's \u212a'S ΑΣ'S ΑΣ x'ss 's s' ' x''s x'_s")
def test_tokenize_matches_reference(s):
    assert tokenize(s) == reference_tokenize(s)


def test_lowercase_premise_of_tokenize():
    """``tokenize`` cuts a trailing ``'s`` by ``endswith``, which is exact
    because of what ``str.lower`` does to each code point: only the
    apostrophe lowercases to a string that holds an apostrophe, only the
    newline (before which a regex ``$`` also matches) to one that holds a
    newline, and only ``S`` and ``s`` to one that ends in ``s``."""
    holds = []
    ends_in_s = []
    for code in range(sys.maxunicode + 1):
        low = chr(code).lower()
        if "'" in low or "\n" in low:
            holds.append(chr(code))
        if low.endswith("s"):
            ends_in_s.append(chr(code))
    assert holds == ["\n", "'"]
    assert ends_in_s == ["S", "s"]


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "") == 3
    assert levenshtein("latitude", "attitude") == 2
    assert levenshtein("kitten", "sitting") == 3


# lengths drawn uniformly from 0-200 put the row masks past 64 and 128 bits;
# a small alphabet, with an astral character, makes shared characters common
_EDIT_CHAR = st.one_of(st.sampled_from("ab \U0001F600"), st.characters())
_EDIT_TEXT = st.one_of(
    st.integers(0, 200).flatmap(lambda n: st.text(_EDIT_CHAR, min_size=n, max_size=n)),
    st.builds(lambda c, n: c * n, _EDIT_CHAR, st.integers(0, 200)),  # a run of one character
)


@settings(max_examples=100, deadline=None)
@given(a=_EDIT_TEXT, b=_EDIT_TEXT)
def test_levenshtein_matches_reference(a, b):
    d = levenshtein(a, b)
    assert d == reference_levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert (d == 0) == (a == b)
    assert d <= max(len(a), len(b))


def test_graph_labels_oracle_on_random_graphs():
    rng = random.Random(7)
    for round_ in range(60):
        triples = random_load_graph(rng)
        type_predicate = kg.RDF_TYPE if round_ % 3 else "http://t.example/p0"
        ref = reference_load(triples, type_predicate)
        labels = GraphLabels.of(kg.KnowledgeGraph(triples, type_predicate))
        assert list(labels.relation_labels.items()) == ref["relation_labels"], round_
        assert labels.relation_postings == ref["relation_postings"], round_
        assert labels.relation_keys == ref["relation_keys"], round_
        assert list(labels.entity_labels.items()) == list(ref["entity_labels"].items())
        assert (list(labels.type_dictionary.items())
                == list(ref["type_dictionary"].items())), round_
        starts: dict = {}
        for key in ref["type_dictionary"]:
            starts.setdefault(key[0], set()).add(len(key))
        assert labels.type_key_starts == {
            token: tuple(sorted(lengths, reverse=True)) for token, lengths in starts.items()
        }, round_


def test_graph_labels_built_once_by_the_linker(linker, family_labels):
    assert linker.labels == family_labels
    assert linker.labels.type_dictionary == linking.type_dictionary(linker.g)
    with pytest.raises(FrozenInstanceError):
        linker.labels.relation_labels = {}
    with pytest.raises(FrozenInstanceError):
        linker.labels.other = {}


def test_link_simple_exact_match_scores_one(family_labels, lexicon):
    hit = link_simple(tokenize("mother"), family_labels, lexicon)
    assert hit == (EX + "mother", 1.0)


def test_link_simple_lexicon_hit(family_labels, lexicon):
    hit = link_simple(tokenize("married to"), family_labels, lexicon)
    assert hit == (EX + "spouse", 1.0)


def test_link_simple_rejects_near_string_false_friend():
    # oracle: compute the two tier scores by hand and check the threshold
    g = kg.load([f"<{RES}a> <{EX}attitude> <{RES}b> ."])
    labels = GraphLabels.of(g)
    label = labels.relation_labels[EX + "attitude"]
    jac = jaccard(["latitude"], label)
    edit = edit_similarity("latitude", "attitude")
    assert jac == 0.0
    assert edit == 1 - 2 / 8
    combined = 0.7 * jac + 0.3 * edit
    assert combined == pytest.approx(0.225)
    assert combined < 0.6
    assert mention_score(["latitude"], label) == pytest.approx(combined)
    assert link_simple(tokenize("latitude"), labels, Lexicon()) is None


def test_link_simple_score_in_unit_interval(family_labels, lexicon):
    for phrase in ("mother", "married to", "country", "zzz", "birth place"):
        hit = link_simple(tokenize(phrase), family_labels, lexicon, theta_rel=0.0)
        if hit is not None:
            assert 0.0 <= hit[1] <= 1.0


def test_link_simple_deterministic(family_labels, lexicon):
    runs = {link_simple(tokenize("mother"), family_labels, lexicon) for _ in range(5)}
    assert len(runs) == 1


# label and mention words: real ones, one-edit spellings of them, random strings
_LABEL_WORDS = ("mother", "father", "spouse", "child", "birth", "place", "in", "law")
_WORD = st.one_of(
    st.sampled_from(_LABEL_WORDS),
    st.builds(near_miss, st.sampled_from(_LABEL_WORDS), st.randoms(use_true_random=False)),
    st.text(LETTERS, min_size=1, max_size=8),
)


def _camel_iri(namespace: str, words: list[str]) -> str:
    return namespace + words[0] + "".join(w.capitalize() for w in words[1:])


@st.composite
def _scoring_cases(draw):
    """A graph of drawn labels, a mention, a lexicon and a threshold.

    The first label is also given under a second namespace, so two IRIs
    score the same. At least one label shares no token with the mention,
    and some such labels are near misses of its words. The graph has a
    type triple, so the lexicon may target the type predicate, which has
    no label. The threshold is a fixed value, one just above
    ``EDIT_WEIGHT``, or a score that some label really gets, so a bound
    equal to it occurs.
    """
    labels = draw(st.lists(st.lists(_WORD, min_size=1, max_size=3), min_size=1, max_size=8))
    seen = sorted({w for words in labels for w in words})
    mention = draw(st.lists(st.one_of(st.sampled_from(seen), _WORD), min_size=1, max_size=3))
    tokens = tokenize(" ".join(mention))
    unshared = st.one_of(
        st.builds(near_miss, st.sampled_from(tokens), st.randoms(use_true_random=False)),
        _WORD,
    ).filter(lambda w: w and w not in tokens)
    labels += draw(st.lists(st.lists(unshared, min_size=1, max_size=3), min_size=1, max_size=3))
    predicates = {_camel_iri(EX, words) for words in labels}
    predicates.add(_camel_iri("http://example.org/other/", labels[0]))
    triples = [kg.Triple(RES + "a", p, RES + "b") for p in predicates]
    g = kg.KnowledgeGraph(triples + [kg.Triple(RES + "a", kg.RDF_TYPE, EX + "Thing")])
    targets = draw(st.sets(st.sampled_from(sorted(predicates) + [kg.RDF_TYPE]), max_size=2))
    lex = Lexicon({tuple(tokens): frozenset(targets)})
    labels = GraphLabels.of(g)
    scores = sorted({mention_score(tokens, label) for label in labels.relation_labels.values()})
    theta = draw(
        st.one_of(
            st.sampled_from([0.0, EDIT_WEIGHT, math.nextafter(EDIT_WEIGHT, 1.0),
                             DEFAULT_THETA_REL, 1.0]),
            st.sampled_from(scores),
        )
    )
    return tokens, labels, lex, theta


@settings(max_examples=300, deadline=None)
@given(case=_scoring_cases())
def test_link_simple_matches_full_scan(case):
    tokens, labels, lex, theta = case
    # tuple equality: the same IRI and the same float, bit for bit
    assert (link_simple(tokens, labels, lex, theta)
            == reference_link_simple(tokens, labels, lex, theta))


def _bench_phrases() -> list[str]:
    """The distinct gold and phrases.txt phrases."""
    phrases = {e.phrase for e in load_gold(data_path("gold.jsonl"))}
    phrases.update(
        p.strip() for p in data_path("phrases.txt").read_text("utf-8").splitlines()
    )
    return sorted(phrases - {""})


def _warm_pass_calls(linker, monkeypatch, module, name) -> int:
    """Calls of ``module.name`` in a pass over ``_bench_phrases`` after a
    first pass has warmed the explanation cache."""
    phrases = _bench_phrases()
    for phrase in phrases:
        linker.link(phrase)
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    for phrase in phrases:
        linker.link(phrase)
    monkeypatch.setattr(module, name, real)
    assert len(phrases) == 31
    return len(calls)


def test_warm_pass_edit_distance_count(linker, monkeypatch):
    """The edit distances one warm pass over the gold and phrases.txt
    phrases computes: 1,530 when every label is scored in full, 36 when
    labels whose bound cannot win are skipped."""
    assert _warm_pass_calls(linker, monkeypatch, text, "levenshtein") == 36


def test_warm_pass_labels_scored(family_graph, explainer, lexicon, classifier, monkeypatch):
    """The labels one warm pass over the gold and phrases.txt phrases
    scores, that is computes a Jaccard and joins the text for: 1,503 when
    every label is scanned, 40 when only the labels sharing a token with
    the mention are. About 1,000 more predicates whose labels share no
    token with any phrase or explanation add none (a full scan would
    score 90,603)."""
    explanations = json.loads(data_path("explanations.json").read_text("utf-8"))
    vocabulary = {
        token
        for words in [*explanations, *explanations.values(), *_bench_phrases()]
        for token in tokenize(words)
    }
    extra = disjoint_triples(
        random.Random(7), vocabulary, sorted(family_graph.entity_set), 1000, 2000
    )
    wide = kg.KnowledgeGraph(family_graph.triples + tuple(extra))
    assert len(GraphLabels.of(wide).relation_labels) >= 1000
    counts = [
        _warm_pass_calls(
            Linker(g, explainer, lexicon, classifier, LinkConfig()),
            monkeypatch, linking, "_label_text",
        )
        for g in (family_graph, wide)
    ]
    assert counts == [40, 40]


def test_warm_pass_scored_with_shared_tokens(
    family_graph, family_labels, explainer, lexicon, classifier, monkeypatch
):
    """Labels scored and edit distances computed by one warm pass over the
    gold and phrases.txt phrases, on the bundled graph plus about 1,000
    predicates whose labels each share one token with a bundled label.
    The postings then hold the new labels, so the pass scores 2,084
    labels, and the length bound leaves 36 edit distances, as many as on
    the bundled graph; without the bound the pass computes one per label
    scored, 2,084. The links are those of the bundled graph."""
    label_tokens = {t for label in family_labels.relation_labels.values() for t in label}
    extra = shared_token_triples(
        random.Random(1), label_tokens, sorted(family_graph.entity_set), 1000, 2000
    )
    wide = kg.KnowledgeGraph(family_graph.triples + tuple(extra))
    linker = Linker(wide, explainer, lexicon, classifier, LinkConfig())
    assert len(linker.labels.relation_labels) >= 1000
    counts = [
        _warm_pass_calls(linker, monkeypatch, module, name)
        for module, name in ((linking, "_label_text"), (text, "levenshtein"))
    ]
    assert counts == [2084, 36]
    bundled = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())
    for phrase in _bench_phrases():
        assert linker.link(phrase).pattern == bundled.link(phrase).pattern


def test_detect_types_person_span(family_labels):
    tokens = tokenize("the mother of a person's spouse")
    hits = detect_types(tokens, family_labels)
    assert [(h.span.start, h.span.end, h.type_iri) for h in hits] == [
        (4, 5, EX + "Person")
    ]


def test_detect_types_no_hits(family_labels):
    assert detect_types(tokenize("the quick brown fox"), family_labels) == []


def test_detect_types_prefers_longer_span():
    lines = [
        f"<{RES}a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}SoccerPlayer> .",
        f"<{RES}b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Player> .",
    ]
    g = kg.load(lines)
    hits = detect_types(tokenize("a soccer player who runs"), GraphLabels.of(g))
    assert [(h.span.start, h.span.end, h.type_iri) for h in hits] == [
        (1, 3, EX + "SoccerPlayer")
    ]


# two words, so that keys share tokens and overlap in a sentence often
TYPE_WORDS = ["soccer", "player"]


def _typed_graph(keys):
    """A graph whose type dictionary holds each key: one instance per type
    IRI, named by the key's tokens joined with '_'."""
    lines = [f"<{RES}a> <{EX}knows> <{RES}b> ."]
    for i, key in enumerate(keys):
        lines.append(f"<{RES}i{i}> <{kg.RDF_TYPE}> <{EX}{'_'.join(key)}> .")
    return kg.load(lines)


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(
        st.lists(st.sampled_from(TYPE_WORDS), min_size=1, max_size=3), max_size=6
    ),
    # a sentence part is a word, a pseudo-relation, or an int i standing
    # for the tokens of keys[i], so that keys recur and overlap often
    parts=st.lists(st.sampled_from(TYPE_WORDS) | st.just(PSEUDO) | st.integers(0, 5),
                   max_size=8),
)
# a key that is a prefix, and one that is a suffix, of another
@example(
    keys=[["soccer", "player"], ["soccer"], ["player"]],
    parts=["the", "soccer", "player", "soccer", "player", "soccer"],
)
# keys sharing a first token, repeated tokens, a pseudo-relation inside
@example(
    keys=[["place", "place"], ["place", "of", "birth"], ["place"]],
    parts=["place", "place", "place", "of", "birth", "place", PSEUDO, "place"],
)
@example(keys=[["birth", "place"]], parts=["birth", PSEUDO, "place", "birth"])
# a key longer than any relation mention
@example(keys=[["city", "of", "birth", "place"], ["birth"]], parts=["the", "city", "of", 0])
# a longer key to the right beats a shorter one to the left
@example(keys=[["soccer", "player"], ["player", "of", "the"]], parts=[0, "of", "the"])
def test_detect_types_matches_reference(keys, parts):
    g = _typed_graph(keys)
    labels = GraphLabels.of(g)
    assert len(labels.type_dictionary) == len({tuple(k) for k in keys})
    tokens = []
    for part in parts:
        if not isinstance(part, int):
            tokens.append(part)
        elif keys:
            tokens += keys[part % len(keys)]
    assert detect_types(tokens, labels) == reference_detect_types(tokens, labels)


def test_detect_relations_mother_spouse_order(family_labels, lexicon):
    tokens = tokenize("the mother of a person's spouse")
    types = detect_types(tokens, family_labels)
    hits = detect_relations(
        tokens, family_labels, lexicon, type_spans=[t.span for t in types]
    )
    assert [h.relation for h in hits] == [EX + "mother", EX + "spouse"]
    assert [h.span.start for h in hits] == [1, 5]


def test_detect_relations_male_child(family_labels, lexicon):
    hits = detect_relations(tokenize("a male child"), family_labels, lexicon)
    assert [h.relation for h in hits] == [
        "http://xmlns.com/foaf/0.1/gender",
        EX + "child",
    ]


def test_detect_relations_all_stopwords(family_labels, lexicon):
    assert detect_relations(tokenize("of the and a"), family_labels, lexicon) == []


def test_detect_relations_longer_span_wins_tie(family_labels, lexicon):
    # "plays sport" (lexicon, 1.0) and "sport" (exact, 1.0) overlap
    hits = detect_relations(tokenize("a man who plays sport"), family_labels, lexicon)
    spans = [(h.span.start, h.span.end) for h in hits]
    assert (3, 5) in spans  # the two-token mention was kept
    assert [h.relation for h in hits] == [
        "http://xmlns.com/foaf/0.1/gender",
        EX + "sport",
    ]


def test_detect_relations_never_returns_type_predicate(
    family_graph, family_labels, lexicon
):
    hits = detect_relations(tokenize("the type of a thing"), family_labels, lexicon)
    assert all(h.relation != family_graph.type_predicate for h in hits)
    # nor when the lexicon names it: the type predicate has no label to score
    naming = Lexicon.from_mapping({"kind": [kg.RDF_TYPE]}, family_graph)
    assert link_simple(["kind"], family_labels, naming, theta_rel=0.0)[0] != kg.RDF_TYPE
    hits = detect_relations(tokenize("the kind of her mother"), family_labels, naming)
    assert [h.relation for h in hits] == [EX + "mother"]


def test_detect_relations_scores_window_tokens_as_they_are():
    # "İ" lowercases to "i" and a combining dot, which is not a word
    # character: the token "i̇zmir" would split in two if tokenized again
    g = kg.load([f"<{RES}a> <{EX}İzmir> <{RES}b> ."])
    labels = GraphLabels.of(g)
    assert direct_match("İzmir", labels, Lexicon()).iri == EX + "İzmir"
    hits = detect_relations(tokenize("the İzmir of a person"), labels, Lexicon())
    assert [(h.span.start, h.relation, h.score) for h in hits] == [(1, EX + "İzmir", 1.0)]


# words of the letters of _APOSTROPHE_TEXT, and stopwords, which end windows
_DETECT_WORD = st.text(st.sampled_from("'sSİſ\u212aΣa"), min_size=1, max_size=4)


@st.composite
def _detection_cases(draw):
    """A sentence's tokens, a graph whose predicate labels are its tokens
    alone or in pairs and other words of the same letters, a lexicon
    entry for a window of the sentence, and a threshold."""
    words = draw(st.lists(_DETECT_WORD | st.sampled_from(["of", "the"]), max_size=6))
    tokens = tokenize(" ".join(words))
    word = st.sampled_from(tokens) | _DETECT_WORD if tokens else _DETECT_WORD
    names = draw(st.lists(st.lists(word, min_size=1, max_size=2), min_size=1, max_size=6))
    predicates = sorted({EX + "_".join(name) for name in names})
    g = kg.KnowledgeGraph([kg.Triple(RES + "a", p, RES + "b") for p in predicates])
    lex = Lexicon()
    if tokens:
        start = draw(st.integers(0, len(tokens) - 1))
        key = tuple(tokens[start : start + draw(st.integers(1, 2))])
        lex = Lexicon({key: frozenset([draw(st.sampled_from(predicates))])})
    theta = draw(st.sampled_from([0.0, EDIT_WEIGHT, DEFAULT_THETA_REL, 1.0]))
    return tokens, GraphLabels.of(g), lex, theta


@settings(max_examples=300, deadline=None)
@given(case=_detection_cases())
def test_detect_relations_matches_reference(case):
    # each window's own tokens scored in full, then the greedy non-overlap
    tokens, labels, lex, theta = case
    scored = []
    for span in _reference_content_spans(tokens, text.default_stopwords(), []):
        hit = reference_link_simple(tokens[span.start : span.end], labels, lex, theta)
        if hit is not None:
            scored.append(RelationHit(span, *hit))
    kept: list[RelationHit] = []
    for hit in sorted(scored, key=lambda h: (-h.score, -len(h.span), h.span.start)):
        if not any(hit.span.overlaps(k.span) for k in kept):
            kept.append(hit)
    kept.sort(key=lambda h: h.span.start)
    assert detect_relations(tokens, labels, lex, theta) == kept


def test_elements_spans_do_not_overlap(family_labels, lexicon):
    sentences = [
        "the mother of a person's spouse",
        "a woman from your own country",
        "the woman who is married to someone's father but who is not their real mother",
        "a person from the same family",
    ]
    for sentence in sentences:
        elems = detect_elements(tokenize(sentence), family_labels, lexicon)
        spans = [t.span for t in elems.types] + [r.span for r in elems.relations]
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                assert not a.overlaps(b), (sentence, a, b)
        # relation order equals mention order
        starts = [r.span.start for r in elems.relations]
        assert starts == sorted(starts)


def test_direct_match_relation(family_labels, lexicon):
    hit = direct_match("founder", family_labels, lexicon)
    assert hit is not None and (hit.category, hit.iri) == ("relation", EX + "founder")


def test_direct_match_relation_via_lexicon(family_labels, lexicon):
    hit = direct_match("wife", family_labels, lexicon)
    assert hit is not None and (hit.category, hit.iri) == ("relation", EX + "spouse")


def test_direct_match_type(family_labels, lexicon):
    hit = direct_match("person", family_labels, lexicon)
    assert hit is not None and (hit.category, hit.iri) == ("type", EX + "Person")


def test_direct_match_entity(family_labels, lexicon):
    hit = direct_match("Ludwig van Beethoven", family_labels, lexicon)
    assert hit is not None and hit.category == "entity"
    assert hit.iri == RES + "LudwigVanBeethoven"


def test_direct_match_compound_phrase_misses(family_labels, lexicon):
    assert direct_match("mother-in-law", family_labels, lexicon) is None


def test_lexicon_validates_targets(family_graph):
    with pytest.raises(LexiconError):
        Lexicon.from_mapping({"ghost": [EX + "no-such"]}, family_graph)


@pytest.mark.parametrize("graph", [False, True])
@pytest.mark.parametrize("value", [EX + "spouse", [EX + "spouse", 7], None])
def test_lexicon_value_must_be_list_of_iris(family_graph, graph, value):
    # a bare string is not a list of IRIs, nor is a list holding a number
    with pytest.raises(LexiconError) as err:
        Lexicon.from_mapping({"wed": value}, family_graph if graph else None)
    assert "'wed'" in str(err.value)


def test_lexicon_surfaces_that_tokenize_alike_collide():
    # both would key ('wife',); keeping one drops the other's targets
    with pytest.raises(LexiconError) as err:
        Lexicon.from_mapping({"wife": [EX + "spouse"], "Wife": [EX + "child"]})
    assert "'wife'" in str(err.value) and "'Wife'" in str(err.value)


def test_lexicon_hit_dominates_similarity(family_graph, family_labels):
    # "mothers" scores below 1.0 on similarity; a lexicon entry pins it to spouse
    lex = Lexicon.from_mapping({"mothers": [EX + "spouse"]}, family_graph)
    hit = link_simple(tokenize("mothers"), family_labels, lex)
    assert hit == (EX + "spouse", 1.0)


def test_span_overlap_logic():
    assert Span(0, 2).overlaps(Span(1, 3))
    assert not Span(0, 2).overlaps(Span(2, 4))


_EDGE = PatternEdge("x", EX + "spouse", "y")


# each slotted value class: a value, its fields, its repr, a replacement
# and the value it gives, and a replacement that fails the class's checks
@pytest.mark.parametrize(
    "value, names, text_repr, change, changed, bad",
    [
        (Span(1, 3), ("start", "end"), "Span(start=1, end=3)",
         {"end": 4}, Span(1, 4), None),
        (TypeHit(Span(0, 1), EX + "Person"), ("span", "type_iri"),
         f"TypeHit(span=Span(start=0, end=1), type_iri='{EX}Person')",
         {"type_iri": EX + "City"}, TypeHit(Span(0, 1), EX + "City"), None),
        (RelationHit(Span(2, 3), EX + "mother", 0.75), ("span", "relation", "score"),
         f"RelationHit(span=Span(start=2, end=3), relation='{EX}mother', score=0.75)",
         {"score": 1.0}, RelationHit(Span(2, 3), EX + "mother", 1.0), None),
        (_EDGE, ("src", "rel", "dst"), f"PatternEdge(src='x', rel='{EX}spouse', dst='y')",
         {"dst": "z"}, PatternEdge("x", EX + "spouse", "z"), {"dst": "x"}),
        (SubgraphPattern((_EDGE,), (("y", EX + "Person"),)), ("edges", "types"),
         f"SubgraphPattern(edges=({_EDGE!r},), types=(('y', '{EX}Person'),))",
         {"types": ()}, SubgraphPattern((_EDGE,)), {"types": (("z", EX + "Person"),)}),
    ],
    ids=["Span", "TypeHit", "RelationHit", "PatternEdge", "SubgraphPattern"],
)
def test_value_class_behaviour(value, names, text_repr, change, changed, bad):
    cls = type(value)
    # a name that is not a field is refused the same way
    for name in (*names, "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert tuple(f.name for f in fields(cls)) == names
    parts = tuple(getattr(value, name) for name in names)
    same = cls(**dict(zip(names, parts)))
    assert same == value and hash(same) == hash(value) == hash(parts)
    assert value != parts
    assert repr(value) == text_repr
    assert replace(value, **change) == changed
    if bad is not None:
        # replace builds through __init__, so the checks run again
        with pytest.raises(ValueError):
            replace(value, **bad)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)
    with pytest.raises(TypeError):
        cls()


def _reference_content_spans(tokens, stopwords, blocked):
    """The plain filter: every window, longest first, all three conditions."""
    out = []
    for length in range(min(MAX_MENTION_TOKENS, len(tokens)), 0, -1):
        for start in range(len(tokens) - length + 1):
            window = tokens[start : start + length]
            span = Span(start, start + length)
            if any(isinstance(t, PseudoRelation) for t in window):
                continue
            if any(span.overlaps(b) for b in blocked):
                continue
            if str(window[0]) in stopwords or str(window[-1]) in stopwords:
                continue
            out.append(span)
    return out


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(
        st.one_of(
            st.sampled_from(["the", "of", "a", "in", "mother", "law", "son"]), st.just(PSEUDO)
        ),
        max_size=9,
    ),
    # spans may start before the sentence or end past it
    blocked=st.lists(st.tuples(st.integers(-3, 10), st.integers(1, 4)), max_size=3),
)
def test_content_spans_matches_reference_filter(tokens, blocked):
    blocked = [Span(s, s + n) for s, n in blocked]
    want = _reference_content_spans(tokens, text.default_stopwords(), blocked)
    assert list(content_spans(tokens, blocked)) == want


@pytest.mark.parametrize("start, end", [(2, 2), (3, 1), (-1, -1)])
def test_content_spans_empty_blocked_span_rejected(start, end):
    # an empty span would block no token, yet overlaps the windows that
    # straddle it: (2, 2) overlaps (1, 3)
    tokens = tokenize("the mother of a person's spouse")
    with pytest.raises(ValueError, match="must not be empty"):
        list(content_spans(tokens, [Span(0, 1), Span(start, end)]))
