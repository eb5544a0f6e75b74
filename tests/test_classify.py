from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relink import classify
from relink.classify import (
    FeaturizeError,
    MaskedSentence,
    TrainingDataError,
    TrainingExample,
    featurize,
    featurize_raw,
    fit,
    harvest,
    mask,
    merge_review,
    train,
)
from relink.cli import data_path
from relink.evaluate import load_gold
from relink.kg import read_lines
from relink.linking import detect_elements
from relink.patterns import MetaPattern, has_instance, instantiate, shape_of
from relink.text import tokenize

from .oracles import numpy_softmax_predict_features, reference_fit, reference_predict_features

EX = "http://example.org/ontology/"
FOAF = "http://xmlns.com/foaf/0.1/"


def _mask_sentence(sentence, labels, lexicon):
    tokens = tokenize(sentence)
    elems = detect_elements(tokens, labels, lexicon)
    return mask(tokens, elems), elems


def test_mask_a_male_child(family_labels, lexicon):
    ms, _ = _mask_sentence("a male child", family_labels, lexicon)
    assert list(ms.tokens) == ["a", "*gender", "*child"]
    assert ms.relation_count == 2


def test_mask_mother_in_law_explanation(family_labels, lexicon):
    ms, elems = _mask_sentence("the mother of a person's spouse", family_labels, lexicon)
    assert list(ms.tokens) == ["the", "*mother", "of", "a", "person", "*spouse"]
    assert ms.relation_count == 2
    # mask names line up 1:1 with the linked relation local names, in order
    masked_names = [t[1:] for t in ms.tokens if t.startswith("*")]
    from relink.kg import local_name

    assert masked_names == [local_name(r.relation) for r in elems.relations]


def test_mask_no_relations_lowercases(family_labels, lexicon):
    tokens = tokenize("The Quick Brown Fox")
    elems = detect_elements(tokens, family_labels, lexicon)
    ms = mask(tokens, elems)
    assert list(ms.tokens) == ["the", "quick", "brown", "fox"]
    assert ms.relation_count == 0


def test_mask_multiword_mention_collapses(family_labels, lexicon):
    ms, _ = _mask_sentence("who is married to a person", family_labels, lexicon)
    assert "*spouse" in ms.tokens
    assert "married" not in ms.tokens


def test_featurize_adjacent_masks():
    ms = MaskedSentence.from_tokens(["a", "*gender", "*child"])
    feats = featurize(ms)
    assert feats["bi=*REL|*REL"] == 1.0
    assert feats["masks_adjacent"] == 1.0
    assert feats["mask_dist=0"] == 1.0


def test_featurize_between_mask_of():
    ms = MaskedSentence.from_tokens(["the", "*mother", "of", "a", "person", "*spouse"])
    feats = featurize(ms)
    assert feats["btw=of"] == 1.0
    assert feats["btw_has=of"] == 1.0
    assert feats["mask_dist=2-3"] == 1.0
    assert "masks_adjacent" not in feats


def test_featurize_deterministic():
    ms = MaskedSentence.from_tokens(["a", "*gender", "from", "your", "own", "*country"])
    assert featurize(ms) == featurize(ms)


def test_featurize_key_order():
    # the classifier adds weights in key order, so the order is part of
    # its float result
    ms = MaskedSentence.from_tokens(["the", "*mother", "of", "*spouse", "x"])
    assert list(featurize(ms)) == [
        "uni=the", "uni=*mother", "uni=*REL", "uni=of", "uni=*spouse", "uni=x",
        "bi=the|*REL", "bi=*REL|of", "bi=of|*REL", "bi=*REL|x",
        "btw=of", "btw_has=of", "mask_dist=1",
    ]
    assert list(featurize_raw(["A", "*B", "c"])) == [
        "uni=a", "uni=*b", "uni=*REL", "uni=c", "bi=a|*REL", "bi=*REL|c",
    ]


def test_featurize_requires_two_masks():
    with pytest.raises(FeaturizeError):
        featurize(MaskedSentence.from_tokens(["a", "*gender", "child"]))


def test_featurize_tail_does_not_disturb_between_features():
    base = MaskedSentence.from_tokens(["the", "*mother", "of", "your", "*spouse"])
    tailed = MaskedSentence.from_tokens(
        ["the", "*mother", "of", "your", "*spouse", "nearby", "somewhere"]
    )
    btw = {k: v for k, v in featurize(base).items() if k.startswith(("btw", "mask"))}
    btw_tailed = {
        k: v for k, v in featurize(tailed).items() if k.startswith(("btw", "mask"))
    }
    assert btw == btw_tailed


def test_training_example_label_must_match_shape():
    pattern = instantiate(MetaPattern.RP2, [EX + "a", EX + "b"])
    with pytest.raises(ValueError):
        TrainingExample(
            phrase="x",
            sentence=("a", "b"),
            masked=MaskedSentence.from_tokens(["*a", "*b"]),
            label=MetaPattern.RP4,
            pattern=pattern,
        )
    with pytest.raises(ValueError):
        TrainingExample(
            phrase="x",
            sentence=("a",),
            masked=MaskedSentence.from_tokens(["*a"]),
            label=MetaPattern.RP1,  # type: ignore[arg-type]
            pattern=instantiate(MetaPattern.RP1, [EX + "a"]),
        )


def _tiny_examples():
    out = []
    specs = [
        (MetaPattern.RP2, ["the", "*a", "of", "your", "*b"]),
        (MetaPattern.RP3, ["the", "*a", "of", "one", "and", "the", "*b", "of", "another"]),
        (MetaPattern.RP4, ["a", "*a", "who", "*b"]),
    ]
    for label, tokens in specs:
        out.append(
            TrainingExample(
                phrase=f"tiny-{label.value}",
                sentence=tuple(t.lstrip("*") for t in tokens),
                masked=MaskedSentence.from_tokens(tokens),
                label=label,
                pattern=instantiate(label, [EX + "a", EX + "b"]),
            )
        )
    return out


def test_train_memorizes_single_example_per_class():
    examples = _tiny_examples()
    clf, report = train(examples)
    for ex in examples:
        predicted, confidence = clf.predict(ex.masked)
        assert predicted is ex.label
        assert 0.0 <= confidence <= 1.0
    assert report.class_counts == {"RP2": 1, "RP3": 1, "RP4": 1}


def test_train_empty_list_errors():
    with pytest.raises(TrainingDataError):
        train([])


def test_train_missing_class_errors():
    examples = [e for e in _tiny_examples() if e.label is not MetaPattern.RP3]
    with pytest.raises(TrainingDataError) as err:
        train(examples)
    assert "RP3" in str(err.value)


def test_train_thirty_examples_accuracy(training_examples):
    manual = [e for e in training_examples if e.origin == "manual"]
    by_class = {c: [e for e in manual if e.label is c] for c in classify.CLASSES}
    subset = sum((v[:10] for v in by_class.values()), [])
    assert len(subset) == 30
    _, report = train(subset)
    assert report.train_accuracy >= 0.9


@st.composite
def _fit_inputs(draw):
    """Sparse 0/1 feature dicts over a narrow (1-6 names) or wide (40-300)
    vocabulary, every class present and some with a single example,
    some rows repeated, and a seed."""
    wide = draw(st.booleans())
    names = [f"f{i}" for i in range(draw(st.integers(40, 300) if wide else st.integers(1, 6)))]
    labels = draw(st.permutations(
        list(classify.CLASSES) + draw(st.lists(st.sampled_from(classify.CLASSES), max_size=40))
    ))
    features: list[dict[str, float]] = []
    for _ in labels:
        if features and draw(st.integers(0, 3)) == 0:
            features.append(dict(draw(st.sampled_from(features))))
        else:
            row = draw(st.lists(st.sampled_from(names), min_size=1, max_size=12, unique=True))
            features.append({name: draw(st.sampled_from([1.0, 1.0, 0.0])) for name in row})
    return features, labels, draw(st.integers(0, 2**32 - 1))


def _assert_fit_matches_reference(features, labels, seed):
    clf, _ = fit(features, labels, seed)
    vocab, weights, bias = reference_fit(features, labels, seed)
    assert clf.vocabulary == vocab
    assert np.array_equal(clf.weights, weights) and np.array_equal(clf.bias, bias)


@settings(max_examples=100, deadline=None)
@given(inputs=_fit_inputs())
def test_fit_matches_reference(inputs):
    """Bit-identical weights and bias to the plain whole-array loop."""
    _assert_fit_matches_reference(*inputs)


@pytest.mark.parametrize("seed", [0, 42])
def test_fit_matches_reference_on_bundled_set(training_examples, seed):
    features = [featurize(ex.masked) for ex in training_examples]
    _assert_fit_matches_reference(features, [ex.label for ex in training_examples], seed)


def test_train_reproducible(training_examples):
    a, _ = train(training_examples, seed=42)
    b, _ = train(training_examples, seed=42)
    assert a.to_json() == b.to_json()


def test_predict_spec_sentences(classifier):
    rp2_mil = MaskedSentence.from_tokens(
        ["the", "*mother", "of", "a", "person", "*spouse"]
    )
    assert classifier.predict(rp2_mil)[0] is MetaPattern.RP2
    rp2_child = MaskedSentence.from_tokens(["a", "*gender", "*child"])
    assert classifier.predict(rp2_child)[0] is MetaPattern.RP2


def test_predict_countrywoman_regression(classifier):
    # gold shape for this sentence is the shared-source pair
    ms = MaskedSentence.from_tokens(
        ["a", "*gender", "from", "your", "own", "*country"]
    )
    predicted, _ = classifier.predict(ms)
    assert predicted is MetaPattern.RP4


def test_predict_tie_break_order():
    import numpy as np

    # zero weights: every class ties, the fixed order decides
    vocab = {"uni=a": 0}
    zeros = classify.PatternClassifier(vocab, np.zeros((3, 1)), np.zeros(3))
    ms = MaskedSentence.from_tokens(["a", "*x", "*y"])
    predicted, confidence = zeros.predict(ms)
    assert predicted is MetaPattern.RP2
    assert confidence == pytest.approx(1 / 3)


@st.composite
def _predict_inputs(draw):
    """A classifier and a feature dict. The weights are all zero (every
    class ties), have two equal rows (two classes tie), come from a few
    short binary fractions (frequent ties) or are floats large enough that ``exp`` of a
    shifted score underflows to 0. The vocabulary maps its names to the
    columns in any order, some feature names are not in the vocabulary,
    and values other than 1.0 occur."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 8)))]
    n_features = len(names)  # one column per name
    vocabulary = dict(zip(names, draw(st.permutations(range(n_features)))))
    kind = draw(st.sampled_from(["zeros", "two_equal", "small", "large"]))
    if kind == "zeros":
        number = st.just(0.0)
    elif kind == "large":
        number = st.floats(-1e3, 1e3)
    else:
        number = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    weights = [[draw(number) for _ in range(n_features)] for _ in classify.CLASSES]
    bias = [draw(number) for _ in classify.CLASSES]
    if kind == "two_equal":
        i, j = draw(st.permutations(range(len(classify.CLASSES))))[:2]
        weights[j], bias[j] = weights[i], bias[i]
    clf = classify.PatternClassifier(vocabulary, weights, bias)
    feats = draw(st.dictionaries(
        st.sampled_from(names + ["unknown"]),
        st.sampled_from([1.0, 1.0, 0.0, -1.0, 0.5, 2.0]) | st.floats(-10.0, 10.0),
        max_size=12,
    ))
    return clf, feats


@settings(max_examples=300, deadline=None)
@given(inputs=_predict_inputs())
def test_predict_matches_reference(inputs):
    """Exactly the class and confidence of the numpy score vector, normalised
    with ``math.exp``."""
    clf, feats = inputs
    assert clf.predict_features(feats) == reference_predict_features(clf, feats)


def test_predict_matches_reference_on_bundled_set(training_examples, classifier):
    raw = [featurize_raw(ex.sentence) for ex in training_examples]
    raw_clf, _ = fit(raw, [ex.label for ex in training_examples], 42)
    for ex, raw_feats in zip(training_examples, raw):
        feats = featurize(ex.masked)
        assert classifier.predict_features(feats) == reference_predict_features(
            classifier, feats
        )
        assert raw_clf.predict_features(raw_feats) == reference_predict_features(
            raw_clf, raw_feats
        )


def test_classifier_keeps_read_only_copies():
    weights, bias = [[0.0], [0.0], [0.0]], [0.0, 0.0, 0.0]
    clf = classify.PatternClassifier({"uni=a": 0}, weights, bias)
    weights[0][0] = bias[0] = 5.0
    weights[1] = [5.0]
    assert clf.weights == ((0.0,), (0.0,), (0.0,)) and clf.bias == (0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        clf.weights[0][0] = 5.0
    with pytest.raises(TypeError):
        clf.weights[0] = (5.0,)
    with pytest.raises(TypeError):
        clf.bias[0] = 5.0


@pytest.mark.parametrize(
    "vocabulary, weights, bias",
    [({"a": 1}, [[0.0]] * 3, [0.0] * 3),  # index out of range
     ({"a": 0.0}, [[0.0]] * 3, [0.0] * 3),  # index not an int
     ({"a": True}, [[0.0]] * 3, [0.0] * 3),
     ({"a": 0}, [[0.0], [0.0], [0.0, 1.0]], [0.0] * 3),  # ragged
     ({"a": 0}, [[0.0]] * 2, [0.0] * 3),
     ({"a": 0}, [[0.0]] * 3, [0.0, float("inf"), 0.0]),
     ({"a": 0, "b": 0}, [[0.0, 0.0]] * 3, [0.0] * 3)],  # a column no feature reaches
)
def test_classifier_checks_model(vocabulary, weights, bias):
    with pytest.raises(ValueError, match="^malformed model: "):
        classify.PatternClassifier(vocabulary, weights, bias)


def test_featurize_three_masks_uses_first_window():
    ms = MaskedSentence.from_tokens(["*a", "of", "*b", "then", "later", "*c"])
    feats = featurize(ms)
    assert feats["btw=of"] == 1.0
    assert "btw=then" not in feats
    assert "btw=later" not in feats


def test_mask_span_out_of_bounds_is_contract_violation(family_graph, lexicon):
    from relink.linking import MetaElements, RelationHit, Span

    elems = MetaElements((), (RelationHit(Span(4, 9), EX + "mother", 1.0),))
    with pytest.raises(ValueError):
        mask(["only", "three", "tokens"], elems)


def test_model_save_load_round_trip(classifier, tmp_path):
    path = tmp_path / "model.json"
    classifier.save(path)
    loaded = classify.PatternClassifier.load(path)
    ms = MaskedSentence.from_tokens(["a", "*gender", "*child"])
    assert loaded.predict(ms) == classifier.predict(ms)
    data = json.loads(path.read_text("utf-8"))
    assert data["format"] == "relink-linear/1"


def test_model_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other/9"}')
    with pytest.raises(ValueError):
        classify.PatternClassifier.load(path)


def test_bundled_model_record_names_the_bundled_training_file():
    import hashlib

    record = json.loads(data_path("model.json").read_text("utf-8"))["trained_on"]
    training = data_path("training.jsonl").read_bytes()
    assert record["sha256"] == hashlib.sha256(training).hexdigest()
    assert record == classify.trained_on(training, 42)


def test_bundled_model_answers_as_training_in_process(
    classifier, training_examples, explainer, family_labels, lexicon
):
    """The bundled model stands for ``train(examples, 42)``, but need not be
    bit-identical to a training on this CPU: OpenBLAS picks its kernel by
    CPU, and on one x86-64 host its Haswell, Sandybridge and Prescott
    kernels each trained weights up to 42 ulp (1.1e-16) away from the
    default kernel's, with no training sentence changing class or 6-digit
    confidence. So the answers are pinned exactly, the weights within 1e-12."""
    bundled = classify.PatternClassifier.load(data_path("model.json"))
    assert bundled.vocabulary == classifier.vocabulary
    np.testing.assert_allclose(bundled.weights, classifier.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bundled.bias, classifier.bias, rtol=0, atol=1e-12)
    for ms in _every_sentence(training_examples, explainer, family_labels, lexicon):
        (got, got_p), (want, want_p) = bundled.predict(ms), classifier.predict(ms)
        assert (got, round(got_p, 6)) == (want, round(want_p, 6)), ms


def _every_sentence(training_examples, explainer, labels, lexicon) -> list[MaskedSentence]:
    """The masked sentences of every training example, and those of the
    gold and ``phrases.txt`` phrases whose explanation masks two relations."""
    phrases = [e.phrase for e in load_gold(data_path("gold.jsonl"))]
    phrases += [p for p in read_lines(data_path("phrases.txt")) if p.strip()]
    sentences = [ex.masked for ex in training_examples]
    for phrase in phrases:
        explanation = explainer.explain(phrase)
        if explanation is not None:
            ms, _ = _mask_sentence(explanation.sentence, labels, lexicon)
            if ms.relation_count >= 2:
                sentences.append(ms)
    assert len(sentences) > len(training_examples) + 20
    return sentences


def test_predict_within_ulps_of_the_numpy_softmax(
    classifier, training_examples, explainer, family_labels, lexicon
):
    """``math.exp`` and numpy's ``np.exp`` kernel differ in the last bit on
    a few percent of inputs, so a confidence may move by a few ulp from the
    numpy softmax's (a 200,000-draw probe over scores in [-30, 5] saw at
    most 2), but the class never does."""
    bundled = classify.PatternClassifier.load(data_path("model.json"))
    for ms in _every_sentence(training_examples, explainer, family_labels, lexicon):
        feats = featurize(ms)
        for clf in (bundled, classifier):
            got, got_p = clf.predict_features(feats)
            want, want_p = numpy_softmax_predict_features(clf, feats)
            assert got is want, ms
            assert abs(got_p - want_p) <= 4 * math.ulp(want_p), ms


def test_example_jsonl_round_trip(training_examples, tmp_path):
    path = tmp_path / "ex.jsonl"
    classify.save_examples(training_examples[:5], path)
    loaded = classify.load_examples(path)
    assert loaded == training_examples[:5]


_GOOD_LINE = json.dumps({
    "phrase": "p", "sentence": ["a"], "masked": ["*mother", "*spouse"], "label": "RP2",
    "pattern": {"edges": [{"src": "x", "rel": EX + "mother", "dst": "z"},
                          {"src": "z", "rel": EX + "spouse", "dst": "y"}]},
})


@pytest.mark.parametrize(
    "line, reason",
    [(b"{not json", "Expecting"),
     (b"[1]", "not a JSON object"),
     (b'{"phrase": "x"}', "missing key 'sentence'"),
     (_GOOD_LINE.replace('"RP2"', '"RP9"').encode(), "RP9"),
     (_GOOD_LINE.replace('"RP2"', '"RP3"').encode(), "does not match label"),
     (_GOOD_LINE.replace('"*mother"', "1").encode(), "masked must be a list of strings"),
     (_GOOD_LINE.replace('"*mother", ', "").encode(), "need at least 2 masked relations, got 1"),
     (b"\xff", "not valid UTF-8: invalid start byte")],
    ids=["not-json", "not-object", "missing-key", "unknown-label", "wrong-shape",
         "token-not-string", "one-mask", "not-utf8"],
)
def test_load_examples_names_file_and_line(tmp_path, line, reason):
    path = tmp_path / "t.jsonl"
    path.write_bytes(_GOOD_LINE.encode() + b"\n\n" + line + b"\n")
    with pytest.raises(TrainingDataError, match=reason) as err:
        classify.load_examples(path)
    assert str(err.value).startswith(f"{path} line 3: ")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_examples_line_endings(tmp_path, newline):
    # lines split as text mode splits them, like the graph file
    path = tmp_path / "t.jsonl"
    path.write_bytes(newline.join([_GOOD_LINE.encode()] * 3) + newline)
    assert len(classify.load_examples(path)) == 3
    path.write_bytes(newline.join([_GOOD_LINE.encode(), b"", b"\xff"]) + newline)
    with pytest.raises(TrainingDataError, match="not valid UTF-8: invalid start byte") as err:
        classify.load_examples(path)
    assert str(err.value).startswith(f"{path} line 3: ")


def test_merge_review_accept_reject_relabel(training_examples):
    examples = training_examples[:3]
    review = {
        examples[0].phrase: "accept",
        examples[1].phrase: "reject",
        examples[2].phrase: {"relabel": "RP4"},
    }
    merged = merge_review(examples, review)
    assert len(merged) == 2
    assert merged[1].label is MetaPattern.RP4
    assert shape_of(merged[1].pattern) is MetaPattern.RP4


# -- harvesting ---------------------------------------------------------------


def test_harvest_family_list_matches_golden(family_graph, explainer, lexicon):
    from relink.cli import data_path

    phrases = data_path("phrases.txt").read_text("utf-8").splitlines()
    result = harvest(phrases, family_graph, explainer, lexicon, kappa=10)
    golden = classify.load_examples("tests/golden/harvest_k10.jsonl")
    assert result.examples == golden


def test_harvest_mother_in_law_example(family_graph, explainer, lexicon):
    result = harvest(["mother-in-law"], family_graph, explainer, lexicon, kappa=5)
    (ex,) = result.examples
    assert ex.label is MetaPattern.RP2
    assert [(e.src, e.rel, e.dst) for e in ex.pattern.edges] == [
        ("x", EX + "spouse", "z"),
        ("z", EX + "mother", "y"),
    ]
    assert ex.origin == "harvested"


def test_harvest_skips_direct_matches(family_graph, explainer, lexicon):
    result = harvest(
        ["founder", "mother", "person", "Ludwig van Beethoven"],
        family_graph, explainer, lexicon, kappa=5,
    )
    assert result.examples == []
    assert [s.phrase for s in result.skipped] == [
        "founder", "mother", "person", "Ludwig van Beethoven",
    ]
    assert [s.reason for s in result.skipped] == [
        "direct relation match: http://example.org/ontology/founder",
        "direct relation match: http://example.org/ontology/mother",
        "direct type match: http://example.org/ontology/Person",
        "direct entity match: http://example.org/resource/LudwigVanBeethoven",
    ]


def test_harvest_skips_ambiguous_pairs(family_graph, explainer, lexicon):
    # (parent, parent) instantiates more than one shape in the fixture
    result = harvest(["grandparent"], family_graph, explainer, lexicon, kappa=5)
    assert result.examples == []
    assert "shapes" in result.skipped[0].reason


def test_harvest_respects_kappa(family_graph, explainer, lexicon):
    from relink.cli import data_path

    phrases = data_path("phrases.txt").read_text("utf-8").splitlines()
    result = harvest(phrases, family_graph, explainer, lexicon, kappa=3)
    assert len(result.examples) == 3


def test_harvest_outputs_satisfy_invariants(family_graph, explainer, lexicon):
    from relink.cli import data_path

    phrases = data_path("phrases.txt").read_text("utf-8").splitlines()
    result = harvest(phrases, family_graph, explainer, lexicon, kappa=10)
    assert 0 < len(result.examples) <= 10
    for ex in result.examples:
        assert shape_of(ex.pattern) is ex.label
        assert has_instance(family_graph, ex.pattern)
        assert ex.label in classify.CLASSES


def test_harvest_deterministic(family_graph, explainer, lexicon):
    from relink.cli import data_path

    phrases = data_path("phrases.txt").read_text("utf-8").splitlines()
    a = harvest(phrases, family_graph, explainer, lexicon, kappa=10)
    b = harvest(phrases, family_graph, explainer, lexicon, kappa=10)
    assert a.examples == b.examples
    assert a.skipped == b.skipped


def test_harvest_rejects_bad_kappa(family_graph, explainer, lexicon):
    with pytest.raises(ValueError):
        harvest([], family_graph, explainer, lexicon, kappa=0)
