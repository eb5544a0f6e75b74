"""Relation masking and meta-pattern classification.

Explanation sentences are masked by replacing each linked relation
mention with ``*<localname>`` before classification; the mask both marks
where relations sit and injects graph-specific vocabulary. A linear
bag-of-features model decides between the three two-edge shapes. Any
object with a compatible ``predict`` can replace the bundled model.

Training data comes from two sources: hand-labeled examples and the
harvester, which walks a phrase stream and keeps the phrases whose two
linked relations join in exactly one way in the graph.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

from . import text
from .explain import ExplanationService
from .kg import DataError, KnowledgeGraph, read_bytes, read_json, read_json_lines
from .linking import (
    DEFAULT_THETA_REL,
    GraphLabels,
    Lexicon,
    MetaElements,
    Token,
    detect_elements,
    direct_match,
    relation_mask_name,
)
from .patterns import (
    CLASSES,
    DEFAULT_TIE_BREAK,
    MetaPattern,
    SubgraphPattern,
    adjacent_instantiations,
    instantiate,
    shape_of,
)

log = logging.getLogger(__name__)

MODEL_FORMAT = "relink-linear/1"
EPOCHS = 200
LEARNING_RATE = 0.1
L2 = 1e-4

MASK_PREFIX = "*"
GENERIC_MASK = "*REL"
_BETWEEN_MARKERS = ("of", "who", "from", "'s")


class FeaturizeError(ValueError):
    pass


class TrainingDataError(DataError):
    """Training data that cannot be used: a malformed line or too few examples."""


@dataclass(frozen=True)
class MaskedSentence:
    """Sentence tokens after relation masking; masks start with ``*``."""

    tokens: tuple[str, ...]
    relation_count: int

    def __str__(self) -> str:
        return " ".join(self.tokens)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "MaskedSentence":
        toks = tuple(tokens)
        return cls(toks, sum(1 for t in toks if t.startswith(MASK_PREFIX)))


def mask(tokens: Sequence[Token], elems: MetaElements) -> MaskedSentence:
    """Replace each relation mention span with ``*<localname>``.

    Type spans and plain words stay as lowercased tokens; a multi-token
    mention collapses to a single mask token.
    """
    n = len(tokens)
    span_starts = {}
    covered = set()
    for hit in elems.relations:
        if hit.span.start < 0 or hit.span.end > n:
            raise ValueError(f"relation span {hit.span} out of bounds for {n} tokens")
        span_starts[hit.span.start] = hit
        covered.update(range(hit.span.start, hit.span.end))

    out: list[str] = []
    i = 0
    while i < n:
        hit = span_starts.get(i)
        if hit is not None:
            out.append(MASK_PREFIX + relation_mask_name(hit.relation))
            i = hit.span.end
            continue
        if i in covered:  # interior of a span already emitted
            i += 1
            continue
        tok = tokens[i]
        out.append(str(tok).lower())
        i += 1
    return MaskedSentence(tuple(out), len(elems.relations))


def _mask_positions(tokens: Sequence[str]) -> list[int]:
    return [i for i, tok in enumerate(tokens) if tok.startswith(MASK_PREFIX)]


def _token_features(tokens: Sequence[str], masks: Sequence[int]) -> dict[str, float]:
    """Unigram and bigram features. The tokens at ``masks`` also count as
    ``GENERIC_MASK``: one unigram, keyed right after the first mask's, and
    every bigram sees only that generic form. Key order is the order in
    which ``PatternClassifier.predict_features`` adds the weights."""
    first_mask = masks[0] if masks else -1
    feats: dict[str, float] = {}
    for i, tok in enumerate(tokens):
        feats[f"uni={tok}"] = 1.0
        if i == first_mask:
            feats[f"uni={GENERIC_MASK}"] = 1.0
    prev = None
    for i, tok in enumerate(tokens):
        if i in masks:
            tok = GENERIC_MASK
        if prev is not None:
            feats[f"bi={prev}|{tok}"] = 1.0
        prev = tok
    return feats


def _require_two_masks(ms: MaskedSentence) -> None:
    if ms.relation_count < 2:
        raise FeaturizeError(
            f"need at least 2 masked relations, got {ms.relation_count}"
        )


def featurize(ms: MaskedSentence) -> dict[str, float]:
    """Deterministic sparse features of a masked sentence.

    Besides token unigrams/bigrams, the window between the first two
    masks drives most of the signal: its tokens, marker words inside it,
    whether it is empty (adjacent masks), and its bucketed width.
    """
    _require_two_masks(ms)
    masks = _mask_positions(ms.tokens)
    feats = _token_features(ms.tokens, masks)

    first, second = masks[0], masks[1]
    between = ms.tokens[first + 1 : second]
    for tok in between:
        feats[f"btw={tok}"] = 1.0
    for marker in _BETWEEN_MARKERS:
        if marker in between:
            feats[f"btw_has={marker}"] = 1.0
    if not between:
        feats["masks_adjacent"] = 1.0
    width = len(between)
    bucket = "0" if width == 0 else "1" if width == 1 else "2-3" if width <= 3 else "4+"
    feats[f"mask_dist={bucket}"] = 1.0
    return feats


def featurize_raw(tokens: Sequence[str]) -> dict[str, float]:
    """Unigram/bigram features of unmasked tokens (the ablation arm)."""
    lowered = [t.lower() for t in tokens]
    return _token_features(lowered, _mask_positions(lowered))


@dataclass(frozen=True)
class TrainingExample:
    phrase: str
    sentence: tuple[str, ...]  # raw tokens before masking
    masked: MaskedSentence
    label: MetaPattern
    pattern: SubgraphPattern
    origin: str = "manual"  # or "harvested"

    def __post_init__(self):
        if self.label not in CLASSES:
            raise ValueError(f"label must be one of {CLASSES}, got {self.label}")
        shape = shape_of(self.pattern)
        if shape is not self.label:
            raise ValueError(
                f"pattern shape {shape} does not match label {self.label}"
            )
        _require_two_masks(self.masked)

    def to_json(self) -> dict:
        return {
            "phrase": self.phrase,
            "sentence": list(self.sentence),
            "masked": list(self.masked.tokens),
            "label": self.label.value,
            "pattern": self.pattern.to_json(),
            "origin": self.origin,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TrainingExample":
        return cls(
            phrase=_string(data["phrase"], "phrase"),
            sentence=_tokens(data["sentence"], "sentence"),
            masked=MaskedSentence.from_tokens(_tokens(data["masked"], "masked")),
            label=MetaPattern(data["label"]),
            pattern=SubgraphPattern.from_json(data["pattern"]),
            origin=_string(data.get("origin", "manual"), "origin"),
        )


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _tokens(value, name: str) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; a string, which would iterate
    as its characters, is refused like any other non-list."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise TypeError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def save_examples(examples: Iterable[TrainingExample], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_json(), sort_keys=True) + "\n")


def load_examples(path: Union[str, Path]) -> list[TrainingExample]:
    """Examples of a JSONL file, one per line (``kg.read_json_lines``); a
    bad line, or a file with no entry, raises ``TrainingDataError``
    naming the file."""
    return read_json_lines(path, TrainingExample.from_json, TrainingDataError)


def merge_review(
    examples: Sequence[TrainingExample], review: dict
) -> list[TrainingExample]:
    """Apply an accept/reject/relabel review file to harvested examples.

    Relabeling re-instantiates the pattern template under the new label,
    keeping the relation order, so the shape/label invariant holds. Any
    other verdict, or a label not in ``CLASSES``, raises ``TrainingDataError``.
    """
    labels = [c.value for c in CLASSES]  # a list: `in` compares, so a list value cannot raise
    out: list[TrainingExample] = []
    for ex in examples:
        verdict = review.get(ex.phrase, "accept")
        if verdict == "accept":
            out.append(ex)
        elif verdict == "reject":
            continue
        elif isinstance(verdict, dict) and verdict.get("relabel") in labels:
            label = MetaPattern(verdict["relabel"])
            pattern = instantiate(label, ex.pattern.relations())
            out.append(
                TrainingExample(
                    ex.phrase, ex.sentence, ex.masked, label, pattern, ex.origin
                )
            )
        else:
            raise TrainingDataError(f"bad review verdict for {ex.phrase!r}: {verdict!r}")
    return out


@dataclass
class TrainReport:
    class_counts: dict[str, int]
    train_accuracy: float


def _is_number_list(value: object) -> bool:
    return isinstance(value, list) and all(type(x) in (int, float) for x in value)


class PatternClassifier:
    """Multinomial linear model over sparse features.

    The constructor checks the model and keeps read-only Python float
    copies of ``weights`` (one row per class of ``CLASSES``, one column per
    vocabulary index), as a tuple of tuples, and of ``bias``, as a tuple; a
    model that does not fit raises ``ValueError("malformed model: …")``.
    """

    def __init__(
        self,
        vocabulary: dict[str, int],
        weights: Sequence[Sequence[float]],
        bias: Sequence[float],
    ):
        try:
            weights = tuple(tuple(map(float, row)) for row in weights)
            bias = tuple(map(float, bias))
        # an int no float holds, a string that is no number, a row that is a number
        except (OverflowError, ValueError, TypeError) as exc:
            raise ValueError(f"malformed model: weights and bias: {exc}") from exc
        shape = (len(CLASSES), len(vocabulary))
        widths = sorted({len(row) for row in weights})
        if len(weights) != shape[0] or widths != [shape[1]] or len(bias) != shape[0]:
            raise ValueError(
                f"malformed model: weights ({len(weights)} rows, widths {widths})"
                f" and bias ({len(bias)}) do not fit {shape[0]} classes, {shape[1]} features"
            )
        if any(type(i) is not int or not 0 <= i < shape[1] for i in vocabulary.values()):
            raise ValueError(
                f"malformed model: vocabulary indexes must be integers in [0, {shape[1]})"
            )
        if len(set(vocabulary.values())) != len(vocabulary):
            raise ValueError("malformed model: vocabulary indexes must be distinct")
        if not all(math.isfinite(x) for row in (bias, *weights) for x in row):
            raise ValueError("malformed model: weights and bias must be finite")
        self.vocabulary = dict(vocabulary)
        self.weights = weights
        self.bias = bias
        # feature name -> its weight for each class
        columns = list(zip(*weights))
        self._columns = {name: columns[i] for name, i in self.vocabulary.items()}

    def predict_features(self, feats: dict[str, float]) -> tuple[MetaPattern, float]:
        """The most probable class and its softmax probability.

        The scores are summed in Python floats, from the bias and in the
        order of ``feats``, one ``value * weight`` product per class and
        feature: the IEEE operations, in the same order, of adding each
        feature's weight column to a numpy score vector. The shifted scores
        go through ``math.exp`` and are normalised by ``(e0 + e1) + e2``,
        the order in which numpy sums a row of three. So the result is
        bit-identical to that numpy score vector normalised with
        ``math.exp`` (``tests/oracles.py::reference_predict_features``),
        and within a few ulp of numpy's ``np.exp`` softmax.
        """
        z0, z1, z2 = self.bias
        columns = self._columns
        for name, value in feats.items():
            column = columns.get(name)
            if column is not None:
                w0, w1, w2 = column
                z0 += value * w0
                z1 += value * w1
                z2 += value * w2
        top = max(z0, z1, z2)
        e0, e1, e2 = math.exp(z0 - top), math.exp(z1 - top), math.exp(z2 - top)
        total = (e0 + e1) + e2
        probs = (e0 / total, e1 / total, e2 / total)
        best = max(probs)
        # exact ties resolve through the fixed class order
        tied = [c for c, p in zip(CLASSES, probs) if p == best]
        return min(tied, key=DEFAULT_TIE_BREAK.index), best

    def predict(self, ms: MaskedSentence) -> tuple[MetaPattern, float]:
        return self.predict_features(featurize(ms))

    # -- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "classes": [c.value for c in CLASSES],
            "tie_break": [c.value for c in DEFAULT_TIE_BREAK],
            "vocabulary": self.vocabulary,
            "weights": [list(row) for row in self.weights],
            "bias": list(self.bias),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True), "utf-8")

    @classmethod
    def from_json(cls, data: dict) -> "PatternClassifier":
        """The model a ``to_json`` dict describes. Weights and bias must be
        JSON numbers and vocabulary indexes JSON integers, so that no
        ``true`` or ``1.5`` loads as the number or column it converts to."""
        fmt = data.get("format") if isinstance(data, dict) else None
        if fmt != MODEL_FORMAT:
            raise ValueError(f"unsupported model format: {fmt!r}")
        try:
            vocabulary, weights, bias = data["vocabulary"], data["weights"], data["bias"]
            orders = {key: data[key] for key in ("classes", "tie_break")}
        except KeyError as exc:
            raise ValueError(f"malformed model: missing key {exc}") from exc
        for key, order in (("classes", CLASSES), ("tie_break", DEFAULT_TIE_BREAK)):
            fixed = [c.value for c in order]
            if orders[key] != fixed:
                raise ValueError(
                    f"malformed model: {key} {orders[key]!r} is not the fixed"
                    f" order {', '.join(fixed)}"
                )
        if not isinstance(vocabulary, dict):
            raise ValueError("malformed model: vocabulary is not an object")
        if not (
            isinstance(weights, list)
            and all(_is_number_list(row) for row in weights)
            and _is_number_list(bias)
        ):
            raise ValueError(
                "malformed model: weights must be lists of numbers, bias a list of numbers"
            )
        return cls(vocabulary, weights, bias)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PatternClassifier":
        data = read_json(path, "model")
        try:
            return cls.from_json(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def fit(
    features: list[dict[str, float]],
    labels: list[MetaPattern],
    seed: int,
) -> tuple[PatternClassifier, TrainReport]:
    """Fit the linear model on sparse features, ``EPOCHS`` full-batch
    gradient steps from weights drawn with ``seed``.

    An epoch is ``z = x @ w.T + b``, ``z -= z.max(1)``, ``p = exp(z)``,
    ``p /= p.sum(1)``, ``grad = (p - y) / n``,
    ``w -= LEARNING_RATE * (grad.T @ x + L2 * w)`` and
    ``b -= LEARNING_RATE * grad.sum(0)``; ``tests/oracles.py::reference_fit``
    runs the same loop.
    """
    import numpy as np

    present = set(labels)
    missing = [c.value for c in CLASSES if c not in present]
    if missing:
        raise TrainingDataError(f"missing training classes: {', '.join(missing)}")

    vocab = {name: i for i, name in enumerate(sorted(set().union(*features)))}
    n, f, c = len(features), len(vocab), len(CLASSES)
    x = np.zeros((n, f))
    x[
        [row for row, feats in enumerate(features) for _ in feats],
        [vocab[name] for feats in features for name in feats],
    ] = [value for feats in features for value in feats.values()]
    class_index = {cls: i for i, cls in enumerate(CLASSES)}
    y = np.zeros((n, c))
    y[range(n), [class_index[label] for label in labels]] = 1.0

    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1e-3, size=(c, f))
    b = np.zeros(c)
    for _ in range(EPOCHS):
        z = x @ w.T + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        grad = (p - y) / n
        w -= LEARNING_RATE * (grad.T @ x + L2 * w)
        b -= LEARNING_RATE * grad.sum(axis=0)

    clf = PatternClassifier(vocab, w.tolist(), b.tolist())
    z = x @ w.T + b
    accuracy = float((z.argmax(axis=1) == y.argmax(axis=1)).mean())
    counts = {cls.value: labels.count(cls) for cls in CLASSES}
    report = TrainReport(counts, accuracy)
    log.info("trained on %d examples, accuracy %.3f, counts %s", n, accuracy, counts)
    return clf, report


def train(
    examples: Sequence[TrainingExample], seed: int = 42
) -> tuple[PatternClassifier, TrainReport]:
    """Fit the linear model on masked-sentence features."""
    if not examples:
        raise TrainingDataError("no training examples")
    features = [featurize(ex.masked) for ex in examples]
    labels = [ex.label for ex in examples]
    return fit(features, labels, seed)


def trained_on(training: bytes, seed: int) -> dict:
    """What ``train(load_examples(path), seed)`` depends on, for a training
    file holding the bytes ``training``: their SHA-256, the seed, and
    ``EPOCHS``, ``LEARNING_RATE`` and ``L2``. A bundled model file keeps
    this record, as ``trained_on``, next to its weights."""
    import hashlib  # here, not at the top: `relink ingest` never hashes

    return {
        "sha256": hashlib.sha256(training).hexdigest(),
        "seed": seed,
        "epochs": EPOCHS,
        "learning_rate": LEARNING_RATE,
        "l2": L2,
    }


def train_or_load(
    training: Union[str, Path], seed: int, bundled: Union[str, Path]
) -> PatternClassifier:
    """The classifier ``train(load_examples(training), seed)`` gives: the
    model in the file ``bundled`` when its ``trained_on`` record equals
    that of the training file's bytes and ``seed`` (a content-addressed
    cache), else a fresh training. The two differ at most in the last bits
    of their weights, as BLAS kernels differ between CPUs."""
    record = trained_on(read_bytes(training), seed)
    data = read_json(bundled, "model")
    if data.get("trained_on") == record:
        log.info(
            "bundled model: training file sha256 %s..., seed %d",
            record["sha256"][:12],
            seed,
        )
        return PatternClassifier.from_json(data)
    classifier, _ = train(load_examples(training), seed)
    return classifier


@dataclass(frozen=True)
class HarvestSkip:
    phrase: str
    reason: str


@dataclass
class HarvestResult:
    examples: list[TrainingExample]
    skipped: list[HarvestSkip]


def harvest(
    phrases: Iterable[str],
    g: KnowledgeGraph,
    explainer: ExplanationService,
    lexicon: Lexicon,
    kappa: int,
    theta_rel: float = DEFAULT_THETA_REL,
) -> HarvestResult:
    """Collect training examples from a phrase stream.

    A phrase contributes iff it does not name anything in the graph
    directly, its explanation links to exactly two relations, and that
    relation pair joins under exactly one two-edge shape. Processing is
    sequential so the kappa cutoff is deterministic.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0.0 <= theta_rel <= 1.0:
        raise ValueError(f"theta_rel must be in [0, 1], got {theta_rel!r}")
    labels = GraphLabels.of(g)
    examples: list[TrainingExample] = []
    skipped: list[HarvestSkip] = []

    def skip(phrase: str, reason: str):
        skipped.append(HarvestSkip(phrase, reason))
        log.debug("harvest skip %r: %s", phrase, reason)

    for phrase in phrases:
        phrase = phrase.strip()
        if not phrase:
            continue
        if len(examples) >= kappa:
            break
        hit = direct_match(phrase, labels, lexicon)
        if hit is not None:
            skip(phrase, f"direct {hit.category} match: {hit.iri}")
            continue
        explanation = explainer.explain(phrase)
        if explanation is None:
            skip(phrase, "no explanation")
            continue
        tokens = text.tokenize(explanation.sentence)
        elems = detect_elements(tokens, labels, lexicon, theta_rel)
        relations = [h.relation for h in elems.relations]
        if len(relations) != 2:
            skip(phrase, f"{len(relations)} relations detected, need exactly 2")
            continue
        uses = adjacent_instantiations(g, relations[0], relations[1])
        if len(uses) != 1:
            skip(
                phrase,
                "not adjacent in graph" if not uses else f"{len(uses)} shapes instantiable",
            )
            continue
        (use,) = uses
        examples.append(
            TrainingExample(
                phrase=phrase,
                sentence=tuple(tokens),
                masked=mask(tokens, elems),
                label=use.kind,
                pattern=use.pattern(),
                origin="harvested",
            )
        )
    return HarvestResult(examples, skipped)
