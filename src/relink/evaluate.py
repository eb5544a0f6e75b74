"""Scoring, baselines, and the benchmark harness.

Structured predictions are scored at the edge level: the best variable
alignment between predicted and gold patterns decides how many edges
match, giving partial credit for near-misses. Three baselines bracket
the full pipeline: exact keyword match, similarity search over predicate
labels, and data-driven assembly without meta-pattern guidance.
"""

from __future__ import annotations

import itertools
import json
import logging
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from . import text
from .assemble import Linker, link_data_driven
from .classify import TrainingExample, featurize, featurize_raw, fit, train
from .kg import read_json_lines
from .linking import GraphLabels, Lexicon, detect_elements, direct_match, link_simple
from .patterns import MetaPattern, SubgraphPattern, instantiate

log = logging.getLogger(__name__)

METHODS = ("keyword_match", "similarity_search", "data_driven", "our_approach")

REPORT_NOTES = [
    "third-party linking backends are not bundled; all baselines are native implementations",
]


@dataclass(frozen=True)
class GoldEntry:
    phrase: str
    gold_pattern: SubgraphPattern
    known_failure: bool = False

    def to_json(self) -> dict:
        return {
            "phrase": self.phrase,
            "gold_pattern": self.gold_pattern.to_json(),
            "known_failure": self.known_failure,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GoldEntry":
        phrase = data["phrase"]
        if not isinstance(phrase, str) or not phrase.strip():
            raise ValueError(f"phrase must be a non-blank string, got {phrase!r}")
        known_failure = data.get("known_failure", False)
        if not isinstance(known_failure, bool):
            raise TypeError(f"known_failure must be a JSON boolean, got {known_failure!r}")
        return cls(
            phrase=phrase,
            gold_pattern=SubgraphPattern.from_json(data["gold_pattern"]),
            known_failure=known_failure,
        )


def load_gold(path: Union[str, Path]) -> list[GoldEntry]:
    """Entries of a JSONL file, one per line (``kg.read_json_lines``); a
    bad line, or a file with no entry, raises ``DataError`` naming the
    file."""
    return read_json_lines(path, GoldEntry.from_json)


def save_gold(entries: Sequence[GoldEntry], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e.to_json(), sort_keys=True) + "\n")


def matched_edges(predicted: SubgraphPattern, gold: SubgraphPattern) -> int:
    """Edges agreeing under the best variable alignment.

    Every mapping from predicted variables to gold variables is tried
    (patterns are tiny); matched edges are counted as a multiset so two
    predicted edges cannot claim one gold edge.
    """
    gold_edges = Counter((e.src, e.rel, e.dst) for e in gold.edges)
    gold_vars = sorted(gold.variables())
    pred_vars = sorted(predicted.variables())
    best = 0
    for assignment in itertools.product(gold_vars, repeat=len(pred_vars)):
        mapping = dict(zip(pred_vars, assignment))
        mapped = Counter(
            (mapping[e.src], e.rel, mapping[e.dst])
            for e in predicted.edges
            if mapping[e.src] != mapping[e.dst]
        )
        score = sum((mapped & gold_edges).values())
        if score > best:
            best = score
            if best == len(predicted.edges):
                break
    return best


def score(
    predicted: Optional[SubgraphPattern], gold: SubgraphPattern
) -> tuple[float, float, float]:
    """Edge-level precision/recall/F1; a no-match scores (0, 0, 0)."""
    if not gold.edges:
        raise ValueError("gold pattern must be non-empty")
    if predicted is None:
        return (0.0, 0.0, 0.0)
    m = matched_edges(predicted, gold)
    p = m / len(predicted.edges)
    r = m / len(gold.edges)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return (p, r, f1)


def exact_match(predicted: Optional[SubgraphPattern], gold: SubgraphPattern) -> bool:
    if predicted is None or len(predicted.edges) != len(gold.edges):
        return False
    return matched_edges(predicted, gold) == len(gold.edges)


# -- baselines ---------------------------------------------------------------


def keyword_match(phrase: str, labels: GraphLabels) -> Optional[SubgraphPattern]:
    """Single edge for a predicate whose label tokens equal the phrase tokens."""
    hit = direct_match(phrase, labels, Lexicon())
    if hit is None or hit.category != "relation":
        return None
    return instantiate(MetaPattern.RP1, [hit.iri])


def similarity_search(phrase: str, labels: GraphLabels) -> Optional[SubgraphPattern]:
    """Single edge for the argmax-similarity predicate (no threshold)."""
    hit = link_simple(text.tokenize(phrase), labels, Lexicon(), 0.0)
    return None if hit is None else instantiate(MetaPattern.RP1, [hit[0]])


def data_driven(phrase: str, linker: Linker) -> Optional[SubgraphPattern]:
    """Explanation plus element detection, then unguided assembly."""
    explanation = linker.explainer.explain(phrase)
    if explanation is None:
        return None
    tokens = text.tokenize(explanation.sentence)
    elems = detect_elements(
        tokens, linker.labels, linker.lexicon, linker.config.theta_rel
    )
    return link_data_driven(elems, linker.g)


def run_baseline(
    method: str, phrase: str, linker: Linker
) -> Optional[SubgraphPattern]:
    if method == "keyword_match":
        return keyword_match(phrase, linker.labels)
    if method == "similarity_search":
        return similarity_search(phrase, linker.labels)
    if method == "data_driven":
        return data_driven(phrase, linker)
    if method == "our_approach":
        return linker.link(phrase).pattern
    raise ValueError(f"unknown method: {method!r}")


# -- reports -----------------------------------------------------------------


def _rounded(data):
    """``data`` with every float, in nested dicts and lists too, rounded
    to 6 places: the report's fields as written."""
    if isinstance(data, float):
        return round(data, 6)
    if isinstance(data, dict):
        return {k: _rounded(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_rounded(v) for v in data]
    return data


@dataclass
class PhraseScore:
    phrase: str
    precision: float
    recall: float
    f1: float
    exact: bool
    known_failure: bool
    matched: bool

    def to_json(self) -> dict:
        return _rounded(asdict(self))


@dataclass
class MethodReport:
    method: str
    precision: float
    recall: float
    f1: float
    exact_rate: float
    per_phrase: list[PhraseScore]
    mean_time: Optional[float] = None
    time_variance: Optional[float] = None

    def to_json(self) -> dict:
        """The rounded fields; the timing, unrounded, only for a timed run."""
        out = _rounded(asdict(self))
        del out["mean_time"], out["time_variance"]
        if self.mean_time is not None:
            out.update(mean_time_s=self.mean_time, time_variance=self.time_variance)
        return out


@dataclass
class EvalReport:
    methods: list[MethodReport]
    notes: list[str] = field(default_factory=lambda: list(REPORT_NOTES))

    def method(self, name: str) -> MethodReport:
        for m in self.methods:
            if m.method == name:
                return m
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "methods": [m.to_json() for m in self.methods],
            "notes": self.notes,
        }

    def render_text(self) -> str:
        lines = [
            f"{'method':<18} {'P':>7} {'R':>7} {'F1':>7} {'exact':>7}"
            + (f" {'time(s)':>10}" if any(m.mean_time is not None for m in self.methods) else "")
        ]
        for m in self.methods:
            row = (
                f"{m.method:<18} {m.precision:>7.3f} {m.recall:>7.3f}"
                f" {m.f1:>7.3f} {m.exact_rate:>7.3f}"
            )
            if m.mean_time is not None:
                row += f" {m.mean_time:>10.6f}"
            lines.append(row)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def evaluate(
    gold: Sequence[GoldEntry],
    methods: Sequence[str],
    linker: Linker,
    timing: bool = False,
    timing_reps: int = 20,
) -> EvalReport:
    """Score each method on the gold set; optionally measure latency.

    The explanation cache is pre-warmed before any timing run so measured
    time excludes provider latency; the mean and variance are over
    ``timing_reps`` full passes of each method, at least two so the
    variance is defined.
    """
    if not gold:
        raise ValueError("gold set must be non-empty")
    if timing and timing_reps < 2:
        raise ValueError(f"timing_reps must be at least 2, got {timing_reps}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method: {method!r}")
        if methods.count(method) > 1:
            raise ValueError(f"method listed more than once: {method!r}")

    for entry in gold:  # warm the explanation cache
        linker.explainer.explain(entry.phrase)

    reports = []
    for method in methods:
        per_phrase = []
        for entry in gold:
            predicted = run_baseline(method, entry.phrase, linker)
            p, r, f1 = score(predicted, entry.gold_pattern)
            per_phrase.append(
                PhraseScore(
                    entry.phrase, p, r, f1,
                    exact_match(predicted, entry.gold_pattern),
                    entry.known_failure,
                    predicted is not None,
                )
            )
        n = len(per_phrase)
        report = MethodReport(
            method=method,
            precision=sum(s.precision for s in per_phrase) / n,
            recall=sum(s.recall for s in per_phrase) / n,
            f1=sum(s.f1 for s in per_phrase) / n,
            exact_rate=sum(1 for s in per_phrase if s.exact) / n,
            per_phrase=per_phrase,
        )
        reports.append(report)
    if timing:
        for report, times in zip(reports, _measure(methods, gold, linker, timing_reps)):
            report.mean_time, report.time_variance = times
    return EvalReport(reports)


def _measure(
    methods: Sequence[str], gold: Sequence[GoldEntry], linker: Linker, reps: int
) -> list[tuple[float, float]]:
    """Per method, the mean and variance of its per-phrase time over passes.

    After one untimed warm-up pass of each method, every round times one
    pass of each method in turn, so a slow spell of the host falls on all
    methods alike instead of on whichever one it happens to overlap.
    """
    for method in methods:
        for entry in gold:
            run_baseline(method, entry.phrase, linker)
    rep_means: list[list[float]] = [[] for _ in methods]
    for _ in range(reps):
        for method, means in zip(methods, rep_means):
            start = time.perf_counter()
            for entry in gold:
                run_baseline(method, entry.phrase, linker)
            means.append((time.perf_counter() - start) / len(gold))
    return [(statistics.mean(m), statistics.variance(m)) for m in rep_means]


# -- masking ablation ----------------------------------------------------------


@dataclass
class ClassificationMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float

    def to_json(self) -> dict:
        return _rounded(asdict(self))


def classification_metrics(
    gold: Sequence[MetaPattern], predicted: Sequence[MetaPattern]
) -> ClassificationMetrics:
    """Macro metrics: recall averages over classes present in the gold
    labels, precision over classes actually predicted, and F1 averages
    the per-class harmonic means over the gold classes."""
    gold_classes = sorted({g.value for g in gold})
    pred_classes = sorted({p.value for p in predicted})
    per_class_p: dict[str, float] = {}
    per_class_r: dict[str, float] = {}
    for cls in set(gold_classes) | set(pred_classes):
        tp = sum(1 for g, p in zip(gold, predicted) if g.value == cls and p.value == cls)
        fp = sum(1 for g, p in zip(gold, predicted) if g.value != cls and p.value == cls)
        fn = sum(1 for g, p in zip(gold, predicted) if g.value == cls and p.value != cls)
        if tp + fp > 0:
            per_class_p[cls] = tp / (tp + fp)
        if tp + fn > 0:
            per_class_r[cls] = tp / (tp + fn)
    precision = (
        sum(per_class_p[c] for c in pred_classes) / len(pred_classes)
        if pred_classes
        else 0.0
    )
    recall = (
        sum(per_class_r[c] for c in gold_classes) / len(gold_classes)
        if gold_classes
        else 0.0
    )
    f_values = []
    for cls in gold_classes:
        p = per_class_p.get(cls, 0.0)
        r = per_class_r.get(cls, 0.0)
        f_values.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    f1 = sum(f_values) / len(f_values) if f_values else 0.0
    accuracy = (
        sum(1 for g, p in zip(gold, predicted) if g == p) / len(gold) if gold else 0.0
    )
    return ClassificationMetrics(precision, recall, f1, accuracy)


@dataclass
class AblationReport:
    masked: ClassificationMetrics
    unmasked: ClassificationMetrics

    def to_json(self) -> dict:
        return _rounded(asdict(self))


def ablate_masking(
    train_examples: Sequence[TrainingExample],
    test_examples: Sequence[TrainingExample],
    seed: int = 42,
) -> AblationReport:
    """Train and evaluate twice: masked-sentence features vs raw tokens."""
    gold = [ex.label for ex in test_examples]

    masked_clf, _ = train(train_examples, seed)
    masked_pred = [
        masked_clf.predict_features(featurize(ex.masked))[0] for ex in test_examples
    ]

    raw_clf, _ = fit(
        [featurize_raw(ex.sentence) for ex in train_examples],
        [ex.label for ex in train_examples],
        seed,
    )
    raw_pred = [
        raw_clf.predict_features(featurize_raw(ex.sentence))[0] for ex in test_examples
    ]

    return AblationReport(
        masked=classification_metrics(gold, masked_pred),
        unmasked=classification_metrics(gold, raw_pred),
    )
