"""Recursive compound-phrase linking.

The pipeline for a phrase: a direct predicate hit short-circuits to a
single-edge pattern; otherwise the phrase's explanation sentence is
analyzed. Unlinked content n-grams that the explainer can define are
linked recursively and spliced back in as pseudo-relations. One relation
mention is a single-edge pattern. Two or more are assembled pair by
pair, left to right: a pair's candidates are the classified meta pattern
first, then the other shapes in tie-break order (a chain in sentence
order, then swapped), and the first candidate the graph validates is
accepted. With three or more mentions, each accepted pair but the last
becomes a pseudo-relation that pairs with the next mention.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from . import text
from .classify import PatternClassifier, mask
from .explain import ExplanationService, normalize_phrase
from .kg import KnowledgeGraph
from .linking import (
    DEFAULT_THETA_REL,
    GraphLabels,
    Lexicon,
    MetaElements,
    PseudoRelation,
    RelationHit,
    Span,
    Token,
    TypeHit,
    content_spans,
    detect_elements,
    direct_match,
)
from .patterns import (
    CLASSES,
    DEFAULT_TIE_BREAK,
    TEMPLATES,
    MetaPattern,
    PatternEdge,
    SubgraphPattern,
    has_instance,
    instantiate,
    plans,
)

log = logging.getLogger(__name__)

STRICT = "strict"
PERMISSIVE = "permissive"

# a type mention restricts a relation mention at most this many tokens away
TYPE_WINDOW = 3


@dataclass
class LinkConfig:
    max_recursion_depth: int = 3
    theta_rel: float = DEFAULT_THETA_REL
    validation: str = STRICT

    def __post_init__(self):
        if self.max_recursion_depth < 1:
            raise ValueError("max_recursion_depth must be >= 1")
        if not 0.0 <= self.theta_rel <= 1.0:
            raise ValueError(f"theta_rel must be in [0, 1], got {self.theta_rel!r}")
        if self.validation not in (STRICT, PERMISSIVE):
            raise ValueError(f"unknown validation mode: {self.validation!r}")


@dataclass
class LinkResult:
    phrase: str
    pattern: Optional[SubgraphPattern]
    trace: list[dict]
    depth: int

    @property
    def matched(self) -> bool:
        return self.pattern is not None

    def to_json(self) -> dict:
        return {
            "phrase": self.phrase,
            "pattern": self.pattern.to_json() if self.pattern else None,
            "depth": self.depth,
            "trace": self.trace,
        }


def _span_gap(a: Span, b: Span) -> int:
    """Tokens strictly between two spans (0 when adjacent or overlapping)."""
    if a.start > b.start:
        a, b = b, a
    return max(0, b.start - a.end)


class Linker:
    """Binds the graph, its ``labels``, explainer, lexicon, classifier, and config."""

    def __init__(
        self,
        g: KnowledgeGraph,
        explainer: ExplanationService,
        lexicon: Lexicon,
        classifier: PatternClassifier,
        config: Optional[LinkConfig] = None,
    ):
        self.g = g
        self.labels = GraphLabels.of(g)
        self.explainer = explainer
        self.lexicon = lexicon
        self.classifier = classifier
        self.config = config or LinkConfig()

    # -- public entry -------------------------------------------------------

    def link(self, phrase: str) -> LinkResult:
        if not phrase or not phrase.strip():
            raise ValueError("phrase must be non-empty")
        trace: list[dict] = []
        key = normalize_phrase(phrase)
        state = _LinkState(trace=trace, active={key})

        hit = direct_match(phrase, self.labels, self.lexicon)
        if hit is not None and hit.category == "relation":
            pattern = instantiate(MetaPattern.RP1, [hit.iri])
            trace.append({"step": "direct-match", "relation": hit.iri})
            return LinkResult(phrase, pattern, trace, depth=0)

        explanation = self.explainer.explain(phrase)
        if explanation is None:
            trace.append({"step": "explanation-miss", "phrase": key})
            return LinkResult(phrase, None, trace, depth=0)
        trace.append(
            {
                "step": "explanation",
                "phrase": explanation.phrase,
                "sentence": explanation.sentence,
                "source": explanation.source,
            }
        )
        tokens: list[Token] = list(text.tokenize(explanation.sentence))
        pattern = self._link_sentence(tokens, 1, state)
        return LinkResult(phrase, pattern, trace, depth=state.max_depth)

    # -- algorithm core -------------------------------------------------------

    def _link_sentence(
        self, tokens: list[Token], depth: int, state: "_LinkState"
    ) -> Optional[SubgraphPattern]:
        if depth > self.config.max_recursion_depth:
            state.trace.append({"step": "recursion-limit", "depth": depth})
            return None
        state.max_depth = max(state.max_depth, depth)

        elems = detect_elements(tokens, self.labels, self.lexicon, self.config.theta_rel)
        state.trace.append(_elements_step(tokens, elems, depth))

        tokens, elems = self._resolve_nested(tokens, elems, depth, state)

        relations = elems.relations
        if not relations:
            state.trace.append({"step": "no-match", "reason": "no relations detected"})
            return None

        if len(relations) == 1:
            return self._link_single(relations[0], elems.types, state)

        masked = mask(tokens, elems)
        mp, confidence = self.classifier.predict(masked)
        state.trace.append(
            {
                "step": "classified",
                "masked": list(masked.tokens),
                "meta_pattern": mp.value,
                "confidence": round(confidence, 6),
            }
        )
        return self._fold(relations, elems.types, mp, state)

    def _link_single(
        self,
        hit: RelationHit,
        types: Sequence[TypeHit],
        state: "_LinkState",
    ) -> Optional[SubgraphPattern]:
        """RP1 over the one relation mention, retried without types when
        the typed pattern has no instance; a trace step only on success."""
        if isinstance(hit.relation, PseudoRelation):
            # identity substitution: the nested pattern is the answer, and
            # the graph accepted it when it was linked
            pattern = hit.relation.pattern
            state.trace.append(
                {"step": "single-relation", "nested": hit.relation.phrase,
                 "pattern": pattern.to_json()}
            )
            return pattern
        pattern = self._build_pattern(MetaPattern.RP1, (hit,), types)
        if not self._validate(pattern, state):
            untyped = pattern.with_types({})
            if pattern.types and self._validate(untyped, state):
                state.trace.append({"step": "types-dropped", "pattern": untyped.to_json()})
                pattern = untyped
            else:
                return None
        state.trace.append({"step": "single-relation", "pattern": pattern.to_json()})
        return pattern

    def _resolve_nested(
        self,
        tokens: list[Token],
        elems: MetaElements,
        depth: int,
        state: "_LinkState",
    ) -> tuple[list[Token], MetaElements]:
        """Recursively link the longest leftmost unlinked content n-gram
        the explainer can define and splice it in as a pseudo-relation,
        until no such n-gram is left; returns the sentence as it ends."""
        while True:
            blocked = [t.span for t in elems.types] + [r.span for r in elems.relations]
            # a window holds no pseudo-relation, so its tokens are the words
            for span in content_spans(tokens, blocked):
                gram = " ".join(tokens[span.start : span.end])
                key = normalize_phrase(gram)
                if key in state.active or key in state.failed_nested:
                    continue
                explanation = self.explainer.explain(gram)
                if explanation is not None:
                    break
            else:
                return tokens, elems
            state.trace.append(
                {
                    "step": "nested-phrase",
                    "phrase": gram,
                    "sentence": explanation.sentence,
                    "depth": depth + 1,
                }
            )
            sub_tokens: list[Token] = list(text.tokenize(explanation.sentence))
            state.active.add(key)
            try:
                sub_pattern = self._link_sentence(sub_tokens, depth + 1, state)
            finally:
                state.active.discard(key)
            if sub_pattern is None:
                state.trace.append({"step": "nested-unlinked", "phrase": gram})
                state.failed_nested.add(key)
                continue
            pseudo = PseudoRelation(gram, sub_pattern)
            tokens = tokens[: span.start] + [pseudo] + tokens[span.end :]
            elems = detect_elements(tokens, self.labels, self.lexicon, self.config.theta_rel)
            state.trace.append(_elements_step(tokens, elems, depth, resubstituted=True))

    # -- assembly -------------------------------------------------------------

    def _fold(
        self,
        relations: Sequence[RelationHit],
        types: Sequence[TypeHit],
        mp: MetaPattern,
        state: "_LinkState",
    ) -> Optional[SubgraphPattern]:
        """Assemble two or more relations pair by pair, left to right.

        A pair takes the first candidate the graph validates: the
        predicted shape, then the others in tie-break order (see
        ``patterns.plans``). With more than two relations, each accepted
        pair records a ``fold`` step, and each but the last becomes a
        pseudo-relation that pairs with the next relation.
        """
        kinds = (mp, *(k for k in DEFAULT_TIE_BREAK if k is not mp))
        first, rest = relations[0], relations[1:]
        for i, second in enumerate(rest):
            for kind, (a, b) in plans(kinds, first, second):
                step = {
                    "step": "candidate",
                    "meta_pattern": kind.value,
                    "order": [_hit_name(a), _hit_name(b)],
                }
                pattern = self._build_pattern(kind, (a, b), types)
                if pattern is None:
                    step.update(accepted=False, reason="unspliceable nested pattern")
                else:
                    accepted = self._validate(pattern, state)
                    step.update(
                        pattern=pattern.to_json(),
                        accepted=accepted,
                        reason=None if accepted else "no instance in graph",
                    )
                state.trace.append(step)
                if step["accepted"]:
                    break
            else:
                state.trace.append({"step": "no-match", "reason": "no candidate validated"})
                return None
            if len(rest) > 1:
                state.trace.append(
                    {"step": "fold", "pattern": pattern.to_json(), "consumed": 2,
                     "remaining": len(rest) - i}
                )
            if i + 1 < len(rest):
                merged = Span(first.span.start, second.span.end)
                first = RelationHit(merged, PseudoRelation("(fold)", pattern), 1.0)
        return pattern

    def _build_pattern(
        self,
        kind: MetaPattern,
        hits: Sequence[RelationHit],
        types: Sequence[TypeHit],
    ) -> Optional[SubgraphPattern]:
        """Instantiate a shape over its relation hits, splicing nested
        patterns in; None when a nested pattern cannot be spliced."""
        slots = TEMPLATES[kind]
        edges: list[PatternEdge] = []
        merged_types: dict[str, str] = {}
        fresh = itertools.count(1)

        for slot, hit in zip(slots, hits):
            ref = hit.relation
            if isinstance(ref, PseudoRelation):
                if ref.ends is None:
                    return None
                sub_edges, sub_types = self._splice(slot, ref, fresh)
                edges.extend(sub_edges)
                merged_types.update(sub_types)
            else:
                edges.append(PatternEdge(slot[0], ref, slot[1]))

        pattern = SubgraphPattern(tuple(edges), tuple(merged_types.items()))
        return self._attach_types(pattern, hits, slots, types)

    def _splice(
        self,
        slot: tuple[str, str],
        nested: PseudoRelation,
        fresh: Iterator[int],
    ) -> tuple[list[PatternEdge], dict[str, str]]:
        source, sink = nested.ends
        mapping = {source: slot[0], sink: slot[1]}
        for var in nested.pattern.variables():
            if var not in mapping:
                mapping[var] = f"v{next(fresh)}"
        renamed = nested.pattern.rename(mapping)
        return list(renamed.edges), renamed.type_map()

    def _attach_types(
        self,
        pattern: SubgraphPattern,
        hits: Sequence[RelationHit],
        slots: Sequence[tuple[str, str]],
        types: Sequence[TypeHit],
    ) -> SubgraphPattern:
        """A type mention restricts the object variable of each relation
        mention within TYPE_WINDOW tokens; with none that near, the
        pattern is returned as it is."""
        merged = pattern.type_map()
        best_gap: dict[str, int] = {}
        for type_hit in types:
            for rel_hit, (_, obj_var) in zip(hits, slots):
                gap = _span_gap(type_hit.span, rel_hit.span)
                if gap > TYPE_WINDOW:
                    continue
                if obj_var not in merged or gap < best_gap.get(obj_var, 10**9):
                    merged[obj_var] = type_hit.type_iri
                    best_gap[obj_var] = gap
        return pattern.with_types(merged) if best_gap else pattern

    def _validate(self, pattern: SubgraphPattern, state: "_LinkState") -> bool:
        if self.config.validation == PERMISSIVE:
            state.trace.append(
                {"step": "validation-waived", "pattern": pattern.to_json()}
            )
            return True
        return has_instance(self.g, pattern)


@dataclass
class _LinkState:
    trace: list[dict]
    active: set[str]
    failed_nested: set[str] = field(default_factory=set)
    max_depth: int = 0


def _hit_name(hit: RelationHit) -> str:
    if isinstance(hit.relation, PseudoRelation):
        return f"nested:{hit.relation.phrase}"
    return hit.relation


def _elements_step(
    tokens: Sequence[Token], elems: MetaElements, depth: int, resubstituted: bool = False
) -> dict:
    return {
        "step": "elements",
        "depth": depth,
        "resubstituted": resubstituted,
        "tokens": [
            f"<{t.phrase}>" if isinstance(t, PseudoRelation) else str(t) for t in tokens
        ],
        "types": [
            {"span": [t.span.start, t.span.end], "type": t.type_iri} for t in elems.types
        ],
        "relations": [
            {
                "span": [r.span.start, r.span.end],
                "relation": _hit_name(r),
                "score": round(r.score, 6),
            }
            for r in elems.relations
        ],
    }


def link_data_driven(
    elems: MetaElements, g: KnowledgeGraph
) -> Optional[SubgraphPattern]:
    """Baseline assembly without meta-pattern guidance.

    Retrieves every two-triple subgraph covering the first two detected
    relations by enumerating all ordered triple pairs (no index pruning:
    the baseline's defining cost is its unguided search space), then
    returns the first instantiated shape in the fixed order of
    ``plans(CLASSES, ...)``: RP2 as detected, RP2 swapped, RP3, RP4.
    """
    real = [h.relation for h in elems.relations if isinstance(h.relation, str)]
    if len(real) < 2:
        return None
    r1, r2 = real[0], real[1]

    found: set[tuple[MetaPattern, tuple[str, str]]] = set()
    triples = g.triples  # built on each read, so read once
    for t1 in triples:
        for t2 in triples:
            if t1.predicate == r1 and t2.predicate == r2:
                if t1.object == t2.subject:
                    found.add((MetaPattern.RP2, (r1, r2)))
                if t1.object == t2.object:
                    found.add((MetaPattern.RP3, (r1, r2)))
                if t1.subject == t2.subject:
                    found.add((MetaPattern.RP4, (r1, r2)))
            if t1.predicate == r2 and t2.predicate == r1:
                if t1.object == t2.subject:
                    found.add((MetaPattern.RP2, (r2, r1)))
    for kind, rels in plans(CLASSES, r1, r2):
        if (kind, rels) in found:
            return instantiate(kind, list(rels))
    return None

