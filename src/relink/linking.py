"""Meta-element detection: type mentions and relation mentions in a sentence.

The graph's label tables, ``GraphLabels``, are built once, with the
linker. Types are matched greedily (longest span first) against the type
dictionary. Relation mentions are candidate n-grams scored against the
predicate labels through a tiered scorer: a lexicon hit is worth 1.0,
otherwise a blend of token-set overlap and edit similarity. Nested
compound phrases are carried through the sentence as pseudo-relation
tokens that stand for an already-linked pattern.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import text
from .kg import KnowledgeGraph, _frozen, local_name, read_json
from .patterns import SubgraphPattern, source_sink

log = logging.getLogger(__name__)

DEFAULT_THETA_REL = 0.6
MAX_MENTION_TOKENS = 3

JACCARD_WEIGHT = 0.7
EDIT_WEIGHT = 0.3


@dataclass(frozen=True)
class PseudoRelation:
    """A nested phrase already linked to a pattern, standing in for a relation."""

    phrase: str
    pattern: SubgraphPattern
    # the variables through which assembly splices the pattern into a
    # larger one; None when it has no unique source and sink
    ends: Optional[tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ends", source_sink(self.pattern))

    @property
    def mask_name(self) -> str:
        return "-".join(text.tokenize(self.phrase)) or "nested"


RelationRef = Union[str, PseudoRelation]  # IRI or nested stand-in


def relation_mask_name(ref: RelationRef) -> str:
    if isinstance(ref, PseudoRelation):
        return ref.mask_name
    return local_name(ref)


Token = Union[str, PseudoRelation]  # sentence tokens after substitution


# Span, TypeHit and RelationHit are built for every window and hit, so
# they store their fields through the slot descriptors, past the frozen
# __setattr__ and its by-name lookup.


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Span:
    start: int
    end: int  # exclusive

    def __init__(self, start: int, end: int):
        _set_start(self, start)
        _set_end(self, end)

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end

    def __len__(self) -> int:
        return self.end - self.start


_set_start = Span.start.__set__
_set_end = Span.end.__set__


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class TypeHit:
    span: Span
    type_iri: str

    def __init__(self, span: Span, type_iri: str):
        _set_type_span(self, span)
        _set_type_iri(self, type_iri)


_set_type_span = TypeHit.span.__set__
_set_type_iri = TypeHit.type_iri.__set__


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class RelationHit:
    span: Span
    relation: RelationRef
    score: float

    def __init__(self, span: Span, relation: RelationRef, score: float):
        _set_relation_span(self, span)
        _set_relation(self, relation)
        _set_score(self, score)


_set_relation_span = RelationHit.span.__set__
_set_relation = RelationHit.relation.__set__
_set_score = RelationHit.score.__set__


@dataclass(frozen=True)
class MetaElements:
    """Detected node labels (types) and edge labels (relations), in sentence order."""

    types: tuple[TypeHit, ...]
    relations: tuple[RelationHit, ...]


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class Lexicon:
    """Surface token-sequences mapped to the predicates they may denote."""

    entries: Mapping[tuple[str, ...], frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_mapping(
        cls, raw: Mapping[str, list[str]], g: Optional[KnowledgeGraph] = None
    ) -> "Lexicon":
        if not isinstance(raw, Mapping):
            raise LexiconError(f"lexicon must be a JSON object, got {type(raw).__name__}")
        entries: dict[tuple[str, ...], frozenset[str]] = {}
        surfaces: dict[tuple[str, ...], str] = {}
        for surface, iris in raw.items():
            key = tuple(text.tokenize(surface))
            if not key:
                raise LexiconError(f"unusable lexicon surface: {surface!r}")
            if key in surfaces:
                raise LexiconError(
                    f"lexicon surfaces {surfaces[key]!r} and {surface!r}"
                    f" both tokenize to {' '.join(key)!r}"
                )
            surfaces[key] = surface
            if not isinstance(iris, list) or not all(isinstance(i, str) for i in iris):
                raise LexiconError(
                    f"lexicon entry {surface!r} must be a list of predicate IRIs,"
                    f" got {iris!r}"
                )
            if g is not None:
                unknown = [i for i in iris if i not in g.predicate_set]
                if unknown:
                    raise LexiconError(
                        f"lexicon entry {surface!r} targets unknown predicates: {unknown}"
                    )
            entries[key] = frozenset(iris)
        return cls(entries)

    @classmethod
    def load(
        cls, path: Union[str, Path], g: Optional[KnowledgeGraph] = None
    ) -> "Lexicon":
        raw = read_json(path, "lexicon", LexiconError)
        try:
            return cls.from_mapping(raw, g)
        except LexiconError as exc:
            raise LexiconError(f"{path}: {exc}") from exc

    def get(self, tokens: Sequence[str]) -> frozenset[str]:
        return self.entries.get(tuple(tokens), frozenset())


@_frozen
@dataclass(frozen=True, slots=True)
class GraphLabels:
    """A graph's predicate, entity and type names as token sequences: the
    vocabulary mention detection and direct matching read.

    ``GraphLabels.of(g)`` builds every table at once; the ``Linker``
    keeps the value as ``labels`` and shares it across threads.
    """

    # every predicate but the type predicate, in sorted order -> its label tokens
    relation_labels: dict[str, tuple[str, ...]]
    # label token -> the sorted IRIs of the relation labels that hold it
    relation_postings: dict[str, tuple[str, ...]]
    # label tokens -> the first IRI in sorted order with that label
    relation_keys: dict[tuple[str, ...], str]
    # entity local-name tokens -> the first IRI in sorted order
    entity_labels: dict[tuple[str, ...], str]
    type_dictionary: dict[tuple[str, ...], str]
    # a type key's first token -> the lengths of the keys it begins, longest first
    type_key_starts: dict[str, tuple[int, ...]]

    @classmethod
    def of(cls, g: KnowledgeGraph) -> "GraphLabels":
        relations = {
            p: text.tokenize_name(local_name(p))
            for p in sorted(g.predicate_set)
            if p != g.type_predicate
        }
        postings: defaultdict[str, list[str]] = defaultdict(list)
        for iri, label in relations.items():
            for token in dict.fromkeys(label):  # each relation once per token
                postings[token].append(iri)
        types = type_dictionary(g)
        starts: defaultdict[str, set[int]] = defaultdict(set)
        for key in types:
            starts[key[0]].add(len(key))
        return cls(
            relations,
            {token: tuple(iris) for token, iris in postings.items()},
            _first_by_key(relations),
            _first_by_key(g.entity_set),
            types,
            {token: tuple(sorted(lengths, reverse=True)) for token, lengths in starts.items()},
        )


def _first_by_key(iris: Iterable[str]) -> dict[tuple[str, ...], str]:
    """First IRI in sorted order for each token key of a local name."""
    out: dict[tuple[str, ...], str] = {}
    for iri in sorted(iris):
        key = text.tokenize_name(local_name(iri))
        if key and key not in out:
            out[key] = iri
    return out


def type_dictionary(g: KnowledgeGraph) -> dict[tuple[str, ...], str]:
    """Map tokenized type local names to type IRIs.

    When two type IRIs share a token key, the one with more instances in
    the graph wins and the loser is logged.
    """
    instances = {t: len(g.subjects(g.type_predicate, t)) for t in g.type_set}
    out: dict[tuple[str, ...], str] = {}
    for type_iri in sorted(instances):
        key = text.tokenize_name(local_name(type_iri))
        if not key:
            continue
        if key in out:
            incumbent = out[key]
            if instances[type_iri] > instances[incumbent]:
                log.info("type dictionary: %s displaces %s for key %s",
                         type_iri, incumbent, key)
                out[key] = type_iri
            else:
                log.info("type dictionary: discarding %s (key %s taken by %s)",
                         type_iri, key, incumbent)
        else:
            out[key] = type_iri
    return out


def _label_text(label: tuple[str, ...]) -> str:
    return " ".join(label)


def _blend(jac: float, edit: float) -> float:
    """The similarity score below the lexicon tier, from a token-set
    Jaccard and an edit similarity."""
    return JACCARD_WEIGHT * jac + EDIT_WEIGHT * edit


def mention_score(mention_tokens: Sequence[str], label: tuple[str, ...]) -> float:
    """Similarity blend used below the lexicon tier."""
    jac = text.jaccard(mention_tokens, label)
    edit = text.edit_similarity(" ".join(mention_tokens), _label_text(label))
    return _blend(jac, edit)


def link_simple(
    tokens: Sequence[str],
    labels: GraphLabels,
    lex: Lexicon,
    theta_rel: float = DEFAULT_THETA_REL,
) -> Optional[tuple[str, float]]:
    """Best-scoring predicate for a mention's tokens, or None below the threshold.

    A lexicon hit scores a flat 1.0 and dominates the similarity blend.
    Ties break on the lexically smallest IRI for reproducibility.

    Every other label's score is ``mention_score``, but only labels that
    could reach ``theta_rel`` are scored. A label that shares no token
    with the mention has Jaccard 0, so it scores at most ``EDIT_WEIGHT``:
    above that threshold the candidates are the lexicon targets and the
    postings of the mention's tokens, in sorted IRI order as in
    the full scan, and with none of them there is no match. A
    candidate's edit distance is computed only when it could matter. The
    distance is at least the length difference, so the blend with the
    edit similarity that difference allows bounds the score from above;
    every float operation in the blend is monotone, so the bound holds
    after rounding too. A label whose bound is below ``theta_rel``, or no
    better than the best score so far, cannot be chosen and is skipped.
    """
    if not tokens:
        return None
    token_set = set(tokens)
    lex_targets = lex.get(tokens)
    relations = labels.relation_labels
    candidates: Iterable[str] = relations
    if theta_rel > EDIT_WEIGHT:
        postings = labels.relation_postings
        shared = {iri for iri in lex_targets if iri in relations}
        for token in token_set:
            shared.update(postings.get(token, ()))
        if not shared:
            return None
        candidates = sorted(shared)
    mention = " ".join(tokens)

    best: Optional[tuple[str, float]] = None
    for iri in candidates:
        label = relations[iri]
        if iri in lex_targets:
            score = 1.0
        else:
            # text.jaccard with the mention's token set built once
            jac = len(token_set.intersection(label)) / len(token_set.union(label))
            label_text = _label_text(label)
            longest = max(len(mention), len(label_text))
            bound = _blend(jac, 1.0 - abs(len(mention) - len(label_text)) / longest)
            if bound < theta_rel or (best is not None and bound <= best[1]):
                continue
            score = _blend(jac, text.edit_similarity(mention, label_text))
        if score >= theta_rel and (best is None or score > best[1]):
            best = (iri, score)
    return best


def content_spans(tokens: Sequence[Token], blocked: Sequence[Span] = ()) -> Iterator[Span]:
    """Windows of at most MAX_MENTION_TOKENS tokens, longest first, then
    leftmost.

    Windows that begin or end on one of ``text.default_stopwords()``, or
    hold a pseudo-relation or a token of a blocked span, are dropped, by
    per-token tables. A blocked span may reach past either end of the
    sentence but must not be empty: an empty span holds no token, so the
    table could not block the windows that straddle it.
    """
    stopwords = text.default_stopwords()
    stop = [isinstance(t, str) and t in stopwords for t in tokens]
    barred = [isinstance(t, PseudoRelation) for t in tokens]
    for b in blocked:
        if b.end <= b.start:
            raise ValueError(f"blocked span must not be empty: {b}")
        for i in range(max(b.start, 0), min(b.end, len(tokens))):
            barred[i] = True
    # barred_before[i]: the barred tokens among tokens[:i]
    barred_before = [0, *accumulate(barred)]
    for length in range(min(MAX_MENTION_TOKENS, len(tokens)), 0, -1):
        for start in range(0, len(tokens) - length + 1):
            end = start + length
            if stop[start] or stop[end - 1] or barred_before[end] != barred_before[start]:
                continue
            yield Span(start, end)


def detect_types(tokens: Sequence[Token], labels: GraphLabels) -> list[TypeHit]:
    """Greedy longest-span-first matching against the type dictionary.

    A window can match only if its first token begins a key, so the
    windows probed are those of ``type_key_starts`` lengths at each such
    token. The hits are kept in (longest, leftmost) order, skipping any
    that overlaps one already kept: the order in which a scan over every
    window would meet them, so the result is the same. A window holding
    a pseudo-relation never equals a key, whose tokens are strings.
    """
    type_dict = labels.type_dictionary
    starts = labels.type_key_starts
    n = len(tokens)
    found: list[TypeHit] = []
    for start, tok in enumerate(tokens):
        if not isinstance(tok, str):
            continue
        for length in starts.get(tok, ()):
            if start + length > n:
                continue
            iri = type_dict.get(tuple(tokens[start : start + length]))
            if iri is not None:
                found.append(TypeHit(Span(start, start + length), iri))
    return _non_overlapping(found, lambda h: (-len(h.span), h.span.start, h.type_iri))


def detect_relations(
    tokens: Sequence[Token],
    labels: GraphLabels,
    lex: Lexicon,
    theta_rel: float = DEFAULT_THETA_REL,
    type_spans: Sequence[Span] = (),
) -> list[RelationHit]:
    """Relation mentions in sentence order, non-overlapping.

    Pseudo-relation tokens are unconditional hits. Overlaps resolve by
    higher score, then longer span, then earlier position. The type
    predicate itself is never produced: ``link_simple`` scores only
    ``relation_labels``, which leave it out even when the lexicon names it.
    """
    scored: list[RelationHit] = []
    for i, tok in enumerate(tokens):
        if isinstance(tok, PseudoRelation):
            scored.append(RelationHit(Span(i, i + 1), tok, 1.0))

    # a window holds no pseudo-relation, so its tokens are the words
    for span in content_spans(tokens, type_spans):
        hit = link_simple(tokens[span.start : span.end], labels, lex, theta_rel)
        if hit is None:
            continue
        scored.append(RelationHit(span, *hit))

    return _non_overlapping(scored, lambda h: (-h.score, -len(h.span), h.span.start))


def _non_overlapping(hits: Iterable, priority: Callable[..., tuple]) -> list:
    """The type or relation hits a greedy pass in ``priority`` order keeps,
    each one that overlaps none kept before it, in sentence order."""
    kept = []
    for hit in sorted(hits, key=priority):
        if not any(hit.span.overlaps(k.span) for k in kept):
            kept.append(hit)
    kept.sort(key=lambda h: h.span.start)
    return kept


def detect_elements(
    tokens: Sequence[Token],
    labels: GraphLabels,
    lex: Lexicon,
    theta_rel: float = DEFAULT_THETA_REL,
) -> MetaElements:
    """Run type detection, then relation detection outside the type spans."""
    types = detect_types(tokens, labels)
    relations = detect_relations(tokens, labels, lex, theta_rel, [t.span for t in types])
    return MetaElements(tuple(types), tuple(relations))


@dataclass(frozen=True)
class DirectHit:
    category: str  # "relation" | "type" | "entity"
    iri: str


def direct_match(phrase: str, labels: GraphLabels, lex: Lexicon) -> Optional[DirectHit]:
    """Does the phrase name a relation, type, or entity of the graph outright?

    Only the exact tier applies for relations (no similarity fallback):
    a phrase is "simple" when it matches a predicate label verbatim or
    through the lexicon. Relations are tried before types and entities,
    the lexicon's smallest target IRI before the label table.
    """
    key = tuple(text.tokenize(phrase))
    if not key:
        return None
    lex_targets = lex.get(key)
    if lex_targets:
        return DirectHit("relation", sorted(lex_targets)[0])
    rel = labels.relation_keys.get(key)
    if rel is not None:
        return DirectHit("relation", rel)
    type_iri = labels.type_dictionary.get(key)
    if type_iri is not None:
        return DirectHit("type", type_iri)
    entity = labels.entity_labels.get(key)
    if entity is not None:
        return DirectHit("entity", entity)
    return None
