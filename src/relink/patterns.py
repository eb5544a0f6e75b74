"""Meta patterns, subgraph patterns, and pattern matching against the graph.

Four structural templates cover everything the assembler produces
directly: a single edge (RP1), a two-edge chain (RP2), two edges
converging on a shared target (RP3), and two edges diverging from a
shared source (RP4). Matching is by homomorphism: distinct variables may
bind to the same node.

This module also owns the order in which the two-edge shapes are tried
(``CLASSES``, ``DEFAULT_TIE_BREAK`` and ``plans``), which the linker, the
data-driven baseline and the harvester all follow.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

from .kg import KnowledgeGraph, Literal, Node, UnknownPredicateError, _frozen, node_key


class MetaPattern(enum.Enum):
    RP1 = "RP1"
    RP2 = "RP2"  # two-edge chain
    RP3 = "RP3"  # shared target
    RP4 = "RP4"  # shared source

    def __str__(self) -> str:
        return self.value


# the (src, dst) variables of each edge slot, one slot per relation in order
TEMPLATES: dict[MetaPattern, tuple[tuple[str, str], ...]] = {
    MetaPattern.RP1: (("x", "y"),),
    MetaPattern.RP2: (("x", "z"), ("z", "y")),
    MetaPattern.RP3: (("x", "z"), ("y", "z")),
    MetaPattern.RP4: (("z", "x"), ("z", "y")),
}
# the two-edge shapes the classifier chooses between, and the order in
# which tied or rejected shapes are tried
CLASSES = (MetaPattern.RP2, MetaPattern.RP3, MetaPattern.RP4)
DEFAULT_TIE_BREAK = (MetaPattern.RP2, MetaPattern.RP4, MetaPattern.RP3)

COMPLEX = "complex"

R = TypeVar("R")


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class PatternEdge:
    src: str
    rel: str
    dst: str

    def __init__(self, src: str, rel: str, dst: str):
        if src == dst:
            raise ValueError(f"edge endpoints must differ: {src}")
        # the slot descriptors store past the frozen __setattr__
        _set_src(self, src)
        _set_rel(self, rel)
        _set_dst(self, dst)


_set_src = PatternEdge.src.__set__
_set_rel = PatternEdge.rel.__set__
_set_dst = PatternEdge.dst.__set__


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class SubgraphPattern:
    """An ordered set of variable edges with optional type restrictions.

    ``edges`` is stored as a tuple, and ``types`` as a sorted tuple of
    (variable, type IRI) pairs with at most one pair per variable, so the
    pattern stays hashable and what was checked cannot change; use
    :meth:`type_map` for dict access.
    """

    edges: tuple[PatternEdge, ...]
    types: tuple[tuple[str, str], ...] = ()

    def __init__(
        self,
        edges: Iterable[PatternEdge],
        types: Iterable[tuple[str, str]] = (),
    ):
        edges = tuple(edges)
        if not edges:
            raise ValueError("pattern needs at least one edge")
        types = tuple(sorted(types))
        for (var, _), (next_var, _) in zip(types, types[1:]):
            if var == next_var:
                raise ValueError(f"more than one type restriction on variable {var!r}")
        # grow the first edge's component: each pass takes in the edges
        # that touch it, and the edges left over are the unconnected ones
        first, *rest = edges
        reached = {first.src, first.dst}
        while rest:
            left = []
            for e in rest:
                if e.src in reached or e.dst in reached:
                    reached.add(e.src)
                    reached.add(e.dst)
                else:
                    left.append(e)
            if len(left) == len(rest):
                break
            rest = left
        for var, _ in types:
            if var not in reached and all(var != e.src and var != e.dst for e in rest):
                raise ValueError(f"type restriction on unused variable {var!r}")
        if rest:
            raise ValueError("pattern edges must form a connected graph")
        _set_edges(self, edges)
        _set_types(self, types)

    @classmethod
    def make(
        cls,
        edges: Iterable[PatternEdge | tuple[str, str, str]],
        types: Optional[Mapping[str, str]] = None,
    ) -> "SubgraphPattern":
        norm = tuple(
            e if isinstance(e, PatternEdge) else PatternEdge(*e) for e in edges
        )
        return cls(norm, tuple((types or {}).items()))

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for e in self.edges:
            seen.setdefault(e.src)
            seen.setdefault(e.dst)
        return tuple(seen)

    def type_map(self) -> dict[str, str]:
        return dict(self.types)

    def relations(self) -> tuple[str, ...]:
        return tuple(e.rel for e in self.edges)

    def with_types(self, types: Mapping[str, str]) -> "SubgraphPattern":
        return SubgraphPattern(self.edges, tuple(types.items()))

    def rename(self, mapping: Mapping[str, str]) -> "SubgraphPattern":
        edges = tuple(
            PatternEdge(mapping.get(e.src, e.src), e.rel, mapping.get(e.dst, e.dst))
            for e in self.edges
        )
        types = tuple((mapping.get(v, v), t) for v, t in self.types)
        return SubgraphPattern(edges, types)

    # -- serialization (the CLI output and golden-file format) ------------

    def to_json(self) -> dict:
        out: dict = {
            "edges": [{"src": e.src, "rel": e.rel, "dst": e.dst} for e in self.edges]
        }
        out["types"] = {v: t for v, t in self.types}
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "SubgraphPattern":
        edges = tuple(
            PatternEdge(e["src"], e["rel"], e["dst"]) for e in data["edges"]
        )
        return cls(edges, tuple(dict(data.get("types", {})).items()))


_set_edges = SubgraphPattern.edges.__set__
_set_types = SubgraphPattern.types.__set__


def instantiate(mp: MetaPattern, relations: Sequence[str]) -> SubgraphPattern:
    """Wire the relations, in order, into the edge slots of ``mp``'s
    template (``TEMPLATES``), over the variables x, y and z."""
    slots = TEMPLATES[mp]
    if len(relations) != len(slots):
        raise ValueError(f"{mp} takes {len(slots)} relation(s), got {len(relations)}")
    return SubgraphPattern(
        tuple(PatternEdge(src, r, dst) for (src, dst), r in zip(slots, relations))
    )


def plans(
    kinds: Iterable[MetaPattern], a: R, b: R
) -> Iterator[tuple[MetaPattern, tuple[R, R]]]:
    """Each two-edge shape of ``kinds`` in turn over the pair (a, b).

    Only the chain's slots are not symmetric, so RP2 is also tried with
    the order swapped, right after the sentence order.
    """
    for kind in kinds:
        yield kind, (a, b)
        if kind is MetaPattern.RP2:
            yield kind, (b, a)


def shape_of(sp: SubgraphPattern) -> MetaPattern | str:
    """Classify a pattern's variable-sharing topology; "complex" otherwise."""
    if len(sp.edges) == 1:
        return MetaPattern.RP1
    if len(sp.edges) != 2:
        return COMPLEX
    a, b = sp.edges
    shared = {a.src, a.dst} & {b.src, b.dst}
    if len(shared) != 1:
        return COMPLEX
    if a.dst == b.src or b.dst == a.src:
        return MetaPattern.RP2
    if a.dst == b.dst:
        return MetaPattern.RP3
    if a.src == b.src:
        return MetaPattern.RP4
    return COMPLEX


def source_sink(sp: SubgraphPattern) -> Optional[tuple[str, str]]:
    """The unique source and sink variables, if the pattern has them."""
    tails = {e.src for e in sp.edges}
    heads = {e.dst for e in sp.edges}
    sources = tails - heads
    sinks = heads - tails
    if len(sources) == 1 and len(sinks) == 1:
        return sources.pop(), sinks.pop()
    return None


def _join_order(g: KnowledgeGraph, sp: SubgraphPattern) -> list[int]:
    """Edge indexes in search order: rarest seed, then connected edges.

    An edge whose two ends are already bound comes first, since it is
    only a membership test. Otherwise the rarest edge sharing a bound
    variable follows. Ties go to the lower edge index. The pattern is
    connected, so some remaining edge always touches a bound variable.
    """
    counts = [g.predicate_count(e.rel) for e in sp.edges]
    bound: set[str] = set()
    remaining = set(range(len(sp.edges)))
    order: list[int] = []

    def rank(i: int) -> tuple[int, int, int]:
        e = sp.edges[i]
        return (-((e.src in bound) + (e.dst in bound)), counts[i], i)

    while remaining:
        i = min(remaining, key=rank)
        remaining.remove(i)
        order.append(i)
        bound.update((sp.edges[i].src, sp.edges[i].dst))
    return order


def _search(g: KnowledgeGraph, sp: SubgraphPattern):
    """Yield every homomorphism binding, following ``_join_order``.

    ``match_instances`` enumerates with it, and ``has_instance`` uses it
    for the patterns that are not trees (a cycle, or parallel edges).

    The seed edge is the one with the fewest triples, and the first
    candidates are its subjects, each with its objects, from the subject
    index. Every later edge shares a bound variable, and edges with both
    ends bound are checked before any edge that binds a new variable, so
    no level enumerates a predicate's pairs independently of the bindings
    so far. Each binding is yielded once, in the order of the index sets;
    that order is not part of the contract, because ``has_instance``
    returns only a bool and ``match_instances`` sorts the bindings.
    """
    types = sp.type_map()
    order = _join_order(g, sp)

    def ok(var: str, node: Node) -> bool:
        t = types.get(var)
        return t is None or g.has_triple(node, g.type_predicate, t)

    def extend(pos: int, binding: dict[str, Node]):
        if pos == len(order):
            yield dict(binding)
            return
        edge = sp.edges[order[pos]]
        bs, bo = binding.get(edge.src), binding.get(edge.dst)
        if bs is not None and bo is not None:
            if not isinstance(bs, Literal) and g.has_triple(bs, edge.rel, bo):
                yield from extend(pos + 1, binding)
            return
        if bs is not None:
            if isinstance(bs, Literal):
                return
            candidates = ((bs, o) for o in g.objects(bs, edge.rel))
        else:
            candidates = ((s, bo) for s in g.subjects(edge.rel, bo))
        for s, o in candidates:
            if not ok(edge.src, s) or not ok(edge.dst, o):
                continue
            binding[edge.src] = s
            binding[edge.dst] = o
            yield from extend(pos + 1, binding)
            if bs is None:
                binding.pop(edge.src, None)
            if bo is None:
                binding.pop(edge.dst, None)

    seed = sp.edges[order[0]]
    binding: dict[str, Node] = {}
    for s in g.predicate_subjects(seed.rel):
        for o in g.objects(s, seed.rel):
            if ok(seed.src, s) and ok(seed.dst, o):
                binding[seed.src], binding[seed.dst] = s, o
                yield from extend(1, binding)


def match_instances(
    g: KnowledgeGraph,
    sp: SubgraphPattern,
    limit: Optional[int] = None,
) -> list[dict[str, Node]]:
    """Up to ``limit`` homomorphisms from pattern variables to graph nodes.

    Results are sorted lexicographically by the assigned nodes (variables
    in sorted order), so the returned prefix is reproducible. With a
    limit, only the ``limit`` smallest bindings are kept as the search
    runs. Unknown relations yield no matches.
    """
    if limit is not None and limit <= 0:
        return []

    variables = sorted(sp.variables())

    def key(binding: dict[str, Node]) -> tuple:
        return tuple(node_key(binding[v]) for v in variables)

    if limit is None:
        return sorted(_search(g, sp), key=key)
    return heapq.nsmallest(limit, _search(g, sp), key=key)


def has_instance(g: KnowledgeGraph, sp: SubgraphPattern) -> bool:
    """True iff at least one homomorphism exists.

    A tree-shaped pattern, one with an edge fewer than it has variables,
    is decided by ``_semijoin``, which stops at the first node the root
    can bind to; every pattern the linker builds is one. Any other
    pattern runs ``_search`` up to its first binding. An unknown relation
    has no triples, so either way nothing is found.
    """
    variables = sp.variables()
    if len(sp.edges) == len(variables) - 1:
        return _semijoin(g, sp, variables)
    return next(_search(g, sp), None) is not None


def _semijoin(
    g: KnowledgeGraph, sp: SubgraphPattern, variables: Sequence[str]
) -> bool:
    """Whether a tree-shaped pattern has an instance, by a bottom-up
    semi-join (Yannakakis, "Algorithms for acyclic database schemes",
    VLDB 1981), given ``sp.variables()``. Any root would do; the one with
    the most edges keeps the tree shallow, so more children are leaves.

    A variable's candidates are its type's instances, if it has a type,
    intersected with the projection of each child edge: the nodes with
    that edge to one of the child's candidates. When the child is
    unrestricted, or its candidates cover the edge's end on its side,
    the projection is the predicate's whole subject or object set, a
    ready-made keys view; otherwise it is the union of the index lookups
    over the intersection. The first empty set decides False. At the
    root the question is only whether the last edge's projection meets
    the candidates of the rest, so that intersection is not built: an
    ``isdisjoint`` test stops at the first shared node. Like ``_search``,
    it reads only index keys and lookups.
    """
    types = sp.type_map()
    incident: dict[str, list[PatternEdge]] = {v: [] for v in variables}
    for e in sp.edges:
        incident[e.src].append(e)
        incident[e.dst].append(e)

    def candidates(var: str, via: Optional[PatternEdge]) -> Optional[AbstractSet]:
        """The nodes ``var`` can bind to with an instance of the subtree
        away from ``via``; None when any node can."""
        t = types.get(var)
        cand = None if t is None else g.subjects(g.type_predicate, t)
        for e in incident[var]:
            if cand is not None and not cand:
                break
            if e is not via:
                p = projection(var, e)
                cand = p if cand is None else _meet(cand, p)
        return cand

    def projection(var: str, e: PatternEdge) -> AbstractSet:
        """The nodes with an ``e`` edge to a candidate of its other end,
        the child of ``var``."""
        outgoing = e.src == var  # var -rel-> child, else child -rel-> var
        child = e.dst if outgoing else e.src
        subjects, objects = g.predicate_subjects(e.rel), g.predicate_objects(e.rel)
        near, far = (subjects, objects) if outgoing else (objects, subjects)
        below = candidates(child, e)
        if below is None or below >= far:
            return near
        if outgoing:
            return set().union(*(g.subjects(e.rel, o) for o in _meet(below, far)))
        return set().union(*(g.objects(s, e.rel) for s in _meet(below, far)))

    root = max(incident, key=lambda v: len(incident[v]))
    last = incident[root][-1]
    cand = candidates(root, last)  # every edge but the last
    if cand is not None and not cand:
        return False
    p = projection(root, last)
    return bool(p) if cand is None else _meets(cand, p)


def _meet(a: AbstractSet, b: AbstractSet) -> AbstractSet:
    """The intersection of two sets or keys views, found by iterating the
    smaller one (a view's ``&`` iterates its right operand)."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if isinstance(large, (set, frozenset)):
        return large.intersection(small)
    return large & small


def _meets(a: AbstractSet, b: AbstractSet) -> bool:
    """Whether two sets or keys views share an element, found by iterating
    the smaller one up to the first shared element (``isdisjoint`` on a
    set or a view iterates its argument when that is the smaller)."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return not large.isdisjoint(small)


class ShapeUse(NamedTuple):
    """One way a relation pair instantiates in the graph: a shape plus the
    relation order feeding its edge slots (order matters only for RP2)."""

    kind: MetaPattern
    relations: tuple[str, ...]

    def pattern(self) -> SubgraphPattern:
        return instantiate(self.kind, self.relations)


def adjacent_instantiations(
    g: KnowledgeGraph, r1: str, r2: str
) -> frozenset[ShapeUse]:
    """The two-edge shapes over (r1, r2) that have at least one instance.

    RP2 counts separately per relation order; RP3/RP4 are canonicalized
    to sorted relation order since their two slots are symmetric.
    """
    for r in (r1, r2):
        if r not in g.predicate_set:
            raise UnknownPredicateError(r)
    candidates = (
        ShapeUse(kind, pair if kind is MetaPattern.RP2 else tuple(sorted(pair)))
        for kind, pair in plans(CLASSES, r1, r2)
    )
    return frozenset(use for use in candidates if has_instance(g, use.pattern()))
