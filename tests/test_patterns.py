from __future__ import annotations

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relink import kg, patterns
from relink.kg import KnowledgeGraph, UnknownPredicateError
from relink.patterns import (
    CLASSES,
    COMPLEX,
    TEMPLATES,
    MetaPattern,
    PatternEdge,
    SubgraphPattern,
    adjacent_instantiations,
    has_instance,
    instantiate,
    match_instances,
    plans,
    shape_of,
)

from .oracles import (
    brute_force_adjacent,
    brute_force_instances,
    graph_from_triples,
    random_graph,
    reference_pattern_check,
)

EX = "http://example.org/ontology/"
RES = "http://example.org/resource/"


def test_instantiate_rp2_mother_in_law_shape(ns):
    sp = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")])
    assert [(e.src, e.rel, e.dst) for e in sp.edges] == [
        ("x", ns.rel("spouse"), "z"),
        ("z", ns.rel("mother"), "y"),
    ]


def test_instantiate_rp1_single_edge():
    sp = instantiate(MetaPattern.RP1, [EX + "founder"])
    assert [(e.src, e.rel, e.dst) for e in sp.edges] == [("x", EX + "founder", "y")]


def test_instantiate_rp4_shared_source():
    sp = instantiate(MetaPattern.RP4, [EX + "country", "http://xmlns.com/foaf/0.1/gender"])
    assert [(e.src, e.dst) for e in sp.edges] == [("z", "x"), ("z", "y")]


def test_instantiate_rp3_shared_target():
    sp = instantiate(MetaPattern.RP3, [EX + "a", EX + "b"])
    assert [(e.src, e.dst) for e in sp.edges] == [("x", "z"), ("y", "z")]


def test_instantiate_arity_mismatch():
    with pytest.raises(ValueError):
        instantiate(MetaPattern.RP1, [EX + "a", EX + "b"])
    with pytest.raises(ValueError):
        instantiate(MetaPattern.RP2, [EX + "a"])


def test_shape_of_examples(ns):
    rp2 = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")])
    assert shape_of(rp2) is MetaPattern.RP2
    rp1 = instantiate(MetaPattern.RP1, [ns.rel("founder")])
    assert shape_of(rp1) is MetaPattern.RP1
    rp4 = instantiate(MetaPattern.RP4, [ns.rel("country"), ns.rel("gender")])
    assert shape_of(rp4) is MetaPattern.RP4


def test_shape_of_complex_cases():
    # sharing both endpoints
    both = SubgraphPattern.make([("x", EX + "a", "y"), ("x", EX + "b", "y")])
    assert shape_of(both) == COMPLEX
    chain3 = SubgraphPattern.make(
        [("x", EX + "a", "z"), ("z", EX + "a", "w"), ("w", EX + "a", "y")]
    )
    assert shape_of(chain3) == COMPLEX


@pytest.mark.parametrize("mp", [MetaPattern.RP1, MetaPattern.RP2, MetaPattern.RP3, MetaPattern.RP4])
def test_shape_of_instantiate_round_trip(mp):
    rels = [EX + "a", EX + "b"][: len(TEMPLATES[mp])]
    assert shape_of(instantiate(mp, rels)) is mp


def test_pattern_validation_rejects_disconnected():
    with pytest.raises(ValueError):
        SubgraphPattern.make([("x", EX + "a", "y"), ("u", EX + "b", "v")])
    with pytest.raises(ValueError):
        PatternEdge("x", EX + "a", "x")
    with pytest.raises(ValueError):
        SubgraphPattern.make([("x", EX + "a", "y")], types={"q": EX + "T"})


def test_pattern_stores_edges_as_a_tuple():
    e1, e2 = PatternEdge("x", EX + "a", "z"), PatternEdge("z", EX + "b", "y")
    sp = SubgraphPattern([e1, e2])
    assert sp.edges == (e1, e2)
    assert sp == SubgraphPattern((e1, e2)) and hash(sp) == hash(SubgraphPattern((e1, e2)))
    # the checked edges cannot grow afterwards
    with pytest.raises(AttributeError):
        sp.edges.append(PatternEdge("u", EX + "c", "v"))
    assert SubgraphPattern(iter([e1, e2])).edges == (e1, e2)


@pytest.mark.parametrize(
    "types",
    [
        (("x", EX + "T"), ("x", EX + "U")),
        (("y", EX + "T"), ("x", EX + "U"), ("x", EX + "T")),
        (("x", EX + "T"), ("x", EX + "T")),
    ],
)
def test_pattern_rejects_a_variable_typed_twice(types):
    # type_map, to_json and so has_instance would keep one type, while ==
    # and hash would see both
    edge = PatternEdge("x", EX + "a", "y")
    with pytest.raises(ValueError, match="more than one type restriction on variable 'x'"):
        SubgraphPattern((edge,), types)


def test_pattern_json_round_trip(ns):
    sp = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")]).with_types(
        {"z": EX + "Person", "y": EX + "Person"}
    )
    data = sp.to_json()
    assert data["edges"][0] == {"src": "x", "rel": ns.rel("spouse"), "dst": "z"}
    assert data["types"]["z"] == EX + "Person"
    assert SubgraphPattern.from_json(data) == sp


def test_has_instance_mother_in_law_fixture(family_graph, ns):
    sp = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")])
    assert has_instance(family_graph, sp)


def test_has_instance_unknown_relation_false(family_graph):
    sp = SubgraphPattern.make([("x", EX + "no-such-predicate", "y")])
    assert not has_instance(family_graph, sp)
    assert match_instances(family_graph, sp) == []


def test_wrong_order_chain_has_no_instance(family_graph, ns):
    # only the spouse->mother chain exists in the fixture
    sp = instantiate(MetaPattern.RP2, [ns.rel("mother"), ns.rel("spouse")])
    assert not has_instance(family_graph, sp)


def test_match_instances_fig1_entities(family_graph, ns):
    sp = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")])
    out = match_instances(family_graph, sp, limit=10)
    assert out == [
        {
            "x": RES + "BarackObama",
            "z": RES + "MichelleObama",
            "y": RES + "MarianRobinson",
        }
    ]


def test_match_instances_limit_zero(family_graph, ns):
    sp = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")])
    assert match_instances(family_graph, sp, limit=0) == []


def test_parent_chain_single_assignment():
    lines = [
        f"<{RES}c> <{EX}parent> <{RES}b> .",
        f"<{RES}b> <{EX}parent> <{RES}a> .",
    ]
    g = kg.load(lines)
    sp = instantiate(MetaPattern.RP2, [EX + "parent", EX + "parent"])
    out = match_instances(g, sp)
    assert out == [{"x": RES + "c", "z": RES + "b", "y": RES + "a"}]


def test_type_restriction_filters_matches(family_graph, ns):
    sp = instantiate(MetaPattern.RP2, [ns.rel("spouse"), ns.rel("mother")])
    typed = sp.with_types({"z": EX + "Person", "y": EX + "Person"})
    assert has_instance(family_graph, typed)
    wrong = sp.with_types({"z": EX + "City"})
    assert not has_instance(family_graph, wrong)


def test_homomorphism_allows_shared_nodes():
    # x and y may bind to the same node: one friend edge satisfies RP3
    lines = [f"<{RES}a> <{EX}friend> <{RES}b> ."]
    g = kg.load(lines)
    rp3 = instantiate(MetaPattern.RP3, [EX + "friend", EX + "friend"])
    out = match_instances(g, rp3)
    assert {"x": RES + "a", "y": RES + "a", "z": RES + "b"} in out


def test_has_instance_iff_match_instances_nonempty(family_graph, ns):
    rels = sorted(family_graph.predicate_set - {family_graph.type_predicate})
    rng = random.Random(7)
    for _ in range(30):
        mp = rng.choice([MetaPattern.RP2, MetaPattern.RP3, MetaPattern.RP4])
        pair = [rng.choice(rels), rng.choice(rels)]
        sp = instantiate(mp, pair)
        assert has_instance(family_graph, sp) == bool(
            match_instances(family_graph, sp, limit=1)
        )


def test_match_oracle_on_random_graphs():
    rng = random.Random(42)
    for round_ in range(25):
        triples = random_graph(rng, n_entities=7, n_predicates=3, n_triples=24)
        g = graph_from_triples(triples)
        preds = sorted({t.predicate for t in triples if t.predicate != g.type_predicate})
        for r1 in preds:
            for r2 in preds:
                for mp in (MetaPattern.RP2, MetaPattern.RP3, MetaPattern.RP4):
                    sp = instantiate(mp, [r1, r2])
                    want = brute_force_instances(triples, sp)
                    assert match_instances(g, sp) == want, (
                        f"round {round_}: {mp} over ({r1}, {r2})"
                    )
                    # a limit keeps the sorted prefix, also past the end
                    for k in (1, 2, 3, len(want), len(want) + 1):
                        assert match_instances(g, sp, limit=k) == want[:k], (round_, mp, k)


def test_match_oracle_three_edge_patterns():
    rng = random.Random(11)
    for _ in range(10):
        triples = random_graph(rng, n_entities=6, n_predicates=3, n_triples=20)
        g = graph_from_triples(triples)
        preds = sorted({t.predicate for t in triples if t.predicate != g.type_predicate})
        if len(preds) < 2:
            continue
        sp = SubgraphPattern.make(
            [("x", preds[0], "z"), ("z", preds[1], "w"), ("w", preds[0], "y")]
        )
        assert match_instances(g, sp) == brute_force_instances(triples, sp)


def test_match_oracle_with_type_restrictions():
    rng = random.Random(17)
    for _ in range(10):
        triples = random_graph(rng, n_entities=6, n_predicates=3, n_triples=20, n_types=2)
        g = graph_from_triples(triples)
        preds = sorted({t.predicate for t in triples if t.predicate != g.type_predicate})
        types = sorted(g.type_set)
        if not preds or not types:
            continue
        sp = instantiate(MetaPattern.RP2, [preds[0], preds[-1]]).with_types(
            {"z": types[0]}
        )
        assert match_instances(g, sp) == brute_force_instances(triples, sp)


def test_has_instance_uncle_shape_reads_predicate_index_once(monkeypatch):
    # a cycle seeds from its rarest predicate's subject index, once:
    # relative < parent < gender by triple count, and the check fails,
    # since the only parent edges start at persons, never at the gender value
    lines = [f"<{RES}p{i}> <{EX}relative> <{RES}p{i + 1}> ." for i in range(10)]
    lines += [f"<{RES}p{i}> <{EX}parent> <{RES}p{i + 2}> ." for i in range(30)]
    lines += [f"<{RES}p{i}> <{EX}gender> <{RES}male> ." for i in range(50)]
    g = kg.load(lines)
    assert [g.predicate_count(EX + p) for p in ("relative", "parent", "gender")] == [10, 30, 50]
    calls = []
    predicate_subjects = KnowledgeGraph.predicate_subjects

    def counting(self, predicate):
        calls.append(predicate)
        return predicate_subjects(self, predicate)

    monkeypatch.setattr(KnowledgeGraph, "predicate_subjects", counting)
    search = patterns._search
    monkeypatch.setattr(patterns, "_search", lambda g, sp: calls.append("search") or search(g, sp))
    # a tree is decided by the semi-join, never by the search
    tree = SubgraphPattern.make(
        [("x", EX + "relative", "v1"), ("v1", EX + "gender", "z"), ("z", EX + "parent", "y")]
    )
    assert not has_instance(g, tree)
    assert "search" not in calls
    calls.clear()
    cycle = SubgraphPattern.make(
        [("x", EX + "relative", "v1"), ("v1", EX + "gender", "z"), ("x", EX + "parent", "z")]
    )
    assert not has_instance(g, cycle)
    assert calls == ["search", EX + "relative"]


def test_has_instance_two_edge_root_builds_no_intersection(monkeypatch):
    # an untyped two-edge pattern roots at its shared variable, whose two
    # children are unrestricted leaves: each projection is a keys view,
    # and whether they meet is answered without intersecting them
    calls = []
    meet = patterns._meet

    def counting(a, b):
        calls.append((len(a), len(b)))
        return meet(a, b)

    monkeypatch.setattr(patterns, "_meet", counting)
    accepted = 0
    for seed in range(8):
        rng = random.Random(seed)
        triples = random_graph(rng, n_entities=7, n_predicates=3, n_triples=24)
        g = graph_from_triples(triples)
        preds = sorted({t.predicate for t in triples if t.predicate != kg.RDF_TYPE})
        for a in preds:
            for b in preds:
                for kind, pair in plans(CLASSES, a, b):
                    sp = instantiate(kind, pair)
                    found = has_instance(g, sp)
                    assert found == bool(brute_force_instances(triples, sp))
                    accepted += found
    assert accepted > 0
    assert calls == []


def _random_tree_pattern(rng: random.Random, preds: list[str], n_edges: int):
    """A tree over fresh variables with random edge directions, edges shuffled."""
    names = ["x", "y", "z", "w", "v"]
    edges = []
    for j in range(1, n_edges + 1):
        old, new = names[rng.randrange(j)], names[j]
        rel = rng.choice(preds)
        edges.append((old, rel, new) if rng.random() < 0.5 else (new, rel, old))
    rng.shuffle(edges)
    return SubgraphPattern.make(edges)


def _maybe_typed(rng: random.Random, sp: SubgraphPattern, types: list[str]):
    if not types or rng.random() < 0.5:
        return sp
    return sp.with_types({rng.choice(sp.variables()): rng.choice(types)})


def test_match_oracle_larger_patterns():
    rng = random.Random(303)
    checked = nonempty = 0
    for _ in range(24):
        triples = random_graph(
            rng, n_entities=5, n_predicates=3, n_triples=22, n_types=1, literal_rate=0.2
        )
        g = graph_from_triples(triples)
        preds = sorted({t.predicate for t in triples if t.predicate != g.type_predicate})
        types = sorted(g.type_set)
        tree = _random_tree_pattern(rng, preds, rng.choice([3, 4]))
        # a triangle closes between two bound variables, plus a pendant edge
        a, b, c, d = (rng.choice(preds) for _ in range(4))
        cycle = SubgraphPattern.make([("x", a, "y"), ("w", d, "z"), ("y", b, "z"), ("z", c, "x")])
        for sp in (tree, cycle):
            sp = _maybe_typed(rng, sp, types)
            want = brute_force_instances(triples, sp)
            assert match_instances(g, sp) == want, sp
            assert has_instance(g, sp) == bool(want), sp
            checked += 1
            nonempty += bool(want)
    # the sample must exercise both outcomes
    assert checked == 48
    assert 0 < nonempty < checked


def test_index_key_order_changes_no_answer():
    # the graph keeps its index keys in triple order for has_instance's
    # costs alone: with every index's keys reversed, the answers are the same
    rng = random.Random(404)
    nonempty = 0
    for _ in range(24):
        triples = random_graph(
            rng, n_entities=6, n_predicates=3, n_triples=22, n_types=2, literal_rate=0.2
        )
        g = graph_from_triples(triples)
        flipped = copy.copy(g)
        for name in ("_sp", "_po"):
            table = getattr(g, name)
            flipped_table = {p: dict(reversed(table[p].items())) for p in reversed(table)}
            object.__setattr__(flipped, name, flipped_table)
        assert flipped == g
        assert all(list(flipped._sp[p]) == list(g._sp[p])[::-1] for p in g._sp)
        preds = sorted({t.predicate for t in triples if t.predicate != g.type_predicate})
        types = sorted(g.type_set)
        a, b, c, d = (rng.choice(preds) for _ in range(4))
        cycle = SubgraphPattern.make([("x", a, "y"), ("w", d, "z"), ("y", b, "z"), ("z", c, "x")])
        for sp in (_random_tree_pattern(rng, preds, rng.choice([2, 3, 4])), cycle):
            sp = _maybe_typed(rng, sp, types)
            assert has_instance(flipped, sp) == has_instance(g, sp), sp
            for k in (1, 2, 5, None):
                assert match_instances(flipped, sp, limit=k) == match_instances(g, sp, limit=k)
            nonempty += has_instance(g, sp)
    # the sample must exercise both outcomes
    assert 0 < nonempty < 48


def test_adjacent_instantiations_spouse_mother(family_graph, ns):
    uses = adjacent_instantiations(family_graph, ns.rel("spouse"), ns.rel("mother"))
    assert {(u.kind, u.relations) for u in uses} == {
        (MetaPattern.RP2, (ns.rel("spouse"), ns.rel("mother")))
    }


def test_adjacent_instantiations_same_relation_contains_rp2():
    lines = [
        f"<{RES}c> <{EX}parent> <{RES}b> .",
        f"<{RES}b> <{EX}parent> <{RES}a> .",
        f"<{RES}a> <{EX}parent> <{RES}r> .",
    ]
    g = kg.load(lines)
    uses = adjacent_instantiations(g, EX + "parent", EX + "parent")
    assert (MetaPattern.RP2, (EX + "parent", EX + "parent")) in {
        (u.kind, u.relations) for u in uses
    }


def test_adjacent_instantiations_disjoint_predicates():
    lines = [
        f"<{RES}a> <{EX}p> <{RES}b> .",
        f"<{RES}c> <{EX}q> <{RES}d> .",
    ]
    g = kg.load(lines)
    assert adjacent_instantiations(g, EX + "p", EX + "q") == frozenset()


def test_adjacent_instantiations_unknown_predicate(family_graph):
    with pytest.raises(UnknownPredicateError) as err:
        adjacent_instantiations(family_graph, EX + "nope", EX + "mother")
    assert "nope" in str(err.value)


def test_adjacent_oracle_on_random_graphs():
    rng = random.Random(5)
    for _ in range(20):
        triples = random_graph(rng, n_entities=7, n_predicates=3, n_triples=22)
        g = graph_from_triples(triples)
        preds = sorted({t.predicate for t in triples if t.predicate != g.type_predicate})
        for r1 in preds:
            for r2 in preds:
                got = {(u.kind, u.relations) for u in adjacent_instantiations(g, r1, r2)}
                assert got == brute_force_adjacent(triples, r1, r2)


@given(
    perm=st.permutations(["x", "y", "z"]),
    mp=st.sampled_from([MetaPattern.RP2, MetaPattern.RP3, MetaPattern.RP4]),
)
@settings(max_examples=30, deadline=None)
def test_shape_is_invariant_under_renaming(perm, mp):
    sp = instantiate(mp, [EX + "a", EX + "b"])
    renamed = sp.rename(dict(zip(["x", "y", "z"], perm)))
    assert shape_of(renamed) is mp


# small universes, so the brute-force oracle stays fast and drawn patterns
# often have instances
_NODES = [RES + f"n{i}" for i in range(4)]
_PREDICATES = [EX + "a", EX + "b", EX + "c"]
_TYPES = [EX + "T0", EX + "T1"]
_UNKNOWN = EX + "unknown"
_VARIABLES = ["x", "y", "z", "w", "v"]


@st.composite
def _graphs(draw) -> list[kg.Triple]:
    """A sparse to dense sample of the edges among four nodes and to a
    literal, and of the type triples."""
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    universe = [kg.Triple(s, p, o) for s in _NODES for p in _PREDICATES
                for o in [*_NODES, kg.Literal("red")]]
    universe += [kg.Triple(s, kg.RDF_TYPE, t) for s in _NODES for t in _TYPES]
    return [t for t in universe if rng.random() < density]


@st.composite
def _patterns(draw) -> SubgraphPattern:
    """A tree of 1-4 edges with random directions, often with one more
    edge between two of its variables: parallel, a 2-cycle or a longer
    cycle. Half the patterns may use an unknown relation, and variables
    may carry types."""
    rel = st.sampled_from([*_PREDICATES, _UNKNOWN] if draw(st.booleans()) else _PREDICATES)
    n_edges = draw(st.integers(1, 4))
    edges = []
    for j in range(1, n_edges + 1):
        old, new = _VARIABLES[draw(st.integers(0, j - 1))], _VARIABLES[j]
        edges.append((old, draw(rel), new) if draw(st.booleans()) else (new, draw(rel), old))
    if draw(st.booleans()):
        src, dst = draw(st.permutations(_VARIABLES[: n_edges + 1]))[:2]
        edges.append((src, draw(rel), dst))
    edges = draw(st.permutations(edges))
    typed = draw(st.lists(st.sampled_from(_VARIABLES[: n_edges + 1]), unique=True, max_size=2))
    return SubgraphPattern.make(edges, {v: draw(st.sampled_from(_TYPES)) for v in typed})


@settings(max_examples=200, deadline=None)
@given(triples=_graphs(), sp=_patterns())
@example(  # parallel edges, with an instance
    triples=[kg.Triple(RES + "n0", EX + "a", RES + "n1"), kg.Triple(RES + "n0", EX + "b", RES + "n1")],
    sp=SubgraphPattern.make([("x", EX + "a", "y"), ("x", EX + "b", "y")]),
)
@example(  # a 2-cycle, without one
    triples=[kg.Triple(RES + "n0", EX + "a", RES + "n1"), kg.Triple(RES + "n1", EX + "b", RES + "n2")],
    sp=SubgraphPattern.make([("x", EX + "a", "y"), ("y", EX + "b", "x")]),
)
@example(  # a typed leaf under a literal-valued edge
    triples=[kg.Triple(RES + "n0", EX + "a", kg.Literal("red")),
             kg.Triple(RES + "n0", kg.RDF_TYPE, EX + "T0")],
    sp=SubgraphPattern.make([("x", EX + "a", "y")], {"y": EX + "T0"}),
)
def test_has_instance_matches_brute_force(triples, sp):
    g = KnowledgeGraph(triples)
    assert has_instance(g, sp) == bool(brute_force_instances(triples, sp))


@st.composite
def _edge_lists(draw) -> tuple[PatternEdge, ...]:
    """A chain of 1-5 edges with random directions, or 0-5 edges between
    random variables (often disconnected), in any order, sometimes with
    an edge repeated."""
    rel = st.sampled_from(_PREDICATES)
    if draw(st.booleans()):
        n_edges = draw(st.integers(1, 5))
        names = draw(st.permutations(_VARIABLES + ["u"]))[: n_edges + 1]
        edges = [(a, draw(rel), b) if draw(st.booleans()) else (b, draw(rel), a)
                 for a, b in zip(names, names[1:])]
    else:
        ends = draw(st.lists(st.permutations(_VARIABLES), max_size=5))
        edges = [(src, draw(rel), dst) for src, dst, *_ in ends]
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    return tuple(PatternEdge(*e) for e in draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(
    edges=_edge_lists(),
    types=st.lists(st.tuples(st.sampled_from(_VARIABLES), st.sampled_from(_TYPES)), max_size=3),
)
def test_pattern_checks_match_reference(edges, types):
    """Accepting, rejecting and the error text all match the check that
    collects the variables and then searches an adjacency graph."""
    expected = reference_pattern_check(edges, tuple(types))
    if expected is None:
        sp = SubgraphPattern(edges, tuple(types))
        assert sp.edges == edges and sp.types == tuple(sorted(types))
    else:
        with pytest.raises(ValueError) as err:
            SubgraphPattern(edges, tuple(types))
        assert str(err.value) == expected
