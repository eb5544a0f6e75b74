from __future__ import annotations

import contextlib
import gc
import os
import pickle
import random
import re
import string
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relink import cli, evaluate, kg
from relink.assemble import LinkConfig, Linker, link_data_driven
from relink.cli import data_path
from relink.linking import Lexicon, MetaElements, RelationHit, Span, type_dictionary
from relink.kg import (
    RDF_TYPE,
    Literal,
    ParseError,
    Triple,
    local_name,
)
from relink.text import tokenize_name

from .oracles import (
    ntriples_line,
    random_graph,
    random_load_graph,
    reference_load,
    reference_parse_line,
    reference_tokenize_name,
)
from .threads import run_together


def test_three_line_file_with_type_triple():
    lines = [
        "<http://x.org/a> <http://x.org/knows> <http://x.org/b> .",
        "<http://x.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x.org/Person> .",
        '<http://x.org/b> <http://x.org/name> "Bee" .',
    ]
    g = kg.load(lines)
    assert len(g) == 3
    assert g.type_set == {"http://x.org/Person"}
    assert g.types_of("http://x.org/a") == {"http://x.org/Person"}


def test_empty_file_gives_empty_graph(tmp_path):
    path = tmp_path / "empty.nt"
    path.write_text("")
    g = kg.load(path)
    assert len(g) == 0
    assert g.predicate_set == frozenset()
    assert g.type_set == frozenset()
    assert g.entity_set == frozenset()


def test_family_fixture_predicates(family_graph, ns):
    locals_ = {local_name(p) for p in family_graph.predicate_set}
    assert {"mother", "spouse", "parent", "gender", "country"} <= locals_


def test_malformed_line_reports_line_number():
    lines = [
        "<http://x.org/a> <http://x.org/p> <http://x.org/b> .",
        "this is not a triple",
    ]
    with pytest.raises(ParseError) as err:
        kg.load(lines)
    assert "line 2" in str(err.value)
    assert err.value.line_no == 2


@pytest.mark.parametrize("path", [None, "graph.nt"])
def test_parse_error_survives_pickling(path):
    err = ParseError(2, "not a valid triple", path)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ParseError
    assert (back.line_no, back.reason) == (2, "not a valid triple")
    assert str(back) == ("line 2" if path is None else "graph.nt line 2") + ": not a valid triple"


def test_duplicates_are_dropped():
    line = "<http://x.org/a> <http://x.org/p> <http://x.org/b> ."
    g = kg.load([line, line, line])
    assert len(g) == 1


def test_literal_objects_parse():
    g = kg.load(['<http://x.org/a> <http://x.org/says> "hello world" .'])
    (t,) = g.triples
    assert t.object == Literal("hello world")


def test_comments_and_blank_lines_skipped():
    g = kg.load(["# header", "", "<http://x.org/a> <http://x.org/p> <http://x.org/b> ."])
    assert len(g) == 1


def test_load_is_deterministic(family_graph):
    g2 = kg.load(kg.__file__.replace("kg.py", "data/family_geo.nt"))
    assert g2.triples == family_graph.triples
    assert g2.predicate_set == family_graph.predicate_set
    assert g2._sp == family_graph._sp
    assert g2._po == family_graph._po
    assert type_dictionary(g2) == type_dictionary(family_graph)


def test_index_round_trip(family_graph):
    for t in family_graph.triples:
        assert t.object in family_graph.objects(t.subject, t.predicate)
        assert t.subject in family_graph.subjects(t.predicate, t.object)
    # and the per-predicate indexes hold exactly the stored triples
    sp: dict = {}
    po: dict = {}
    for t in family_graph.triples:
        sp.setdefault(t.predicate, {}).setdefault(t.subject, set()).add(t.object)
        po.setdefault(t.predicate, {}).setdefault(t.object, set()).add(t.subject)
    assert family_graph._sp == sp
    assert family_graph._po == po
    # and predicate_count counts each predicate's triples
    counts = Counter(t.predicate for t in family_graph.triples)
    assert {p: family_graph.predicate_count(p) for p in sp} == counts


def test_tokenize_name_rules():
    assert tokenize_name("SoccerPlayer") == ("soccer", "player")
    assert tokenize_name("birthPlace") == ("birth", "place")
    assert tokenize_name("mother_in_law") == ("mother", "in", "law")
    assert tokenize_name("top-10Hits") == ("top", "10", "hits")
    assert tokenize_name("HTMLParser") == ("html", "parser")
    # each token is lowercased on its own: a sigma that ends one takes its
    # final form
    assert tokenize_name("ΑΣ_b") == ("ας", "b")
    assert tokenize_name("ΑΣb") == ("ασb",)
    # a non-ASCII decimal digit is a digit, so it is a token of its own
    assert tokenize_name("x٣y") == ("x", "٣", "y")


# separators, ASCII and non-ASCII digits, capitals whose lowercase form
# differs in length or by context, and punctuation
_NAME_CHARS = (string.ascii_letters + string.digits + "_-" + "٣" + "ΣİÉ"
               + string.punctuation)


@settings(max_examples=500, deadline=None)
@given(name=st.text(st.sampled_from(_NAME_CHARS), max_size=24))
@example(name="İP")
@example(name="aΣB")
@example(name="-_9É.Ab")
def test_tokenize_name_matches_reference(name):
    assert tokenize_name(name) == reference_tokenize_name(name)


def test_iri_and_equal_literal_are_two_triples():
    # the key tuples keep an IRI object and a literal of the same text
    # apart, and order every IRI object before every literal
    for literal in ("http://a", "http://0", ""):
        lines = [f'<http://x/x> <http://x/p> "{literal}" .',
                 "<http://x/x> <http://x/p> <http://a> ."]
        for ordered in (lines, lines[::-1]):
            g = kg.load(ordered)
            assert [t.object for t in g.triples] == ["http://a", Literal(literal)]
            assert g.objects("http://x/x", "http://x/p") == {"http://a", Literal(literal)}
            assert g.subjects("http://x/p", "http://a") == {"http://x/x"}
            assert g.subjects("http://x/p", Literal(literal)) == {"http://x/x"}
            assert kg.KnowledgeGraph(reversed(g.triples)) == g


def test_duplicate_triples_keep_the_first_seen():
    # the graph keeps no Triple, so a duplicate leaves one equal triple
    first, second = Triple("a", "p", Literal("v")), Triple("a", "p", Literal("v"))
    g = kg.KnowledgeGraph([first, Triple("a", "p", "b"), second])
    assert len(g) == 2
    assert g.triples[1] == first


def test_triple_behaviour():
    t = Triple("http://x/a", "http://x/p", Literal("v"))
    # a name that is not a field is refused the same way, on Literal too
    for obj, names in ((t, ("subject", "predicate", "object", "extra")),
                       (Literal("v"), ("value", "extra"))):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, "x")
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        assert not hasattr(obj, "__dict__")
    assert [f.name for f in fields(Triple)] == ["subject", "predicate", "object"]
    same = Triple(subject="http://x/a", predicate="http://x/p", object=Literal("v"))
    assert t == same and hash(t) == hash(same)
    assert hash(t) == hash(("http://x/a", "http://x/p", Literal("v")))
    assert t != Triple("http://x/a", "http://x/p", "v")
    assert t != ("http://x/a", "http://x/p", Literal("v"))
    assert repr(t) == ("Triple(subject='http://x/a', predicate='http://x/p', "
                       "object=Literal(value='v'))")
    moved = replace(t, object="http://x/b")
    assert moved == Triple("http://x/a", "http://x/p", "http://x/b")
    assert t.object == Literal("v")
    copy = pickle.loads(pickle.dumps(t))
    assert type(copy) is Triple and copy == t and hash(copy) == hash(t)
    assert pickle.loads(pickle.dumps(Literal("v"))) == Literal("v")
    assert replace(Literal("v"), value="w") == Literal("w")
    with pytest.raises(TypeError):
        Triple("http://x/a", "http://x/p")


def test_type_dictionary_single_and_camelcase():
    lines = [
        "<http://x.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x.org/Person> .",
        "<http://x.org/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x.org/SoccerPlayer> .",
    ]
    g = kg.load(lines)
    d = type_dictionary(g)
    assert d[("person",)] == "http://x.org/Person"
    assert d[("soccer", "player")] == "http://x.org/SoccerPlayer"


def test_type_dictionary_empty():
    g = kg.load(["<http://x.org/a> <http://x.org/p> <http://x.org/b> ."])
    assert type_dictionary(g) == {}


def test_type_dictionary_collision_keeps_more_instances():
    # two type IRIs tokenize to ("player",); the one with more instances wins
    lines = [
        "<http://x.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x.org/ns1/Player> .",
        "<http://x.org/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x.org/ns2/player> .",
        "<http://x.org/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x.org/ns2/player> .",
    ]
    g = kg.load(lines)
    assert type_dictionary(g)[("player",)] == "http://x.org/ns2/player"


def test_iri_validation():
    assert kg.valid_iri("http://x.org/a")
    assert not kg.valid_iri("")
    assert not kg.valid_iri("http://x.org/a b")
    assert not kg.valid_iri("http://x.org/")  # empty local name


def test_parse_line_rejects_every_whitespace_in_iri():
    # parse_line keeps whitespace out of IRIs with a character class built
    # from kg._SPACES, which it tests each IRI against when first seen, so
    # that class must hold exactly what str.isspace and \s accept
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    spaces = [c for c in chars if c.isspace()]
    assert len(spaces) == 29
    space_re = re.compile(r"\s")
    assert [c for c in chars if space_re.match(c)] == spaces
    # the IRI class spells the same characters out
    iri_char = re.compile(rf"[^<>{kg._SPACES}]")
    assert [c for c in chars if not iri_char.match(c)] == sorted([*spaces, "<", ">"])
    for ch in spaces:
        for position in range(3):
            iris = ["http://x.org/a", "http://x.org/p", "http://x.org/b"]
            iris[position] = f"http://x.org/a{ch}b"
            assert not kg.valid_iri(iris[position])
            line = " ".join(f"<{iri}>" for iri in iris) + " ."
            with pytest.raises(ParseError) as err:
                kg.parse_line(line, 7)
            assert err.value.line_no == 7


_SPACE_CHARS = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_LINE_CHARS = ("<", ">", '"', ".", "#", "/", "a", "b", *_SPACE_CHARS)


def _parse_outcome(parse, line: str, line_no: int):
    """The parsed triple, or the error's text and line number."""
    try:
        return parse(line, line_no)
    except ParseError as exc:
        return (str(exc), exc.line_no)


@settings(max_examples=500, deadline=None)
@given(iri=st.text(st.sampled_from(("h", ":", *_LINE_CHARS)), max_size=10))
@example(iri="http://x/a<b")
@example(iri="http://x/a>b")
@example(iri="http://x/a\u3000b")
@example(iri="http://x/")
@example(iri="")
def test_valid_iri_is_the_parse_rule(iri):
    line = f"<{iri}> <http://x/p> <http://x/o> ."
    parsed = not isinstance(_parse_outcome(kg.parse_line, line, 1), tuple)
    assert kg.valid_iri(iri) == parsed


@st.composite
def _triple_lines(draw) -> list[str]:
    """One to four lines whose IRI terms come from a small shared pool, so
    an IRI recurs and both the first-sight and the interned path run; the
    pool, literals, gaps and some whole lines are drawn from '<', '>', '"',
    '.', '#', '/', letters and every whitespace character."""
    chars = st.sampled_from(_LINE_CHARS)
    plain = st.text(st.sampled_from("ab/#"), min_size=1, max_size=5)
    pool = draw(st.lists(st.one_of(plain, plain, st.text(chars, max_size=5)),
                         min_size=1, max_size=4))
    iri = st.sampled_from(pool).map(lambda i: f"<{i}>")
    term = st.one_of(iri, st.text(chars, max_size=3).map(lambda v: f'"{v}"'))
    edge = st.text(st.sampled_from(_SPACE_CHARS), max_size=2)
    gap = st.text(st.sampled_from(_SPACE_CHARS), min_size=1, max_size=2)
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.text(chars, max_size=12)))
            continue
        lines.append("".join((
            draw(edge), draw(iri), draw(gap), draw(iri), draw(gap), draw(term),
            draw(edge), draw(st.sampled_from((".", ".", ".", "", ".."))), draw(edge),
        )))
    return lines


@settings(max_examples=500, deadline=None)
@given(lines=_triple_lines())
# a fresh subject with an empty local name and an object that holds a space
@example(lines=["<http://x/> <http://x/p> <http://x/a b> ."])
@example(lines=["<http://x/a> <http://x/p> <http://x/b> .",
                "<http://x/> <http://x/p> <http://x/a b> ."])
@example(lines=["<http://x/a> <http://x/p> <http://x/> .",
                "<http://x/a> <http://x/p> <http://x/a<b> ."])
def test_parse_line_matches_reference(lines):
    # kg.parse_line and kg.load give the reference parser's triples, or
    # its error text and line number, on every line, fresh IRIs or not
    iris: dict = {}
    literals: dict = {}
    triples = []
    first_error = None
    for line_no, line in enumerate(lines, start=1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        want = _parse_outcome(reference_parse_line, line, line_no)
        got = _parse_outcome(
            lambda text, n: kg.parse_line(text, n, iris, literals), line, line_no)
        assert got == want
        if isinstance(want, tuple):
            first_error = first_error or want
        else:
            triples.append(want)
    try:
        g = kg.load(lines)
    except ParseError as exc:
        assert (str(exc), exc.line_no) == first_error
    else:
        assert first_error is None
        assert g.triples == tuple(sorted(set(triples), key=Triple.sort_key))


def test_equal_iris_are_one_object(family_graph):
    g = family_graph
    iris = [n for t in g.triples for n in (t.subject, t.predicate, t.object)
            if isinstance(n, str)]
    by_key = [index for table in (g._sp, g._po) for index in table.values()]
    iris += [*g._sp, *g._po]
    iris += [n for index in by_key for n in index if isinstance(n, str)]
    iris += [n for index in by_key for v in index.values()
             for n in v if isinstance(n, str)]
    iris += [*g.predicate_set, *g.type_set, *g.entity_set]
    assert len({id(n) for n in iris}) == len(set(iris))
    # and so are equal literals: one Literal per distinct value
    literals = [t.object for t in g.triples if isinstance(t.object, Literal)]
    assert len(literals) > len(set(literals)) > 1
    literals += [n for index in by_key for n in index if isinstance(n, Literal)]
    literals += [n for index in by_key for v in index.values()
                 for n in v if isinstance(n, Literal)]
    assert len({id(n) for n in literals}) == len(set(literals))


def test_equal_index_value_sets_are_one_object(family_graph):
    rng = random.Random(11)
    graphs = [family_graph]
    for round_ in range(20):
        lines = [ntriples_line(t) for t in random_load_graph(rng)]
        type_predicate = RDF_TYPE if round_ % 3 else "http://t.example/p0"
        graphs.append(kg.load(lines, type_predicate=type_predicate))
    for g in graphs:
        values = [v for table in (g._sp, g._po) for index in table.values()
                  for v in index.values()]
        assert len({id(v) for v in values}) == len(set(values))


def test_load_oracle_on_random_graphs():
    # the constructor builds the same graph from the triples themselves
    rng = random.Random(7)
    for round_ in range(60):
        triples = random_load_graph(rng)
        type_predicate = RDF_TYPE if round_ % 3 else "http://t.example/p0"
        lines = [ntriples_line(t) for t in triples]
        lines += [f"  {line}\t" for line in rng.sample(lines, len(lines) // 3)]
        lines += ["", "# comment", "   "]
        rng.shuffle(lines)
        ref = reference_load(triples, type_predicate)
        loaded = kg.load(lines, type_predicate=type_predicate)
        built = kg.KnowledgeGraph(list(triples) * 2, type_predicate)  # duplicates drop
        for g in (loaded, built):
            _check_against_reference(g, triples, ref, round_)


def _check_against_reference(g, triples, ref, round_):
    assert g.triples == ref["triples"], round_
    assert len(g) == len(triples)
    nodes = {t.subject for t in triples} | {t.object for t in triples}
    nodes |= {"http://t.example/absent", Literal("absent")}
    predicates = ref["predicate_set"] | {"http://t.example/absent"}
    for p in predicates:
        assert g.predicate_count(p) == ref["predicate_count"](p)
        assert g.predicate_subjects(p) == ref["predicate_subjects"](p)
        assert g.predicate_objects(p) == ref["predicate_objects"](p)
        for n in nodes:
            if isinstance(n, str):
                assert g.objects(n, p) == ref["objects"](n, p)
                assert type(g.objects(n, p)) is frozenset
            assert g.subjects(p, n) == ref["subjects"](p, n)
            assert type(g.subjects(p, n)) is frozenset
    for n in nodes:
        assert g.types_of(n) == ref["types_of"](n)
    assert g._sp == ref["sp"]
    assert g._po == ref["po"]
    assert set(g._sp) == set(g._po) == ref["predicate_set"]
    assert {n for n in nodes if g.types_of(n)} == ref["typed_nodes"]
    assert g.predicate_set == ref["predicate_set"]
    assert g.type_set == ref["type_set"]
    assert g.entity_set == ref["entity_set"]


def test_index_keys_follow_triple_order(family_graph, tmp_path):
    # no result depends on the order of the index keys (test_patterns
    # reverses it), but has_instance's costs do: _search seeds from
    # predicate_subjects, and the semi-join's isdisjoint and <= tests stop
    # early in key order. So dict equality, which ignores the order, is not
    # enough: from every source, a file read in small chunks with its lines
    # shuffled and repeated included, a predicate's subjects come in
    # sorted-triple order and its objects in order of first appearance there
    rng = random.Random(5)
    graphs = [family_graph, kg.KnowledgeGraph(reversed(family_graph.triples))]
    path = tmp_path / "g.nt"
    for _ in range(20):
        triples = list(random_load_graph(rng))
        rng.shuffle(triples)
        lines = [ntriples_line(t) for t in triples]
        graphs += [kg.load(lines), kg.KnowledgeGraph(triples)]
        repeated = lines + rng.sample(lines, len(lines) // 2)
        rng.shuffle(repeated)
        path.write_text("".join(line + "\n" for line in repeated), "utf-8")
        with mock.patch.object(kg, "_CHUNK_BYTES", 128):
            graphs.append(kg.load(path))
    for g in graphs:
        for p in g.predicate_set:
            ts = [t for t in g.triples if t.predicate == p]
            assert list(g._sp[p]) == list(dict.fromkeys(t.subject for t in ts))
            assert list(g._sp[p]) == sorted(g._sp[p])
            assert list(g._po[p]) == list(dict.fromkeys(t.object for t in ts))


_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark
_SOURCE_LINES = [
    "# a comment",
    '<http://x/a> <http://x/name> "Ann" .',
    "",
    "<http://x/a> <http://x/knows> <http://x/b> .",
    "   ",
    "  <http://x/b> <http://x/knows> <http://x/a>\t.  ",
    '<http://x/b> <http://x/name> "Ann" .',
    "<http://x/a> <http://x/knows> <http://x/b> .",
    "\t# an indented comment",
    '  <http://x/b> <http://x/name> "Ann" .',
]


def _source_kinds(tmp_path, lines: list[str]) -> list:
    """The lines joined with LF, CR LF and lone CR endings in turn, as a
    path to a file that starts with a byte-order mark, as an open text
    handle and as a list of lines."""
    ends = ("\n", "\r\n", "\r")
    text = "".join(line + ends[i % 3] for i, line in enumerate(lines))
    path = tmp_path / "graph.nt"
    path.write_bytes(_BOM + text.encode("utf-8"))
    plain = tmp_path / "plain.nt"
    plain.write_bytes(text.encode("utf-8"))
    return [path, plain, text.splitlines(keepends=True)]


def test_three_source_kinds_agree(tmp_path):
    path, plain, listed = _source_kinds(tmp_path, _SOURCE_LINES)
    with open(plain, encoding="utf-8") as fh:
        graphs = [kg.load(path), kg.load(fh), kg.load(listed)]
    want = kg.KnowledgeGraph([
        Triple("http://x/a", "http://x/name", Literal("Ann")),
        Triple("http://x/a", "http://x/knows", "http://x/b"),
        Triple("http://x/b", "http://x/knows", "http://x/a"),
        Triple("http://x/b", "http://x/name", Literal("Ann")),
    ])
    for g in graphs:
        assert g == want
        # one object per equal IRI and one per equal Literal, in the
        # triples and in both index families
        nodes = [n for t in g.triples for n in (t.subject, t.predicate, t.object)]
        for table in (g._sp, g._po):
            nodes += table
            for index in table.values():
                nodes += index
                nodes += [n for v in index.values() for n in v]
        assert len({id(n) for n in nodes}) == len(set(nodes)) == 5


def test_first_bad_line_is_reported_first(tmp_path):
    # a fresh IRI with an empty local name on line 2 is reported before the
    # line 3 that does not parse, whatever the source
    lines = ["<http://x/a> <http://x/p> <http://x/b> .",
             "<http://x/a> <http://x/p> <http://x/> .",
             "not a triple"]
    path, plain, listed = _source_kinds(tmp_path, lines)
    with open(plain, encoding="utf-8") as fh:
        for source in (path, fh, listed):
            with pytest.raises(ParseError) as err:
                kg.load(source)
            assert err.value.line_no == 2
            assert err.value.reason == "invalid object IRI: 'http://x/'"


def test_graph_store_fields():
    # the graph store holds the graph and its indexes, no label table
    assert [f.name for f in fields(kg.KnowledgeGraph)] == [
        "type_predicate", "_sp", "_po",
        "predicate_set", "type_set", "entity_set", "_counts",
    ]


def _reachable(roots) -> list:
    """Every object reachable from ``roots`` through ``gc.get_referents``,
    not descending into classes, which reach their modules."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            if not isinstance(obj, type):
                stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_graph_keeps_no_triple():
    # the store keeps keys and indexes only; ``triples`` builds its tuple
    # on each read
    source = kg.load(_MANY_LINES).triples
    for g in (kg.load(_MANY_LINES), kg.KnowledgeGraph(source)):
        held = _reachable(getattr(g, f.name) for f in fields(g))
        assert not any(isinstance(obj, Triple) for obj in held)
        assert any(isinstance(obj, Literal) for obj in held)  # the walk reaches the values
        assert g.triples == source and g.triples is not g.triples


def test_triples_rebuild_the_graph_on_random_graphs():
    rng = random.Random(13)
    for _ in range(40):
        for triples in (random_graph(rng), random_load_graph(rng)):
            lines = [ntriples_line(t) for t in triples]
            for g in (kg.load(lines), kg.KnowledgeGraph(triples)):
                assert len(g) == len(g.triples) == len(set(triples))
                assert kg.KnowledgeGraph(g.triples) == g


def test_constructed_graph_validates_as_loaded():
    from relink.patterns import has_instance, match_instances

    loaded = kg.load(data_path("family_geo.nt"))
    built = kg.KnowledgeGraph(reversed(loaded.triples))
    assert built == loaded
    # the constructor reads its input once, so a generator gives the same graph
    shuffled = list(loaded.triples)
    random.Random(3).shuffle(shuffled)
    assert kg.KnowledgeGraph(t for t in shuffled) == kg.KnowledgeGraph(shuffled) == loaded
    for entry in evaluate.load_gold(data_path("gold.jsonl")):
        pattern = entry.gold_pattern
        assert has_instance(built, pattern) == has_instance(loaded, pattern)
        assert match_instances(built, pattern) == match_instances(loaded, pattern)


def test_decode_error_line_counts_every_line_break(tmp_path):
    # CR LF and a lone CR each end a line in text mode, as LF does
    head = (b"<http://x/a> <http://x/p> <http://x/b> .\r\n"
            b"<http://x/a> <http://x/p> <http://x/c> .\r"
            b"<http://x/a> <http://x/p> <http://x/d> .\n")
    path = tmp_path / "bad.nt"
    path.write_bytes(head + b"<http://x/a> <http://x/p> <http://x/\xe9> .\n")
    with pytest.raises(ParseError) as err:
        kg.load(path)
    assert err.value.line_no == 4
    path.write_bytes(head + b"not a triple\n")
    with pytest.raises(ParseError) as err:
        kg.load(path)
    assert err.value.line_no == 4


def test_open_text_handle_not_utf8_is_parse_error(tmp_path):
    # text mode decodes in chunks: the error names a line at or before the bad one
    good = b"<http://x/a> <http://x/p> <http://x/b> .\n"
    path = tmp_path / "bad.nt"
    bad = b"<http://x/a> <http://x/p> <http://x/\xff> .\n"
    for bad_line in (3, 1000):
        path.write_bytes(good * (bad_line - 1) + bad)
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as err:
            kg.load(fh)
        assert 1 <= err.value.line_no <= bad_line
        assert "at or after" in str(err.value)
    assert err.value.line_no > 1  # line 1000 lies past the first decoded chunk


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_named_pipe_not_utf8_names_the_bad_line(tmp_path):
    # a pipe can be read only once, so the bad byte's line must come from
    # the one read; the reader stops there, and the writer's pipe breaks
    good = b"<http://x/a> <http://x/p> <http://x/b> .\n"
    bad = b"<http://x/a> <http://x/p> <http://x/\xff> .\n"
    path = tmp_path / "graph.fifo"
    os.mkfifo(path)

    def write() -> None:
        try:
            with open(path, "wb") as fh:
                fh.write(good * 9 + bad + good * 5000)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with pytest.raises(ParseError) as err:
            kg.load(path)
    finally:
        if writer.is_alive():  # a writer still waiting for a reader opens now
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(60)
    assert not writer.is_alive()
    assert str(err.value) == f"{path} line 10: not valid UTF-8: invalid start byte"


@pytest.mark.parametrize("chunk", [64, 256, 1 << 16])
def test_earliest_fault_wins_over_a_bad_byte(tmp_path, chunk):
    # a malformed line before the line of a byte that is not UTF-8 is the
    # one reported, and one after it is not, however far apart they lie and
    # wherever text mode's decoding and the reader's chunks end
    good = b"<http://x/a> <http://x/p> <http://x/b> .\n"
    bad_byte = b"<http://x/a> <http://x/p> <http://x/\xff> .\n"
    path = tmp_path / "g.nt"
    with mock.patch.object(kg, "_CHUNK_BYTES", chunk):
        for gap in (0, 26_000 // len(good)):
            for head in (b"", _BOM):
                path.write_bytes(head + good + b"not a triple\n" + good * gap + bad_byte)
                with pytest.raises(ParseError) as err:
                    kg.load(path)
                assert str(err.value) == f"{path} line 2: not a valid triple: 'not a triple'"
                path.write_bytes(head + good + bad_byte + good * gap + b"not a triple\n")
                with pytest.raises(ParseError) as err:
                    kg.load(path)
                assert str(err.value) == f"{path} line 2: not valid UTF-8: invalid start byte"


@pytest.mark.parametrize("chunk", [16, 1 << 16])
def test_only_a_leading_byte_order_mark_is_dropped(tmp_path, chunk):
    # a mark that starts a later line, with small chunks also a later
    # chunk, is part of that line, as it is in the list of the file's lines
    good = "<http://x/a> <http://x/p> <http://x/b> ."
    path = tmp_path / "g.nt"
    path.write_bytes(_BOM + f"{good}\n\ufeff{good}\n".encode("utf-8"))
    want = _load_outcome([good, "\ufeff" + good])
    assert want[0] == 2
    with mock.patch.object(kg, "_CHUNK_BYTES", chunk):
        assert _load_outcome(path) == want


def test_no_chunk_ends_between_cr_and_lf(tmp_path):
    # a read that ends on the CR of a CR LF pair does not end a chunk
    # there, which would count the pair as two line ends: with every read
    # size below, some read ends on each byte of a line
    good = b"<http://x/a> <http://x/p> <http://x/b> .\r\n"
    path = tmp_path / "g.nt"
    path.write_bytes(good * 20 + b"not a triple\r\n")
    for chunk in range(len(good) - 1, 2 * len(good)):
        with mock.patch.object(kg, "_CHUNK_BYTES", chunk), pytest.raises(ParseError) as err:
            kg.load(path)
        assert err.value.line_no == 21, chunk


@pytest.mark.parametrize("chunk", [64, 256])
def test_duplicates_in_other_chunks_are_dropped(tmp_path, chunk):
    # a line and its copies read in other chunks are one triple, with an IRI
    # object or a literal one, and a literal whose text is an IRI stays
    # apart from that IRI; the counts are taken from the indexes
    distinct = [
        "<http://x/a> <http://x/p> <http://x/b> .",
        '<http://x/a> <http://x/p> "http://x/b" .',
        "<http://x/a> <http://x/p> <http://x/c> .",
        '<http://x/a> <http://x/name> "Ann" .',
        '<http://x/b> <http://x/name> "Ann" .',
        "<http://x/b> <http://x/p> <http://x/b> .",
    ]
    path = tmp_path / "dup.nt"
    path.write_text("".join(line + "\n" for line in distinct * 2 + distinct[::-1]), "utf-8")
    with mock.patch.object(kg, "_CHUNK_BYTES", chunk):
        with open(path, "rb") as fh:
            chunks = [set(c.decode().splitlines()) for c in kg._chunks(fh)]
        g = kg.load(path)
    assert all(sum(line in c for c in chunks) > 1 for line in distinct)
    want = kg.load(distinct)
    assert g == want and len(g) == len(want) == len(distinct)
    assert [g.predicate_count(p) for p in ("http://x/p", "http://x/name")] == [4, 2]
    assert g.objects("http://x/a", "http://x/p") == {
        "http://x/b", "http://x/c", Literal("http://x/b")}


def test_lone_cr_file_is_read_a_chunk_at_a_time(tmp_path):
    # a file whose lines all end in a lone CR holds no LF: a reader that
    # extended each chunk to the next LF would hold the whole file at once,
    # and its load's peak would be 5.1 MB here against the LF copy's 1.8
    text = "\n".join(_MANY_LINES[:300] * 40) + "\n"  # duplicates: the reader dominates
    assert len(text) > 2 * kg._CHUNK_BYTES
    peaks = {}
    for name, end in (("lf", "\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.nt"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        tracemalloc.start()
        try:
            assert len(kg.load(path)) == 300
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["cr"] <= 1.5 * peaks["lf"], peaks


_GAP_CHARS = (" ", "\t", "\x0b", "\xa0", "\u3000")
_MALFORMED = (
    "not a triple",
    "<http://x/a> <http://x/p> .",
    "<http://x/a> <http://x/p> <http://x/b> . x",
    "<http://x/a> <http://x/p> <http://x/b>",
    '<http://x/a> <http://x/p> "open',  # a literal a later line could close
    'end" .',
    "<http://x/a> <http://x/p> <http://x/a<b> .",
    "<http://x/a> <http://x/p> <http://x/a b> .",
    "<http://x/> <http://x/p> <http://x/b> .",  # an empty local name
)


@st.composite
def _graph_files(draw) -> tuple[str, int | None]:
    """The text of a graph file and where, if anywhere, a byte that is not
    UTF-8 goes in it. Its lines are triples from a small pool of terms,
    blank lines, comments indented with tabs, and malformed lines,
    triples split over two lines among them; terms are separated by runs
    of spaces, tabs, '\\x0b', '\\xa0' and '\\u3000'; lines end with LF,
    CR LF or CR, and the last may have no ending."""
    gap = st.text(st.sampled_from(_GAP_CHARS), min_size=1, max_size=2)
    edge = st.text(st.sampled_from(_GAP_CHARS), max_size=2)
    iri = st.sampled_from(("<http://x/a>", "<http://x/b>", "<http://x/p>", "<http://x/q>"))
    literal = st.sampled_from(('""', '"a b"', '"x>y"', '"#"'))
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(edge))
        elif kind == 1:
            lines.append(draw(edge) + "\t# a comment")
        elif kind == 2:
            lines.append(draw(st.sampled_from(_MALFORMED)))
        else:
            terms = [draw(iri), draw(iri), draw(st.one_of(iri, literal)), "."]
            gaps = [draw(gap), draw(gap), draw(edge)]
            if kind == 3:  # split over two lines
                gaps[draw(st.integers(0, 2))] = "\n"
            line = draw(edge) + "".join(t + g for t, g in zip(terms, gaps + [draw(edge)]))
            lines.extend(line.split("\n"))
    text = "".join(line + draw(st.sampled_from(("\n", "\r\n", "\r"))) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    bad_at = draw(st.one_of(st.none(), st.integers(0, len(text))))
    return text, bad_at


def _load_outcome(source):
    """The graph ``kg.load`` gives, or its error's line number and reason."""
    try:
        return kg.load(source)
    except ParseError as exc:
        return (exc.line_no, exc.reason)


def _text_lines(text: str) -> list[str]:
    """The lines text mode reads, split at LF, CR LF and CR."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@settings(max_examples=300, deadline=None)
@given(file=_graph_files(), chunk=st.integers(64, 256), bom=st.booleans())
@example(file=("<http://x/a> <http://x/p> <http://x/b> .\nnot a triple\n<http://x/a>", 60),
         chunk=64, bom=False)
@example(file=('<http://x/a>\x0b<http://x/p>\u3000"v" .\r\n\t# c\r<http://x/a> <http://x/p>'
               ' "open\n end" .', None), chunk=64, bom=True)
@example(file=('<http://x/a> <http://x/p> "open\r\n end" .\r\n# c\r\n'
               '<http://x/a> <http://x/p> <http://x/b> .\r\n', None), chunk=64, bom=False)
def test_chunked_reads_equal_line_reads(tmp_path_factory, file, chunk, bom):
    # a path is read in chunks; with chunks small enough that their ends
    # fall inside the file, it loads to the same graph, or fails with the
    # same line and reason, as the list of its lines does; a byte that is
    # not UTF-8 is reported unless a line before its own is faulty
    text, bad_at = file
    path = tmp_path_factory.getbasetemp() / "chunked.nt"
    if bad_at is None:
        data = text.encode("utf-8")
        want = _load_outcome(_text_lines(text))
    else:
        data = text[:bad_at].encode("utf-8") + b"\xff" + text[bad_at:].encode("utf-8")
        before = _text_lines(text[:bad_at])
        want = _load_outcome(before[:-1])
        if not isinstance(want, tuple):
            want = (len(before), "not valid UTF-8: invalid start byte")
    path.write_bytes(_BOM * bom + data)
    with mock.patch.object(kg, "_CHUNK_BYTES", chunk):
        assert _load_outcome(path) == want
    assert _load_outcome(path) == want  # one chunk


# 3,000 distinct triples: enough allocations for the collector to run
# dozens of young collections were it running
_MANY_LINES = [
    f"<http://x/s{i}> <http://x/p{i % 7}> <http://x/o{i % 50}> ." if i % 3
    else f'<http://x/s{i}> <http://x/name> "n{i % 200}" .'
    for i in range(3000)
]


@contextlib.contextmanager
def _collector_state(enabled: bool):
    """Run with the cyclic garbage collector enabled or not, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# past the first chunk text mode decodes, so some lines are read first
_BAD_UTF8 = "\n".join(_MANY_LINES).encode() + b"\n<http://x/a> <http://x/p> <http://x/\xff> .\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_load_and_constructor_leave_collector_as_found(tmp_path, enabled):
    # the collector policy is the CLI's: a load of a path or of lines, and
    # the constructor, run with the collector as the caller set it, whether
    # they end or fail, and a source they read sees it so on every item
    path = tmp_path / "g.nt"
    path.write_text("\n".join(_MANY_LINES) + "\n", "utf-8")
    bad = tmp_path / "bad.nt"
    bad.write_bytes(_BAD_UTF8)
    source = kg.load(_MANY_LINES).triples
    seen: list[bool] = []

    def noting(items):
        for item in items:
            seen.append(gc.isenabled())
            yield item

    runs = [
        lambda: kg.load(path),
        lambda: kg.load(_MANY_LINES),
        lambda: kg.load(noting(_MANY_LINES)),
        lambda: kg.KnowledgeGraph(source),
        lambda: kg.KnowledgeGraph(noting(source)),
    ]
    with _collector_state(enabled):
        for run in runs:
            assert len(run()) == len(_MANY_LINES)
            assert gc.isenabled() is enabled
        for source_path in (bad, tmp_path / "missing.nt"):
            with pytest.raises((ParseError, FileNotFoundError)):
                kg.load(source_path)
            assert gc.isenabled() is enabled
    assert len(seen) == 2 * len(_MANY_LINES)
    assert set(seen) == {enabled}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "content, error",
    [("\n".join(_MANY_LINES).encode(), None),
     (b"<http://x/a> <http://x/p> <http://x/b> .\nnot a triple\n", ParseError),
     (_BAD_UTF8, ParseError),
     (None, FileNotFoundError)],
    ids=["loads", "parse-error", "not-utf8", "missing"],
)
def test_load_pauses_and_restores_collector(tmp_path, enabled, content, error):
    # in the CLI's collector pause, the collector is off while the lines
    # are read, and on after a load only if it was on before, however the
    # load ended
    path = tmp_path / "g.nt"
    if content is not None:
        path.write_bytes(content)
    seen: list[bool] = []

    def lines_noting_collector():
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                seen.append(gc.isenabled())
                yield line

    sources = [path] if content is None else [path, lines_noting_collector()]
    with _collector_state(enabled):
        for source in sources:
            with pytest.raises(error) if error else contextlib.nullcontext():
                with cli._gc_paused:
                    kg.load(source)
            assert gc.isenabled() is enabled
    assert (content is None) is (seen == [])
    assert not any(seen)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_constructor_pauses_and_restores_collector(enabled):
    # in the CLI's collector pause, as ``ingest`` builds its graph, the
    # constructor reads its source with the collector off, and the pause
    # leaves it as it found it, whether the source ends or fails
    source = kg.load(_MANY_LINES).triples
    seen: list[bool] = []

    def triples(fail: bool):
        for t in source:
            seen.append(gc.isenabled())
            yield t
        if fail:
            raise RuntimeError("source failed")

    with _collector_state(enabled):
        with cli._gc_paused:
            assert len(kg.KnowledgeGraph(triples(False))) == len(source)
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="source failed"), cli._gc_paused:
            kg.KnowledgeGraph(triples(True))
        assert gc.isenabled() is enabled
    assert len(seen) == 2 * len(source) and not any(seen)


def test_many_small_loads_in_threads_leave_collector_on():
    # empty loads, each in the CLI's collector pause, that start and end
    # while others run, switching threads every microsecond: however their
    # pauses and resumes interleave, the collector is on once all have
    # ended. A pause that read and changed the collector's state without a
    # lock ended with it off in most rounds.
    done = []

    def load_many() -> None:
        for _ in range(5000):
            with cli._gc_paused:
                kg.load([])
        done.append(True)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _collector_state(True):
            for _ in range(3):
                threads = [threading.Thread(target=load_many) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert gc.isenabled()
    finally:
        sys.setswitchinterval(previous)
    assert len(done) == 12


def test_loads_in_threads_beside_linking_match_sequential(tmp_path, linker, explainer,
                                                          family_graph, lexicon, classifier):
    """Loads in several threads share the CLI's collector pause while
    another thread links: every graph and every link result equals its
    sequential one, and the collector is on again once all have finished."""
    path = tmp_path / "many.nt"
    path.write_text("\n".join(_MANY_LINES) + "\n", "utf-8")
    want_graph = kg.load(path)
    phrases = sorted({e.phrase for e in evaluate.load_gold(data_path("gold.jsonl"))})
    want_links = [linker.link(p).to_json() for p in phrases]
    shared = Linker(family_graph, explainer, lexicon, classifier, LinkConfig())

    def load_some() -> list:
        graphs = []
        for _ in range(3):
            with cli._gc_paused:
                graphs.append(kg.load(path))
        return graphs

    def link_all() -> list[dict]:
        return [shared.link(p).to_json() for p in phrases]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _collector_state(True):
            links, *loaded = run_together([link_all] + [load_some] * 4)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(previous)
    assert all(g == want_graph for graphs in loaded for g in graphs)
    assert links == want_links


def test_triples_read_in_threads_match_sequential():
    # each read builds its own tuple, so threads reading together each get
    # the sequential one
    g = kg.load(_MANY_LINES)
    want = g.triples
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run_together([lambda: g.triples] * 4)
    finally:
        sys.setswitchinterval(previous)
    assert all(triples == want for triples in got)


def test_load_prefixes_and_shorten(tmp_path):
    path = tmp_path / "prefixes.json"
    path.write_text('{"ex": "http://example.org/ontology/"}')
    table = kg.load_prefixes(path)
    assert kg.shorten("http://example.org/ontology/mother", table) == "ex:mother"
    assert kg.shorten("http://other.org/x", table) == "http://other.org/x"


def _field_snapshot(g):
    return {
        f.name: (id(value), len(value) if hasattr(value, "__len__") else None)
        for f in fields(g)
        for value in [getattr(g, f.name)]
    }


def test_graph_unchanged_after_load(explainer, classifier):
    """Linking and every baseline only read the graph: no field is added,
    replaced or grown after load, so sharing it across threads is safe."""
    g = kg.load(data_path("family_geo.nt"))
    before = _field_snapshot(g)
    linker = Linker(g, explainer, Lexicon.load(data_path("lexicon.json"), g),
                    classifier, LinkConfig())
    gold = evaluate.load_gold(data_path("gold.jsonl"))
    for entry in gold:
        linker.link(entry.phrase)
    ex = "http://example.org/ontology/"
    hits = (RelationHit(Span(0, 1), ex + "spouse", 1.0),
            RelationHit(Span(2, 3), ex + "mother", 1.0))
    assert link_data_driven(MetaElements((), hits), g) is not None
    for method in evaluate.METHODS:
        for entry in gold:
            evaluate.run_baseline(method, entry.phrase, linker)
    assert _field_snapshot(g) == before
