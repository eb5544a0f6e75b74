from __future__ import annotations

import pytest

import relink


def test_public_api_exports_resolve():
    for name in relink.__all__:
        assert getattr(relink, name) is not None, name


def test_version_present():
    assert relink.__version__


def test_unknown_name_raises_attribute_error():
    # hasattr() and ``from relink import <submodule>`` rely on this type
    with pytest.raises(AttributeError, match="no_such_name"):
        relink.no_such_name


EX = "http://example.org/ontology/"


@pytest.fixture(scope="module")
def graph():
    from relink.cli import data_path

    return relink.load(data_path("family_geo.nt"))


def test_type_dictionary_reads_the_graph(graph):
    assert relink.type_dictionary(graph) == {
        ("city",): EX + "City", ("organisation",): EX + "Organisation",
        ("person",): EX + "Person", ("place",): EX + "Place",
    }
    assert relink.type_dictionary(graph) == relink.GraphLabels.of(graph).type_dictionary


def test_detection_takes_the_graph_labels(graph):
    from relink import evaluate
    from relink.linking import DirectHit

    labels, lex = relink.GraphLabels.of(graph), relink.Lexicon()
    tokens = ["the", "mother", "of", "a", "person", "spouse"]
    assert relink.link_simple(["mother"], labels, lex) == (EX + "mother", 1.0)
    types = relink.detect_types(tokens, labels)
    assert [(h.span.start, h.type_iri) for h in types] == [(4, EX + "Person")]
    relations = relink.detect_relations(tokens, labels, lex)
    assert [h.relation for h in relations] == [EX + "mother", EX + "spouse"]
    assert relink.detect_elements(tokens, labels, lex) == relink.MetaElements(
        tuple(types), tuple(relations)
    )
    assert relink.direct_match("person", labels, lex) == DirectHit("type", EX + "Person")
    assert [e.rel for e in evaluate.keyword_match("founder", labels).edges] == [EX + "founder"]
    assert [e.rel for e in evaluate.similarity_search("mother", labels).edges] == [EX + "mother"]


def test_linker_constructor_takes_the_graph():
    import inspect

    params = list(inspect.signature(relink.Linker).parameters)
    assert params == ["g", "explainer", "lexicon", "classifier", "config"]
