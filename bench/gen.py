"""Seeded synthetic family/geography graphs for the benchmark.

A graph is the bundled fixture plus a generated population of persons,
cities, countries and organisations that uses only the bundled
predicates. The shape of the generated part (which node links to which,
and how many of each) comes from a fixed template seed, so it depends
only on the population size. The workload seed picks the entity names
and the line order. Every seed of one size therefore yields an
isomorphic graph with the same counts and the same link results, while
the search order inside the matcher, which follows node names, changes.
"""

from __future__ import annotations

import random
from pathlib import Path

ONT = "http://example.org/ontology/"
RES = "http://example.org/resource/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
GENDER = "http://xmlns.com/foaf/0.1/gender"
TEMPLATE_SEED = 1910

# Person counts per workload size. ``deep-graph`` and ``ingest`` use the
# full sizes; the benchmark's own test uses the tiny ones.
PERSONS = {
    ("deep-graph", "full"): 1500,
    ("deep-graph", "tiny"): 150,
    ("ingest", "full"): 4000,
    ("ingest", "tiny"): 300,
}


def _template(n: int) -> list[tuple[tuple[str, int], str, object]]:
    """Edges between abstract nodes ``(kind, index)``; a str object is a literal.

    Relation sizes are chosen so that, in the matcher's rarest-first edge
    order, ``relative`` < ``parent`` < ``gender``; that order is what makes
    the nested ``uncle``/``aunt`` candidates expensive.
    """
    rng = random.Random(TEMPLATE_SEED)
    n_cities = max(4, n // 10)
    n_countries = max(2, n // 100)
    n_orgs = max(2, n // 50)
    n_leagues = max(1, n // 300)
    n_adults = (n * 3 // 5) // 2 * 2  # founders form couples (2k, 2k+1)
    couples = n_adults // 2

    def person(i):
        return ("person", i)

    out: list = []
    for i in range(n):
        out.append((person(i), RDF_TYPE, ("type", "Person")))
        out.append((person(i), GENDER, "male" if i % 2 == 0 else "female"))
        if rng.random() < 0.5:
            out.append((person(i), ONT + "birthPlace", ("city", rng.randrange(n_cities))))
        if rng.random() < 0.2:
            out.append((person(i), ONT + "residence", ("city", rng.randrange(n_cities))))
        if rng.random() < 0.3:
            out.append((person(i), ONT + "country", ("country", rng.randrange(n_countries))))
        if rng.random() < 0.2:
            out.append((person(i), ONT + "memberOf", ("org", rng.randrange(n_orgs))))

    siblings: dict[int, list[int]] = {}
    for k in range(couples):
        father, mother = person(2 * k), person(2 * k + 1)
        if rng.random() < 0.4:
            out.append((father, ONT + "spouse", mother))
        if rng.random() < 0.5:
            out.append((father, ONT + "family", ("family", k)))
            out.append((mother, ONT + "family", ("family", k)))
    for i in range(n_adults, n):
        k = rng.randrange(couples)
        siblings.setdefault(k, []).append(i)
        father, mother = person(2 * k), person(2 * k + 1)
        out.append((person(i), ONT + "parent", father))
        out.append((person(i), ONT + "parent", mother))
        out.append((person(i), ONT + "father", father))
        out.append((person(i), ONT + "mother", mother))
        out.append((mother, ONT + "child", person(i)))
    for group in siblings.values():
        for a, b in zip(group, group[1:]):
            out.append((person(a), ONT + "relative", person(b)))

    for c in range(n_cities):
        out.append((("city", c), RDF_TYPE, ("type", "City")))
        out.append((("city", c), RDF_TYPE, ("type", "Place")))
        country = ("country", c % n_countries)
        out.append((("city", c), ONT + "country", country))
        out.append((("city", c), ONT + "locatedIn", country))
    for c in range(n_countries):
        out.append((("country", c), RDF_TYPE, ("type", "Place")))
        out.append((("country", c), ONT + "capital", ("city", c)))
    for o in range(n_orgs):
        out.append((("org", o), RDF_TYPE, ("type", "Organisation")))
        out.append((("org", o), ONT + "league", ("league", o % n_leagues)))
        out.append((("org", o), ONT + "founder", person(rng.randrange(n))))
        if o % 3 == 0:
            out.append((("org", o), ONT + "sport", ("sport", o % 4)))
    return out


def _names(template, rng: random.Random) -> dict[tuple[str, object], str]:
    """Seeded IRIs for the template's nodes; types keep their ontology IRIs."""
    nodes = sorted(
        {n for s, _, o in template for n in (s, o) if isinstance(n, tuple) and n[0] != "type"},
        key=repr,
    )
    numbers = rng.sample(range(10**7), len(nodes))
    names = {
        node: f"{RES}{node[0].capitalize()}{number:07d}"
        for node, number in zip(nodes, numbers)
    }
    for _, _, o in template:
        if isinstance(o, tuple) and o[0] == "type":
            names[o] = ONT + o[1]
    return names


def generate(workload: str, size: str, seed: int, bundled: Path) -> list[str]:
    """N-Triples lines: the bundled graph plus the seeded population, shuffled."""
    template = _template(PERSONS[(workload, size)])
    rng = random.Random(f"{workload}:{seed}")
    names = _names(template, rng)
    lines = [
        line for line in bundled.read_text("utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    for s, p, o in template:
        obj = f'"{o}"' if isinstance(o, str) else f"<{names[o]}>"
        lines.append(f"<{names[s]}> <{p}> {obj} .")
    lines = sorted(set(lines))
    rng.shuffle(lines)
    return lines


def counts(lines: list[str]) -> dict[str, int]:
    """The summary ``relink ingest`` prints, computed independently of relink."""
    triples, predicates, types, entities = set(), set(), set(), set()
    for line in lines:
        s, p, o = line.rstrip(" .").split(" ", 2)
        triples.add((s, p, o))
        predicates.add(p)
        entities.add(s)
        if p == f"<{RDF_TYPE}>":
            if o.startswith("<"):
                types.add(o)
        elif o.startswith("<"):
            entities.add(o)
    return {
        "entities": len(entities),
        "predicates": len(predicates),
        "triples": len(triples),
        "types": len(types),
    }
