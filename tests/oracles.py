"""Independent brute-force oracles the production code is checked against.

These deliberately avoid the package's index structures: matching
enumerates every variable assignment over the node universe, and
adjacency classification scans raw triple pairs.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import string
from typing import TYPE_CHECKING, Optional

from relink.classify import EPOCHS, L2, LEARNING_RATE, PatternClassifier
from relink.kg import (
    RDF_TYPE,
    KnowledgeGraph,
    Literal,
    ParseError,
    Triple,
    local_name,
    node_key,
)
from relink.linking import (
    GraphLabels,
    Lexicon,
    PseudoRelation,
    Span,
    Token,
    TypeHit,
    mention_score,
)
from relink.patterns import (
    CLASSES,
    DEFAULT_TIE_BREAK,
    MetaPattern,
    PatternEdge,
    SubgraphPattern,
)

if TYPE_CHECKING:
    import numpy as np

LETTERS = string.ascii_lowercase


def brute_force_instances(
    triples: list[Triple],
    sp: SubgraphPattern,
    type_predicate: str = RDF_TYPE,
) -> list[dict]:
    """All homomorphisms by exhaustive |V|^k assignment enumeration."""
    nodes = sorted(
        {t.subject for t in triples} | {t.object for t in triples}, key=node_key
    )
    facts = {(t.subject, t.predicate, t.object) for t in triples}
    variables = sorted(sp.variables())
    restrictions = sp.type_map()

    found = []
    for combo in itertools.product(nodes, repeat=len(variables)):
        binding = dict(zip(variables, combo))
        if not all(
            (binding[e.src], e.rel, binding[e.dst]) in facts for e in sp.edges
        ):
            continue
        if not all(
            (binding[var], type_predicate, t) in facts
            for var, t in restrictions.items()
        ):
            continue
        found.append(dict(binding))
    found.sort(key=lambda b: tuple(node_key(b[v]) for v in variables))
    return found


def brute_force_adjacent(
    triples: list[Triple], r1: str, r2: str
) -> set[tuple[MetaPattern, tuple[str, str]]]:
    """Two-edge shapes with instances, by scanning all triple pairs."""
    found: set[tuple[MetaPattern, tuple[str, str]]] = set()
    for t1 in triples:
        for t2 in triples:
            if t1.predicate == r1 and t2.predicate == r2:
                if t1.object == t2.subject:
                    found.add((MetaPattern.RP2, (r1, r2)))
                if t1.object == t2.object:
                    found.add((MetaPattern.RP3, tuple(sorted((r1, r2)))))
                if t1.subject == t2.subject:
                    found.add((MetaPattern.RP4, tuple(sorted((r1, r2)))))
            if t1.predicate == r2 and t2.predicate == r1:
                if t1.object == t2.subject:
                    found.add((MetaPattern.RP2, (r2, r1)))
    return found


def random_graph(
    rng: random.Random,
    n_entities: int = 8,
    n_predicates: int = 4,
    n_triples: int = 30,
    n_types: int = 2,
    literal_rate: float = 0.15,
) -> list[Triple]:
    """A random triple list: entities, a few predicates, types, literals."""
    entities = [f"http://t.example/e{i}" for i in range(n_entities)]
    predicates = [f"http://t.example/p{i}" for i in range(n_predicates)]
    types = [f"http://t.example/T{i}" for i in range(n_types)]
    literals = [Literal("red"), Literal("blue")]

    triples: set[Triple] = set()
    for _ in range(n_triples):
        s = rng.choice(entities)
        p = rng.choice(predicates)
        o = (
            rng.choice(literals)
            if rng.random() < literal_rate
            else rng.choice(entities)
        )
        triples.add(Triple(s, p, o))
    for e in entities:
        if rng.random() < 0.5:
            triples.add(Triple(e, RDF_TYPE, rng.choice(types)))
    return sorted(triples, key=Triple.sort_key)


_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)?")
_POSSESSIVE_RE = re.compile(r"'s?$")


def reference_tokenize(text: str) -> list[str]:
    """``text.tokenize`` by lowercasing each token and then deleting a
    trailing apostrophe, or apostrophe and ``s``, with a regex
    substitution, keeping the tokens that are left non-empty."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = _POSSESSIVE_RE.sub("", m.group(0).lower())
        if tok:
            tokens.append(tok)
    return tokens


_SPLIT_RE = re.compile(r"[_\-]+|(?<=\D)(?=\d)|(?<=\d)(?=\D)")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def reference_tokenize_name(name: str) -> tuple[str, ...]:
    """``tokenize_name`` by splitting at separators and digit boundaries,
    then at camelCase boundaries in every chunk, and lowercasing each
    piece."""
    parts = []
    for chunk in _SPLIT_RE.split(name):
        if not chunk:
            continue
        parts.extend(p for p in _CAMEL_RE.split(chunk) if p)
    return tuple(p.lower() for p in parts)


def reference_levenshtein(a: str, b: str) -> int:
    """Edit distance by the full O(len(a) * len(b)) dynamic-programming table."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def reference_link_simple(
    tokens: list[str], labels: GraphLabels, lex: Lexicon, theta_rel: float
) -> Optional[tuple[str, float]]:
    """Best predicate for a mention, given as its tokens, by scoring every
    label in full with ``mention_score``, with no pruning."""
    if not tokens:
        return None
    best = None
    lex_targets = lex.get(tokens)
    for iri, label in labels.relation_labels.items():
        score = mention_score(tokens, label)
        if iri in lex_targets:
            score = 1.0
        if score >= theta_rel and (best is None or score > best[1]):
            best = (iri, score)
    return best


def reference_detect_types(tokens: list[Token], labels: GraphLabels) -> list[TypeHit]:
    """Type mentions by scanning every window, longest first, then
    leftmost, and taking each one the type dictionary holds that
    overlaps no window taken before it."""
    type_dict = labels.type_dictionary
    if not type_dict:
        return []
    max_len = max(len(k) for k in type_dict)
    hits: list[TypeHit] = []
    for length in range(min(max_len, len(tokens)), 0, -1):
        for start in range(len(tokens) - length + 1):
            window = tokens[start : start + length]
            span = Span(start, start + length)
            if any(isinstance(t, PseudoRelation) for t in window):
                continue
            if any(span.overlaps(h.span) for h in hits):
                continue
            iri = type_dict.get(tuple(window))
            if iri is not None:
                hits.append(TypeHit(span, iri))
    hits.sort(key=lambda h: h.span.start)
    return hits


def reference_fit(
    features: list[dict[str, float]], labels: list[MetaPattern], seed: int
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """``classify.fit``'s vocabulary, weights and bias by the plain loop:
    scalar stores into ``x`` and ``y``, and each epoch's steps written as
    whole-array expressions that allocate their results."""
    import numpy as np

    vocab: dict[str, int] = {}
    for feats in features:
        for name in feats:
            if name not in vocab:
                vocab[name] = len(vocab)
    vocab = {name: i for i, name in enumerate(sorted(vocab))}

    n, f, c = len(features), len(vocab), len(CLASSES)
    x = np.zeros((n, f))
    for row, feats in enumerate(features):
        for name, value in feats.items():
            x[row, vocab[name]] = value
    class_index = {cls: i for i, cls in enumerate(CLASSES)}
    y = np.zeros((n, c))
    for row, label in enumerate(labels):
        y[row, class_index[label]] = 1.0

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
    return vocab, w, b


def _shifted_scores(clf: PatternClassifier, feats: dict[str, float]) -> np.ndarray:
    """Each feature's weight column scaled and added to a numpy score
    vector that starts from the bias, less its maximum."""
    import numpy as np

    z = np.array(clf.bias)
    weights = np.array(clf.weights)
    for name, value in feats.items():
        idx = clf.vocabulary.get(name)
        if idx is not None:
            z += value * weights[:, idx]
    return z - z.max()


def _most_probable(probs: np.ndarray) -> tuple[MetaPattern, float]:
    best = probs.max()
    # exact ties resolve through the fixed class order
    tied = [c for c, p in zip(CLASSES, probs) if p == best]
    return min(tied, key=DEFAULT_TIE_BREAK.index), float(best)


def reference_predict_features(
    clf: PatternClassifier, feats: dict[str, float]
) -> tuple[MetaPattern, float]:
    """``PatternClassifier.predict_features`` in numpy: the softmax of the
    numpy score vector, its exponentials taken by ``math.exp``."""
    import numpy as np

    probs = np.array([math.exp(v) for v in _shifted_scores(clf, feats).tolist()])
    probs /= probs.sum()
    return _most_probable(probs)


def numpy_softmax_predict_features(
    clf: PatternClassifier, feats: dict[str, float]
) -> tuple[MetaPattern, float]:
    """The class and probability of numpy's own softmax of the score
    vector, ``np.exp`` included. Its exp kernel and libm's ``math.exp``
    differ in the last bit on a few percent of inputs."""
    import numpy as np

    probs = np.exp(_shifted_scores(clf, feats))
    probs /= probs.sum()
    return _most_probable(probs)


def reference_pattern_check(
    edges: tuple[PatternEdge, ...], types: tuple[tuple[str, str], ...]
) -> Optional[str]:
    """The message ``SubgraphPattern`` rejects a pattern with, or None,
    by counting each variable's types, collecting the variables and then
    searching an adjacency-set graph from one of them."""
    if not edges:
        return "pattern needs at least one edge"
    typed = [var for var, _ in types]
    twice = sorted({var for var in typed if typed.count(var) > 1})
    if twice:
        return f"more than one type restriction on variable {twice[0]!r}"
    seen: dict[str, None] = {}
    for e in edges:
        seen.setdefault(e.src)
        seen.setdefault(e.dst)
    variables = set(seen)
    for var, _ in sorted(types):
        if var not in variables:
            return f"type restriction on unused variable {var!r}"
    adjacency: dict[str, set[str]] = {v: set() for v in variables}
    for e in edges:
        adjacency[e.src].add(e.dst)
        adjacency[e.dst].add(e.src)
    stack = [next(iter(variables))]
    reached: set[str] = set()
    while stack:
        v = stack.pop()
        if v in reached:
            continue
        reached.add(v)
        stack.extend(adjacency[v] - reached)
    if reached != variables:
        return "pattern edges must form a connected graph"
    return None


def near_miss(word: str, rng: random.Random) -> str:
    """``word`` with one letter inserted, deleted or replaced, or two
    neighbouring letters swapped (``mothers``, ``parnet``)."""
    i = rng.randrange(len(word))
    edit = rng.randrange(4)
    if edit == 0:
        return word[:i] + rng.choice(LETTERS) + word[i:]
    if edit == 1:
        return word[:i] + word[i + 1 :]
    if edit == 2:
        return word[:i] + rng.choice(LETTERS) + word[i + 1 :]
    i = min(i, len(word) - 2)
    return word[:i] + word[i + 1] + word[i] + word[i + 2 :]


def disjoint_triples(
    rng: random.Random,
    vocabulary: set[str],
    nodes: list[str],
    n_predicates: int,
    n_triples: int,
) -> list[Triple]:
    """Triples on fresh predicates whose label tokens all lie outside
    ``vocabulary``, between ``nodes`` and fresh nodes named the same way.

    Half the label words are near misses of vocabulary words, so their
    edit similarity to a mention is high while no token is shared; the
    rest are random letter strings. Names are camelCase, which
    ``tokenize_name`` splits back into the words.
    """
    namespace = "http://disjoint.example/"
    stems = sorted(w for w in vocabulary if len(w) >= 3 and w.isascii() and w.isalpha())

    def word() -> str:
        while True:
            if rng.random() < 0.5:
                w = near_miss(rng.choice(stems), rng)
            else:
                w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(3, 8)))
            if w not in vocabulary:
                return w

    def iri() -> str:
        words = [word() for _ in range(rng.randint(1, 3))]
        return namespace + words[0] + "".join(w.capitalize() for w in words[1:])

    predicates = sorted({iri() for _ in range(n_predicates)})
    fresh = [iri() for _ in range(len(predicates))]
    ends = list(nodes) + fresh
    return [
        Triple(rng.choice(ends), predicates[i % len(predicates)], rng.choice(ends))
        for i in range(n_triples)
    ]


def shared_token_triples(
    rng: random.Random,
    label_tokens: set[str],
    nodes: list[str],
    n_predicates: int,
    n_triples: int,
) -> list[Triple]:
    """Triples on fresh predicates whose labels are each one of
    ``label_tokens`` followed by a random letter string, between
    ``nodes`` and fresh nodes.

    Every new label shares a token with a graph label, so a mention that
    holds that token has the new label among its postings and scores it.
    Names are camelCase, which ``tokenize_name`` splits back into the two
    words; random words that are themselves label tokens are redrawn.
    """
    namespace = "http://shared.example/"
    stems = sorted(w for w in label_tokens if w.isascii() and w.isalpha())

    def word() -> str:
        while True:
            w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(3, 8)))
            if w not in label_tokens:
                return w

    def iri() -> str:
        return namespace + rng.choice(stems) + word().capitalize()

    predicates = sorted({iri() for _ in range(n_predicates)})
    ends = list(nodes) + [namespace + word() for _ in range(len(predicates))]
    return [
        Triple(rng.choice(ends), predicates[i % len(predicates)], rng.choice(ends))
        for i in range(n_triples)
    ]


# The line parser whose IRI term excluded '<', '>' and whitespace in its
# character class (\s matches exactly the str.isspace characters).
_REF_IRI_TERM = r"<([^<>\s]+)>"
_REF_LINE_RE = re.compile(
    rf'^\s*{_REF_IRI_TERM}\s+{_REF_IRI_TERM}\s+(?:{_REF_IRI_TERM}|"([^"]*)")\s*\.\s*$'
)


def reference_parse_line(line: str, line_no: int) -> Triple:
    """One triple line, by a pattern whose IRI class rules out '<', '>' and
    whitespace, then a non-empty local name for the subject, predicate and
    object IRIs in that order."""
    m = _REF_LINE_RE.match(line)
    if not m:
        raise ParseError(line_no, f"not a valid triple: {line.strip()!r}")
    subject, predicate, obj_iri, obj_lit = m.groups()
    for iri, role in ((subject, "subject"), (predicate, "predicate"), (obj_iri, "object")):
        if iri is not None and not local_name(iri):
            raise ParseError(line_no, f"invalid {role} IRI: {iri!r}")
    return Triple(subject, predicate, Literal(obj_lit) if obj_iri is None else obj_iri)


def ntriples_line(t: Triple) -> str:
    obj = f'"{t.object.value}"' if isinstance(t.object, Literal) else f"<{t.object}>"
    return f"<{t.subject}> <{t.predicate}> {obj} ."


def graph_from_triples(triples: list[Triple]) -> KnowledgeGraph:
    from relink import kg

    return kg.load([ntriples_line(t) for t in triples])


def random_load_graph(rng: random.Random) -> set[Triple]:
    """Triples for checking ``kg.load``: entity and type IRIs from two
    namespaces whose local names tokenize alike, literal objects, one of
    them equal to an entity IRI, and literal objects of the type
    predicate."""
    spaces = ["http://t.example/", "http://u.example/ns#"]
    entities = [ns + f"e{i}" for ns in spaces for i in range(3)]
    types = [ns + name for ns in spaces for name in ("Person", "person", "SoccerPlayer")]
    # partOfPart's label repeats a token, which the label postings hold once
    predicates = [spaces[0] + "p0", spaces[0] + "hasPart", spaces[1] + "has_part",
                  spaces[1] + "partOfPart", RDF_TYPE]
    literals = [Literal("red"), Literal("Person"), Literal(""), Literal(entities[0])]
    triples: set[Triple] = set()
    for _ in range(rng.randrange(40)):
        s = rng.choice(entities + types[:1])
        p = rng.choice(predicates)
        roll = rng.random()
        if roll < 0.2:
            o = rng.choice(literals)
        elif roll < 0.5:
            o = rng.choice(types)
        else:
            o = rng.choice(entities)
        triples.add(Triple(s, p, o))
    return triples


def reference_load(triples: set[Triple], type_predicate: str) -> dict:
    """Every table ``kg.load`` builds, computed directly from the triple set."""
    ordered = tuple(sorted(triples, key=Triple.sort_key))
    typing = {
        (t.subject, t.object)
        for t in triples
        if t.predicate == type_predicate and not isinstance(t.object, Literal)
    }
    types = {o for _, o in typing}
    entities = {t.subject for t in triples} | {
        t.object
        for t in triples
        if t.predicate != type_predicate and not isinstance(t.object, Literal)
    }
    predicates = {t.predicate for t in triples}
    instances = {ty: sum(1 for _, o in typing if o == ty) for ty in types}

    def best_per_key(iris, rank):
        """Token key -> the IRI of least ``rank`` among those with that
        key; keys in the order of their least IRI."""
        by_key: dict = {}
        for iri in iris:
            key = reference_tokenize_name(local_name(iri))
            if key:
                by_key.setdefault(key, []).append(iri)
        return {
            key: min(group, key=rank)
            for key, group in sorted(by_key.items(), key=lambda kv: min(kv[1]))
        }

    relation_labels = [
        (p, reference_tokenize_name(local_name(p)))
        for p in sorted(predicates - {type_predicate})
    ]
    label_tokens = {token for _, label in relation_labels for token in label}

    def objects(s, p):
        return frozenset(t.object for t in triples if (t.subject, t.predicate) == (s, p))

    def subjects(p, o):
        return frozenset(t.subject for t in triples if (t.predicate, t.object) == (p, o))

    def predicate_subjects(p):
        return {t.subject for t in triples if t.predicate == p}

    def predicate_objects(p):
        return {t.object for t in triples if t.predicate == p}

    return {
        "triples": ordered,
        "objects": objects,
        "subjects": subjects,
        "predicate_count": lambda p: sum(t.predicate == p for t in ordered),
        "types_of": lambda n: frozenset(o for s, o in typing if s == n),
        "predicate_subjects": predicate_subjects,
        "predicate_objects": predicate_objects,
        # predicate -> subject -> objects, and predicate -> object -> subjects
        "sp": {p: {s: objects(s, p) for s in predicate_subjects(p)} for p in predicates},
        "po": {p: {o: subjects(p, o) for o in predicate_objects(p)} for p in predicates},
        "typed_nodes": {s for s, _ in typing},
        "predicate_set": predicates,
        "type_set": types,
        "entity_set": entities,
        "relation_labels": relation_labels,
        # every token of a label -> the labelled predicates holding it, sorted
        "relation_postings": {
            token: tuple(p for p, label in relation_labels if token in label)
            for token in label_tokens
        },
        # every non-empty label -> the least predicate with exactly that label
        "relation_keys": {
            label: min(p for p, other in relation_labels if other == label)
            for _, label in relation_labels
            if label
        },
        "entity_labels": best_per_key(entities, lambda e: e),
        "type_dictionary": best_per_key(types, lambda ty: (-instances[ty], ty)),
    }
