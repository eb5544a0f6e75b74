#!/usr/bin/env python3
"""Regenerate the bundled training and gold fixtures.

The manual training set is rendered from sentence templates whose
structure words mark each two-edge shape; the held-out tail (the last
two relation pairs) uses contaminated variants carrying cue words of the
other classes, which is what the masking ablation leans on. Harvested
examples from the bundled phrase list are appended after the manual
block. The bundled model is the one trained on that set, and is
rewritten only when the set changes. Run from the repository root:

    python tools/build_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relink import classify, kg  # noqa: E402
from relink.classify import MaskedSentence, TrainingExample  # noqa: E402
from relink.cli import RunConfig  # noqa: E402
from relink.evaluate import GoldEntry, save_gold  # noqa: E402
from relink.explain import ExplanationService, FixtureProvider  # noqa: E402
from relink.linking import Lexicon  # noqa: E402
from relink.patterns import MetaPattern, SubgraphPattern, instantiate  # noqa: E402

DATA = ROOT / "src" / "relink" / "data"

EX = "http://example.org/ontology/"
FOAF = "http://xmlns.com/foaf/0.1/"

PAIRS = [
    (EX + "mother", EX + "spouse"),
    (EX + "father", EX + "spouse"),
    (EX + "parent", EX + "parent"),
    (EX + "child", FOAF + "gender"),
    (EX + "relative", FOAF + "gender"),
    (FOAF + "gender", EX + "country"),
    (FOAF + "gender", EX + "sport"),
    (EX + "birthPlace", EX + "residence"),
]

# clean templates: the structure words between the mentions carry the class
CLEAN_TEMPLATES = {
    MetaPattern.RP2: [
        "the {a} of a person {b}",
        "the {a} of your {b}",
        "a {a} {b}",
    ],
    MetaPattern.RP3: [
        "the {a} of one person and the {b} of another",
        "a {a} of one and a {b} of another person",
        "the {a} of one person is the {b} of another",
    ],
    MetaPattern.RP4: [
        "a {a} who has a {b}",
        "a {a} from your own {b}",
        "a {a} who also {b}",
    ],
}

# contaminated variants: tails and heads borrow cue words from the other
# classes, so surface unigrams mislead while the between-mention window
# stays clean
CONTAMINATED_TEMPLATES = {
    MetaPattern.RP2: [
        "the {a} of your {b} who has it from your own place",
        "a {a} {b} who has one from another person",
        "the {a} of a person {b} from your own one",
    ],
    MetaPattern.RP3: [
        "the {a} of one person and the {b} of another who has it",
        "a {a} of one and a {b} of another person from your own place",
        "the {a} of one person is the {b} of another who also has it",
    ],
    MetaPattern.RP4: [
        "a {a} who has a {b} of a person of one place",
        "a {a} from your own {b} of one person and of another",
        "a {a} who also {b} of your person of one place",
    ],
}


def render(template: str, a: str, b: str, masked: bool) -> list[str]:
    fill_a = ("*" if masked else "") + kg.local_name(a)
    fill_b = ("*" if masked else "") + kg.local_name(b)
    # raw local names double as surface mentions in the unmasked arm
    return template.format(a=fill_a, b=fill_b).split()


def manual_examples() -> list[TrainingExample]:
    out = []
    for pair_idx, (a, b) in enumerate(PAIRS):
        templates = CLEAN_TEMPLATES if pair_idx < 6 else CONTAMINATED_TEMPLATES
        for label in (MetaPattern.RP2, MetaPattern.RP3, MetaPattern.RP4):
            for t_idx, template in enumerate(templates[label]):
                out.append(
                    TrainingExample(
                        phrase=f"{label.value.lower()}-pair{pair_idx}-t{t_idx}",
                        sentence=tuple(render(template, a, b, masked=False)),
                        masked=MaskedSentence.from_tokens(
                            render(template, a, b, masked=True)
                        ),
                        label=label,
                        pattern=instantiate(label, [a, b]),
                        origin="manual",
                    )
                )
    return out


def harvested_examples() -> list[TrainingExample]:
    graph = kg.load(DATA / "family_geo.nt")
    lexicon = Lexicon.load(DATA / "lexicon.json", graph)
    explainer = ExplanationService([FixtureProvider(DATA / "explanations.json")])
    phrases = (DATA / "phrases.txt").read_text("utf-8").splitlines()
    result = classify.harvest(phrases, graph, explainer, lexicon, kappa=10)
    for skip in result.skipped:
        print(f"  harvest skip {skip.phrase!r}: {skip.reason}")
    return result.examples


def build_training() -> None:
    examples = manual_examples()
    print(f"manual examples: {len(examples)}")
    harvested = harvested_examples()
    print(f"harvested examples: {len(harvested)}")
    classify.save_examples(examples + harvested, DATA / "training.jsonl")
    print(f"wrote {DATA / 'training.jsonl'}")


def build_model() -> None:
    """Write the bundled model: what ``classify.train`` gives on the
    training file just written, at the CLI's default seed, with its
    ``trained_on`` record. A file whose record already matches is left as
    it is, so a CPU whose BLAS kernel trains weights that differ in the
    last bits rewrites nothing."""
    training = DATA / "training.jsonl"
    path = DATA / "model.json"
    record = classify.trained_on(training.read_bytes(), RunConfig.seed)
    if path.exists() and kg.read_json(path, "model").get("trained_on") == record:
        print(f"{path} matches {training.name}")
        return
    classifier, _ = classify.train(classify.load_examples(training), RunConfig.seed)
    model = {**classifier.to_json(), "trained_on": record}
    path.write_text(json.dumps(model, sort_keys=True, indent=1) + "\n", "utf-8")
    print(f"wrote {path}")


def edge_pattern(*edges: tuple[str, str, str]) -> SubgraphPattern:
    return SubgraphPattern.make(edges)


def build_gold() -> None:
    m = EX + "mother"
    f = EX + "father"
    p = EX + "parent"
    c = EX + "child"
    s = EX + "spouse"
    rel = EX + "relative"
    gen = FOAF + "gender"
    cty = EX + "country"
    bp = EX + "birthPlace"
    spt = EX + "sport"

    entries = [
        GoldEntry("mother-in-law", edge_pattern(("x", s, "z"), ("z", m, "y"))),
        GoldEntry("father-in-law", edge_pattern(("x", s, "z"), ("z", f, "y"))),
        GoldEntry("grandparent", edge_pattern(("x", p, "z"), ("z", p, "y"))),
        GoldEntry("grandmother", edge_pattern(("x", p, "z"), ("z", m, "y"))),
        GoldEntry("grandfather", edge_pattern(("x", p, "z"), ("z", f, "y"))),
        GoldEntry(
            "great-grandparent",
            edge_pattern(("x", p, "z"), ("z", p, "w"), ("w", p, "y")),
        ),
        GoldEntry(
            "great-grandmother",
            edge_pattern(("x", p, "z"), ("z", p, "w"), ("w", m, "y")),
        ),
        GoldEntry(
            "great-grandfather",
            edge_pattern(("x", p, "z"), ("z", p, "w"), ("w", f, "y")),
        ),
        GoldEntry(
            "uncle", edge_pattern(("x", p, "z"), ("z", rel, "w"), ("w", gen, "y"))
        ),
        GoldEntry(
            "aunt", edge_pattern(("x", p, "z"), ("z", rel, "w"), ("w", gen, "y"))
        ),
        GoldEntry("son", edge_pattern(("x", c, "z"), ("z", gen, "y"))),
        GoldEntry("daughter", edge_pattern(("x", c, "z"), ("z", gen, "y"))),
        GoldEntry("brother", edge_pattern(("x", rel, "z"), ("z", gen, "y"))),
        GoldEntry("sportsman", edge_pattern(("z", gen, "x"), ("z", spt, "y"))),
        GoldEntry("countrywoman", edge_pattern(("z", cty, "x"), ("z", gen, "y"))),
        GoldEntry("homeland", edge_pattern(("x", bp, "z"), ("z", cty, "y"))),
        GoldEntry("housewife", edge_pattern(("x", s, "y"))),
        GoldEntry("househusband", edge_pattern(("x", s, "y"))),
        GoldEntry(
            "stepmother",
            edge_pattern(("x", s, "z"), ("y", f, "z")),
            known_failure=True,
        ),
        GoldEntry(
            "co-sister",
            edge_pattern(
                ("h", s, "y"), ("h", rel, "b"), ("b", gen, "g"), ("b", s, "x")
            ),
            known_failure=True,
        ),
    ]
    save_gold(entries, DATA / "gold.jsonl")
    print(f"wrote {DATA / 'gold.jsonl'} ({len(entries)} entries)")


if __name__ == "__main__":
    build_training()
    build_model()
    build_gold()
