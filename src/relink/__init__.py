"""relink: link natural-language relation phrases to knowledge-graph patterns.

Each public name is imported from its submodule on first access (PEP
562), so ``import relink`` loads none of the pipeline and a command
loads only the modules it runs.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "LinkConfig": "assemble", "LinkResult": "assemble", "Linker": "assemble",
    "MaskedSentence": "classify", "PatternClassifier": "classify",
    "TrainingExample": "classify", "harvest": "classify", "mask": "classify",
    "train": "classify",
    "Explanation": "explain", "ExplanationService": "explain",
    "FixtureProvider": "explain",
    "KnowledgeGraph": "kg", "Literal": "kg", "Triple": "kg", "load": "kg",
    "GraphLabels": "linking", "Lexicon": "linking", "MetaElements": "linking",
    "detect_elements": "linking", "detect_relations": "linking",
    "detect_types": "linking", "direct_match": "linking", "link_simple": "linking",
    "entity_labels": "linking", "type_dictionary": "linking",
    "MetaPattern": "patterns", "PatternEdge": "patterns",
    "SubgraphPattern": "patterns", "adjacent_instantiations": "patterns",
    "has_instance": "patterns", "instantiate": "patterns",
    "match_instances": "patterns", "shape_of": "patterns",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
