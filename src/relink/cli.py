"""Command-line interface: ingest, link, collect-training, train, eval.

Paths default to the bundled fixture data so the tool works out of the
box; a JSON config file, RELINK_* environment variables, and flags
override them in that order. Exit codes: 0 success, 2 usage or config
error, 3 no match (``link`` finds no pattern, ``collect-training`` no
example), 4 data error.

A command that reads the graph loads it with the cyclic garbage
collector paused (``_gc_paused``), ``ingest`` until it drops the graph:
nothing a load makes (key tuples, ``Literal``s, and dicts, lists and
frozensets of strings) forms a cycle, so the collections it would
trigger only cost time. ``kg.load`` leaves a library caller's collector
alone. The pause is the process's: loads in threads share it, and the
last to end restores what the first found, which can undo a change
another thread made to the collector meanwhile.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# the pipeline modules are imported by the commands that run them, so
# `relink ingest` loads only the graph store
from . import kg

if TYPE_CHECKING:
    from .assemble import Linker

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_MATCH = 3
EXIT_DATA = 4

ENV_PREFIX = "RELINK_"
OUTPUTS = ("json", "text")


def data_path(name: str) -> Path:
    """Path of a bundled data file."""
    return Path(__file__).parent / "data" / name


@dataclass
class RunConfig:
    kg: str = ""
    lexicon: str = ""
    explanations: str = ""
    model: str = ""
    training: str = ""
    gold: str = ""
    prefixes: str = ""
    max_depth: int = 3
    validation: str = "strict"
    theta_rel: float = 0.6
    seed: int = 42
    output: str = "json"  # or "text"
    # optional live dictionary API (off unless a URL is configured)
    http_url: str = ""
    http_json_path: str = ""
    http_api_key_header: str = ""  # "Header-Name: value"
    http_timeout: float = 5.0
    http_cache_dir: str = ""

    def __post_init__(self):
        defaults = {
            "kg": data_path("family_geo.nt"),
            "lexicon": data_path("lexicon.json"),
            "explanations": data_path("explanations.json"),
            "training": data_path("training.jsonl"),
            "gold": data_path("gold.jsonl"),
            "prefixes": data_path("prefixes.json"),
        }
        for name, default in defaults.items():
            if not getattr(self, name):
                setattr(self, name, str(default))


def _apply_env(cfg: RunConfig) -> None:
    """RELINK_<NAME> sets field ``name``, cast to the type of its default."""
    for f in fields(RunConfig):
        env_key = ENV_PREFIX + f.name.upper()
        raw = os.environ.get(env_key)
        if raw:
            try:
                setattr(cfg, f.name, type(f.default)(raw))
            except ValueError as exc:
                raise ConfigError(f"{env_key}: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = kg.read_json(_existing_file("config", args.config), "config")
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for key, value in raw.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {key!r}")
            want = type(defaults[key])
            if type(value) is not want and not (want is float and type(value) is int):
                raise ConfigError(
                    f"config key {key!r} must be {want.__name__}, got {type(value).__name__}"
                )
            setattr(cfg, key, value)
    _apply_env(cfg)
    for f in fields(RunConfig):  # flags and positionals named after a setting
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.output not in OUTPUTS:
        raise ConfigError(f"output must be one of {', '.join(OUTPUTS)}, got {cfg.output!r}")
    return cfg


class ConfigError(ValueError):
    pass


def _existing_file(name: str, path: str) -> str:
    if not Path(path).is_file():
        # not Path's tests: Path("") is Path("."), and "" names no file
        if os.path.isdir(path):
            reason = "is a directory"
        elif os.path.exists(path):  # a pipe or a device
            reason = "is not a regular file"
        else:
            reason = "not found"
        raise ConfigError(f"{name} file {reason}: {path}")
    return path


class _CollectorPause:
    """A context that pauses the cyclic garbage collector.

    Entered by several threads at once, it disables the collector when
    the first enters and re-enables it when the last leaves, and only if
    it was enabled when the first entered; a lock makes reading the state
    and changing it one step, so no interleaving of loads can leave the
    collector off. There is one, ``_gc_paused``, because the collector's
    state is the whole process's: two pauses would race as unlocked
    code does.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0  # entries not yet left, in every thread
        self._resume = False  # the collector was enabled when the first entered

    def __enter__(self) -> None:
        with self._lock:
            if not self._inside:
                self._resume = gc.isenabled()
                gc.disable()
            self._inside += 1

    def __exit__(self, *exc) -> None:
        # not ``with self._lock``: the lock's __exit__ gets an argument
        # tuple, an allocation that would start the resumed collector's
        # first sweep inside the load rather than after it
        self._lock.acquire()
        try:
            self._inside -= 1
            if not self._inside and self._resume:
                gc.enable()
        finally:
            self._lock.release()


_gc_paused = _CollectorPause()


def _providers(cfg: RunConfig):
    from . import explain

    providers = [explain.FixtureProvider(cfg.explanations)]
    if cfg.http_url:
        header = None
        if cfg.http_api_key_header:
            name, _, value = cfg.http_api_key_header.partition(":")
            header = (name.strip(), value.strip())
        providers.append(
            explain.HttpProvider(
                cfg.http_url,
                cfg.http_json_path or "definition",
                api_key_header=header,
                timeout=cfg.http_timeout,
                cache_dir=cfg.http_cache_dir or None,
            )
        )
    return providers


def _load_sources(cfg: RunConfig, *more: str):
    """The graph, lexicon and explainer. Their files, and the files of
    the settings named in ``more``, must exist before any of them loads."""
    from . import explain, linking

    for path_name in ("kg", "lexicon", "explanations", *more):
        _existing_file(path_name, getattr(cfg, path_name))
    with _gc_paused:
        graph = kg.load(cfg.kg)
    lexicon = linking.Lexicon.load(cfg.lexicon, graph)
    return graph, lexicon, explain.ExplanationService(_providers(cfg))


def build_linker(cfg: RunConfig) -> Linker:
    from . import assemble, classify

    graph, lexicon, explainer = _load_sources(cfg, "model" if cfg.model else "training")
    if cfg.model:
        classifier = classify.PatternClassifier.load(cfg.model)
    else:
        classifier = classify.train_or_load(cfg.training, cfg.seed, data_path("model.json"))
    link_config = assemble.LinkConfig(
        max_recursion_depth=cfg.max_depth,
        theta_rel=cfg.theta_rel,
        validation=cfg.validation,
    )
    return assemble.Linker(graph, explainer, lexicon, classifier, link_config)


# -- commands ------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    path = _existing_file("kg", cfg.kg)
    # the graph is freed before the load's collector pause ends, so no
    # collection sweeps what the load made only to find it all dropped
    with _gc_paused:
        graph = kg.load(path)
        summary = {
            "triples": len(graph),
            "predicates": len(graph.predicate_set),
            "types": len(graph.type_set),
            "entities": len(graph.entity_set),
        }
        del graph
    if cfg.output == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        for key in sorted(summary):
            print(f"{key}: {summary[key]}")
    return EXIT_OK


def cmd_link(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    linker = build_linker(cfg)
    result = linker.link(args.phrase)
    payload = result.to_json()
    if not args.trace:
        payload.pop("trace")
    if cfg.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        prefixes = kg.load_prefixes(_existing_file("prefixes", cfg.prefixes))
        if result.pattern is None:
            print(f"{result.phrase}: no match")
        else:
            print(f"{result.phrase}:")
            for e in result.pattern.edges:
                print(f"  {e.src} --{kg.shorten(e.rel, prefixes)}--> {e.dst}")
            for var, t in result.pattern.types:
                print(f"  {var}: {kg.shorten(t, prefixes)}")
        if args.trace:
            for step in result.trace:
                print(f"  # {json.dumps(step, sort_keys=True)}")
    return EXIT_OK if result.matched else EXIT_NO_MATCH


def cmd_collect(args: argparse.Namespace) -> int:
    from . import classify

    cfg = build_config(args)
    graph, lexicon, explainer = _load_sources(cfg)
    phrases = kg.read_lines(args.phrases)
    result = classify.harvest(
        phrases, graph, explainer, lexicon, kappa=args.kappa, theta_rel=cfg.theta_rel
    )
    if result.examples:  # an empty file would be training data `train` rejects
        classify.save_examples(result.examples, args.out)
        print(f"collected {len(result.examples)} examples -> {args.out}")
    for skip in result.skipped:
        print(f"skip {skip.phrase!r}: {skip.reason}")
    if not result.examples:
        print(f"no examples collected from {args.phrases}", file=sys.stderr)
        return EXIT_NO_MATCH
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    from . import classify

    cfg = build_config(args)
    examples = classify.load_examples(cfg.training)
    if args.review:
        review = kg.read_json(args.review, "review", kg.DataError)
        try:
            examples = classify.merge_review(examples, review)
        except classify.TrainingDataError as exc:  # a verdict: name its file
            raise classify.TrainingDataError(f"{args.review}: {exc}") from exc
    classifier, report = classify.train(examples, cfg.seed)
    classifier.save(args.model_out)
    print(
        json.dumps(
            {
                "model": args.model_out,
                "examples": len(examples),
                "class_counts": report.class_counts,
                "train_accuracy": round(report.train_accuracy, 6),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluate

    cfg = build_config(args)
    linker = build_linker(cfg)
    gold = evaluate.load_gold(cfg.gold)
    # an empty --methods is a list of one empty name, which evaluate rejects
    methods = args.methods.split(",") if args.methods is not None else list(evaluate.METHODS)
    report = evaluate.evaluate(
        gold, methods, linker, timing=args.timing, timing_reps=args.timing_reps
    )
    print(report.render_text())
    if args.report_json:
        Path(args.report_json).write_text(
            json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n", "utf-8"
        )
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relink",
        description="Link relation phrases to knowledge-graph subgraph patterns",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--kg", help="knowledge-graph triples file")
    parser.add_argument("--lexicon", help="lexicon JSON file")
    parser.add_argument("--explanations", help="explanation fixture JSON file")
    parser.add_argument("--model", help="classifier model JSON file")
    parser.add_argument("--max-depth", dest="max_depth", type=int)
    parser.add_argument("--validation", choices=["strict", "permissive"])
    parser.add_argument("--theta-rel", dest="theta_rel", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", choices=OUTPUTS)
    parser.add_argument("-v", "--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a knowledge graph")
    # SUPPRESS: when the positional is absent it sets nothing, so the
    # subparser does not overwrite a global --kg with None
    p.add_argument("kg", nargs="?", metavar="kg_path", default=argparse.SUPPRESS,
                   help="triples file (defaults to --kg)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("link", help="link a phrase to a subgraph pattern")
    p.add_argument("phrase")
    p.add_argument("--trace", action="store_true", help="include the step trace")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("collect-training", help="harvest training examples")
    p.add_argument("phrases", help="file with one phrase per line")
    p.add_argument("--kappa", type=int, default=500, help="example cap")
    p.add_argument("--out", required=True, help="output JSONL file")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="train the meta-pattern classifier")
    p.add_argument("training", nargs="?", help="training JSONL (defaults to bundled)")
    p.add_argument("--review", help="accept/reject/relabel JSON file")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the benchmark harness")
    p.add_argument("gold", nargs="?", help="gold JSONL (defaults to bundled)")
    # evaluate.METHODS, written out so that building the parser does not import it
    p.add_argument("--methods", help="comma-separated subset of: "
                   "keyword_match, similarity_search, data_driven, our_approach")
    p.add_argument("--timing", action="store_true", help="measure per-phrase latency")
    p.add_argument("--timing-reps", type=int, default=20)
    p.add_argument("--report-json", help="write the machine-readable report here")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except kg.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a file the command reads or writes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
