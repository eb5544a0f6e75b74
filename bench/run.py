#!/usr/bin/env python3
"""Seeded, layered benchmark for relink.

    python3 bench/run.py --workload gold-warm --seed 1 --seconds 20 --trace 0

Run from any directory; the program under test is imported from the
``src/`` directory next to ``bench/``. Every workload is a closed loop
with one caller and no think time. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that records spans
around relink's public functions and reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it
are a human-readable report. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics
GOLDEN = ROOT / "tests" / "golden" / "link_patterns.json"

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("gold-warm", "deep-graph", "ingest")
SETUP_REPS = 5  # set-up is repeated at least this often
SETUP_SECONDS = 2.0  # ... and until this much time went to it; the median is reported
EVAL_REPS = 3
TAIL_ABOVE = 10  # the tail percentile leaves at least this many samples above it


class BenchError(Exception):
    """The checkout cannot run the benchmark (for example, no sources)."""


def import_relink():
    """Import relink from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "relink"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"relink sources not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import relink
    import relink.cli
    import relink.evaluate

    if Path(relink.__file__).resolve().parent != package.resolve():
        raise BenchError(f"relink imported from {relink.__file__}, not {package}")
    return relink


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text("utf-8"))


def load_spec() -> dict:
    return json.loads(SPEC.read_text("utf-8"))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text("utf-8"))


def phrase_set(golden: dict) -> list[str]:
    """The distinct phrases of gold.jsonl, phrases.txt and the golden file."""
    data = SRC / "relink" / "data"
    phrases = {
        json.loads(line)["phrase"]
        for line in (data / "gold.jsonl").read_text("utf-8").splitlines()
        if line.strip()
    }
    phrases |= {
        line.strip()
        for line in (data / "phrases.txt").read_text("utf-8").splitlines()
        if line.strip()
    }
    return sorted(phrases | set(golden))


def result_json(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def all_results_digest(per_phrase: dict[str, str]) -> str:
    return digest("".join(f"{p}\t{per_phrase[p]}\n" for p in sorted(per_phrase)))


class Checks:
    """Operations attempted and failed; a failure is an exception, a wrong
    output or an unexpected exit code. A correct no-match is not one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that still leaves TAIL_ABOVE samples above it,
    as (value, percentile); never below the median, which is what it is
    when there are too few samples for a tail."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_ABOVE - 1, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def repeat_setup(build) -> tuple[object, HostClock]:
    """Run ``build`` SETUP_REPS times and until SETUP_SECONDS have passed;
    returns its last result and the clock holding one duration per call."""
    clock = HostClock()
    result = None
    while len(clock.raw) < SETUP_REPS or sum(clock.raw) < SETUP_SECONDS:
        result = None  # let the previous result go before the next build
        t0 = perf_counter()
        result = build()
        clock.record(perf_counter() - t0)
        clock.flush()
    return result, clock


def timed_loop(batch, seconds: float) -> tuple[HostClock, list[str]]:
    """Closed loop: call ``batch`` (which runs one pass of operations and
    returns ``(input, raw duration)`` for each) until ``seconds`` of
    operation time. Returns the clock and the input of each operation."""
    clock = HostClock()
    inputs: list[str] = []
    total = 0.0
    while total < seconds or not inputs:
        for key, elapsed in batch():
            inputs.append(key)
            clock.record(elapsed)
            total += elapsed
        clock.flush()
    return clock, inputs


def end_to_end(workload: str, setup: HostClock, ops: HostClock,
               inputs: list[str], items_per_op: int) -> dict:
    """The end-to-end metrics, in host-adjusted time (see hostclock.py).

    Throughput is one pass over the distinct inputs, each at its median
    latency, so a stall of the host that hits a few operations does not
    move it.
    """
    by_input: dict[str, list[float]] = {}
    for key, seconds in zip(inputs, ops.adjusted):
        by_input.setdefault(key, []).append(seconds)
    typical_pass = sum(statistics.median(v) for v in by_input.values())
    value, pct = tail(ops.adjusted)
    report(f"{workload}: {len(inputs)} operations on {len(by_input)} inputs, "
           f"{sum(ops.raw):.2f} s raw; median host scale {statistics.median(ops.scales):.3f}")
    report(f"  raw: op p50 {statistics.median(ops.raw) * 1e3:.4f} ms, "
           f"set-up {statistics.median(setup.raw):.4f} s over {len(setup.raw)} repetitions")
    report(f"  op_ms_tail (p{pct:.1f}, {len(ops.adjusted)} samples, unbounded) {value * 1e3:.4f} ms")
    return {
        "setup_s": statistics.median(setup.adjusted),
        "op_ms_p50": statistics.median(ops.adjusted) * 1e3,
        "items_per_s": len(by_input) * items_per_op / typical_pass,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs --------------------------------------------------------------------


def write_graph(workload: str, size: str, seed: int) -> tuple[Path, dict]:
    """Generate the workload's graph file; returns its path and counts."""
    lines = gen.generate(workload, size, seed, SRC / "relink" / "data" / "family_geo.nt")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-{size}-{seed}.nt"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path, gen.counts(lines)


# -- link workloads ------------------------------------------------------------


class LinkWorkload:
    """gold-warm and deep-graph: Linker.link over the phrase set."""

    def __init__(self, name: str, size: str, seed: int, expected: dict, checks: Checks):
        self.relink = import_relink()
        self.name = name
        self.seed = seed
        self.checks = checks
        self.rng = random.Random(seed)
        golden = load_golden()
        self.golden = golden if name == "gold-warm" else {}
        self.phrases = phrase_set(golden)
        self.expected = expected.get(f"{name}@{size}", {})
        self.graph_path = None
        self.reference: dict[str, str] = {}
        if name == "deep-graph":
            self.graph_path, graph_counts = write_graph(name, size, seed)
            checks.op(graph_counts == self.expected.get("counts"),
                      f"generator counts {graph_counts} != recorded")
        self.config = self.relink.cli.RunConfig(
            kg=str(self.graph_path) if self.graph_path else ""
        )

    def close(self) -> None:
        if self.graph_path is not None:
            self.graph_path.unlink(missing_ok=True)

    def setup(self):
        """The Linker, and the clock that timed building it."""
        return repeat_setup(lambda: self.relink.cli.build_linker(self.config))

    def order(self) -> list[str]:
        order = list(self.phrases)
        self.rng.shuffle(order)
        return order

    def warm_up(self, linker) -> None:
        """One untimed pass: fills the explanation cache, records each
        phrase's output, and checks it against the golden file or digests."""
        patterns = {}
        for phrase in self.order():
            try:
                result = linker.link(phrase)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                self.checks.op(False, f"link({phrase!r}) raised {exc!r}")
                continue
            self.reference[phrase] = result_json(result)
            patterns[phrase] = result.pattern
            if phrase in self.golden:
                got = result.pattern.to_json() if result.pattern else None
                self.checks.op(got == self.golden[phrase], f"{phrase!r}: pattern differs from golden")
        if self.name == "deep-graph":
            self._check_deep(linker.g, patterns)

    def _check_deep(self, g, patterns: dict) -> None:
        match_instances = self.relink.patterns.match_instances
        want = self.expected.get("phrase_digests", {})
        for phrase in sorted(self.reference):
            self.checks.op(digest(self.reference[phrase]) == want.get(phrase),
                           f"{phrase!r}: result digest differs")
            if patterns[phrase] is not None:
                self.checks.op(bool(match_instances(g, patterns[phrase], limit=1)),
                               f"{phrase!r}: matched pattern has no instance")
        self.checks.op(all_results_digest(self.reference) == self.expected.get("digest"),
                       "digest of all results differs")

    def link_checked(self, linker, phrase: str) -> float:
        """One timed link; the output check runs outside the timed interval."""
        t0 = perf_counter()
        try:
            result = linker.link(phrase)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            elapsed = perf_counter() - t0
            self.checks.op(False, f"link({phrase!r}) raised {exc!r}")
            return elapsed
        elapsed = perf_counter() - t0
        self.checks.op(result_json(result) == self.reference.get(phrase),
                       f"{phrase!r}: output differs from the first link")
        return elapsed

    def measure(self, seconds: float) -> dict:
        linker, setup = self.setup()
        self.warm_up(linker)
        ops, inputs = timed_loop(
            lambda: [(p, self.link_checked(linker, p)) for p in self.order()], seconds)
        return end_to_end(self.name, setup, ops, inputs, 1)

    # -- traced run ----------------------------------------------------------

    def setup_targets(self):
        r = self.relink
        return [
            (r.cli, "build_linker", "cli.build_linker", True, None),
            (r.kg, "load", "kg.load", True, None),
            (r.classify, "train", "classify.train", True, None),
        ]

    def link_targets(self):
        r = self.relink
        return [
            (r.assemble.Linker, "link", "assemble.link", True, None),
            (r.assemble, "direct_match", "linking.direct_match", True, None),
            (r.assemble, "detect_elements", "linking.detect_elements", True, None),
            # counted only: mention scoring stays in detect_elements' self time
            (r.linking, "link_simple", "linking.link_simple", False,
             lambda res: "hits" if res is not None else None),
            (r.explain.ExplanationService, "explain", "explain.explain", True, None),
            (r.explain.FixtureProvider, "lookup", "explain.lookup", True,
             lambda res: "negatives" if res is None else None),
            (r.classify.PatternClassifier, "predict", "classify.predict", True, None),
            (r.assemble, "has_instance", "patterns.has_instance", True,
             lambda res: "accepts" if res else None),
        ]

    def traced(self, seconds: float) -> dict:
        setup_tr = Tracer()
        with setup_tr.patched(self.setup_targets()):
            linker, _ = self.setup()
        self.warm_up(linker)

        pass_tr = Tracer()
        plain, traced = [], []
        hits = misses = 0
        while sum(plain) + sum(traced) < seconds or not traced:
            plain.append(sum(self.link_checked(linker, p) for p in self.order()))
            before = linker.explainer.cache_stats()
            with pass_tr.patched(self.link_targets()):
                traced.append(sum(self.link_checked(linker, p) for p in self.order()))
            after = linker.explainer.cache_stats()
            hits += after.hits - before.hits
            misses += after.misses - before.misses

        metrics = layer_metrics(pass_tr, setup_tr)
        metrics["explain.hit_ratio"] = hits / max(1, hits + misses)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        load_path = self.graph_path or Path(self.config.kg)
        metrics["kg.retained_bytes_per_triple"] = retained_bytes_per_triple(self.relink, load_path)
        loads = setup_tr.summary()["kg.load"]["durations"]
        metrics["kg.load.triples_per_s"] = len(linker.g) / statistics.median(loads)
        if self.name == "gold-warm":
            metrics.update(self.evaluate_methods(linker))
        else:
            metrics.update(evaluate_bypassed(self.relink))
        report_split(self.name, pass_tr, "assemble.link")
        pass_tr.dump(OUT / f"trace-{self.name}-{self.seed}.jsonl")
        return metrics

    def evaluate_methods(self, linker) -> dict:
        """Time the four evaluate methods through run_baseline (untraced inside)."""
        evaluate = self.relink.evaluate
        eval_tr = Tracer()
        for method in evaluate.METHODS:  # warm-up
            for phrase in self.phrases:
                evaluate.run_baseline(method, phrase, linker)
        for _ in range(EVAL_REPS):
            for method in evaluate.METHODS:
                for phrase in self.order():
                    with eval_tr.span(f"evaluate.{method}"):
                        evaluate.run_baseline(method, phrase, linker)
        summary = eval_tr.summary()
        out = {
            f"evaluate.{m}.ms_per_phrase": statistics.fmean(summary[f"evaluate.{m}"]["durations"]) * 1e3
            for m in evaluate.METHODS
        }
        out["evaluate.data_driven_over_ours"] = (
            out["evaluate.data_driven.ms_per_phrase"] / out["evaluate.our_approach.ms_per_phrase"]
        )
        return out


# -- ingest workload -----------------------------------------------------------


class IngestWorkload:
    """Repeated ``relink ingest <file>`` calls on a generated graph file."""

    def __init__(self, size: str, seed: int, expected: dict, checks: Checks):
        self.relink = import_relink()
        self.seed = seed
        self.checks = checks
        self.path, self.counts = write_graph("ingest", size, seed)
        checks.op(self.counts == expected.get(f"ingest@{size}", {}).get("counts"),
                  f"generator counts {self.counts} != recorded")

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def setup(self) -> HostClock:
        """Times a fresh interpreter importing the CLI and building its
        parser: the fixed start cost every ``relink ingest`` pays."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", "import relink.cli; relink.cli.make_parser()"]
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would round every measurement up to that grain
        _, clock = repeat_setup(lambda: subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))
        return clock

    def ingest_checked(self, tracer: Tracer | None = None) -> float:
        buf = io.StringIO()
        span = tracer.span("cli.ingest") if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span, contextlib.redirect_stdout(buf):
                code = self.relink.cli.main(["ingest", str(self.path)])
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.checks.op(False, f"ingest raised {exc!r}")
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        try:
            printed = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            printed = None
        self.checks.op(code == 0 and printed == self.counts,
                       f"ingest exit {code}, printed {buf.getvalue().strip()!r}")
        return elapsed

    def measure(self, seconds: float) -> dict:
        setup = self.setup()
        self.ingest_checked()  # warm-up
        ops, inputs = timed_loop(lambda: [("ingest", self.ingest_checked())], seconds)
        return end_to_end("ingest", setup, ops, inputs, self.counts["triples"])

    def traced(self, seconds: float) -> dict:
        self.ingest_checked()  # warm-up
        tr = Tracer()
        targets = [(self.relink.kg, "load", "kg.load", True, None)]
        plain, traced = [], []
        while sum(plain) + sum(traced) < seconds or not traced:
            plain.append(self.ingest_checked())
            with tr.patched(targets):
                traced.append(self.ingest_checked(tr))
        metrics = layer_metrics(tr, tr)
        metrics.update(evaluate_bypassed(self.relink))
        metrics["explain.hit_ratio"] = 0.0  # no linking, no explanations
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        metrics["kg.retained_bytes_per_triple"] = retained_bytes_per_triple(self.relink, self.path)
        metrics["kg.load.triples_per_s"] = (
            self.counts["triples"] / statistics.median(tr.summary()["kg.load"]["durations"])
        )
        report_split("ingest", tr, "cli.ingest")
        tr.dump(OUT / f"trace-ingest-{self.seed}.jsonl")
        return metrics


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(pass_tr: Tracer, setup_tr: Tracer) -> dict:
    """Per-layer numbers from the traced passes and the traced set-up.

    A layer the workload never calls reports 0: the workload bypasses it.
    """
    passes = pass_tr.summary()
    setups = setup_tr.summary()
    counts = pass_tr.counts
    links = counts["assemble.link.calls"]

    def per_link(value: float) -> float:
        return value / links if links else 0.0

    def self_ms(name: str) -> float:
        return per_link(passes.get(name, {"self": 0.0})["self"] * 1e3)

    def median_ms(summary: dict, name: str) -> float:
        entry = summary.get(name)
        return statistics.median(entry["durations"]) * 1e3 if entry else 0.0

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    has_instance = passes.get("patterns.has_instance", {"durations": [0.0]})
    return {
        "linking.detect_elements.self_ms_per_link": self_ms("linking.detect_elements"),
        "linking.link_simple.calls_per_link": per_link(counts["linking.link_simple.calls"]),
        "linking.link_simple.hit_ratio": ratio("linking.link_simple.hits", "linking.link_simple.calls"),
        "linking.direct_match.self_ms_per_link": self_ms("linking.direct_match"),
        "explain.explain.calls_per_link": per_link(counts["explain.explain.calls"]),
        "explain.provider_lookups_per_link": per_link(counts["explain.lookup.calls"]),
        "explain.provider_negative_ratio": ratio("explain.lookup.negatives", "explain.lookup.calls"),
        "classify.predict.self_ms_per_link": self_ms("classify.predict"),
        "classify.train_ms": median_ms(setups, "classify.train"),
        "patterns.has_instance.calls_per_link": per_link(counts["patterns.has_instance.calls"]),
        "patterns.has_instance.self_ms_per_link": self_ms("patterns.has_instance"),
        "patterns.has_instance.accept_ratio": ratio("patterns.has_instance.accepts",
                                                    "patterns.has_instance.calls"),
        "patterns.has_instance.ms_max": max(has_instance["durations"]) * 1e3,
        "assemble.link.self_ms_per_link": self_ms("assemble.link"),
        "kg.load.ms": median_ms(setups, "kg.load"),
        "cli.build_linker.ms": median_ms(setups, "cli.build_linker"),
        "cli.ingest.ms": median_ms(passes, "cli.ingest"),
    }


def evaluate_bypassed(relink) -> dict:
    """The evaluate metrics of a workload that does not run the methods."""
    names = [f"evaluate.{m}.ms_per_phrase" for m in relink.evaluate.METHODS]
    return dict.fromkeys(names + ["evaluate.data_driven_over_ours"], 0.0)


def retained_bytes_per_triple(relink, path: Path) -> float:
    """tracemalloc growth across one kg.load, divided by its triple count."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = relink.kg.load(path)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / len(graph)


def report_split(workload: str, tr: Tracer, root: str) -> None:
    """Print each span's share of the root spans' time, largest first."""
    summary = tr.summary()
    total = sum(summary[root]["durations"]) if root in summary else 0.0
    if total <= 0:
        return
    shares = sorted(((e["self"] / total, n) for n, e in summary.items()), reverse=True)
    report(f"{workload}: self-time split of {root} ({total:.3f} s traced)")
    for share, name in shares:
        report(f"  {name:<28} {100 * share:6.2f}%")


def report(line: str) -> None:
    print(line, flush=True)


# -- entry ---------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", expected: dict | None = None) -> dict:
    """Run one workload; returns the result object the last line prints."""
    expected = load_expected() if expected is None else expected
    checks = Checks()
    if workload == "ingest":
        bench = IngestWorkload(size, seed, expected, checks)
    else:
        bench = LinkWorkload(workload, size, seed, expected, checks)
    try:
        values = bench.traced(seconds) if trace else bench.measure(seconds)
    finally:
        bench.close()
    section = load_spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    report(f"{workload}: error_ratio = {checks.failed}/{checks.attempted}"
           f" = {checks.failed / checks.attempted:.4f}")
    for problem in checks.problems:
        report(f"  failed: {problem}")
    for name, unit in units.items():
        report(f"  {name:<44} {values[name]:>14.4f} {unit}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, FileNotFoundError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
