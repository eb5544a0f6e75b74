#!/usr/bin/env python3
"""Rewrite bench/expected.json from the current program.

    python3 bench/record_expected.py

Records the generator's counts for every generated workload and size,
and the per-phrase and overall result digests of ``deep-graph``. Run it
only when a change is meant to alter those outputs, and say so in the
change: the benchmark counts any difference from this file as a failed
operation.
"""

from __future__ import annotations

import json

import gen
import run


def main() -> None:
    relink = run.import_relink()
    phrases = run.phrase_set(run.load_golden())
    expected = {}
    for size in ("full", "tiny"):
        ingest_lines = gen.generate("ingest", size, 0, run.SRC / "relink" / "data" / "family_geo.nt")
        expected[f"ingest@{size}"] = {"counts": gen.counts(ingest_lines)}
        path, counts = run.write_graph("deep-graph", size, 0)
        try:
            linker = relink.cli.build_linker(relink.cli.RunConfig(kg=str(path)))
            results = {p: run.result_json(linker.link(p)) for p in phrases}
        finally:
            path.unlink()
        expected[f"deep-graph@{size}"] = {
            "counts": counts,
            "digest": run.all_results_digest(results),
            "phrase_digests": {p: run.digest(j) for p, j in sorted(results.items())},
        }
    run.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    main()
