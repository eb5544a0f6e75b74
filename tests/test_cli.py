from __future__ import annotations

import gc
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from relink.cli import (
    EXIT_DATA,
    EXIT_NO_MATCH,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    build_config,
    build_linker,
    data_path,
    main,
    make_parser,
)

from .threads import run_together

EX = "http://example.org/ontology/"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_fixture_counts(capsys):
    code, out, _ = run(capsys, "ingest")
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["triples"] == 248
    assert summary["predicates"] >= 13
    assert summary["types"] == 4
    assert summary["entities"] > 50


def test_ingest_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.nt"
    path.write_text("")
    code, out, _ = run(capsys, "ingest", str(path))
    assert code == EXIT_OK
    assert json.loads(out) == {"triples": 0, "predicates": 0, "types": 0, "entities": 0}


def test_ingest_malformed_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.nt"
    path.write_text("<http://x/a> <http://x/p> <http://x/b> .\nnot a triple\n")
    code, _, err = run(capsys, "ingest", str(path))
    assert code == EXIT_DATA
    assert err.startswith(f"data error: {path} line 2: not a valid triple")
    # the same message as any other command that loads the graph
    assert run(capsys, "--kg", str(path), "link", "son") == (EXIT_DATA, "", err)


def _many_triples(tmp_path) -> Path:
    """A graph file of 3,000 distinct triples: its load makes thousands of
    objects the collector tracks, far past the young generation's
    threshold."""
    path = tmp_path / "many.nt"
    path.write_text("".join(f"<http://x/s{i}> <http://x/p{i % 7}> <http://x/o{i % 50}> .\n"
                            for i in range(3000)), "utf-8")
    return path


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_ingest_starts_no_collection(capsys, tmp_path, enabled):
    # ingest drops its graph before the collector resumes, so no collection
    # sweeps what the load made, and it leaves the collector as it found it
    path = _many_triples(tmp_path)
    starts = []

    def note(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # a first ingest fills the tuple free lists, as they are in a process
        # that ingests again; a freed tuple parked there is not subtracted
        # from the young generation's count, and a full collection would
        # empty them. A young collection then starts the count from zero.
        assert main(["ingest", str(path)]) == EXIT_OK
        gc.collect(0)
        gc.callbacks.append(note)
        try:
            code = main(["ingest", str(path)])
        finally:
            gc.callbacks.remove(note)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == EXIT_OK
    printed = [json.loads(line)["triples"] for line in capsys.readouterr().out.splitlines()]
    assert printed == [3000, 3000]
    assert starts == []


def test_ingest_in_threads_prints_the_same_counts(capsys, tmp_path):
    # ingests in several threads share the collector pause: each prints
    # the sequential counts, and the collector is on once all have ended
    path = _many_triples(tmp_path)
    code, want, _ = run(capsys, "ingest", str(path))
    assert code == EXIT_OK
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    was = gc.isenabled()
    gc.enable()
    try:
        codes = run_together([lambda: main(["ingest", str(path)])] * 4)
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(previous)
        (gc.enable if was else gc.disable)()
    assert codes == [EXIT_OK] * 4
    out = capsys.readouterr().out
    # a print writes its text and its line end apart, so lines may interleave
    assert out.count(want.strip()) == 4 and out.count("\n") == 4


@pytest.mark.parametrize("command", [["ingest"], ["link", "son"]])
def test_graph_not_utf8_data_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.nt"
    path.write_bytes(
        b"<http://x/a> <http://x/p> <http://x/b> .\n"
        b"<http://x/a> <http://x/p> <http://x/\xff> .\n"
    )
    code, _, err = run(capsys, "--kg", str(path), *command)
    assert code == EXIT_DATA
    assert "line 2" in err and "UTF-8" in err


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark


def test_graph_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.nt"
    path.write_bytes(BOM + data_path("family_geo.nt").read_bytes())
    code, out, _ = run(capsys, "ingest", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["triples"] == 248
    assert run(capsys, "--kg", str(path), "link", "son")[0] == EXIT_OK


def test_phrases_with_byte_order_mark(capsys, tmp_path):
    phrases = tmp_path / "phrases.txt"
    phrases.write_bytes(BOM + b"mother-in-law\n")
    out_file = tmp_path / "o.jsonl"
    code, out, _ = run(capsys, "collect-training", str(phrases), "--out", str(out_file))
    assert (code, out) == (EXIT_OK, f"collected 1 examples -> {out_file}\n")
    assert json.loads(out_file.read_text())["phrase"] == "mother-in-law"


@pytest.mark.parametrize(
    "name, argv",
    [("gold.jsonl", ["eval", "--methods", "keyword_match", "{path}"]),
     ("training.jsonl", ["train", "{path}", "--model-out", "{out}"])],
    ids=["gold", "training"],
)
def test_jsonl_with_byte_order_mark(capsys, tmp_path, name, argv):
    path = tmp_path / name
    path.write_bytes(BOM + data_path(name).read_bytes())
    plain = [a.format(path=data_path(name), out=tmp_path / "m.json") for a in argv]
    with_bom = [a.format(path=path, out=tmp_path / "m.json") for a in argv]
    want = run(capsys, *plain)
    assert want[0] == EXIT_OK
    assert run(capsys, *with_bom) == (EXIT_OK, want[1].replace(str(data_path(name)), str(path)), "")


@pytest.mark.parametrize(
    "name, argv",
    [("lexicon.json", ["--lexicon", "{path}", "link", "son"]),
     ("explanations.json", ["--explanations", "{path}", "link", "mother-in-law"]),
     ("model.json", ["--model", "{path}", "link", "mother-in-law"]),
     ("config.json", ["--config", "{path}", "link", "son"]),
     ("review.json", ["train", "--review", "{path}", "--model-out", "{out}"]),
     ("prefixes.json", ["--output", "text", "link", "son"])],  # path via RELINK_PREFIXES
    ids=["lexicon", "explanations", "model", "config", "review", "prefixes"],
)
def test_json_input_with_byte_order_mark(capsys, tmp_path, monkeypatch, name, argv):
    plain, with_bom = tmp_path / name, tmp_path / f"bom-{name}"
    if name == "model.json":
        assert run(capsys, "train", "--model-out", str(plain))[0] == EXIT_OK
    else:
        written = {"config.json": '{"output": "text", "theta_rel": 0.5}',
                   "review.json": '{"mother-in-law": "reject"}'}
        plain.write_text(written.get(name) or data_path(name).read_text("utf-8"), "utf-8")
    with_bom.write_bytes(BOM + plain.read_bytes())
    results = []
    for path in (plain, with_bom):
        if name == "prefixes.json":
            monkeypatch.setenv("RELINK_PREFIXES", str(path))
        results.append(run(capsys, *[a.format(path=path, out=tmp_path / "m.json") for a in argv]))
    assert results[0][0] == EXIT_OK
    assert results[1] == results[0]


@pytest.mark.parametrize(
    "name, argv, prefix, code",
    [("lexicon.json", ["--lexicon", "{path}", "link", "son"], "error: ", EXIT_USAGE),
     ("explanations.json", ["--explanations", "{path}", "link", "son"], "error: ", EXIT_USAGE),
     ("model.json", ["--model", "{path}", "link", "son"], "error: ", EXIT_USAGE),
     ("config.json", ["--config", "{path}", "link", "son"], "error: ", EXIT_USAGE),
     ("review.json", ["train", "--review", "{path}", "--model-out", "{out}"],
      "data error: ", EXIT_DATA),
     ("prefixes.json", ["--output", "text", "link", "son"], "error: ", EXIT_USAGE)],
    ids=["lexicon", "explanations", "model", "config", "review", "prefixes"],
)
def test_malformed_json_input_named(capsys, tmp_path, monkeypatch, name, argv, prefix, code):
    # not JSON, or not UTF-8: the message names the file once
    path = tmp_path / name
    if name == "prefixes.json":
        monkeypatch.setenv("RELINK_PREFIXES", str(path))
    argv = [a.format(path=path, out=tmp_path / "m.json") for a in argv]
    for payload, reason in [
        (b'{"son" 1}', f"{path}: Expecting ':' delimiter"),
        (b'{"\xff": 1}', f"{path} line 1: not valid UTF-8: invalid start byte"),
    ]:
        path.write_bytes(payload)
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith(prefix + reason)
        assert err.count(str(path)) == 1


def test_review_not_utf8_names_line(capsys, tmp_path):
    # the line of the first undecodable byte, counting CR LF and lone CR
    # as text mode does; no model is written
    review = tmp_path / "review.json"
    review.write_bytes(b'{\r\n  "accept": [],\r  "reject": ["\xe9"]\n}\n')
    model = tmp_path / "m.json"
    code, out, err = run(capsys, "train", "--review", str(review), "--model-out", str(model))
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"data error: {review} line 3: not valid UTF-8: invalid continuation byte\n"
    assert not model.exists()


@pytest.mark.parametrize(
    "name, payload, argv, message, code",
    [("lexicon.json", "[]", ["--lexicon", "{path}", "link", "son"],
      "error: {path}: lexicon must be a JSON object, got list", EXIT_USAGE),
     ("explanations.json", '["son"]', ["--explanations", "{path}", "link", "son"],
      "error: {path}: explanation fixture must be a JSON object, got list", EXIT_USAGE),
     ("explanations.json", '{"mother-in-law": 3}', ["--explanations", "{path}", "link", "son"],
      "error: {path}: explanation for 'mother-in-law' must be a string, got int", EXIT_USAGE),
     ("explanations.json", '{"Mother": "a", "mother ": "b"}',
      ["--explanations", "{path}", "link", "son"],
      "error: {path}: explanation keys 'Mother' and 'mother ' both normalize to 'mother'",
      EXIT_USAGE),
     ("model.json", '{"format": "x"}', ["--model", "{path}", "link", "son"],
      "error: {path}: unsupported model format: 'x'", EXIT_USAGE),
     ("model.json", "[1]", ["--model", "{path}", "link", "son"],
      "error: {path}: model must be a JSON object, got list", EXIT_USAGE),
     ("config.json", "[1]", ["--config", "{path}", "link", "son"],
      "error: {path}: config must be a JSON object, got list", EXIT_USAGE),
     ("review.json", "[1]", ["train", "--review", "{path}", "--model-out", "{out}"],
      "data error: {path}: review must be a JSON object, got list", EXIT_DATA),
     ("prefixes.json", "[1]", ["--output", "text", "link", "son"],  # via RELINK_PREFIXES
      "error: {path}: prefix table must be a JSON object, got list", EXIT_USAGE),
     ("prefixes.json", '{"ex": 1, "foaf": ["x"]}', ["--output", "text", "link", "son"],
      "error: {path}: prefix table value for 'ex' must be a string, got int", EXIT_USAGE)],
    ids=["lexicon", "explanations", "explanation-value", "explanation-keys", "model",
         "model-shape", "config", "review", "prefixes", "prefix-value"],
)
def test_json_input_of_wrong_shape_named(capsys, tmp_path, monkeypatch, name, payload, argv,
                                         message, code):
    # valid JSON of the wrong shape: the message names the file, once
    path = tmp_path / name
    path.write_text(payload, "utf-8")
    if name == "prefixes.json":
        monkeypatch.setenv("RELINK_PREFIXES", str(path))
    got = run(capsys, *[a.format(path=path, out=tmp_path / "m.json") for a in argv])
    assert got == (code, "", message.format(path=path) + "\n")
    assert got[2].count(str(path)) == 1


def test_link_mother_in_law_json(capsys):
    code, out, _ = run(capsys, "link", "mother-in-law")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["phrase"] == "mother-in-law"
    assert [e["rel"] for e in payload["pattern"]["edges"]] == [
        EX + "spouse",
        EX + "mother",
    ]
    assert "trace" not in payload


def test_link_founder_rp1(capsys):
    code, out, _ = run(capsys, "link", "founder")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [e["rel"] for e in payload["pattern"]["edges"]] == [EX + "founder"]


def test_link_no_match_exit_code(capsys):
    code, out, _ = run(capsys, "link", "xyzzy")
    assert code == EXIT_NO_MATCH
    assert json.loads(out)["pattern"] is None


def test_link_trace_flag(capsys):
    code, out, _ = run(capsys, "link", "grandparent", "--trace")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert any(s["step"] == "classified" for s in payload["trace"])


def test_link_text_output_uses_prefixes(capsys):
    code, out, _ = run(capsys, "--output", "text", "link", "son")
    assert code == EXIT_OK
    assert "--ex:child-->" in out
    assert "--foaf:gender-->" in out


def test_link_output_stable_ordered(capsys):
    _, first, _ = run(capsys, "link", "uncle")
    _, second, _ = run(capsys, "link", "uncle")
    assert first == second


def test_collect_training_kappa_cap(capsys, tmp_path):
    out_path = tmp_path / "collected.jsonl"
    code, out, _ = run(
        capsys, "collect-training", str(data_path("phrases.txt")),
        "--kappa", "5", "--out", str(out_path),
    )
    assert code == EXIT_OK
    rows = [json.loads(l) for l in out_path.read_text().splitlines() if l.strip()]
    assert len(rows) == 5
    assert "skip 'founder'" in out


def test_collect_training_only_direct_matches(capsys, tmp_path):
    # no phrase yields an example: no match (exit 3), and --out is left
    # alone, neither created nor truncated
    phrases = tmp_path / "phrases.txt"
    phrases.write_text("founder\nmother\nspouse\n")
    out_path = tmp_path / "collected.jsonl"
    code, out, err = run(
        capsys, "collect-training", str(phrases), "--kappa", "5",
        "--out", str(out_path),
    )
    assert code == EXIT_NO_MATCH
    assert not out_path.exists()
    assert out.count("skip") == 3
    assert "collected" not in out
    assert err == f"no examples collected from {phrases}\n"
    out_path.write_text("kept\n")
    code, _, _ = run(
        capsys, "collect-training", str(phrases), "--kappa", "5",
        "--out", str(out_path),
    )
    assert code == EXIT_NO_MATCH
    assert out_path.read_text() == "kept\n"


def test_train_writes_model_and_report(capsys, tmp_path):
    model = tmp_path / "model.json"
    code, out, _ = run(capsys, "train", "--model-out", str(model))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["train_accuracy"] >= 0.9
    assert set(report["class_counts"]) == {"RP2", "RP3", "RP4"}
    assert json.loads(model.read_text())["format"] == "relink-linear/1"


def test_train_with_review_file(capsys, tmp_path):
    review = tmp_path / "review.json"
    review.write_text(json.dumps({"mother-in-law": "reject"}))
    model = tmp_path / "model.json"
    code, out, _ = run(capsys, "train", "--review", str(review), "--model-out", str(model))
    assert code == EXIT_OK
    assert json.loads(out)["examples"] == 80  # one bundled example rejected


def test_train_missing_file_data_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "train", str(tmp_path / "nope.jsonl"), "--model-out",
        str(tmp_path / "m.json"),
    )
    assert code == EXIT_DATA


def test_eval_all_methods_table(capsys):
    code, out, _ = run(capsys, "eval")
    assert code == EXIT_OK
    for method in ("keyword_match", "similarity_search", "data_driven", "our_approach"):
        assert method in out


def test_eval_missing_gold_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "missing.jsonl"))
    assert code == EXIT_DATA


def test_eval_unknown_method_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--methods", "sorcery")
    assert code == EXIT_USAGE


def test_eval_empty_methods_usage_error(capsys):
    # an empty list is given, not absent: it names one empty method, as
    # "--methods ," names two
    for methods in ("", ","):
        code, out, err = run(capsys, "eval", "--methods", methods)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unknown method: ''\n"


def test_eval_repeated_method_usage_error(capsys):
    # one row and one timing per method
    code, out, err = run(capsys, "eval", "--methods", "keyword_match,our_approach,keyword_match")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: method listed more than once: 'keyword_match'\n"


@pytest.mark.parametrize("reps", ["0", "1", "-3"])
def test_eval_timing_reps_below_two_usage_error(capsys, reps):
    # the variance of fewer than two passes is undefined
    code, out, err = run(capsys, "eval", "--methods", "keyword_match",
                         "--timing", "--timing-reps", reps)
    assert code == EXIT_USAGE
    assert out == ""
    assert "timing_reps" in err


def test_eval_report_json_deterministic(capsys, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(capsys, "--seed", "42", "eval", "--report-json", str(r1))[0] == EXIT_OK
    assert run(capsys, "--seed", "42", "eval", "--report-json", str(r2))[0] == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output": "text"}))
    code, out, _ = run(capsys, "--config", str(config), "link", "son")
    assert code == EXIT_OK
    assert "-->" in out  # text mode from the config file
    code, out, _ = run(
        capsys, "--config", str(config), "--output", "json", "link", "son"
    )
    assert json.loads(out)["phrase"] == "son"  # flag wins


def test_config_unknown_key_usage_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"zzz": 1}))
    code, _, err = run(capsys, "--config", str(config), "link", "son")
    assert code == EXIT_USAGE


def test_config_wrong_value_type_usage_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_depth": "3"}))
    code, _, err = run(capsys, "--config", str(config), "link", "son")
    assert code == EXIT_USAGE
    assert "max_depth" in err
    # an int is a valid value for a float field
    config.write_text(json.dumps({"http_timeout": 5}))
    assert run(capsys, "--config", str(config), "link", "son")[0] == EXIT_OK


@pytest.mark.parametrize("payload", ["[1]", '"max_depth"', "3", "null"])
def test_config_not_an_object_usage_error(capsys, tmp_path, payload):
    config = tmp_path / "config.json"
    config.write_text(payload)
    code, _, err = run(capsys, "--config", str(config), "link", "son")
    assert code == EXIT_USAGE
    assert "JSON object" in err


def test_config_theta_out_of_range_usage_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta_rel": 7}))
    code, _, err = run(capsys, "--config", str(config), "link", "mother-in-law")
    assert code == EXIT_USAGE
    assert "theta_rel" in err
    # collect-training builds no linker: harvesting checks the setting itself
    out_file = tmp_path / "o.jsonl"
    code, _, err = run(
        capsys, "--config", str(config), "collect-training", str(data_path("phrases.txt")),
        "--out", str(out_file),
    )
    assert code == EXIT_USAGE
    assert "theta_rel must be in [0, 1], got 7" in err
    assert not out_file.exists()


def test_link_blank_phrase_usage_error(capsys):
    code, _, err = run(capsys, "link", "   ")
    assert code == EXIT_USAGE


def test_collect_bad_kappa_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "collect-training", str(data_path("phrases.txt")),
        "--kappa", "0", "--out", str(tmp_path / "o.jsonl"),
    )
    assert code == EXIT_USAGE
    assert "kappa" in err


def test_help_exits_zero():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "relink.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "eval" in proc.stdout


def test_numpy_loads_only_when_a_classifier_trains(tmp_path):
    """In a fresh interpreter, ``relink ingest`` loads only the graph
    store, and not hashlib; every pipeline module imports without numpy;
    a link with the default config, which loads the bundled model, and
    ``eval`` load no numpy either. Training does: ``relink train``, and a
    link whose seed is off the bundled model's record."""
    import os
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import json, sys
        import relink.cli
        assert relink.cli.main(["ingest"]) == 0
        relink_modules = sorted(m for m in sys.modules if m.split(".")[0] == "relink")
        print(json.dumps(["hashlib" in sys.modules, relink_modules]))
        from relink import *
        import relink.evaluate
        print(json.dumps(["numpy" in sys.modules, sorted(set(relink.__all__) - set(dir(relink)))]))
        linker = relink.cli.build_linker(relink.cli.RunConfig())
        pattern = linker.link("mother-in-law").pattern.to_json()
        print(json.dumps(["numpy" in sys.modules, pattern]))
        import contextlib, io
        with contextlib.redirect_stdout(io.StringIO()):
            code = relink.cli.main(["eval"])
        print(json.dumps([code, "numpy" in sys.modules]))
    """)
    # a command's exit code, and whether it loaded numpy
    command = textwrap.dedent("""
        import contextlib, io, json, sys
        import relink.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = relink.cli.main(sys.argv[1:])
        print(json.dumps([code, "numpy" in sys.modules]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def stdout(*args: str) -> list[str]:
        proc = subprocess.run([sys.executable, "-c", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    *_, after_ingest, after_imports, after_link, after_eval = stdout(script)
    # hashing the training file, which only build_linker does, imports hashlib
    assert json.loads(after_ingest) == [False, ["relink", "relink.cli", "relink.kg"]]
    assert json.loads(after_imports) == [False, []]
    golden = Path(__file__).parent / "golden" / "link_patterns.json"
    expected = json.loads(golden.read_text("utf-8"))["mother-in-law"]
    assert json.loads(after_link) == [False, expected]
    assert json.loads(after_eval) == [EXIT_OK, False]
    train = ["train", "--model-out", str(tmp_path / "model.json")]
    off_record = ["--seed", "7", "link", "mother-in-law"]
    for argv in (train, off_record):
        assert json.loads(stdout(command, *argv)[-1]) == [EXIT_OK, True], argv


def _train_spy(monkeypatch) -> list[int]:
    """The seed of each ``classify.train`` call from now on."""
    from relink import classify

    seeds, train = [], classify.train

    def spy(examples, seed=42):
        seeds.append(seed)
        return train(examples, seed)

    monkeypatch.setattr(classify, "train", spy)
    return seeds


def test_default_config_loads_the_bundled_model(monkeypatch):
    from relink import classify

    seeds = _train_spy(monkeypatch)
    linker = build_linker(RunConfig())
    assert seeds == []
    bundled = classify.PatternClassifier.load(data_path("model.json"))
    assert linker.classifier.weights == bundled.weights
    assert linker.classifier.bias == bundled.bias


@pytest.mark.parametrize("change", ["crlf", "seed"])
def test_training_bytes_or_seed_off_the_record_trains(monkeypatch, tmp_path, change):
    # one changed byte, or another seed, is off the bundled model's record:
    # the linker trains as it would with no bundled model
    from relink import classify

    training = tmp_path / "training.jsonl"
    data = data_path("training.jsonl").read_bytes()
    training.write_bytes(data.replace(b"\n", b"\r\n") if change == "crlf" else data)
    seed = 43 if change == "seed" else 42
    want, _ = classify.train(classify.load_examples(training), seed)
    seeds = _train_spy(monkeypatch)
    linker = build_linker(RunConfig(training=str(training), seed=seed))
    assert seeds == [seed]
    assert linker.classifier.weights == want.weights
    assert linker.classifier.bias == want.bias


def test_build_linker_logs_which_model(caplog):
    caplog.set_level(logging.INFO, logger="relink.classify")
    build_linker(RunConfig())
    build_linker(RunConfig(seed=7))
    digest = json.loads(data_path("model.json").read_text("utf-8"))["trained_on"]["sha256"]
    bundled, trained = [r for r in caplog.records if r.name == "relink.classify"]
    assert bundled.getMessage() == f"bundled model: training file sha256 {digest[:12]}..., seed 42"
    assert trained.getMessage().startswith("trained on 81 examples")
    assert bundled.levelno == trained.levelno == logging.INFO


def test_eval_help_lists_every_method(capsys, monkeypatch):
    from relink.evaluate import METHODS

    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside the list
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert f"comma-separated subset of: {', '.join(METHODS)}\n" in capsys.readouterr().out


def test_eval_help_wraps_between_method_names(capsys, monkeypatch):
    from relink.evaluate import METHODS

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    words = set(capsys.readouterr().out.replace(",", " ").split())
    assert set(METHODS) <= words


@pytest.mark.parametrize("kind", [
    "missing",
    "directory",
    pytest.param("pipe", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                  reason="no named pipes")),
])
def test_ingest_graph_not_a_file_usage_error(capsys, tmp_path, kind):
    path = {"missing": tmp_path / "missing.nt", "directory": tmp_path,
            "pipe": tmp_path / "graph.fifo"}[kind]
    if kind == "pipe":  # it exists, but is no file
        os.mkfifo(path)
    code, out, err = run(capsys, "ingest", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    reason = {"missing": "not found", "directory": "is a directory",
              "pipe": "is not a regular file"}[kind]
    assert err == f"config error: kg file {reason}: {path}\n"


@pytest.mark.parametrize("content, line_no", [
    (b"son\n\xff\n", 2),
    (b"\xffson\n", 1),
    (b"son\r\nuncle\raunt \xff\n", 3),
])
def test_collect_phrases_not_utf8_data_error(capsys, tmp_path, content, line_no):
    phrases = tmp_path / "bad.txt"
    phrases.write_bytes(content)
    out_file = tmp_path / "o.jsonl"
    code, out, err = run(capsys, "collect-training", str(phrases), "--out", str(out_file))
    assert code == EXIT_DATA
    assert err.startswith(
        f"data error: {phrases} line {line_no}: not valid UTF-8: invalid start byte\n"
    )
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_collect_phrases_split_only_at_line_endings(capsys, tmp_path, sep):
    # text mode ends a line at LF, CR LF or CR only; other separators that
    # str.splitlines knows stay inside the phrase
    phrases = tmp_path / "p.txt"
    phrases.write_text(f"son{sep}uncle\r\nmother\rspouse\n", encoding="utf-8")
    out_file = tmp_path / "o.jsonl"
    code, out, _ = run(capsys, "collect-training", str(phrases), "--out", str(out_file))
    assert code == EXIT_NO_MATCH  # no phrase yields an example
    skipped = [line.split(":")[0] for line in out.splitlines()]
    assert skipped == [f"skip {f'son{sep}uncle'!r}", "skip 'mother'", "skip 'spouse'"]
    assert not out_file.exists()


def test_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELINK_OUTPUT", "text")
    code, out, _ = run(capsys, "link", "son")
    assert "-->" in out


def test_missing_kg_config_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELINK_KG", str(tmp_path / "missing.nt"))
    code, _, err = run(capsys, "link", "son")
    assert code == EXIT_USAGE
    assert "not found" in err


def test_missing_model_fails_fast(capsys, tmp_path):
    code, _, err = run(
        capsys, "--model", str(tmp_path / "missing-model.json"), "link", "son"
    )
    assert code == EXIT_USAGE
    assert "model file not found" in err


def test_saved_model_is_used(capsys, tmp_path):
    model = tmp_path / "model.json"
    assert run(capsys, "train", "--model-out", str(model))[0] == EXIT_OK
    code, out, _ = run(capsys, "--model", str(model), "link", "mother-in-law")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [e["rel"] for e in payload["pattern"]["edges"]] == [
        EX + "spouse",
        EX + "mother",
    ]


def test_train_review_not_an_object_data_error(capsys, tmp_path):
    review = tmp_path / "review.json"
    review.write_text("[1]")
    code, _, err = run(
        capsys, "train", "--review", str(review), "--model-out", str(tmp_path / "m.json")
    )
    assert code == EXIT_DATA
    assert "JSON object" in err


def test_train_example_not_an_object_data_error(capsys, tmp_path):
    training = tmp_path / "training.jsonl"
    training.write_text("[1]\n")
    code, _, err = run(
        capsys, "train", str(training), "--model-out", str(tmp_path / "m.json")
    )
    assert code == EXIT_DATA


# the bundled file's first example with its second mask unmasked: it
# parses, but a sentence with one masked relation cannot be featurized
_ONE_MASK_LINE = (
    data_path("training.jsonl").read_text("utf-8").splitlines()[0]
    .replace('"*spouse"', '"spouse"').encode()
)


def _first_line_with(name: str, **changes) -> bytes:
    """The first line of a bundled JSONL file with some fields replaced."""
    data = json.loads(data_path(name).read_text("utf-8").splitlines()[0])
    return json.dumps({**data, **changes}).encode()


# the first example with one field of the wrong JSON type; a token list
# joined into one string would otherwise load as its single characters
_TRAINING_FIELD_LINES = {
    "sentence-string": _first_line_with(
        "training.jsonl", sentence="the mother of a person spouse"
    ),
    "masked-string": _first_line_with(
        "training.jsonl", masked="the *mother of a person *spouse"
    ),
    "token-not-string": _first_line_with(
        "training.jsonl", sentence=["the", "mother", "of", "a", "person", 5]
    ),
    "phrase-number": _first_line_with("training.jsonl", phrase=5),
    "origin-null": _first_line_with("training.jsonl", origin=None),
}


@pytest.mark.parametrize(
    "line",
    [b'{"phrase": "x"}', b"[1]", b"{not json", b"\xff", _ONE_MASK_LINE,
     *_TRAINING_FIELD_LINES.values()],
    ids=["missing-key", "not-object", "not-json", "not-utf8", "one-mask",
         *_TRAINING_FIELD_LINES],
)
@pytest.mark.parametrize(
    "argv",
    [["train", "{training}", "--model-out", "{out}"],
     ["link", "aunt"],
     ["eval", "--methods", "keyword_match"]],
    ids=["train", "link", "eval"],
)
def test_malformed_training_line_data_error(capsys, tmp_path, monkeypatch, argv, line):
    training = tmp_path / "training.jsonl"
    first = data_path("training.jsonl").read_text("utf-8").splitlines()[0]
    training.write_bytes(f"{first}\n".encode() + line)
    monkeypatch.setenv("RELINK_TRAINING", str(training))
    argv = [a.format(training=training, out=tmp_path / "out") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and str(training) in err
    assert "line 2" in err


@pytest.mark.parametrize("training", ["missing.jsonl", "malformed.jsonl"])
def test_collect_training_reads_no_training_file(capsys, tmp_path, monkeypatch, training):
    # harvesting writes training data; it neither reads any nor trains
    (tmp_path / "malformed.jsonl").write_bytes(b"{not json")
    monkeypatch.setenv("RELINK_TRAINING", str(tmp_path / training))
    out_file = tmp_path / "h.jsonl"
    code, out, _ = run(
        capsys, "collect-training", str(data_path("phrases.txt")),
        "--out", str(out_file), "--kappa", "10",
    )
    assert (code, out.splitlines()[0]) == (EXIT_OK, f"collected 9 examples -> {out_file}")
    golden = Path(__file__).parent / "golden" / "harvest_k10.jsonl"
    assert out_file.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["eval", "--methods", "keyword_match", ""], ["train", "", "--model-out", "{out}"]],
    ids=["eval", "train"],
)
def test_empty_positional_path_data_error(capsys, tmp_path, argv):
    # an empty path fails like any unreadable one; it does not mean the bundled file
    out_file = tmp_path / "m.json"
    code, out, err = run(capsys, *[a.format(out=out_file) for a in argv])
    assert code == EXIT_DATA
    assert out == "" and err.startswith("error: ")
    assert not out_file.exists()


def test_ingest_empty_path_usage_error(capsys, tmp_path):
    # like eval and train, an empty path is a missing file, not the bundled graph
    assert run(capsys, "ingest", "") == (EXIT_USAGE, "", "config error: kg file not found: \n")
    assert run(capsys, "ingest", str(tmp_path / "missing.nt"))[0] == EXIT_USAGE
    # without the positional, a global --kg is the graph loaded
    path = tmp_path / "one.nt"
    path.write_text("<http://x/a> <http://x/p> <http://x/b> .\n")
    code, out, _ = run(capsys, "--kg", str(path), "ingest")
    assert (code, json.loads(out)["triples"]) == (EXIT_OK, 1)


@pytest.mark.parametrize(
    "env, argv",
    [("RELINK_GOLD", ["eval", "--methods", "keyword_match", "{gold}"]),
     ("RELINK_TRAINING", ["train", "{training}", "--model-out", "{out}"])],
    ids=["gold", "training"],
)
def test_positional_path_wins_over_environment(capsys, tmp_path, monkeypatch, env, argv):
    monkeypatch.setenv(env, str(tmp_path / "missing.jsonl"))
    argv = [a.format(gold=data_path("gold.jsonl"), training=data_path("training.jsonl"),
                     out=tmp_path / "m.json") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert "missing.jsonl" not in out


@pytest.mark.parametrize(
    "argv", [["eval", "{path}"], ["train", "{path}", "--model-out", "{out}"]],
    ids=["gold", "training"],
)
@pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank-lines"])
def test_data_file_without_entries_named(capsys, tmp_path, argv, content):
    path = tmp_path / "data.jsonl"
    path.write_text(content, "utf-8")
    out_file = tmp_path / "m.json"
    got = run(capsys, *[a.format(path=path, out=out_file) for a in argv])
    assert got == (EXIT_DATA, "", f"data error: {path}: no entries\n")
    assert not out_file.exists()


@pytest.mark.parametrize("line", ["[1]", '"son"', "3"])
def test_eval_gold_line_not_an_object_data_error(capsys, tmp_path, line):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(data_path("gold.jsonl").read_text("utf-8") + line + "\n")
    code, _, err = run(capsys, "eval", "--methods", "keyword_match", str(gold))
    assert code == EXIT_DATA
    assert err.startswith(f"data error: {gold} line ")


@pytest.mark.parametrize(
    "line, reason",
    [("{not json", "Expecting property name"),
     ("[1]", "not a JSON object"),
     ('{"phrase": "son"}', "missing key 'gold_pattern'"),
     ('{"phrase": "son", "gold_pattern": {"edges": []}}', "at least one edge"),
     (_first_line_with("gold.jsonl", phrase=5).decode(),
      "phrase must be a non-blank string, got 5"),
     (_first_line_with("gold.jsonl", phrase="").decode(),
      "phrase must be a non-blank string, got ''"),
     (_first_line_with("gold.jsonl", phrase=" ").decode(),
      "phrase must be a non-blank string, got ' '"),
     (_first_line_with("gold.jsonl", known_failure="false").decode(),
      "known_failure must be a JSON boolean, got 'false'"),
     (_first_line_with("gold.jsonl", known_failure=0).decode(),
      "known_failure must be a JSON boolean, got 0")],
    ids=["not-json", "not-object", "missing-key", "no-edges", "phrase-number",
         "phrase-empty", "phrase-blank", "known-failure-string", "known-failure-zero"],
)
def test_eval_gold_bad_line_named(capsys, tmp_path, line, reason):
    gold = tmp_path / "gold.jsonl"
    first = data_path("gold.jsonl").read_text("utf-8").splitlines()[0]
    gold.write_text(f"{first}\n\n{line}\n{first}\n")
    code, out, err = run(capsys, "eval", "--methods", "keyword_match", str(gold))
    assert (code, out) == (EXIT_DATA, "")
    assert err.startswith(f"data error: {gold} line 3: ")
    assert reason in err


def test_explanations_not_an_object_usage_error(capsys, tmp_path):
    explanations = tmp_path / "explanations.json"
    explanations.write_text('["son"]')
    code, _, err = run(capsys, "--explanations", str(explanations), "link", "son")
    assert code == EXIT_USAGE
    assert "explanation fixture must be a JSON object" in err


@pytest.mark.parametrize("value", [None, ["the mother of a person's spouse"], 3])
def test_explanation_not_a_string_usage_error(capsys, tmp_path, value):
    explanations = tmp_path / "explanations.json"
    explanations.write_text(json.dumps({"mother-in-law": value}))
    code, out, err = run(capsys, "--explanations", str(explanations), "link", "mother-in-law")
    assert (code, out) == (EXIT_USAGE, "")
    assert "explanation for 'mother-in-law' must be a string" in err


def test_explanation_keys_colliding_usage_error(capsys, tmp_path):
    explanations = tmp_path / "explanations.json"
    explanations.write_text(json.dumps({"Mother": "a female parent", "mother ": "a parent"}))
    code, out, err = run(capsys, "--explanations", str(explanations), "link", "son")
    assert (code, out) == (EXIT_USAGE, "")
    assert "'Mother'" in err and "'mother '" in err


@pytest.mark.parametrize("surfaces", [["wife", "Wife"], ["in-law", "in law"]])
def test_lexicon_surfaces_colliding_usage_error(capsys, tmp_path, surfaces):
    lexicon = tmp_path / "lexicon.json"
    spouse = "http://example.org/ontology/spouse"
    lexicon.write_text(json.dumps({s: [spouse] for s in surfaces}))
    code, out, err = run(capsys, "--lexicon", str(lexicon), "link", "son")
    assert (code, out) == (EXIT_USAGE, "")
    assert all(repr(s) in err for s in surfaces)


@pytest.mark.parametrize(
    "payload",
    [{"format": "relink-linear/1"}, ["relink-linear/1"],
     {"format": "relink-linear/1", "classes": ["RP2"], "tie_break": [],
      "vocabulary": [], "weights": [], "bias": []},
     # well shaped, but exact ties resolve only in the fixed order
     {"format": "relink-linear/1", "classes": ["RP2", "RP3", "RP4"],
      "tie_break": ["RP4", "RP2", "RP3"], "vocabulary": {"uni=a": 0},
      "weights": [[0.0], [0.0], [0.0]], "bias": [0.0, 0.0, 0.0]},
     # well shaped, but the weight rows are always RP2, RP3, RP4
     {"format": "relink-linear/1", "classes": ["RP1", "RP2", "RP3"],
      "tie_break": ["RP2", "RP4", "RP3"], "vocabulary": {"uni=a": 0},
      "weights": [[0.0], [0.0], [0.0]], "bias": [0.0, 0.0, 0.0]},
     {"format": "relink-linear/1", "classes": ["RP4", "RP3", "RP2"],
      "tie_break": ["RP2", "RP4", "RP3"], "vocabulary": {"uni=a": 0},
      "weights": [[0.0], [0.0], [0.0]], "bias": [0.0, 0.0, 0.0]}],
)
def test_model_file_malformed_usage_error(capsys, tmp_path, payload):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    code, _, err = run(capsys, "--model", str(model), "link", "son")
    assert code == EXIT_USAGE
    assert "model" in err


@pytest.mark.parametrize("route", ["env", "config"])
@pytest.mark.parametrize("command", [["ingest"], ["link", "son"]])
def test_output_value_checked(capsys, tmp_path, monkeypatch, route, command):
    if route == "env":
        monkeypatch.setenv("RELINK_OUTPUT", "xml")
        argv = command
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output": "xml"}))
        argv = ["--config", str(config), *command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "output" in err and "xml" in err


ENV_VALUES = {str: "some-value", int: "7", float: "0.25"}
VALID_ENV_VALUES = {"output": "text"}  # fields whose value build_config checks


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_env_sets_every_field(monkeypatch, field):
    want_type = type(field.default)
    raw = VALID_ENV_VALUES.get(field.name, ENV_VALUES[want_type])
    monkeypatch.setenv("RELINK_" + field.name.upper(), raw)
    cfg = build_config(make_parser().parse_args(["ingest"]))
    value = getattr(cfg, field.name)
    assert type(value) is want_type
    assert value == want_type(raw)


def test_env_value_of_wrong_type_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RELINK_MAX_DEPTH", "abc")
    code, _, err = run(capsys, "link", "son")
    assert code == EXIT_USAGE
    assert "RELINK_MAX_DEPTH" in err


@pytest.mark.parametrize("verdict", [5, {"relabel": "RP9"}, {"relabel": "RP1"}, {"relabel": []}])
def test_train_bad_review_verdict_data_error(capsys, tmp_path, verdict):
    review = tmp_path / "review.json"
    review.write_text(json.dumps({"mother-in-law": verdict}))
    code, _, err = run(
        capsys, "train", "--review", str(review), "--model-out", str(tmp_path / "m.json")
    )
    assert code == EXIT_DATA
    assert err == f"data error: {review}: bad review verdict for 'mother-in-law': {verdict!r}\n"


@pytest.mark.parametrize(
    "argv",
    [["--explanations", "{d}", "link", "son"], ["--model", "{d}", "link", "son"],
     ["--kg", "{d}", "link", "son"], ["--lexicon", "{d}", "link", "son"],
     ["--config", "{d}", "link", "son"],
     ["--output", "text", "link", "son"]],  # the prefixes path, via RELINK_PREFIXES
)
def test_directory_for_input_file_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("RELINK_PREFIXES", str(tmp_path))  # read by text output only
    name = argv[0].removeprefix("--") if "{d}" in argv else "prefixes"
    got = run(capsys, *[a.format(d=tmp_path) for a in argv])
    assert got == (EXIT_USAGE, "", f"config error: {name} file is a directory: {tmp_path}\n")


def test_directory_for_training_file_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELINK_TRAINING", str(tmp_path))
    got = run(capsys, "link", "son")
    assert got == (EXIT_USAGE, "", f"config error: training file is a directory: {tmp_path}\n")


@pytest.mark.parametrize(
    "argv",
    [["eval", "{d}"],
     ["train", "{d}", "--model-out", "{out}"],
     ["train", "--review", "{d}", "--model-out", "{out}"],
     ["collect-training", "{d}", "--out", "{out}"]],
    ids=["gold", "training", "review", "phrases"],
)
def test_directory_for_data_file_data_error(capsys, tmp_path, argv):
    out = tmp_path / "out"
    got = run(capsys, *[a.format(d=tmp_path, out=out) for a in argv])
    assert got == (EXIT_DATA, "", f"data error: {tmp_path}: is a directory\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--config", "{f}", "link", "son"], ["--lexicon", "{f}", "link", "son"],
     ["--explanations", "{f}", "link", "son"], ["--model", "{f}", "link", "son"],
     ["--output", "text", "link", "son"]],  # the prefixes path, via RELINK_PREFIXES
    ids=["config", "lexicon", "explanations", "model", "prefixes"],
)
@pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf\r\n"], ids=["empty", "bom-newline"])
def test_empty_settings_file_usage_error(capsys, tmp_path, monkeypatch, argv, content):
    path = tmp_path / "settings.json"
    path.write_bytes(content)
    monkeypatch.setenv("RELINK_PREFIXES", str(path))  # read by text output only
    got = run(capsys, *[a.format(f=path) for a in argv])
    assert got[0] == EXIT_USAGE
    assert got[2] == f"error: {path}: empty file\n"


def test_missing_prefixes_file_usage_error(capsys, tmp_path, monkeypatch):
    # a prefixes path that is set but missing is an error, not an empty table
    path = tmp_path / "missing.json"
    monkeypatch.setenv("RELINK_PREFIXES", str(path))
    got = run(capsys, "--output", "text", "link", "son")
    assert got == (EXIT_USAGE, "", f"config error: prefixes file not found: {path}\n")


def test_missing_training_file_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELINK_TRAINING", str(tmp_path / "missing.jsonl"))
    code, _, err = run(capsys, "link", "son")
    assert code == EXIT_USAGE
    assert "training file not found" in err


@pytest.mark.parametrize(
    "argv",
    [["collect-training", "{phrases}", "--out", "{out}"],
     ["train", "--model-out", "{out}"],
     ["eval", "--methods", "keyword_match", "--report-json", "{out}"]],
)
def test_unwritable_output_data_error(capsys, tmp_path, argv):
    phrases = tmp_path / "phrases.txt"
    phrases.write_text("son\n")
    out = tmp_path / "missing-dir" / "out.json"
    code, _, err = run(capsys, *[a.format(phrases=phrases, out=out) for a in argv])
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "missing-dir" in err


@pytest.mark.parametrize(
    "corrupt",
    [lambda m: m.update(weights=[[0.0]] * 3),
     lambda m: m.update(bias=m["bias"][:-1]),
     lambda m: m["vocabulary"].update({next(iter(m["vocabulary"])): len(m["vocabulary"])}),
     # no class would score a defined probability
     lambda m: m["weights"][0].__setitem__(0, float("nan")),
     lambda m: m["bias"].__setitem__(1, float("inf")),
     # not JSON numbers for weights and bias, nor JSON integers for indexes
     lambda m: m["vocabulary"].update({next(iter(m["vocabulary"])): 1.5}),
     lambda m: m["vocabulary"].update({next(iter(m["vocabulary"])): True}),
     lambda m: m["weights"][0].__setitem__(0, True),
     lambda m: m["weights"][1].__setitem__(0, "0.5"),
     lambda m: m["weights"][2].__setitem__(0, "x"),
     lambda m: m["weights"][2].append(0.0),  # ragged
     lambda m: m["bias"].__setitem__(0, 10**400),  # no float holds it
     # two features share a column, so another column is never read
     lambda m: m["vocabulary"].update(dict.fromkeys(list(m["vocabulary"])[:2], 0))],
)
def test_model_shape_checked_at_load(capsys, tmp_path, corrupt):
    model = tmp_path / "model.json"
    assert run(capsys, "train", "--model-out", str(model))[0] == EXIT_OK
    payload = json.loads(model.read_text())
    corrupt(payload)
    model.write_text(json.dumps(payload))
    code, _, err = run(capsys, "--model", str(model), "link", "mother-in-law")
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {model}: malformed model: ")


def test_cli_defaults_equal_library_defaults():
    # the CLI does not import the pipeline at start-up, so it writes the
    # library's defaults out again; each pair must agree
    import inspect

    from relink import assemble, classify, explain, linking

    cfg, link = RunConfig(), assemble.LinkConfig()
    assert cfg.theta_rel == linking.DEFAULT_THETA_REL == link.theta_rel
    assert cfg.max_depth == link.max_recursion_depth
    assert cfg.validation == link.validation
    assert cfg.seed == inspect.signature(classify.train).parameters["seed"].default
    timeout = inspect.signature(explain.HttpProvider).parameters["timeout"].default
    assert cfg.http_timeout == timeout
    (validation,) = [a for a in make_parser()._actions if a.dest == "validation"]
    assert tuple(validation.choices) == (assemble.STRICT, assemble.PERMISSIVE)
