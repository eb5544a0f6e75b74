from __future__ import annotations

import json
import threading

import pytest

from relink.explain import (
    CacheStats,
    ExplanationService,
    FixtureProvider,
    normalize_phrase,
)

from .threads import run_together


def test_fixture_lookup_mother_in_law(explainer):
    exp = explainer.explain("mother-in-law")
    assert exp is not None
    assert exp.sentence == "the mother of a person's spouse"
    assert exp.source == "fixture"


def test_fixture_lookup_great_grandparent(explainer):
    exp = explainer.explain("great-grandparent")
    assert exp.sentence == "a parent of your grandparent"


def test_unknown_phrase_not_found(explainer):
    assert explainer.explain("zzzz-unknown") is None


def test_phrase_normalization():
    assert normalize_phrase("  Mother-In-Law  ") == "mother-in-law"
    assert normalize_phrase("Great  Aunt") == "great aunt"


def test_lookup_is_case_and_space_insensitive(explainer):
    a = explainer.explain("Mother-in-Law")
    b = explainer.explain("mother-in-law")
    assert a == b


def test_empty_phrase_rejected(explainer):
    with pytest.raises(ValueError):
        explainer.explain("   ")


def test_cache_stats_fresh(explainer):
    assert explainer.cache_stats() == CacheStats(hits=0, misses=0, entries=0)


def test_cache_stats_two_identical_lookups(explainer):
    explainer.explain("son")
    explainer.explain("son")
    stats = explainer.cache_stats()
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.entries == 1


def test_cache_entries_count_distinct_fixture_lookups(explainer):
    from relink.cli import data_path

    fixture = json.loads(data_path("explanations.json").read_text("utf-8"))
    for phrase in fixture:
        explainer.explain(phrase)
    assert explainer.cache_stats().entries == len(fixture)


def test_idempotent_byte_identical(explainer):
    first = explainer.explain("uncle")
    for _ in range(3):
        assert explainer.explain("uncle") == first


@pytest.mark.parametrize("value", [None, ["a sentence"], 0])
def test_fixture_value_must_be_a_string(value):
    with pytest.raises(ValueError, match="explanation for 'word' must be a string"):
        FixtureProvider({"word": value})


@pytest.mark.parametrize(
    "keys", [["Mother", "mother "], ["son in law", "son  in\tlaw"], ["aunt", "AUNT"]]
)
def test_fixture_keys_normalizing_to_one_phrase_rejected(keys):
    # whichever key came later would otherwise answer for both
    with pytest.raises(ValueError) as err:
        FixtureProvider({k: f"sentence for {k}" for k in keys})
    assert all(repr(k) in str(err.value) for k in keys)


def test_fixture_blank_value_is_absent():
    assert FixtureProvider({"word": "  ", "other": "a sentence"}).lookup("word") is None


def test_provider_priority_order():
    first = FixtureProvider({"word": "first sentence"}, id="one")
    second = FixtureProvider({"word": "second sentence", "only": "from two"}, id="two")
    svc = ExplanationService([first, second])
    assert svc.explain("word").source == "one"
    assert svc.explain("only").source == "two"


def test_failing_provider_is_skipped(caplog):
    class Broken:
        id = "broken"

        def lookup(self, phrase):
            raise OSError("connection refused")

    svc = ExplanationService([Broken(), FixtureProvider({"w": "a sentence"})])
    exp = svc.explain("w")
    assert exp is not None and exp.source == "fixture"


def test_cache_does_not_change_results(explainer):
    cold = explainer.explain("sportsman")
    warm = explainer.explain("sportsman")
    assert cold == warm
    assert explainer.cache_stats().hits >= 1


def test_http_provider_reads_disk_cache_offline(tmp_path):
    from relink.explain import HttpProvider

    cache = tmp_path / "http-cache"
    cache.mkdir()
    provider = HttpProvider(
        "http://dictionary.invalid/define?q={phrase}",
        json_path="results.0.definition",
        cache_dir=cache,
    )
    provider._cache_file("gizmo").write_text(
        json.dumps({"results": [{"definition": "a small gadget"}]})
    )
    exp = provider.lookup("gizmo")
    assert exp is not None
    assert exp.sentence == "a small gadget"


def test_http_provider_cache_files_do_not_collide(tmp_path, monkeypatch):
    import io
    import urllib.request
    from urllib.parse import unquote

    from relink.explain import HttpProvider

    def fake_urlopen(req, timeout):
        phrase = unquote(req.full_url.split("?q=", 1)[1])
        return io.BytesIO(json.dumps({"definition": f"meaning of {phrase}"}).encode())

    def offline(req, timeout):
        raise AssertionError("cached phrase fetched again")

    cache = tmp_path / "http-cache"
    phrases = ["mother in law", "mother_in_law", "mother/in/law"]
    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    provider = HttpProvider(
        "http://dictionary.invalid/define?q={phrase}", "definition", cache_dir=cache
    )
    for phrase in phrases:
        provider.lookup(phrase)
    assert len(list(cache.glob("*.json"))) == 3
    assert list(cache.glob("*.tmp")) == []

    monkeypatch.setattr(urllib.request, "urlopen", offline)
    sentences = [provider.lookup(phrase).sentence for phrase in phrases]
    assert sentences == [f"meaning of {phrase}" for phrase in phrases]


def test_http_provider_refetches_unreadable_cache_file(tmp_path, monkeypatch):
    import io
    import urllib.request

    from relink.explain import HttpProvider

    fetched = []

    def fake_urlopen(req, timeout):
        fetched.append(req.full_url)
        return io.BytesIO(json.dumps({"definition": "a small gadget"}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    provider = HttpProvider(
        "http://dictionary.invalid/define?q={phrase}", "definition", cache_dir=tmp_path
    )
    cache_file = provider._cache_file("gizmo")
    cache_file.write_text('{"definition": "a sm', "utf-8")
    for _ in range(2):
        assert provider.lookup("gizmo").sentence == "a small gadget"
    assert len(fetched) == 1  # the second lookup reads the replaced file
    assert json.loads(cache_file.read_text("utf-8")) == {"definition": "a small gadget"}
    assert list(tmp_path.glob("*.tmp")) == []


def test_http_provider_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import errno
    import io
    import os
    import urllib.request

    from relink.explain import HttpProvider

    def fake_urlopen(req, timeout):
        return io.BytesIO(json.dumps({"definition": "a small gadget"}).encode())

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr(os, "replace", disk_full)
    provider = HttpProvider(
        "http://dictionary.invalid/define?q={phrase}", "definition", cache_dir=tmp_path
    )
    for _ in range(3):
        with pytest.raises(OSError):
            provider.lookup("gizmo")
    assert list(tmp_path.iterdir()) == []

    service = ExplanationService([provider])
    assert service.explain("gizmo") is None  # logged and skipped
    assert service.cache_stats().entries == 0  # a failed lookup is not cached
    assert list(tmp_path.iterdir()) == []


def test_http_provider_extract_paths():
    from relink.explain import HttpProvider

    provider = HttpProvider("http://x.invalid/{phrase}", json_path="a.1.b")
    assert provider._extract({"a": [{}, {"b": "found"}]}) == "found"
    assert provider._extract({"a": []}) is None
    assert provider._extract({"other": 1}) is None


def test_http_provider_answers_only_strings(tmp_path):
    # a JSON number, boolean, null, array or object at the path is a miss,
    # like a missing path, as a fixture accepts only string explanations
    from relink.explain import HttpProvider

    provider = HttpProvider("http://x.invalid/{phrase}", json_path="definition")
    for value in (True, False, 0, 7, 2.5, None, ["a sentence"], {"text": "a sentence"}):
        assert provider._extract({"definition": value}) is None, value
    assert provider._extract({"definition": "a sentence"}) == "a sentence"
    reply = tmp_path / "reply.json"
    provider = HttpProvider(reply.as_uri(), json_path="definition")
    for value in (True, 7, " \t"):  # and a blank sentence, as a fixture drops it
        reply.write_text(json.dumps({"definition": value}), "utf-8")
        assert provider.lookup("gizmo") is None, value
    reply.write_text(json.dumps({"definition": "a small gadget"}), "utf-8")
    assert provider.lookup("gizmo").sentence == "a small gadget"


def test_concurrent_lookups_single_result():
    calls = []

    class Counting:
        id = "counting"

        def lookup(self, phrase):
            calls.append(phrase)
            return FixtureProvider({"x": "a definition"}, id="counting").lookup(phrase)

    svc = ExplanationService([Counting()])
    threads = [threading.Thread(target=svc.explain, args=("x",)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # single-flight: the provider ran once despite 8 concurrent callers
    assert calls == ["x"]
    assert svc.cache_stats().entries == 1


class CountingProvider:
    """Wraps a provider; counts lookups per phrase and can be told to fail."""

    id = "counting"

    def __init__(self, inner=None, fail=(), delay=0.0):
        self.inner = inner
        self.fail = list(fail)  # exceptions raised by the next lookups, in order
        self.delay = delay
        self.calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def lookup(self, phrase):
        import time

        with self._lock:
            self.calls[phrase] = self.calls.get(phrase, 0) + 1
            exc = self.fail.pop(0) if self.fail else None
        time.sleep(self.delay)
        if exc is not None:
            raise exc
        return self.inner.lookup(phrase) if self.inner else None


def _linked_phrases() -> list[str]:
    from relink.cli import data_path
    from relink.evaluate import load_gold

    phrases = {e.phrase for e in load_gold(data_path("gold.jsonl"))}
    phrases.update(
        p.strip() for p in data_path("phrases.txt").read_text("utf-8").splitlines()
    )
    return sorted(phrases - {""})


def test_all_none_answer_is_cached_as_miss():
    provider = CountingProvider()
    svc = ExplanationService([provider])
    assert svc.explain("zzzz-unknown") is None
    assert svc.explain("ZZZZ-unknown") is None
    assert provider.calls == {"zzzz-unknown": 1}
    assert svc.cache_stats() == CacheStats(hits=1, misses=1, entries=1)


def test_failed_lookup_is_asked_again_then_cached():
    provider = CountingProvider(
        FixtureProvider({"w": "a sentence"}), fail=[OSError("timed out")]
    )
    svc = ExplanationService([provider])
    assert svc.explain("w") is None  # the only provider failed
    assert svc.explain("w").sentence == "a sentence"
    assert svc.explain("w").sentence == "a sentence"
    assert provider.calls == {"w": 2}
    assert svc.cache_stats() == CacheStats(hits=1, misses=2, entries=1)


def test_interrupted_lookup_leaves_no_entry():
    class Interrupted(BaseException):
        pass

    provider = CountingProvider(FixtureProvider({"w": "a sentence"}), fail=[Interrupted()])
    svc = ExplanationService([provider])
    with pytest.raises(Interrupted):
        svc.explain("w")
    assert svc._cache == {}
    assert svc._pending == {}
    assert svc.explain("w").sentence == "a sentence"
    assert provider.calls == {"w": 2}


def test_cache_stays_bounded_over_distinct_misses():
    from relink.explain import MAX_CACHED

    svc = ExplanationService([FixtureProvider({})])
    for i in range(10_000):
        assert svc.explain(f"phrase {i}") is None
    assert len(svc._cache) <= MAX_CACHED
    assert svc.cache_stats().entries == len(svc._cache)
    assert svc._pending == {}
    assert "phrase 9999" in svc._cache and "phrase 0" not in svc._cache  # oldest went


def test_threads_sharing_one_linker_match_sequential(linker, family_graph, lexicon, classifier):
    import sys

    from relink.assemble import LinkConfig, Linker
    from relink.cli import data_path

    phrases = _linked_phrases()
    sequential = [linker.link(p).to_json() for p in phrases]

    provider = CountingProvider(FixtureProvider(data_path("explanations.json")), delay=0.001)
    shared = Linker(
        family_graph, ExplanationService([provider]), lexicon, classifier, LinkConfig()
    )

    def one_pass(offset: int) -> list[dict]:
        order = phrases[offset:] + phrases[:offset]  # threads start apart
        results = {p: shared.link(p).to_json() for p in order}
        return [results[p] for p in phrases]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        offsets = [i * 4 % len(phrases) for i in range(16)]
        passes = run_together([lambda o=o: one_pass(o) for o in offsets])
    finally:
        sys.setswitchinterval(previous)
    for results in passes:
        assert results == sequential
    assert provider.calls and max(provider.calls.values()) == 1


@pytest.mark.parametrize("cap", [1, 3])
def test_tiny_cache_does_not_change_link_results(family_graph, lexicon, classifier,
                                                 monkeypatch, cap):
    from pathlib import Path

    from relink import explain
    from relink.assemble import LinkConfig, Linker
    from relink.cli import data_path

    def split_confidence(result: dict) -> tuple[dict, list]:
        steps = [dict(step) for step in result["trace"]]
        confidences = [step.pop("confidence") for step in steps if "confidence" in step]
        return {**result, "trace": steps}, confidences

    monkeypatch.setattr(explain, "MAX_CACHED", cap)
    golden_path = Path(__file__).parent / "golden" / "link_traces.json"
    golden = json.loads(golden_path.read_text("utf-8"))
    svc = ExplanationService([FixtureProvider(data_path("explanations.json"))])
    linker = Linker(family_graph, svc, lexicon, classifier, LinkConfig())
    for _ in range(2):  # the second pass mixes evicted and cached phrases
        for phrase, expected in golden.items():
            got, got_conf = split_confidence(linker.link(phrase).to_json())
            want, want_conf = split_confidence(expected)
            assert got == want, phrase
            assert got_conf == pytest.approx(want_conf, abs=1e-6), phrase
        assert len(svc._cache) <= cap
