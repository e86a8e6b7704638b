"""The exit-code contract holds for every input.

Whatever bytes arrive as the itinerary file, the --config file, the bench
manifest, a replayed model response, a generation endpoint's body or a live
duration payload, cli.main returns an exit code from 0 to 4 and raises
nothing, so no traceback can reach the user. Every example runs main in
process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itiguard.cli import main
from itiguard import durations
from itiguard.durations import RemoteDurationClient, TransportError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SAMPLE = FIXTURES / "sample_invalid.json"
DEMO_FLAGS = ["--provider", "fixture", "--fixture-file", str(FIXTURES / "demo_durations.txt")]
LIVE_FLAGS = ["--provider", "live", "--base-url", "http://durations.invalid"]

DEEP = b"[" * 100_000
LONG_NUMBER = b"[" + b"1" * 5000 + b"]"
NOT_UTF8 = b'\xff\xfe{"itinerary": []}'

fuzz = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def documents(shaped: st.SearchStrategy) -> st.SearchStrategy[bytes]:
    """Raw bytes, any JSON value, a JSON document of the expected shape with
    hostile values, or one of the three inputs json.loads cannot decode."""
    return st.one_of(
        st.binary(max_size=48),
        json_values.map(lambda value: json.dumps(value).encode()),
        shaped.map(lambda value: json.dumps(value).encode()),
        st.sampled_from([DEEP, LONG_NUMBER, NOT_UTF8]),
    )


stop_values = st.fixed_dictionaries(
    {
        "place": st.sampled_from(["Sydney (SYD)", "Frankfurt (FRA)", "Nowhere (ZZZ)"]) | json_values,
        "arrival_time": st.sampled_from(["2025-06-01 08:00", "9999-12-31 23:00", "0001-01-01 00:00"])
        | json_values,
        "departure_time": st.sampled_from(["2025-06-03 08:00", "9999-12-31 23:59"]) | json_values,
    }
)
stop_lists = st.lists(stop_values, max_size=4)
itineraries = documents(stop_lists | st.fixed_dictionaries({"itinerary": stop_lists}))
configs = documents(
    st.dictionaries(
        st.sampled_from(["buffer_hours", "min_stay_hours", "max_multiplier", "strict", "trace", "format"]),
        st.integers() | st.floats() | json_values,
        max_size=3,
    )
)
manifests = documents(
    st.lists(
        st.fixed_dictionaries(
            {
                "file": st.just("a.json") | json_values,
                "model_tag": st.just("m") | json_values,
                "num_cities": st.integers(-1, 5) | json_values,
            }
        ),
        max_size=3,
    )
)
endpoint_bodies = documents(
    st.fixed_dictionaries({"text": itineraries.map(lambda raw: raw.decode("utf-8", "replace"))})
)
payloads = documents(
    st.fixed_dictionaries({"hours": st.integers() | json_values, "minutes": st.integers() | json_values})
    | st.fixed_dictionaries({"duration": json_values})
)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert type(code) is int and 0 <= code <= 4, code
    if code >= 2:
        assert "error: " in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    # A fuzzed config may name a cache file; keep whatever it writes here.
    monkeypatch.chdir(tmp_path)
    return tmp_path


def serve_payloads(monkeypatch, fetch) -> None:
    """Answer the live provider's fetches with fetch(), with no wait between
    retries (sleep is bound when __init__ is defined)."""
    monkeypatch.setattr(durations, "http_fetch", fetch)
    no_wait = dict(RemoteDurationClient.__init__.__kwdefaults__, sleep=lambda s: None)
    monkeypatch.setattr(RemoteDurationClient.__init__, "__kwdefaults__", no_wait)


class TestFuzz:
    @fuzz
    @given(data=itineraries)
    def test_any_input_file(self, workdir, data):
        (workdir / "in.json").write_bytes(data)
        code, out, _ = run(["validate", "in.json", str(SAMPLE), *DEMO_FLAGS])
        assert "sample_invalid.json: INVALID" in out
        run(["correct", "in.json", *DEMO_FLAGS])

    @fuzz
    @given(data=configs)
    def test_any_config(self, workdir, data):
        (workdir / "config.json").write_bytes(data)
        run(["validate", str(SAMPLE), "--config", "config.json", *DEMO_FLAGS])

    @fuzz
    @given(data=manifests)
    def test_any_manifest(self, workdir, data):
        shutil.copy(SAMPLE, workdir / "a.json")
        (workdir / "manifest.json").write_bytes(data)
        run(["bench", "manifest.json", *DEMO_FLAGS])

    @fuzz
    @given(responses=st.lists(itineraries, min_size=1, max_size=4))
    def test_any_replayed_responses(self, workdir, responses):
        recording = workdir / "rec" / "demo" / "4"
        shutil.rmtree(workdir / "rec", ignore_errors=True)
        recording.mkdir(parents=True)
        for i, response in enumerate(responses, start=1):
            (recording / f"{i:03d}.txt").write_bytes(response)
        run(["generate", "--replay-dir", "rec", *DEMO_FLAGS])

    @fuzz
    @given(body=endpoint_bodies)
    def test_any_endpoint_body(self, workdir, monkeypatch, body):
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))
        run(["generate", "--endpoint", "http://generation.invalid", *DEMO_FLAGS])

    @fuzz
    @given(outcomes=st.lists(payloads | st.just(None), min_size=1, max_size=9))
    def test_any_live_payload(self, workdir, monkeypatch, outcomes):
        """Transport failures (None) and hostile payloads leave legs
        unverifiable; they never end the run."""
        replies = itertools.cycle(outcomes)

        def fetch(url, headers, *, timeout):
            outcome = next(replies)
            if outcome is None:
                raise TransportError("injected failure")
            return outcome

        serve_payloads(monkeypatch, fetch)
        code, _, _ = run(["validate", str(SAMPLE), *LIVE_FLAGS])
        assert code in (0, 1)


class TestHostileJson:
    @pytest.mark.parametrize("data", [DEEP, LONG_NUMBER, NOT_UTF8], ids=["deep", "long-number", "not-utf8"])
    def test_validate_reports_every_file(self, workdir, data):
        (workdir / "a.json").write_bytes(data)
        shutil.copy(SAMPLE, workdir / "b.json")
        code, out, err = run(["validate", "a.json", "b.json", *DEMO_FLAGS])
        assert code == 2
        assert out.splitlines()[0] == "b.json: INVALID (3 issue(s))"
        assert err.startswith("a.json: error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("data", [DEEP, LONG_NUMBER], ids=["deep", "long-number"])
    @pytest.mark.parametrize(
        "argv",
        [["correct", "a.json"], ["validate", str(SAMPLE), "--config", "a.json"], ["bench", "a.json"]],
        ids=["correct", "config", "manifest"],
    )
    def test_whole_run_input_exits_2(self, workdir, data, argv):
        (workdir / "a.json").write_bytes(data)
        code, out, err = run([*argv, *DEMO_FLAGS])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not valid JSON" in err and len(err.splitlines()) == 1

    def test_hostile_response_then_valid_succeeds_on_attempt_2(self, workdir):
        recording = workdir / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        (recording / "001.txt").write_bytes(DEEP)
        shutil.copy(SAMPLE, recording / "002.txt")
        code, out, err = run(["generate", "--replay-dir", "rec", *DEMO_FLAGS])
        assert code == 0
        assert out == (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        assert "generation: 2 attempt(s)" in err

    def test_hostile_live_payload_leaves_legs_unverifiable(self, workdir, monkeypatch):
        serve_payloads(monkeypatch, lambda url, headers, *, timeout: DEEP)
        code, out, _ = run(["validate", str(SAMPLE), "--format", "json", *LIVE_FLAGS])
        assert code == 1
        assert json.loads(out)[0]["unverifiable_segments"] == [0, 1, 2]
