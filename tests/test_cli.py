from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import urllib.request
from datetime import date
from pathlib import Path

import pytest

from itiguard import cli, correction, durations, gateway
from itiguard.cli import main
from itiguard.durations import FixtureProvider
from itiguard.metrics import ManifestEntry, aggregate
from itiguard.model import format_timestamp, parse_itinerary, render_itinerary
from itiguard.prompts import JSON_ERROR_FEEDBACK
from itiguard.validation import ValidationPolicy, validate
from support import CountingProvider, random_corpus, refused_urlopen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO_FLAGS = ["--provider", "fixture", "--fixture-file", str(FIXTURES / "demo_durations.txt")]


def write_itinerary(path: Path, stops: list[tuple[str, str, str, str]]) -> Path:
    doc = {
        "itinerary": [
            {
                "place": f"{name} ({code})",
                "arrival_time": arrival,
                "departure_time": departure,
            }
            for name, code, arrival, departure in stops
        ]
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def short_stay_file(tmp_path) -> Path:
    # Transit gap is exactly t_min for a 60 minute flight; only the first
    # stay (2h) breaks the default 48h rule.
    return write_itinerary(
        tmp_path / "short_stay.json",
        [
            ("Alpha", "AAA", "2025-06-01 08:00", "2025-06-01 10:00"),
            ("Beta", "BBB", "2025-06-01 15:00", "2025-06-04 15:00"),
        ],
    )


@pytest.fixture
def pair_durations(tmp_path) -> Path:
    path = tmp_path / "durations.txt"
    path.write_text("AAA BBB 60\n", encoding="utf-8")
    return path


def pair_flags(pair_durations: Path) -> list[str]:
    return ["--provider", "fixture", "--fixture-file", str(pair_durations)]


class TestValidate:
    @pytest.mark.parametrize(
        "flags, golden", [([], "validate_sample.txt"), (["--format", "json"], "validate_sample.json")]
    )
    def test_report_matches_golden(self, flags, golden, goldens_dir, monkeypatch, capsys):
        # Run from the repository root, so the file name in the report is relative.
        monkeypatch.chdir(FIXTURES.parent)
        code = main(["validate", "fixtures/sample_invalid.json", *flags, *DEMO_FLAGS])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == (goldens_dir / golden).read_text(encoding="utf-8")
        assert captured.err == ""

    def test_invalid_file_exits_1(self, capsys):
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS])
        assert code == 1
        out = capsys.readouterr().out
        assert "INVALID (3 issue(s))" in out
        assert "stay_too_short stop 0 (Sydney (SYD))" in out
        assert "transit_too_short segment 0 (SYD->FRA)" in out
        assert "transit_too_long segment 1 (FRA->CAI)" in out

    def test_valid_file_exits_0(self, capsys):
        code = main(["validate", str(FIXTURES / "sample_corrected.json"), *DEMO_FLAGS])
        assert code == 0
        assert "sample_corrected.json: valid" in capsys.readouterr().out

    def test_mixed_files_exit_1(self, capsys):
        code = main(
            [
                "validate",
                str(FIXTURES / "sample_corrected.json"),
                str(FIXTURES / "sample_invalid.json"),
                *DEMO_FLAGS,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert ": valid" in out
        assert "INVALID" in out

    def test_missing_file_exits_2(self, capsys):
        code = main(["validate", "no_such_file.json", *DEMO_FLAGS])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_error_dominates_invalid(self, capsys):
        code = main(
            ["validate", "no_such_file.json", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS]
        )
        assert code == 2

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["validate", str(bad), *DEMO_FLAGS])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main(
            ["validate", str(FIXTURES / "sample_invalid.json"), "--format", "json", *DEMO_FLAGS]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["file"].endswith("sample_invalid.json")
        assert payload[0]["verdict"] == "invalid"
        kinds = [issue["kind"] for issue in payload[0]["issues"]]
        assert kinds == ["stay_too_short", "transit_too_short", "transit_too_long"]

    def test_json_format_escapes_a_file_name_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / os.fsdecode(b"bad\xff.json")
        path.write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        assert main(["validate", str(path), "--format", "json", *DEMO_FLAGS]) == 1
        out = capsys.readouterr().out
        assert '"file": "' + str(tmp_path) + '/bad\\\\xff.json"' in out
        assert json.loads(out)[0]["file"].encode("utf-8") == bytes(tmp_path) + b"/bad\\xff.json"

    def test_csv_format_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"format": "csv"}')
        code = main(
            ["validate", str(FIXTURES / "sample_invalid.json"), "--config", str(config), *DEMO_FLAGS]
        )
        assert code == 2
        assert "table or json" in capsys.readouterr().err

    def test_live_provider_without_cache_file_fetches_a_repeated_route_once(self, monkeypatch, capsys):
        # Both files fly the same three legs; the second file's lookups are memo hits.
        fetched = []

        def fetch(url, headers, *, timeout):
            fetched.append(url)
            return b'{"hours": 2, "minutes": 0}'

        monkeypatch.setattr(durations, "http_fetch", fetch)
        files = [str(FIXTURES / "sample_invalid.json"), str(FIXTURES / "sample_corrected.json")]
        code = main(["validate", *files, "--provider", "live", "--base-url", "http://durations.invalid"])
        assert code == 1
        base = "http://durations.invalid"
        assert fetched == [f"{base}/SYD/FRA", f"{base}/FRA/CAI", f"{base}/CAI/CMN"]
        assert "Traceback" not in capsys.readouterr().err

    def test_overlap_on_a_leg_without_route_data_exits_1(self, tmp_path, capsys):
        # The demo table has no SYD-OSL route, and the overlap rule needs none.
        path = write_itinerary(
            tmp_path / "overlap.json",
            [
                ("Sydney", "SYD", "2025-06-01 08:00", "2025-06-04 08:00"),
                ("Oslo", "OSL", "2025-06-02 08:00", "2025-06-06 08:00"),
            ],
        )
        assert main(["validate", str(path), *DEMO_FLAGS]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: INVALID (1 issue(s)), 1 unverifiable segment(s)",
            "  - overlap segment 0 (SYD->OSL): observed -48h 0m, required 0h 0m",
        ]

    def test_default_provider_is_great_circle(self, capsys):
        # No provider flags: distances come from the built-in airport table.
        code = main(["validate", str(FIXTURES / "sample_invalid.json")])
        assert code == 1

    def test_files_sharing_routes_ask_the_provider_once_per_route(self, monkeypatch, capsys):
        # The two samples fly the same three legs.
        providers = counted_providers(monkeypatch)
        files = [str(FIXTURES / "sample_invalid.json"), str(FIXTURES / "sample_corrected.json")]
        assert main(["validate", *files, *DEMO_FLAGS]) == 1
        [provider] = providers
        assert provider.routes == [("SYD", "FRA"), ("FRA", "CAI"), ("CAI", "CMN")]
        assert capsys.readouterr().out.splitlines()[0].endswith("INVALID (3 issue(s))")

    @staticmethod
    def validate_over_a_dead_route(tmp_path, monkeypatch, *flags):
        """Run validate with the live provider on three copies of the
        invalid sample, whose FRA->CAI leg fails every fetch. Returns the
        exit code, the files, the fetched URLs and the retry waits."""
        fetched, slept = [], []

        def fetch(url, headers, *, timeout):
            fetched.append(url)
            if url.endswith("/FRA/CAI"):
                raise durations.TransportError("HTTP 503")
            return b'{"hours": 2, "minutes": 0}'

        monkeypatch.setattr(durations, "http_fetch", fetch)
        no_wait = dict(durations.RemoteDurationClient.__init__.__kwdefaults__, sleep=slept.append)
        monkeypatch.setattr(durations.RemoteDurationClient.__init__, "__kwdefaults__", no_wait)
        sample = (FIXTURES / "sample_invalid.json").read_bytes()
        files = []
        for name in ("a.json", "b.json", "c.json"):
            (tmp_path / name).write_bytes(sample)
            files.append(str(tmp_path / name))
        code = main(["validate", *files, "--provider", "live", "--base-url", "http://durations.invalid", *flags])
        assert [url for url in fetched if url.endswith("/FRA/CAI")] == (
            ["http://durations.invalid/FRA/CAI"] * durations.FETCH_ATTEMPTS
        )
        assert len(slept) == durations.FETCH_ATTEMPTS - 1
        return code, files, fetched

    def test_live_route_without_a_duration_is_fetched_once_per_run(self, tmp_path, monkeypatch, capsys):
        # Three files fly the same dead FRA->CAI leg: one round of attempts
        # for the run, and every file still lists the leg as unverifiable.
        code, files, fetched = self.validate_over_a_dead_route(tmp_path, monkeypatch)
        assert code == 1
        assert len(fetched) == durations.FETCH_ATTEMPTS + 2
        captured = capsys.readouterr()
        verdicts = [line for line in captured.out.splitlines() if not line.startswith(" ")]
        assert verdicts == [f"{path}: INVALID (1 issue(s)), 1 unverifiable segment(s)" for path in files]
        assert captured.err == ""

    def test_strict_live_route_without_a_duration_is_fetched_once_per_run(self, tmp_path, monkeypatch, capsys):
        # Strict mode: the first file's failure is remembered, so the later
        # files print the same error line without another round of attempts.
        code, files, fetched = self.validate_over_a_dead_route(tmp_path, monkeypatch, "--strict")
        assert code == 2
        # SYD->FRA once, then FRA->CAI's attempts; CAI->CMN is never reached.
        assert len(fetched) == durations.FETCH_ATTEMPTS + 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line.partition(": error: ")[0] for line in lines] == files
        [message] = {line.partition(": error: ")[2] for line in lines}
        assert message.startswith(f"no flight duration for FRA->CAI after {durations.FETCH_ATTEMPTS} attempt(s)")


class TestCorrect:
    def test_stdout_matches_fixture(self, capsys):
        code = main(["correct", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS])
        assert code == 0
        expected = (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_trace_on_stderr(self, capsys):
        code = main(["correct", str(FIXTURES / "sample_invalid.json"), "--trace", *DEMO_FLAGS])
        assert code == 0
        trace = json.loads(capsys.readouterr().err)
        assert trace["passes"] == 1
        assert len(trace["adjustments"]) == 4

    def test_trace_matches_golden(self, goldens_dir, capsys):
        code = main(["correct", str(FIXTURES / "sample_invalid.json"), "--trace", *DEMO_FLAGS])
        assert code == 0
        assert capsys.readouterr().err == (goldens_dir / "sample_trace.json").read_text(encoding="utf-8")

    def test_valid_input_is_identity(self, capsys):
        code = main(["correct", str(FIXTURES / "sample_corrected.json"), *DEMO_FLAGS])
        assert code == 0
        expected = (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_stay_fix_makes_no_overlap_on_a_leg_without_route_data(self, tmp_path, capsys):
        # The stay fix moves Sydney's departure to 06-03 08:00, past Oslo's
        # arrival, on a leg the demo table has no duration for.
        path = write_itinerary(
            tmp_path / "stay.json",
            [
                ("Sydney", "SYD", "2025-06-01 08:00", "2025-06-02 08:00"),
                ("Oslo", "OSL", "2025-06-02 20:00", "2025-06-06 08:00"),
            ],
        )
        assert main(["correct", str(path), *DEMO_FLAGS]) == 0
        fixed = parse_itinerary(capsys.readouterr().out, None)
        sydney, oslo = fixed.stops
        assert format_timestamp(sydney.departure) == format_timestamp(oslo.arrival) == "2025-06-03 08:00"
        report = validate(fixed, FixtureProvider.from_file(FIXTURES / "demo_durations.txt"))
        assert report.issues == () and report.unverifiable_segments == (0,)

    def test_strict_missing_route_exits_2(self, tmp_path, short_stay_file, capsys):
        empty = tmp_path / "empty_durations.txt"
        empty.write_text("CCC DDD 60\n")
        code = main(
            [
                "correct",
                str(short_stay_file),
                "--strict",
                "--provider",
                "fixture",
                "--fixture-file",
                str(empty),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: no flight duration for AAA->BBB after 1 attempt(s): no fixture duration for route\n"
        )

    def test_missing_input_exits_2(self, capsys):
        assert main(["correct", "no_such.json", *DEMO_FLAGS]) == 2

    def test_stay_pushed_past_year_9999_exits_2(self, tmp_path, capsys):
        path = write_itinerary(
            tmp_path / "late.json", [("Alpha", "AAA", "9999-12-30 10:00", "9999-12-30 12:00")]
        )
        code = main(["correct", str(path), *DEMO_FLAGS])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # The line names the stop and field whose repair left the years the wire can spell.
        assert captured.err == (
            "error: timestamp 4223372280 minutes from 1970, the repaired departure of stop 0, "
            "is outside years 0001-9999\n"
        )

    def test_year_0999_output_reads_back(self, tmp_path, pair_durations, capsys):
        # The first stay (2h) is too short, so correction moves both stops.
        path = write_itinerary(
            tmp_path / "early.json",
            [
                ("Alpha", "AAA", "0999-06-01 08:00", "0999-06-01 10:00"),
                ("Beta", "BBB", "0999-06-01 15:00", "0999-06-04 15:00"),
            ],
        )
        code = main(["correct", str(path), *pair_flags(pair_durations)])
        assert code == 0
        out = capsys.readouterr().out
        original = parse_itinerary(path.read_text(encoding="utf-8"), None)
        corrected = parse_itinerary(out, len(original))
        assert corrected != original
        assert [stop.place for stop in corrected.stops] == [stop.place for stop in original.stops]
        assert '"0999-06-' in out

    def test_issue_left_by_the_pass_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(correction, "_adjustment_pass", lambda stops, *rest: stops)
        code = main(["correct", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: correction did not converge: 3 issue(s) remain after the pass: "
            "[Issue(kind='stay_too_short', subject=0, observed=1200, required=2880), "
            "Issue(kind='transit_too_short', subject=0, observed=720, required=1260), "
            "Issue(kind='transit_too_long', subject=1, observed=6240, required=600)]\n"
        )


class TestGenerate:
    def test_replay_demo_recording(self, capsys):
        code = main(
            [
                "generate",
                "--replay-dir",
                str(FIXTURES / "replay"),
                *DEMO_FLAGS,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        assert "generation: 1 attempt(s); 3 issues found; 4 adjustment(s) applied" in captured.err

    @pytest.mark.parametrize(
        "route", [[], ["--route", "Sydney:SYD,Frankfurt:FRA,Cairo:CAI,Casablanca:CMN"]], ids=["free", "route"]
    )
    def test_trace_matches_golden(self, route, goldens_dir, capsys):
        code = main(["generate", "--replay-dir", str(FIXTURES / "replay"), "--trace", *route, *DEMO_FLAGS])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        # The same four adjustments correct makes on sample_invalid.json.
        assert captured.err == (
            "generation: 1 attempt(s); 3 issues found; 4 adjustment(s) applied\n"
            + (goldens_dir / "sample_trace.json").read_text(encoding="utf-8")
        )

    def test_default_window_is_june_2025(self):
        args = cli.build_parser().parse_args(["generate"])
        assert (args.window_start, args.window_end) == (date(2025, 6, 1), date(2025, 6, 30))

    @pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
    def test_window_takes_a_calendar_date(self, flag):
        args = cli.build_parser().parse_args(["generate", flag, "2025-06-01"])
        assert getattr(args, flag[2:].replace("-", "_")) == date(2025, 6, 1)

    # date.fromisoformat takes the first two on 3.11 only; the wire format
    # refuses all of them on every version.
    @pytest.mark.parametrize("value", ["20250601", "2025-W23-1", "2025-6-1", "2025-02-30", " 2025-06-01"])
    @pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
    def test_window_refuses_other_date_forms(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", flag, value, "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"itiguard generate: error: argument {flag}: invalid date {value!r}; expected YYYY-MM-DD"
        ]

    def test_valid_recording_reports_zero_issues(self, tmp_path, capsys):
        recording = tmp_path / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        (recording / "001.txt").write_text(
            (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        )
        code = main(["generate", "--replay-dir", str(tmp_path / "rec"), *DEMO_FLAGS])
        assert code == 0
        captured = capsys.readouterr()
        assert "generation: 1 attempt(s); 0 issues found; 0 adjustment(s) applied" in captured.err

    def test_trace_on_a_valid_recording_prints_no_trace(self, tmp_path, capsys):
        recording = tmp_path / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        valid = (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        (recording / "001.txt").write_text(valid)
        code = main(["generate", "--replay-dir", str(tmp_path / "rec"), "--trace", *DEMO_FLAGS])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == valid
        assert captured.err == "generation: 1 attempt(s); 0 issues found; 0 adjustment(s) applied\n"

    def test_no_correct_emits_raw(self, capsys):
        code = main(
            ["generate", "--replay-dir", str(FIXTURES / "replay"), "--no-correct", *DEMO_FLAGS]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "sample_invalid.json").read_text(encoding="utf-8")
        assert "3 issues found; 0 adjustment(s) applied" in captured.err

    def test_one_lookup_per_route(self, monkeypatch, capsys):
        # Validation and repair each resolve the bounds; the run's memo
        # answers the second resolution, so each of the 3 routes is asked once.
        providers = counted_providers(monkeypatch)
        code = main(["generate", "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS])
        assert code == 0
        assert "4 adjustment(s) applied" in capsys.readouterr().err
        assert [provider.calls for provider in providers] == [3]
        assert len(set(providers[0].routes)) == 3

    def test_issue_left_by_the_pass_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(correction, "_adjustment_pass", lambda stops, *rest: stops)
        code = main(["generate", "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: correction did not converge" in captured.err

    def test_negative_max_retries_exits_2(self, capsys):
        code = main(
            ["generate", "--replay-dir", str(FIXTURES / "replay"), "--max-retries", "-1", *DEMO_FLAGS]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: max_retries must be >= 0" in err and "Traceback" not in err

    def test_all_malformed_exits_4(self, tmp_path, capsys):
        recording = tmp_path / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        for i in range(1, 5):
            (recording / f"{i:03d}.txt").write_text("not json")
        code = main(["generate", "--replay-dir", str(tmp_path / "rec"), *DEMO_FLAGS])
        assert code == 4
        assert "4 attempts" in capsys.readouterr().err

    def test_non_utf8_response_is_retried(self, tmp_path, capsys):
        recording = tmp_path / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        (recording / "001.txt").write_bytes(b"\xff\xfe garbage")
        (recording / "002.txt").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        code = main(["generate", "--replay-dir", str(tmp_path / "rec"), *DEMO_FLAGS])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        assert "generation: 2 attempt(s)" in captured.err

    def test_recording_exhausted_exits_4(self, tmp_path, capsys):
        recording = tmp_path / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        (recording / "001.txt").write_text("not json")
        code = main(["generate", "--replay-dir", str(tmp_path / "rec"), *DEMO_FLAGS])
        assert code == 4
        assert "exhausted" in capsys.readouterr().err

    def test_missing_recording_dir_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--replay-dir", str(tmp_path / "nope"), *DEMO_FLAGS])
        assert code == 2

    def test_no_client_exits_2(self, capsys):
        code = main(["generate", *DEMO_FLAGS])
        assert code == 2
        assert "--replay-dir or --endpoint" in capsys.readouterr().err

    def test_route_sets_destination_count(self, tmp_path, capsys):
        recording = tmp_path / "rec" / "demo" / "2"
        recording.mkdir(parents=True)
        write_itinerary(
            recording / "001.txt",
            [
                ("Sydney", "SYD", "2025-06-07 10:00", "2025-06-09 10:00"),
                ("Frankfurt", "FRA", "2025-06-10 07:00", "2025-06-12 07:00"),
            ],
        )
        code = main(
            [
                "generate",
                "--replay-dir",
                str(tmp_path / "rec"),
                "--route",
                "Sydney:SYD,Frankfurt:FRA",
                "--cities",
                "Sydney:SYD,Frankfurt:FRA",
                *DEMO_FLAGS,
            ]
        )
        assert code == 0
        assert "0 issues found" in capsys.readouterr().err

    def test_unreachable_endpoint_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(urllib.request, "urlopen", refused_urlopen)
        code = main(["generate", "--endpoint", "http://127.0.0.1:9/x", *DEMO_FLAGS])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: generation endpoint request failed: [Errno 111] Connection refused\n"

    def test_bad_city_spec_exits_2(self, capsys):
        code = main(["generate", "--cities", "Sydney", "--replay-dir", "x", *DEMO_FLAGS])
        assert code == 2
        assert "Name:IATA" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--cities", "--route"])
    def test_empty_city_list_exits_2(self, flag, capsys):
        # Not the demo pool or a free choice: an empty list is refused.
        code = main(["generate", flag, "", "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: city entry '' must look like 'Name:IATA'\n"

    def test_route_city_outside_the_pool_is_named_as_a_place(self, capsys):
        code = main(
            [
                "generate",
                "--cities",
                "Sydney:SYD,Cairo:CAI",
                "--route",
                "Paris:CDG,Cairo:CAI",
                "--replay-dir",
                str(FIXTURES / "replay"),
                *DEMO_FLAGS,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: fixed_sequence city 'Paris (CDG)' is not in city_pool\n"


def counted_providers(monkeypatch) -> list[CountingProvider]:
    """Make each CachedProvider that cli.build_provider builds wrap a
    CountingProvider around the provider it caches, and return the list they
    are collected in: they count what reaches the provider past the memo."""
    providers = []

    def cached(inner, **kwargs):
        providers.append(CountingProvider(inner))
        return durations.CachedProvider(providers[-1], **kwargs)

    monkeypatch.setattr(cli, "CachedProvider", cached)
    return providers


@pytest.mark.parametrize(
    "argv,code",
    [
        (["validate", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS], 1),
        (["correct", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS], 0),
        (["generate", "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS], 0),
        (["bench", str(FIXTURES / "corpus" / "manifest.json"), "--provider", "fixture",
          "--fixture-file", str(FIXTURES / "corpus" / "durations.txt")], 0),
    ],
    ids=["validate", "correct", "generate", "bench"],
)
def test_a_run_builds_one_provider(argv, code, monkeypatch, capsys):
    providers = counted_providers(monkeypatch)
    assert main(argv) == code
    assert len(providers) == 1


class TestBench:
    CORPUS = FIXTURES / "corpus"

    def corpus_flags(self) -> list[str]:
        return ["--provider", "fixture", "--fixture-file", str(self.CORPUS / "durations.txt")]

    def test_each_route_is_resolved_once_per_run(self, goldens_dir, monkeypatch, capsys):
        # 600 legs over 56 directed routes: one lookup per route, not per leg.
        providers = counted_providers(monkeypatch)
        code = main(["bench", str(self.CORPUS / "manifest.json"), "--breakdown", *self.corpus_flags()])
        assert code == 0
        assert capsys.readouterr().out == (goldens_dir / "corpus_bench.txt").read_text(encoding="utf-8")
        [provider] = providers
        assert provider.calls == 56
        assert len(set(provider.routes)) == 56

    @pytest.mark.parametrize("include_stays", [False, True], ids=["transits", "with-stays"])
    def test_json_equals_aggregate_over_validation_without_a_memo(self, tmp_path, include_stays, capsys):
        # Routes repeat across files, about 20% have no duration, and some
        # legs join an airport to itself.
        itineraries, table = random_corpus(random.Random(5150), 150)
        durations_file = tmp_path / "durations.txt"
        durations_file.write_text("".join(f"{a} {b} {m}\n" for (a, b), m in table.items()), encoding="utf-8")
        provider = FixtureProvider(table)
        policy = ValidationPolicy()
        manifest, records = [], []
        for i, itin in enumerate(itineraries):
            entry = ManifestEntry(f"f{i:03d}.json", f"model-{i % 3}", len(itin.stops))
            (tmp_path / entry.file).write_text(render_itinerary(itin), encoding="utf-8")
            manifest.append(entry._asdict())
            records.append((entry, validate(itin, provider, policy)))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["bench", str(tmp_path / "manifest.json"), "--format", "json",
                "--provider", "fixture", "--fixture-file", str(durations_file)]
        assert main(argv + ["--include-stays"] * include_stays) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        expected = aggregate(records, include_stays=include_stays)
        assert json.loads(captured.out) == [row._asdict() for row in expected]
        assert sum(row.unverifiable_count for row in expected) > 0

    def test_bundled_corpus_table(self, capsys):
        code = main(["bench", str(self.CORPUS / "manifest.json"), *self.corpus_flags()])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("Model")
        row_a = next(line for line in lines if line.startswith("model-a"))
        row_b = next(line for line in lines if line.startswith("model-b"))
        assert row_a.split()[1:] == ["4", "48.00%", "21.00%", "0.63"]
        assert row_b.split()[1:] == ["4", "97.00%", "78.00%", "2.34"]

    def test_csv_format(self, capsys):
        code = main(
            ["bench", str(self.CORPUS / "manifest.json"), "--format", "csv", *self.corpus_flags()]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "model-a,4,48.00,21.00,0.63"
        assert lines[2] == "model-b,4,97.00,78.00,2.34"

    def test_json_format(self, capsys):
        code = main(
            ["bench", str(self.CORPUS / "manifest.json"), "--format", "json", *self.corpus_flags()]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        by_tag = {row["model_tag"]: row for row in rows}
        assert by_tag["model-a"]["invalid_itineraries_pct"] == pytest.approx(48.0)
        assert by_tag["model-b"]["segment_issue_count"] == 234
        assert list(rows[0]) == [
            "model_tag",
            "num_cities",
            "total",
            "invalid_itineraries_pct",
            "invalid_segments_pct",
            "avg_issues_per_itinerary",
            "issue_count",
            "segment_issue_count",
            "unverifiable_count",
        ]

    def test_json_matches_golden(self, goldens_dir, capsys):
        code = main(
            ["bench", str(self.CORPUS / "manifest.json"), "--format", "json", *self.corpus_flags()]
        )
        assert code == 0
        assert capsys.readouterr().out == (goldens_dir / "corpus_bench.json").read_text(encoding="utf-8")

    def test_breakdown(self, goldens_dir, capsys):
        code = main(
            ["bench", str(self.CORPUS / "manifest.json"), "--breakdown", *self.corpus_flags()]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == (goldens_dir / "corpus_bench.txt").read_text(encoding="utf-8")

    def test_breakdown_under_a_non_default_policy(self, goldens_dir, capsys):
        # A 2.5h buffer and a 1.5x multiplier move both bounds of every leg.
        policy = ["--buffer-hours", "2.5", "--max-multiplier", "1.5"]
        code = main(
            ["bench", str(self.CORPUS / "manifest.json"), "--breakdown", *self.corpus_flags(), *policy]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == (goldens_dir / "corpus_bench_policy.txt").read_text(encoding="utf-8")

    def test_include_stays_keeps_rates(self, capsys):
        # The corpus has no stay violations, but the denominator widens
        # from 3 to 7 slots per itinerary, so the rate drops.
        code = main(
            [
                "bench",
                str(self.CORPUS / "manifest.json"),
                "--include-stays",
                *self.corpus_flags(),
            ]
        )
        assert code == 0
        row_a = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("model-a")
        )
        assert row_a.split()[3] == "9.00%"

    def test_empty_manifest_header_only(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        code = main(["bench", str(manifest), *self.corpus_flags()])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_corrupt_file_warns_and_continues(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(
            (FIXTURES / "sample_invalid.json").read_text(encoding="utf-8")
        )
        (tmp_path / "bad.json").write_text("nope")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {"file": "good.json", "model_tag": "m", "num_cities": 4},
                    {"file": "bad.json", "model_tag": "m", "num_cities": 4},
                ]
            )
        )
        code = main(["bench", str(manifest), *DEMO_FLAGS])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: skipping bad.json" in captured.err
        row = next(line for line in captured.out.splitlines() if line.startswith("m"))
        assert row.split()[1:] == ["4", "100.00%", "66.67%", "3.00"]

    def test_missing_manifest_exits_2(self, capsys):
        assert main(["bench", "no_manifest.json"]) == 2

    # A relative manifest keeps the OSError text short enough that shorten()
    # would not hide a second copy of the name.
    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_missing_file_warning_names_it_once(self, tmp_path, relative, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": "missing.json", "model_tag": "m", "num_cities": 4}]))
        code = main(["bench", "manifest.json" if relative else str(manifest), *DEMO_FLAGS])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].count("missing.json") == 1
        assert str(tmp_path) not in lines[0]

    @pytest.mark.parametrize(
        "num_cities", ["4.7", '"4"', "true", "NaN"], ids=["fraction", "string", "bool", "nan"]
    )
    def test_num_cities_must_be_an_integer(self, tmp_path, num_cities, capsys):
        (tmp_path / "a.json").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(f'[{{"file": "a.json", "model_tag": "m", "num_cities": {num_cities}}}]')
        code = main(["bench", str(manifest), *DEMO_FLAGS])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: manifest entry 0 has a num_cities that is not a whole number\n"

    @pytest.mark.parametrize("num_cities", [0, -3])
    def test_num_cities_below_1_exits_2(self, tmp_path, num_cities, capsys):
        (tmp_path / "a.json").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": "a.json", "model_tag": "m", "num_cities": num_cities}]))
        code = main(["bench", str(manifest), *DEMO_FLAGS])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: manifest entry 0 has a num_cities below 1\n"

    @pytest.mark.parametrize(
        "file,num_cities",
        [("x" * 300, 4), ("a.json", 10**300)],
        ids=["long-file-name", "301-digit-num_cities"],
    )
    def test_skip_warning_is_short(self, tmp_path, file, num_cities, capsys):
        (tmp_path / "a.json").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": file, "model_tag": "m", "num_cities": num_cities}]))
        code = main(["bench", str(manifest), *DEMO_FLAGS])
        assert code == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: skipping ")
        assert "characters)" in line
        # Two quoted values, file name and error, each at most QUOTE_LIMIT
        # characters plus a length note.
        assert len(line) < 240

    def test_manifest_entry_naming_a_directory_is_skipped(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": "sub", "model_tag": "m", "num_cities": 2}]))
        code = main(["bench", str(manifest), *DEMO_FLAGS])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: skipping sub: Is a directory\n"

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_empty_file_name_names_the_manifest_directory(self, tmp_path, relative, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": "", "model_tag": "m", "num_cities": 2}]))
        code = main(["bench", "manifest.json" if relative else str(manifest), *DEMO_FLAGS])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: skipping : Is a directory\n"

    def test_strict_route_without_a_duration_ends_the_run_naming_file_and_route(self, tmp_path, capsys):
        # The first three routes of the corpus table miss a route of the
        # first file, and of every other one.
        durations = (self.CORPUS / "durations.txt").read_text(encoding="utf-8")
        short = tmp_path / "short.txt"
        short.write_text("".join(durations.splitlines(keepends=True)[:3]), encoding="utf-8")
        argv = ["bench", str(self.CORPUS / "manifest.json"), "--provider", "fixture", "--fixture-file", str(short)]
        assert main([*argv, "--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: model-a-000.json: no flight duration for JFK->HND after 1 attempt(s): "
            "no fixture duration for route\n"
        )
        # Without --strict the same routes are unverifiable, not a reason to skip.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "model-a" in captured.out

    @pytest.mark.parametrize("format", ["json", "csv"])
    def test_breakdown_needs_table_format(self, format, capsys):
        manifest = str(self.CORPUS / "manifest.json")
        code = main(["bench", manifest, "--format", format, "--breakdown", *self.corpus_flags()])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: bench --breakdown needs --format table, not '{format}'"
        ]


class TestBenchNameResolution:
    """bench reads each manifest entry relative to the manifest's directory,
    whatever the working directory; an absolute name is used as it is."""

    # tag -> the entry's file name, relative to the manifest's directory
    # unless absolute (filled in by the manifest fixture).
    NAMES = {"plain": "a.json", "nested": "sub/b.json", "parent": "../up.json", "absolute": None,
             "empty": "", "directory": "sub", "missing": "missing.json"}
    READ = {"plain": 1, "nested": 1, "parent": 1, "absolute": 1}
    SKIPPED = (
        "warning: skipping : Is a directory\n"
        "warning: skipping sub: Is a directory\n"
        "warning: skipping missing.json: No such file or directory\n"
    )

    @pytest.fixture
    def manifest(self, tmp_path, monkeypatch) -> Path:
        """tmp/corpus/manifest.json, run from tmp/work/deep, which holds
        decoys under the same relative names that no run may read."""
        corpus, work = tmp_path / "corpus", tmp_path / "work" / "deep"
        for directory in (corpus / "sub", work / "sub", tmp_path / "elsewhere"):
            directory.mkdir(parents=True)
        absolute = tmp_path / "elsewhere" / "abs.json"
        sample = (FIXTURES / "sample_invalid.json").read_bytes()
        for path in (corpus / "a.json", corpus / "sub" / "b.json", tmp_path / "up.json", absolute):
            path.write_bytes(sample)
        for decoy in (work / "a.json", work / "sub" / "b.json", work.parent / "up.json"):
            decoy.write_text("nope")
        names = dict(self.NAMES, absolute=str(absolute))
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps([{"file": file, "model_tag": tag, "num_cities": 4}
                                        for tag, file in names.items()]))
        monkeypatch.chdir(work)
        return manifest

    def bench(self, manifest: Path | str, capsys) -> tuple[dict[str, int], str]:
        """Each model tag's file count and stderr of a json bench run that exits 0."""
        assert main(["bench", str(manifest), "--format", "json", *DEMO_FLAGS]) == 0
        captured = capsys.readouterr()
        return {row["model_tag"]: row["total"] for row in json.loads(captured.out)}, captured.err

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_names_resolve_against_the_manifests_directory(self, manifest, relative, capsys):
        assert self.bench(os.path.relpath(manifest) if relative else manifest, capsys) == (self.READ, self.SKIPPED)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root is not held to a directory's mode")
    def test_a_manifest_in_an_execute_only_directory_is_read(self, manifest, capsys):
        manifest.parent.chmod(0o311)
        try:
            read, err = self.bench(manifest, capsys)
        finally:
            manifest.parent.chmod(0o755)
        assert read == self.READ
        # The empty name opens the directory itself, which needs read permission.
        assert err == self.SKIPPED.replace(": Is a directory", ": Permission denied", 1)

    def test_a_run_opens_the_manifests_directory_once_and_joins_no_path(self, monkeypatch, capsys):
        opened, joined = [], []
        real_open, real_join = os.open, os.path.join

        def counted_open(path, flags, *args, **kwargs):
            opened.append((path, flags, kwargs.get("dir_fd")))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", counted_open)
        monkeypatch.setattr(os.path, "join", lambda *parts: joined.append(parts) or real_join(*parts))
        corpus = FIXTURES / "corpus"
        code = main(["bench", str(corpus / "manifest.json"), "--provider", "fixture",
                     "--fixture-file", str(corpus / "durations.txt")])
        monkeypatch.undo()
        assert code == 0
        assert [path for path, flags, _ in opened if flags & os.O_DIRECTORY] == [str(corpus)]
        assert sum(dir_fd is not None for _, _, dir_fd in opened) == 200
        assert joined == []

    @pytest.mark.parametrize("run", ["clean", "skip", "strict"])
    def test_no_descriptor_is_left_open(self, tmp_path, run, capsys):
        corpus = FIXTURES / "corpus"
        manifest, durations_file, flags, code = corpus / "manifest.json", corpus / "durations.txt", [], 0
        if run == "skip":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps([{"file": "missing.json", "model_tag": "m", "num_cities": 4}]))
        elif run == "strict":
            # The first three routes of the table miss a route of the first file.
            durations_file = tmp_path / "short.txt"
            lines = (corpus / "durations.txt").read_text(encoding="utf-8").splitlines(keepends=True)
            durations_file.write_text("".join(lines[:3]), encoding="utf-8")
            flags, code = ["--strict"], 2
        before = sorted(os.listdir("/proc/self/fd"))
        assert main(["bench", str(manifest), "--provider", "fixture", "--fixture-file", str(durations_file),
                     *flags]) == code
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert len(capsys.readouterr().err.splitlines()) == (run != "clean")


    def test_a_name_that_does_not_print_is_quoted(self, tmp_path, capsys):
        names = ["a\nwarning: forged.json", "b\x00c.json", "tab\t.json", "café.json", "x\n" * 60]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": name, "model_tag": "m", "num_cities": 4} for name in names]))
        assert main(["bench", str(manifest), *DEMO_FLAGS]) == 0
        assert capsys.readouterr().err == (
            "warning: skipping 'a\\nwarning: forged.json': No such file or directory\n"
            "warning: skipping 'b\\x00c.json': embedded null byte\n"
            "warning: skipping 'tab\\t.json': No such file or directory\n"
            "warning: skipping café.json: No such file or directory\n"
            f"warning: skipping {repr(names[4])[:80]}... (182 characters): No such file or directory\n"
        )

    def test_a_strict_stop_quotes_a_name_that_does_not_print(self, tmp_path, capsys):
        name = "a\nwarning: forged.json"
        (tmp_path / name).write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"file": name, "model_tag": "m", "num_cities": 4}]))
        durations_file = tmp_path / "short.txt"
        durations_file.write_text("SYD FRA 1020\n", encoding="utf-8")
        assert main(["bench", str(manifest), "--provider", "fixture", "--fixture-file", str(durations_file),
                     "--strict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'a\\nwarning: forged.json': no flight duration for FRA->")
        assert err.count("\n") == 1

class TestConfigResolution:
    def test_config_file_applies(self, tmp_path, short_stay_file, pair_durations, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"min_stay_hours": 2.0}')
        without = main(["validate", str(short_stay_file), *pair_flags(pair_durations)])
        with_config = main(
            ["validate", str(short_stay_file), "--config", str(config), *pair_flags(pair_durations)]
        )
        assert without == 1
        assert with_config == 0

    def test_flag_overrides_config(self, tmp_path, short_stay_file, pair_durations, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"min_stay_hours": 48.0}')
        code = main(
            [
                "validate",
                str(short_stay_file),
                "--config",
                str(config),
                "--min-stay-hours",
                "2",
                *pair_flags(pair_durations),
            ]
        )
        assert code == 0

    def test_config_can_set_provider(self, tmp_path, short_stay_file, pair_durations, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "provider": "fixture",
                    "fixture_file": str(pair_durations),
                    "min_stay_hours": 2.0,
                }
            )
        )
        assert main(["validate", str(short_stay_file), "--config", str(config)]) == 0

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"min_stay": 1}')
        code = main(["validate", "whatever.json", "--config", str(config)])
        assert code == 2
        assert "unknown config keys: min_stay" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting", ['{"buffer_hours": "4"}', '{"strict": "yes"}', '{"cache_file": 5}']
    )
    def test_wrong_value_type_exits_2(self, tmp_path, setting, capsys):
        config = tmp_path / "config.json"
        config.write_text(setting)
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: bad configuration: config key" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags,setting",
        [
            (["--buffer-hours", "inf"], None),
            (["--max-multiplier", "inf"], None),
            (["--min-stay-hours", "nan"], None),
            (["--max-multiplier", "nan"], None),
            ([], '{"max_multiplier": 1e308}'),
            ([], '{"buffer_hours": 1e308}'),
            ([], '{"min_stay_hours": -Infinity}'),
            ([], '{"buffer_hours": 1%s}' % ("0" * 400)),
            ([], '{"min_stay_hours": 1%s}' % ("0" * 400)),
            ([], '{"max_multiplier": 1%s}' % ("0" * 400)),
            ([], '{"buffer_hours": 1%s}' % ("0" * 307)),
        ],
        ids=["buffer-inf", "multiplier-inf", "stay-nan", "multiplier-nan",
             "config-multiplier-1e308", "config-buffer-1e308", "config-stay-minus-inf",
             "config-buffer-400-digits", "config-stay-400-digits", "config-multiplier-400-digits",
             "config-buffer-int-1e307"],
    )
    def test_non_finite_policy_number_exits_2(self, tmp_path, flags, setting, capsys):
        if setting is not None:
            config = tmp_path / "config.json"
            config.write_text(setting)
            flags = ["--config", str(config)]
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), *flags, *DEMO_FLAGS])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "flag, key, message",
        [
            ("--buffer-hours", "buffer_hours", "buffer must be <= 5258964959"),
            ("--min-stay-hours", "min_stay_hours", "min_stay must be <= 5258964959"),
        ],
        ids=["buffer", "min-stay"],
    )
    @pytest.mark.parametrize("command", ["validate", "correct"])
    def test_policy_span_the_wire_form_cannot_spell_exits_2(
        self, tmp_path, command, flag, key, message, source, capsys
    ):
        if source == "flag":
            flags = [flag, "1e300"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: 1e300}))
            flags = ["--config", str(config)]
        code = main([command, str(FIXTURES / "sample_invalid.json"), *flags, *DEMO_FLAGS])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, hours, message",
        [
            ("buffer_hours", -0.008, "buffer_hours must not be negative, got -0.008"),
            ("buffer_hours", -0.009, "buffer_hours must not be negative, got -0.009"),
            ("min_stay_hours", -0.001, "min_stay_hours must not be negative, got -0.001"),
            ("buffer_hours", 0.001, "buffer_hours 0.001 rounds to 0 minutes; hours are rounded to the nearest minute"),
            ("min_stay_hours", 0.001, "min_stay_hours 0.001 rounds to 0 minutes; hours are rounded to the nearest minute"),
            ("buffer_hours", 0.0084, None),
            ("buffer_hours", 0.0, None),
            # The largest float is a number of hours, but not of minutes.
            ("buffer_hours", sys.float_info.max,
             "buffer_hours must be a finite number of hours, got 1.7976931348623157e+308"),
        ],
        ids=["buffer-rounds-to-minus-0", "buffer-rounds-to-minus-1", "min-stay-negative",
             "buffer-rounds-to-0", "min-stay-rounds-to-0", "buffer-rounds-to-1", "buffer-0", "buffer-max-float"],
    )
    def test_hours_are_checked_before_rounding_to_minutes(self, tmp_path, key, hours, message, source, capsys):
        if source == "flag":
            flags = ["--" + key.replace("_", "-"), str(hours)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: hours}))
            flags = ["--config", str(config)]
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), *flags, *DEMO_FLAGS])
        captured = capsys.readouterr()
        if message is None:
            assert code == 1 and captured.err == ""
        else:
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["cache_file", "fixture_file", "base_url"])
    def test_null_for_a_key_that_defaults_to_none_is_accepted(self, tmp_path, key, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: None}))
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), "--config", str(config), *DEMO_FLAGS])
        assert code == 1 and capsys.readouterr().err == ""

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["validate", "whatever.json", "--config", str(config)]) == 2

    def test_fixture_provider_requires_file(self, capsys):
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), "--provider", "fixture"])
        assert code == 2
        assert "--fixture-file" in capsys.readouterr().err

    def test_live_provider_requires_base_url(self, capsys):
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), "--provider", "live"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --base-url is required with --provider live\n"

    @pytest.mark.parametrize("scheme", ["file", "data", "none"])
    def test_a_url_that_is_not_http_exits_2_before_any_fetch(self, tmp_path, scheme, capsys):
        # A file: base URL would read this payload from disk as the answer.
        (tmp_path / "SYD").mkdir()
        (tmp_path / "SYD" / "FRA").write_text('{"hours": 3}')
        url = {"file": f"file://{tmp_path}", "data": "data:,x", "none": "foo"}[scheme]
        sample = str(FIXTURES / "sample_invalid.json")
        for argv, what in ((["validate", sample, "--provider", "live", "--base-url", url], "duration service URL"),
                           (["generate", "--endpoint", url, *DEMO_FLAGS], "generation endpoint")):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {what} must use http or https, not {url!r}\n"

    @pytest.mark.parametrize("url", ["http:foo", "http://"])
    def test_a_url_without_a_host_exits_2_before_any_fetch(self, url, monkeypatch, capsys):
        def no_fetch(*args, **kwargs):
            raise AssertionError("fetched")

        monkeypatch.setattr(durations, "http_fetch", no_fetch)
        monkeypatch.setattr(gateway, "http_fetch", no_fetch)
        sample = str(FIXTURES / "sample_invalid.json")
        for argv, what in ((["validate", sample, "--provider", "live", "--base-url", url, "--strict"],
                            "duration service URL"),
                           (["generate", "--endpoint", url, *DEMO_FLAGS], "generation endpoint")):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {what} names no valid host: {url!r}\n"

    def test_default_config_is_the_default_policy(self):
        assert cli.build_policy(cli.AppConfig()) == ValidationPolicy()

    @pytest.mark.parametrize(
        "policy",
        [ValidationPolicy(), ValidationPolicy(min_stay_minutes=90, buffer_minutes=45, max_multiplier=2.5)],
        ids=["default", "patched"],
    )
    def test_help_names_the_policy_defaults(self, policy, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_DEFAULT_POLICY", policy)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        for flag, value in (
            ("--buffer-hours", policy.buffer_minutes / 60),
            ("--min-stay-hours", policy.min_stay_minutes / 60),
            ("--max-multiplier", policy.max_multiplier),
        ):
            entry = help_text[help_text.rindex(flag):]
            assert entry[: entry.index(")") + 1].endswith(f"(default: {value:g})"), entry

    def test_unsupported_bench_format_exits_before_reading_the_corpus(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"format": "xml"}')
        parsed = []
        monkeypatch.setattr(cli, "parse_itinerary", lambda *args: parsed.append(args))
        corpus = FIXTURES / "corpus"
        flags = ["--provider", "fixture", "--fixture-file", str(corpus / "durations.txt")]
        code = main(["bench", str(corpus / "manifest.json"), "--config", str(config), *flags])
        assert code == 2
        assert parsed == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: bad configuration: bench supports --format table, csv or json, not 'xml'"
        ]


COMMON_FLAGS = [
    "--config", "c.json", "--provider", "fixture", "--fixture-file", "f.txt", "--base-url", "http://x",
    "--cache-file", "cache.txt", "--buffer-hours", "2.5", "--min-stay-hours", "24", "--max-multiplier", "1.5",
    "--strict",
]
COMMON_VALUES = dict(
    config="c.json", provider="fixture", fixture_file="f.txt", base_url="http://x", cache_file="cache.txt",
    buffer_hours=2.5, min_stay_hours=24.0, max_multiplier=1.5, strict=True,
)
# The flags no one gave: None, so the config file and the defaults apply.
COMMON_UNSET = dict.fromkeys(COMMON_VALUES)


class TestParser:
    @pytest.mark.parametrize("command", [None, "validate", "correct", "generate", "bench"], ids=str)
    def test_help_matches_golden(self, command, goldens_dir, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        golden = goldens_dir / f"help_{command or 'top'}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_columns_sets_the_wrap_width(self, monkeypatch, capsys):
        helps = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["bench", "--help"])
            # argparse's own parser, whose every formatter sizes itself.
            plain = argparse.ArgumentParser(prog="itiguard bench")
            cli._add_common_arguments(plain)
            cli._add_bench_arguments(plain)
            helps.append(capsys.readouterr().out)
            assert helps[-1] == plain.format_help()
        assert helps[0] != helps[1]

    def test_a_parser_asks_for_the_terminal_size_once(self, monkeypatch):
        calls = []
        size = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or size(*args))
        cli.parse_args(["bench", "m.json", *COMMON_FLAGS, "--format", "csv", "--include-stays", "--breakdown"])
        assert len(calls) == 1
        calls.clear()
        cli.build_parser()
        assert len(calls) == 1 + len(cli._COMMANDS)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["validate", "a.json", "b.json", *COMMON_FLAGS, "--format", "json"],
                dict(COMMON_VALUES, command="validate", inputs=["a.json", "b.json"], format="json"),
            ),
            (
                ["correct", "in.json", *COMMON_FLAGS, "--trace"],
                dict(COMMON_VALUES, command="correct", input="in.json", trace=True),
            ),
            (
                ["generate", *COMMON_FLAGS, "--destinations", "3", "--cities", "Paris:CDG,Tokyo:HND",
                 "--route", "Sydney:SYD,Cairo:CAI", "--window-start", "2025-07-01", "--window-end", "2025-07-15",
                 "--replay-dir", "rec", "--model-tag", "m", "--endpoint", "http://e", "--max-retries", "2",
                 "--no-correct", "--trace"],
                dict(COMMON_VALUES, command="generate", destinations=3, cities="Paris:CDG,Tokyo:HND",
                     route="Sydney:SYD,Cairo:CAI", window_start=date(2025, 7, 1), window_end=date(2025, 7, 15),
                     replay_dir="rec", model_tag="m", endpoint="http://e", max_retries=2, no_correct=True,
                     trace=True),
            ),
            (
                ["bench", "m.json", *COMMON_FLAGS, "--format", "csv", "--include-stays", "--breakdown"],
                dict(COMMON_VALUES, command="bench", manifest="m.json", format="csv", include_stays=True,
                     breakdown=True),
            ),
            (
                ["validate", "a.json"],
                dict(COMMON_UNSET, command="validate", inputs=["a.json"], format=None),
            ),
            (
                ["correct", "in.json"],
                dict(COMMON_UNSET, command="correct", input="in.json", trace=None),
            ),
            (
                ["generate"],
                dict(COMMON_UNSET, command="generate", destinations=4, cities=None, route=None,
                     window_start=date(2025, 6, 1), window_end=date(2025, 6, 30), replay_dir=None,
                     model_tag="demo", endpoint=None, max_retries=3, no_correct=False, trace=None),
            ),
            (
                ["bench", "m.json"],
                dict(COMMON_UNSET, command="bench", manifest="m.json", format=None, include_stays=False,
                     breakdown=False),
            ),
        ],
        ids=["validate-all", "correct-all", "generate-all", "bench-all",
             "validate-none", "correct-none", "generate-none", "bench-none"],
    )
    def test_namespace(self, argv, expected):
        assert cli.parse_args(argv) == argparse.Namespace(**expected)
        assert cli.build_parser().parse_args(argv) == argparse.Namespace(**expected)

    @pytest.fixture
    def built(self, monkeypatch) -> list[str]:
        """The prog of each ArgumentParser built, then each adder run, by name
        ("common" for the flags every command takes)."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        def counted(command, add):
            return lambda parser: (built.append(command), add(parser))

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(cli, "_add_common_arguments", counted("common", cli._add_common_arguments))
        for command, (help_text, add) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, command, (help_text, counted(command, add)))
        return built

    @pytest.mark.parametrize(
        "argv", [["validate", "a.json"], ["correct", "in.json"], ["generate"], ["bench", "m.json"]],
        ids=lambda argv: argv[0],
    )
    def test_a_command_line_builds_one_parser_with_its_commands_arguments(self, argv, built):
        cli.parse_args(argv)
        assert built == [f"itiguard {argv[0]}", "common", argv[0]]

    def test_the_full_path_builds_every_commands_parser(self, built, capsys):
        with pytest.raises(SystemExit):
            cli.parse_args(["validate", "a.json", "--bogus"])
        every = [item for command in cli._COMMANDS for item in (f"itiguard {command}", "common", command)]
        assert built == ["itiguard validate", "common", "validate", "itiguard", *every]

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["bogus"], ["valid", "x"], ["bench"], ["bench", "m.json", "--bogus"],
         ["validate", "a.json", "--bogus", "b.json"], ["--", "validate", "x"], ["-x", "validate", "a"],
         ["generate", "--window-start", "2025-6-1"], ["validate", "--provider", "nope", "x"],
         ["validate", "a.json", "-h", "--bogus"], ["correct", "a", "b"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_main_prints_what_the_full_parser_prints(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for run in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]


LONG = "x" * 300


def stop_doc(place: object, arrival: object = "2025-06-01 08:00") -> dict:
    return {"place": place, "arrival_time": arrival, "departure_time": "2025-06-04 08:00"}


class TestLongValuesInErrors:
    """An error message quotes at most QUOTE_LIMIT characters of a value read
    from outside, and states its full length."""

    @pytest.mark.parametrize(
        "source,doc",
        [
            pytest.param("input", [stop_doc(LONG)], id="place"),
            pytest.param("input", [stop_doc(list(range(300)))], id="place-not-a-string"),
            pytest.param("input", [stop_doc("Sydney (SYD)", LONG)], id="time"),
            pytest.param("input", [stop_doc(f"{LONG} (SYD)", "2025-06-01T08:00")],
                         id="place-of-a-bad-time"),
            pytest.param("config", {"buffer_hours": 10**400}, id="config-number"),
            pytest.param("config", {f"{LONG}{i}": 1 for i in range(3)}, id="config-keys"),
            pytest.param("config", {"format": LONG}, id="config-format"),
            pytest.param("config", {"provider": LONG}, id="config-provider"),
            pytest.param("payload", {"hours": LONG}, id="live-payload"),
            pytest.param("endpoint", {"message": LONG}, id="endpoint"),
        ],
    )
    def test_error_line_is_short(self, tmp_path, monkeypatch, source, doc, capsys):
        sample = str(FIXTURES / "sample_invalid.json")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if source == "input":
            argv = ["validate", str(path), *DEMO_FLAGS]
        elif source == "config":
            argv = ["validate", sample, "--config", str(path)]
        elif source == "endpoint":
            body = path.read_bytes()
            monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))
            argv = ["generate", "--endpoint", "http://generation.test", *DEMO_FLAGS]
        else:
            body = path.read_bytes()
            monkeypatch.setattr(durations, "http_fetch", lambda url, headers, *, timeout: body)
            monkeypatch.setattr(durations, "RETRY_DELAY_SECONDS", 0)
            argv = ["validate", sample, "--provider", "live", "--base-url", "http://api.test",
                    "--strict"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        message = line.split("error: ", 1)[1]
        assert "characters)" in message
        assert len(message) < 200


class TestNonUtf8Input:
    """Bytes that are not UTF-8 in the input file, the config or the bench
    manifest are not valid JSON: exit 2 with one error line."""

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"\xff\xfe[]", id="utf16-bom"),
            pytest.param(
                json.dumps([stop_doc("S\u00e3o Paulo (GRU)")], ensure_ascii=False).encode("latin-1"),
                id="latin-1",
            ),
        ],
    )
    @pytest.mark.parametrize("source", ["validate", "correct", "config", "manifest"])
    def test_exits_2_as_invalid_json(self, tmp_path, source, content, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        sample = str(FIXTURES / "sample_invalid.json")
        argv = {
            "validate": ["validate", str(path), *DEMO_FLAGS],
            "correct": ["correct", str(path), *DEMO_FLAGS],
            "config": ["validate", sample, "--config", str(path)],
            "manifest": ["bench", str(path), *DEMO_FLAGS],
        }[source]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "error: " in line
        assert "not valid JSON" in line
        assert "Traceback" not in captured.err


class TestTextUtf8CannotEncode:
    """A JSON escape such as "\\ud800" decodes to a lone surrogate, which
    UTF-8 cannot encode. A place or a manifest model_tag holding one is
    refused where it is read, so no report stops part-way at it."""

    ERROR = "stop 0 place 'Syd\\ud800ney (SYD)' holds text UTF-8 cannot encode"

    @pytest.fixture
    def surrogate_file(self, tmp_path) -> Path:
        text = (FIXTURES / "sample_invalid.json").read_text(encoding="utf-8")
        path = tmp_path / "sur.json"
        path.write_text(text.replace('"Sydney (SYD)"', '"Syd\\ud800ney (SYD)"'), encoding="utf-8")
        return path

    def test_validate_reports_one_error_line_and_the_other_files(self, surrogate_file, capsys):
        sample = FIXTURES / "sample_invalid.json"
        assert main(["validate", str(surrogate_file), str(sample), *DEMO_FLAGS]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == f"{sample}: INVALID (3 issue(s))"
        assert captured.err == f"{surrogate_file}: error: {self.ERROR}\n"

    def test_correct_exits_2(self, surrogate_file, capsys):
        assert main(["correct", str(surrogate_file), *DEMO_FLAGS]) == 2
        assert capsys.readouterr() == ("", f"error: {self.ERROR}\n")

    def test_generate_retries_with_the_json_feedback(self, surrogate_file, tmp_path, monkeypatch, capsys):
        recording = tmp_path / "rec" / "demo" / "4"
        recording.mkdir(parents=True)
        surrogate_file.rename(recording / "001.txt")
        (recording / "002.txt").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        prompts = []
        complete = gateway.ReplayClient.complete
        monkeypatch.setattr(gateway.ReplayClient, "complete",
                            lambda client, prompt: prompts.append(prompt) or complete(client, prompt))
        assert main(["generate", "--replay-dir", str(tmp_path / "rec"), *DEMO_FLAGS]) == 0
        captured = capsys.readouterr()
        assert captured.out == (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")
        assert "generation: 2 attempt(s)" in captured.err
        assert prompts[1].startswith(JSON_ERROR_FEEDBACK)

    def test_bench_skips_the_file_with_a_warning(self, surrogate_file, capsys):
        (surrogate_file.parent / "good.json").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        manifest = surrogate_file.parent / "manifest.json"
        manifest.write_text(json.dumps([{"file": name, "model_tag": "m", "num_cities": 4}
                                        for name in ("sur.json", "good.json")]))
        assert main(["bench", str(manifest), *DEMO_FLAGS]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: skipping sur.json: {self.ERROR}\n"
        row = next(line for line in captured.out.splitlines() if line.startswith("m"))
        assert row.split()[1:] == ["4", "100.00%", "66.67%", "3.00"]

    @pytest.mark.parametrize("format", ["table", "csv"])
    def test_bench_refuses_such_a_model_tag(self, tmp_path, format, capsys):
        (tmp_path / "a.json").write_bytes((FIXTURES / "sample_invalid.json").read_bytes())
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[{"file": "a.json", "model_tag": "m\\ud800", "num_cities": 4}]')
        assert main(["bench", str(manifest), "--format", format, *DEMO_FLAGS]) == 2
        assert capsys.readouterr() == ("", "error: manifest entry 0 has a model_tag that UTF-8 cannot encode\n")


class TestDirectoryAsInput:
    """A directory where an input file belongs exits 2 with the text of
    pathlib's read error."""

    @pytest.mark.parametrize("source", ["validate", "correct", "config"])
    def test_exits_2_with_one_is_a_directory_line(self, tmp_path, source, capsys):
        d = str(tmp_path)
        argv, err = {
            "validate": (["validate", d], f"{d}: error: [Errno 21] Is a directory: '{d}'\n"),
            "correct": (["correct", d], f"error: [Errno 21] Is a directory: '{d}'\n"),
            "config": (
                ["validate", str(FIXTURES / "sample_invalid.json"), "--config", d],
                f"error: bad configuration: [Errno 21] Is a directory: '{d}'\n",
            ),
        }[source]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


class TestDurationFiles:
    """A cache or fixture file that cannot be read is an input error, exit 2."""

    def run(self, argv, capsys):
        code = main(["correct", str(FIXTURES / "sample_invalid.json"), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == captured.err.splitlines()
        assert len(captured.err.splitlines()) == 1
        return captured.err

    def test_cache_file_is_a_directory(self, tmp_path, capsys):
        err = self.run([*DEMO_FLAGS, "--cache-file", str(tmp_path)], capsys)
        assert str(tmp_path) in err

    def test_fixture_file_is_a_directory(self, tmp_path, capsys):
        err = self.run(["--provider", "fixture", "--fixture-file", str(tmp_path)], capsys)
        assert str(tmp_path) in err

    def test_missing_fixture_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.txt"
        code = main(
            ["validate", str(FIXTURES / "sample_invalid.json"), "--provider", "fixture", "--fixture-file", str(missing)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: fixture file {missing} does not exist\n"


class TestEntrypoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "itiguard",
                "validate",
                str(FIXTURES / "sample_corrected.json"),
                *DEMO_FLAGS,
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "valid" in result.stdout

    def test_ctrl_c_inside_main_exits_130_with_one_line(self, tmp_path):
        # The duration service accepts the connection and never answers, so
        # the run is inside main, waiting on the fetch, when SIGINT lands.
        leg = write_itinerary(
            tmp_path / "leg.json",
            [
                ("Frankfurt", "FRA", "2025-06-01 10:00", "2025-06-03 10:00"),
                ("Cairo", "CAI", "2025-06-03 18:00", "2025-06-06 10:00"),
            ],
        )
        env = {key: value for key, value in os.environ.items() if not key.lower().endswith("_proxy")}
        env["PYTHONPATH"] = str(FIXTURES.parent / "src")
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(60)
            base_url = f"http://127.0.0.1:{server.getsockname()[1]}"
            proc = subprocess.Popen(
                [sys.executable, "-m", "itiguard", "validate", str(leg), "--provider", "live", "--base-url", base_url],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                # As from a terminal: a parent that ignores SIGINT would pass that on.
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
            try:
                conn, _ = server.accept()
                with conn:
                    proc.send_signal(signal.SIGINT)
                    proc.wait(timeout=60)
            finally:
                proc.kill()
                out, err = proc.communicate()
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS],
            ["correct", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS],
            ["generate", "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS],
            ["bench", str(FIXTURES / "corpus" / "manifest.json"), "--provider", "fixture",
             "--fixture-file", str(FIXTURES / "corpus" / "durations.txt")],
            # argparse prints the help and exits before a command runs.
            ["--help"],
            pytest.param(["validate", "--help"], id="validate-help"),
            pytest.param(["correct", "--help"], id="correct-help"),
            pytest.param(["generate", "--help"], id="generate-help"),
            pytest.param(["bench", "--help"], id="bench-help"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_exits_141_with_nothing_on_stderr(self, argv, unbuffered):
        # The read end is closed before the child starts, so its first write
        # to stdout fails, whether it lands in print or in a flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(FIXTURES.parent / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            result = subprocess.run(
                [sys.executable, "-m", "itiguard", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")

    def test_cache_file_past_the_file_size_limit_warns_once_then_loads(self, tmp_path):
        # RLIMIT_FSIZE stands in for a full disk: CPython ignores SIGXFSZ, so
        # a write past the limit fails with EFBIG.
        resource = pytest.importorskip("resource")
        cache = tmp_path / "c.txt"
        codes = [f"Q{a}{b}" for a in "ABCDEFGHIJ" for b in "AB"]
        # 100 eleven-byte lines on routes the sample does not fly.
        cache.write_text("".join(f"{a} {b} 60\n" for a, b in zip(codes, codes[1:] + codes[:1]) for _ in range(5)))
        assert cache.stat().st_size == 1100
        argv = [
            sys.executable, "-m", "itiguard", "correct", str(FIXTURES / "sample_invalid.json"),
            *DEMO_FLAGS, "--cache-file", str(cache),
        ]
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        expected = (FIXTURES / "sample_corrected.json").read_text(encoding="utf-8")

        def run(limit: int | None) -> tuple[int, str, list[str]]:
            def preexec() -> None:
                if limit is not None:
                    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

            result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec)
            return result.returncode, result.stdout, result.stderr.splitlines()

        refused = [f"warning: cannot write cache file {cache}: File too large; continuing without it"]
        # At the file's size no byte fits; five bytes over it, the first
        # append lands torn after five bytes.
        assert run(1100) == (0, expected, refused)
        assert cache.stat().st_size == 1100
        assert run(1105) == (0, expected, refused)
        assert cache.read_bytes()[1100:] == b"SYD F"
        # Without a limit the torn line is skipped with a warning and ended
        # before the first append, so every route the run fetched reads back.
        code, out, err = run(None)
        assert (code, out) == (0, expected)
        assert err == [f"warning: skipping corrupt cache line {cache}:101: 'SYD F'"]
        lines = cache.read_bytes()[1100:].split(b"\n")
        assert lines[0] == b"SYD F" and lines[-1] == b""
        routes = [tuple(line.split()[:2]) for line in lines[1:-1]]
        assert (b"SYD", b"FRA") in routes and len(routes) == len(set(routes))

    def test_interrupt_in_a_command_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_validate", interrupted)
        code = main(["validate", str(FIXTURES / "sample_invalid.json"), *DEMO_FLAGS])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (130, "", "error: interrupted\n")


COLD_START_SCRIPT = """
import contextlib, io, json, sys
import itiguard, itiguard.cli
def loaded():
    return [name in sys.modules for name in ("urllib.request", "http.client", "dataclasses", "inspect", "logging")]
results = [[None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = itiguard.cli.main(argv)
    results.append([code, *loaded()])
print(json.dumps(results))
"""


class TestColdStart:
    """Only --provider live and --endpoint load the HTTP stack: importing the
    package and every offline command leave urllib.request and http.client
    unimported, and dataclasses and inspect with them. No command loads
    logging."""

    def test_offline_commands_leave_the_http_stack_unloaded(self):
        sample = str(FIXTURES / "sample_invalid.json")
        corpus = FIXTURES / "corpus"
        great_circle = ["--provider", "great-circle"]
        commands = [
            (["validate", sample, *DEMO_FLAGS], 1),
            (["validate", sample, *great_circle], 1),
            (["correct", sample, *DEMO_FLAGS], 0),
            (["correct", sample, *great_circle], 0),
            (["bench", str(corpus / "manifest.json"), "--provider", "fixture",
              "--fixture-file", str(corpus / "durations.txt")], 0),
            (["generate", "--replay-dir", str(FIXTURES / "replay"), *DEMO_FLAGS], 0),
        ]
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, json.dumps([argv for argv, _ in commands])],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        results = json.loads(result.stdout)
        assert results == [[None, False, False, False, False, False]] + [
            [code, False, False, False, False, False] for _, code in commands
        ]
