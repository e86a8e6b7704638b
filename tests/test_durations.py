from __future__ import annotations

import errno
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from itiguard import durations
from itiguard.cli import main
from itiguard.durations import (
    CachedProvider,
    FixtureProvider,
    FlightDuration,
    GreatCircleProvider,
    PayloadError,
    RemoteDurationClient,
    RoutePair,
    RouteUnavailable,
    TransportError,
    estimate_duration_great_circle,
    haversine_km,
    load_cache,
    parse_duration_payload,
    save_cache,
)
from itiguard.model import QUOTE_LIMIT, AirportCode, shorten
from support import REFUSED, open_fds, raise_refused

ROOT = Path(__file__).resolve().parent.parent


def route(a: str, b: str) -> RoutePair:
    return RoutePair(AirportCode(a), AirportCode(b))


def opens_of(path: Path, action) -> int:
    """How many 'open' audit events for path action() raises: one per
    open() or os.open() of it."""
    opened = []
    active = [True]

    def hook(event, args):
        # Audit hooks cannot be removed, so this one goes quiet afterwards.
        if active and event == "open" and isinstance(args[0], (str, os.PathLike)):
            if os.fspath(args[0]) == str(path):
                opened.append(args[0])

    sys.addaudithook(hook)
    try:
        action()
    finally:
        active.clear()
    return len(opened)


@contextmanager
def appending(path: Path):
    """A descriptor open on path the way CachedProvider opens its cache file."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        yield fd
    finally:
        os.close(fd)


class TestRoutePair:
    def test_same_airport_rejected(self):
        with pytest.raises(ValueError):
            route("SYD", "SYD")


class TestFlightDuration:
    @pytest.mark.parametrize("minutes", [0, -5, 2881])
    def test_out_of_range(self, minutes):
        with pytest.raises(ValueError):
            FlightDuration(minutes)

    def test_bounds_inclusive(self):
        assert FlightDuration(1).minutes == 1
        assert FlightDuration(2880).minutes == 2880


class TestFixtureProvider:
    def test_lookup(self):
        provider = FixtureProvider({("SYD", "FRA"): 1020})
        assert provider.route_duration(route("SYD", "FRA")).minutes == 1020

    def test_symmetric_fallback(self):
        provider = FixtureProvider({("SYD", "FRA"): 1020})
        assert provider.route_duration(route("FRA", "SYD")).minutes == 1020

    def test_miss(self):
        provider = FixtureProvider({})
        with pytest.raises(RouteUnavailable) as exc:
            provider.route_duration(route("SYD", "FRA"))
        assert exc.value.attempts == 1
        assert str(exc.value) == "no flight duration for SYD->FRA after 1 attempt(s): no fixture duration for route"

    def test_from_file(self, fixtures_dir):
        provider = FixtureProvider.from_file(fixtures_dir / "demo_durations.txt")
        assert provider.route_duration(route("SYD", "FRA")).minutes == 1020
        assert provider.route_duration(route("CMN", "CAI")).minutes == 60

    def test_from_file_reads_its_file_once_and_checks_each_line_once(self, fixtures_dir, monkeypatch):
        path = fixtures_dir / "corpus" / "durations.txt"
        stats, built = [], []
        stat, new = os.stat, FlightDuration.__new__

        def counted_stat(p, *args, **kwargs):
            stats.append(os.fspath(p))
            return stat(p, *args, **kwargs)

        def counted_new(cls, minutes):
            built.append(minutes)
            return new(cls, minutes)

        monkeypatch.setattr(os, "stat", counted_stat)
        monkeypatch.setattr(FlightDuration, "__new__", counted_new)
        providers = []
        assert opens_of(path, lambda: providers.append(FixtureProvider.from_file(path))) == 1
        assert stats.count(str(path)) <= 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(built) == len(lines)
        origin, destination, minutes = lines[0].split()
        assert providers[0].route_duration(route(destination, origin)) == FlightDuration(int(minutes))

    def test_from_missing_file_raises(self, tmp_path):
        # Unlike a cache file, a fixture file the user named must exist.
        with pytest.raises(ValueError, match="nope.txt"):
            FixtureProvider.from_file(tmp_path / "nope.txt")


class TestGreatCircle:
    def test_haversine_known_distance(self):
        # LHR to CDG, reference value computed by hand from the formula.
        d = haversine_km(51.4706, -0.4619, 49.0097, 2.5479)
        assert math.isclose(d, 347.349, abs_tol=0.01)

    def test_haversine_zero(self):
        assert haversine_km(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_haversine_rejects_bad_coords(self):
        with pytest.raises(ValueError):
            haversine_km(91.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "lat,lon,arc", [(90.0, 0.0, 0.5), (-90.0, 0.0, 0.5), (0.0, 180.0, 1.0), (0.0, -180.0, 1.0)]
    )
    def test_haversine_accepts_the_coordinate_edges(self, lat, lon, arc):
        # arc: the distance from (0, 0) as a multiple of half the circumference.
        for d in (haversine_km(lat, lon, 0.0, 0.0), haversine_km(0.0, 0.0, lat, lon)):
            assert math.isclose(d, arc * math.pi * 6371.0)

    @pytest.mark.parametrize(
        "lat,lon",
        [
            (math.nextafter(90.0, math.inf), 0.0),
            (math.nextafter(-90.0, -math.inf), 0.0),
            (0.0, math.nextafter(180.0, math.inf)),
            (0.0, math.nextafter(-180.0, -math.inf)),
        ],
    )
    def test_haversine_rejects_the_next_float_past_each_edge(self, lat, lon):
        with pytest.raises(ValueError, match="invalid coordinates"):
            haversine_km(lat, lon, 0.0, 0.0)
        with pytest.raises(ValueError, match="invalid coordinates"):
            haversine_km(0.0, 0.0, lat, lon)

    def test_estimate_short_hop(self):
        # ceil(347.349 km / 800 kmh * 60) + 30 = ceil(26.05) + 30
        assert estimate_duration_great_circle((51.4706, -0.4619), (49.0097, 2.5479)).minutes == 57

    def test_estimate_identical_points_is_overhead_only(self):
        assert estimate_duration_great_circle((0.0, 0.0), (0.0, 0.0)).minutes == 30

    def test_estimate_antipodal(self):
        # Half the circumference: pi * 6371 km at 800 km/h, plus 30 min.
        assert estimate_duration_great_circle((0.0, 0.0), (0.0, 180.0)).minutes == 1532

    def test_provider_known_airports(self):
        provider = GreatCircleProvider({"LHR": (51.4706, -0.4619), "CDG": (49.0097, 2.5479)})
        assert provider.route_duration(route("LHR", "CDG")).minutes == 57

    def test_provider_unknown_airport(self):
        provider = GreatCircleProvider({"LHR": (51.4706, -0.4619)})
        with pytest.raises(RouteUnavailable) as exc:
            provider.route_duration(route("LHR", "CDG"))
        assert exc.value.attempts == 1
        assert str(exc.value) == "no flight duration for LHR->CDG after 1 attempt(s): no coordinates for airport CDG"


# What a field may hold: a whole number in and around 0-2880, or the JSON
# values that are not one (true and false included).
field_values = st.one_of(
    st.integers(-3000, 3000),
    st.integers(0, 3000),
    st.integers(0, 60),
    st.sampled_from([-1, 1, 47, 48, 49, 2879, 2880, 2881]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.text(alphabet="0123456789 h:", max_size=6),
    st.none(),
)


@st.composite
def payloads(draw) -> object:
    """A flat or nested {"hours": H, "minutes": M} object, each field
    possibly missing; now and then a null or non-object duration, or a
    top-level value that is not an object."""
    fields = {}
    for field in ("hours", "minutes"):
        if draw(st.integers(0, 4)):
            fields[field] = draw(field_values)
    shape = draw(st.sampled_from(["flat", "flat", "nested", "nested", "null", "list", "top-list"]))
    if shape == "flat":
        return fields
    if shape == "nested":
        return {"duration": fields, "ignored": 1}
    if shape == "null":
        return {"duration": None, **fields}
    if shape == "list":
        return {"duration": [fields]}
    return [fields]


def payload_oracle(doc: object) -> int | str:
    """Total minutes of a usable payload, else the PayloadError text."""
    if type(doc) is not dict:
        return "payload is not a JSON object"
    value = doc.get("duration", doc)
    if "duration" in doc and value is None:
        return "duration field is null"
    if type(value) is not dict:
        return "duration field is not an object"
    if not {"hours", "minutes"} & value.keys():
        return "payload carries no hours/minutes fields"
    hours, minutes = value.get("hours", 0), value.get("minutes", 0)
    for field, raw in (("hours", hours), ("minutes", minutes)):
        if type(raw) is not int or raw < 0 or raw > 2880:
            return f"bad {field} value: {raw!r}"
    total = hours * 60 + minutes
    return total if 1 <= total <= 2880 else f"implausible duration: {total} minutes"


class TestPayload:
    def test_flat(self):
        assert parse_duration_payload('{"hours": 10, "minutes": 30}').minutes == 630

    def test_nested(self):
        assert parse_duration_payload('{"duration": {"hours": 2, "minutes": 0}}').minutes == 120

    def test_minutes_only(self):
        assert parse_duration_payload('{"minutes": 95}').minutes == 95

    def test_null_duration(self):
        with pytest.raises(PayloadError):
            parse_duration_payload('{"duration": null}')

    @pytest.mark.parametrize(
        "body",
        [
            "not json",
            "[1, 2]",
            '{"duration": "soon"}',
            '{"foo": 1}',
            '{"hours": true}',
            '{"hours": "2"}',
            '{"hours": 0, "minutes": 0}',
            '{"hours": 50}',
            pytest.param('{"hours": 1, "minutes": -1}', id="negative-minutes-in-a-positive-total"),
            pytest.param('{"minutes": 2881}', id="minutes-past-the-limit"),
            pytest.param(b"[" * 100_000, id="too-deep"),
            pytest.param(b'{"hours": ' + b"1" * 5000 + b"}", id="past-digit-limit"),
            pytest.param(b'{"hours": ' + b"9" * 4299 + b"}", id="4299-digit-hours"),
            pytest.param(b'\xff{"hours": 2}', id="not-utf8"),
        ],
    )
    def test_malformed(self, body):
        with pytest.raises(PayloadError):
            parse_duration_payload(body)

    def test_one_minute_in_all_is_accepted(self):
        assert parse_duration_payload('{"hours": 0, "minutes": 1}').minutes == 1

    @pytest.mark.parametrize("body", ['{"hours": 48}', '{"minutes": 2880}', '{"hours": 47, "minutes": 60}'])
    def test_exactly_the_limit_is_accepted(self, body):
        assert parse_duration_payload(body).minutes == 2880

    def test_fields_in_bounds_but_total_past_the_limit(self):
        # 48 h and 1 min pass their own checks; 2881 minutes in all do not.
        with pytest.raises(PayloadError, match="2881"):
            parse_duration_payload('{"hours": 48, "minutes": 1}')

    @settings(max_examples=600, deadline=None)
    @given(payloads(), st.booleans())
    def test_agrees_with_the_oracle(self, doc, as_bytes):
        body = json.dumps(doc)
        expected = payload_oracle(doc)
        try:
            result = parse_duration_payload(body.encode("utf-8") if as_bytes else body)
        except PayloadError as err:
            assert str(err) == expected
        else:
            assert type(result) is FlightDuration
            assert result == FlightDuration(expected)
            assert type(result.minutes) is int


class FlakyFetch:
    """Fails the first k calls with TransportError, then returns a payload."""

    def __init__(self, failures: int, payload: str = '{"hours": 17, "minutes": 0}'):
        self.failures = failures
        self.payload = payload
        self.calls = 0

    def __call__(self, url: str, headers: dict) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(f"boom {self.calls}")
        return self.payload


class TestRemoteClient:
    def test_success_first_try(self):
        fetch = FlakyFetch(0)
        client = RemoteDurationClient("https://api.test", "key", fetch=fetch, sleep=lambda s: None)
        assert client.route_duration(route("SYD", "FRA")).minutes == 1020
        assert fetch.calls == 1

    @pytest.mark.parametrize("failures,expected_calls", [(1, 2), (2, 3), (3, 3), (5, 3)])
    def test_call_count_is_min_of_failures_plus_one_and_retries(self, failures, expected_calls):
        fetch = FlakyFetch(failures)
        client = RemoteDurationClient("https://api.test", fetch=fetch, sleep=lambda s: None)
        try:
            client.route_duration(route("SYD", "FRA"))
        except RouteUnavailable:
            pass
        assert fetch.calls == expected_calls

    def test_unavailable_after_three_failures(self):
        fetch = FlakyFetch(3)
        client = RemoteDurationClient("https://api.test", fetch=fetch, sleep=lambda s: None)
        with pytest.raises(RouteUnavailable) as exc:
            client.route_duration(route("SYD", "FRA"))
        assert exc.value.attempts == 3

    def test_sleeps_between_attempts_only(self):
        delays = []
        fetch = FlakyFetch(3)
        client = RemoteDurationClient("https://api.test", fetch=fetch, sleep=delays.append)
        with pytest.raises(RouteUnavailable):
            client.route_duration(route("SYD", "FRA"))
        assert delays == [1.0, 1.0]

    def test_null_payload_retried(self):
        bodies = iter(['{"duration": null}', '{"hours": 2}'])
        calls = []

        def fetch(url, headers):
            calls.append(url)
            return next(bodies)

        client = RemoteDurationClient("https://api.test", fetch=fetch, sleep=lambda s: None)
        assert client.route_duration(route("SYD", "FRA")).minutes == 120
        assert len(calls) == 2

    def test_url_and_key_header(self):
        seen = {}

        def fetch(url, headers):
            seen["url"] = url
            seen["headers"] = headers
            return '{"hours": 2}'

        client = RemoteDurationClient("https://api.test/v1/", "secret", fetch=fetch)
        client.route_duration(route("SYD", "FRA"))
        assert seen["url"] == "https://api.test/v1/SYD/FRA"
        assert seen["headers"] == {"X-Api-Key": "secret"}

    def test_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("AERODATABOX_API_KEY", "env-key")
        seen = {}

        def fetch(url, headers):
            seen["headers"] = headers
            return '{"hours": 2}'

        client = RemoteDurationClient("https://api.test", fetch=fetch)
        client.route_duration(route("SYD", "FRA"))
        assert seen["headers"] == {"X-Api-Key": "env-key"}

    def test_default_fetch_uses_requests_get(self, monkeypatch):
        seen = {}

        def get(url, *, headers, timeout):
            seen.update(url=url, headers=headers, timeout=timeout)
            return SimpleNamespace(status_code=200, content=b'{"hours": 2}')

        monkeypatch.setattr(requests, "get", get)
        client = RemoteDurationClient("https://api.test", "key", sleep=lambda s: None)
        assert client.route_duration(route("SYD", "FRA")).minutes == 120
        assert seen == {"url": "https://api.test/SYD/FRA", "headers": {"X-Api-Key": "key"}, "timeout": 30.0}

    @pytest.mark.parametrize("failure", ["status", "connection"])
    def test_default_fetch_failure_is_a_transport_error(self, monkeypatch, failure):
        def get(url, **kwargs):
            if failure == "connection":
                raise requests.ConnectionError("refused")
            return SimpleNamespace(status_code=503, content=b"")

        monkeypatch.setattr(requests, "get", get)
        client = RemoteDurationClient("https://api.test", sleep=lambda s: None)
        with pytest.raises(RouteUnavailable, match="HTTP 503" if failure == "status" else "refused"):
            client.route_duration(route("SYD", "FRA"))

    def test_default_fetch_quotes_a_long_transport_error_shortened(self, monkeypatch):
        text = REFUSED.format(path="/SYD/FRA")

        def get(url, **kwargs):
            raise requests.ConnectionError(text)

        monkeypatch.setattr(requests, "get", get)
        client = RemoteDurationClient("http://127.0.0.1:9", sleep=lambda s: None)
        with pytest.raises(RouteUnavailable) as exc:
            client.route_duration(route("SYD", "FRA"))
        assert exc.value.reason == f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"

    def test_default_fetch_quotes_the_innermost_cause_of_a_chained_error(self, monkeypatch):
        def get(url, **kwargs):
            raise_refused(url)

        monkeypatch.setattr(requests, "get", get)
        client = RemoteDurationClient("http://127.0.0.1:9", sleep=lambda s: None)
        with pytest.raises(RouteUnavailable) as exc:
            client.route_duration(route("SYD", "FRA"))
        assert exc.value.reason == "[Errno 111] Connection refused"
        assert str(exc.value) == "no flight duration for SYD->FRA after 3 attempt(s): [Errno 111] Connection refused"

    @pytest.mark.parametrize("status,ok", [(199, False), (200, True), (299, True), (300, False)])
    def test_default_fetch_accepts_exactly_the_2xx_statuses(self, monkeypatch, status, ok):
        monkeypatch.setattr(
            requests, "get", lambda url, **kwargs: SimpleNamespace(status_code=status, content=b'{"hours": 2}')
        )
        client = RemoteDurationClient("https://api.test", sleep=lambda s: None)
        if ok:
            assert client.route_duration(route("SYD", "FRA")).minutes == 120
        else:
            with pytest.raises(RouteUnavailable, match=f"HTTP {status}"):
                client.route_duration(route("SYD", "FRA"))


class CountingProvider:
    def __init__(self, minutes: int = 300):
        self.calls = 0
        self.minutes = minutes

    def route_duration(self, r: RoutePair) -> FlightDuration:
        self.calls += 1
        return FlightDuration(self.minutes)


class TestCache:
    def test_two_lookups_one_fetch(self):
        inner = CountingProvider()
        provider = CachedProvider(inner)
        provider.route_duration(route("SYD", "FRA"))
        provider.route_duration(route("SYD", "FRA"))
        assert inner.calls == 1

    def test_distinct_routes_fetch_separately(self):
        inner = CountingProvider()
        provider = CachedProvider(inner)
        provider.route_duration(route("SYD", "FRA"))
        provider.route_duration(route("FRA", "SYD"))
        assert inner.calls == 2

    @pytest.mark.parametrize("first_checked", [True, False], ids=["route-pair-first", "plain-pair-first"])
    def test_a_route_pair_and_the_equal_plain_pair_share_one_entry(self, first_checked):
        inner = CountingProvider()
        provider = CachedProvider(inner)
        checked, plain = route("SYD", "FRA"), (AirportCode("SYD"), AirportCode("FRA"))
        assert checked == plain and hash(checked) == hash(plain)
        for key in (checked, plain) if first_checked else (plain, checked):
            assert provider.route_duration(key).minutes == 300
        assert inner.calls == 1

    def test_persists_to_file(self, tmp_path):
        path = tmp_path / "durations.txt"
        inner = CountingProvider(555)
        CachedProvider(inner, path=path).route_duration(route("SYD", "FRA"))
        assert path.read_text() == "SYD FRA 555\n"

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        path = tmp_path / "durations.txt"
        umask = os.umask(0)
        try:
            CachedProvider(CountingProvider(555), path=path).route_duration(route("SYD", "FRA"))
        finally:
            os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666

    def test_preloaded_file_prevents_fetch(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_text("SYD FRA 555\n")
        inner = CountingProvider()
        provider = CachedProvider(inner, path=path)
        assert provider.route_duration(route("SYD", "FRA")).minutes == 555
        # The loaded entry serves the plain pair the validator hands over too.
        assert provider.route_duration((AirportCode("SYD"), AirportCode("FRA"))).minutes == 555
        assert inner.calls == 0

    def test_save_load_round_trip(self, tmp_path):
        cache = {route("SYD", "FRA"): FlightDuration(1020), route("CAI", "CMN"): FlightDuration(60)}
        path = tmp_path / "cache.txt"
        with appending(path) as fd:
            save_cache(cache, fd)
        assert path.read_text() == "CAI CMN 60\nSYD FRA 1020\n"
        assert load_cache(path) == cache

    def test_save_appends_and_the_later_line_wins(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("SYD FRA 1020\n")
        with appending(path) as fd:
            save_cache({route("SYD", "FRA"): FlightDuration(990), route("CAI", "CMN"): FlightDuration(60)}, fd)
        assert path.read_text() == "SYD FRA 1020\nCAI CMN 60\nSYD FRA 990\n"
        assert load_cache(path) == {route("SYD", "FRA"): FlightDuration(990), route("CAI", "CMN"): FlightDuration(60)}

    def test_missing_file_is_empty(self, tmp_path):
        assert len(load_cache(tmp_path / "nope.txt")) == 0

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        # Minutes that int() would take, but that are not ASCII digits, are
        # corrupt too: an underscore, a sign, Arabic-Indic and fullwidth digits.
        path.write_text(
            "SYD FRA 1020\ngarbage line\nCAI CMN notanumber\nCAI CMN 60\n"
            "SYD CAI 9_5\nFRA CMN +120\nSYD CMN \u0661\u0662\u0660\nFRA CAI \uff11\uff12\uff10\n",
            encoding="utf-8",
        )
        cache = load_cache(path)
        assert cache == {route("SYD", "FRA"): FlightDuration(1020), route("CAI", "CMN"): FlightDuration(60)}
        assert warning_lines(capsys) == [
            f"skipping corrupt cache line {path}:{lineno}: {line!r}"
            for lineno, line in [
                (2, "garbage line"), (3, "CAI CMN notanumber"), (5, "SYD CAI 9_5"), (6, "FRA CMN +120"),
                (7, "SYD CMN \u0661\u0662\u0660"), (8, "FRA CAI \uff11\uff12\uff10"),
            ]
        ]

    def test_blank_lines_skipped_without_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_bytes(b"\nSYD FRA 720\n\n  \t\r\nFRA CAI 300\n")
        assert load_cache(path) == {route("SYD", "FRA"): FlightDuration(720), route("FRA", "CAI"): FlightDuration(300)}
        assert capsys.readouterr().err == ""

    def test_same_airport_line_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_text("SYD SYD 100\nSYD FRA 720\n")
        assert load_cache(path) == {route("SYD", "FRA"): FlightDuration(720)}
        assert warning_lines(capsys) == [f"skipping corrupt cache line {path}:1: 'SYD SYD 100'"]

    def test_non_utf8_line_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_bytes(b"SYD FRA 720\n\xff\xfe\nFRA CAI 300\n")
        cache = load_cache(path)
        assert cache == {route("SYD", "FRA"): FlightDuration(720), route("FRA", "CAI"): FlightDuration(300)}
        warnings = warning_lines(capsys)
        assert len(warnings) == 1
        assert "skipping corrupt cache line" in warnings[0] and ":2:" in warnings[0]

    def test_long_corrupt_line_is_quoted_short(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_text("SYD FRA 720\n" + "x" * 5000 + "\n")
        assert load_cache(path) == {route("SYD", "FRA"): FlightDuration(720)}
        quote = shorten(repr("x" * 5000))
        assert quote.endswith("... (5002 characters)")
        assert warning_lines(capsys) == [f"skipping corrupt cache line {path}:2: {quote}"]


class RouteMinutes:
    """Answers a fixed duration per route and records every route it fetches."""

    def __init__(self):
        self.fetched: list[RoutePair] = []

    def route_duration(self, r: RoutePair) -> FlightDuration:
        self.fetched.append(r)
        return FlightDuration(60 + sum(map(ord, str(r))) % 600)


def warning_lines(capsys) -> list[str]:
    """The 'warning: ' lines written to stderr since the last read, without the prefix."""
    return [
        line.removeprefix("warning: ")
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("warning: ")
    ]


class TestAppendOnlyFile:
    def test_each_miss_appends_one_line(self, tmp_path):
        path = tmp_path / "durations.txt"
        original = b"SYD FRA 1020\nCAI CMN 60\n"
        path.write_bytes(original)
        inner = RouteMinutes()
        provider = CachedProvider(inner, path=path)
        missed = [route("FRA", "CAI"), route("CMN", "SYD"), route("FRA", "SYD")]
        answers = {
            r: provider.route_duration(r)
            for r in (route("SYD", "FRA"), route("CAI", "CMN"), *missed, route("FRA", "CAI"))
        }
        assert inner.fetched == missed
        data = path.read_bytes()
        assert data.startswith(original)
        assert data.count(b"\n") == original.count(b"\n") + len(missed)
        assert load_cache(path) == answers

    def test_each_miss_writes_through_save_cache(self, tmp_path, monkeypatch):
        """The module-level save_cache is the one write path; tracing wraps it by name."""
        path = tmp_path / "durations.txt"
        calls = []
        original = durations.save_cache
        monkeypatch.setattr(durations, "save_cache", lambda cache, p: (calls.append(dict(cache)), original(cache, p)))
        provider = CachedProvider(RouteMinutes(), path=path)
        answers = {r: provider.route_duration(r) for r in (route("SYD", "FRA"), route("FRA", "CAI"), route("SYD", "FRA"))}
        assert calls == [{r: d} for r, d in answers.items()]

    def test_two_providers_on_one_file_keep_both_sets(self, tmp_path):
        path = tmp_path / "durations.txt"
        first = CachedProvider(RouteMinutes(), path=path)
        second = CachedProvider(RouteMinutes(), path=path)
        answers = {r: first.route_duration(r) for r in (route("SYD", "FRA"), route("FRA", "CAI"))}
        answers.update({r: second.route_duration(r) for r in (route("CAI", "CMN"), route("CMN", "SYD"))})
        inner = RouteMinutes()
        fresh = CachedProvider(inner, path=path)
        assert {r: fresh.route_duration(r) for r in answers} == answers
        assert inner.fetched == []

    def test_last_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_text("SYD FRA 555", encoding="utf-8")
        provider = CachedProvider(CountingProvider(300), path=path)
        provider.route_duration(route("FRA", "CAI"))
        assert load_cache(path) == {
            route("SYD", "FRA"): FlightDuration(555),
            route("FRA", "CAI"): FlightDuration(300),
        }
        provider.route_duration(route("CAI", "CMN"))
        assert path.read_text(encoding="utf-8") == "SYD FRA 555\nFRA CAI 300\nCAI CMN 300\n"

    def test_building_over_an_existing_file_opens_it_once(self, tmp_path):
        # The torn-line test reads the bytes the load read, not the file again.
        path = tmp_path / "durations.txt"
        path.write_bytes(b"SYD FRA 555\nFRA CAI 300")
        assert opens_of(path, lambda: CachedProvider(RouteMinutes(), path=path)) == 1
        provider = CachedProvider(RouteMinutes(), path=path)
        provider.route_duration(route("CAI", "CMN"))
        provider.close()
        assert path.read_bytes().startswith(b"SYD FRA 555\nFRA CAI 300\nCAI CMN ")

    def test_existing_empty_file_gets_no_leading_newline(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_bytes(b"")
        CachedProvider(CountingProvider(300), path=path).route_duration(route("SYD", "FRA"))
        assert path.read_bytes() == b"SYD FRA 300\n"

    def test_failed_write_warns_once_and_keeps_serving(self, tmp_path, capsys):
        path = tmp_path / "missing" / "durations.txt"
        inner = CountingProvider(300)
        provider = CachedProvider(inner, path=path)
        lookups = [route("SYD", "FRA"), route("FRA", "CAI"), route("SYD", "FRA")]
        minutes = [provider.route_duration(r).minutes for r in lookups]
        assert minutes == [300, 300, 300]
        assert inner.calls == 2
        warnings = warning_lines(capsys)
        assert len(warnings) == 1
        assert warnings[0].startswith("cannot write cache file ")
        assert not path.parent.exists()

    def test_failed_write_warning_names_the_path_once(self, tmp_path, capsys):
        path = tmp_path / "missing" / "durations.txt"
        CachedProvider(CountingProvider(300), path=path).route_duration(route("SYD", "FRA"))
        (warning,) = warning_lines(capsys)
        assert warning.count(str(path)) == 1
        assert warning.count("missing") == 1
        assert warning.endswith("; continuing without it")

    def test_a_failed_write_after_the_open_warns_once_and_closes_the_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "durations.txt"
        inner = CountingProvider(300)
        provider = CachedProvider(inner, path=path)
        before = open_fds()

        def disk_full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(durations.os, "write", disk_full)
        lookups = [route("SYD", "FRA"), route("FRA", "CAI"), route("SYD", "FRA")]
        minutes = [provider.route_duration(r).minutes for r in lookups]
        monkeypatch.undo()
        assert minutes == [300, 300, 300]
        assert inner.calls == 2
        assert warning_lines(capsys) == [
            f"cannot write cache file {path}: {os.strerror(errno.ENOSPC)}; continuing without it"
        ]
        assert open_fds() == before
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("release", ["close", "del"])
    def test_a_miss_holds_one_descriptor_until_the_provider_is_released(self, tmp_path, release):
        path = tmp_path / "durations.txt"
        before = open_fds()
        inner = RouteMinutes()
        provider = CachedProvider(inner, path=path)
        assert open_fds() == before
        provider.route_duration(route("SYD", "FRA"))
        provider.route_duration(route("FRA", "CAI"))
        assert open_fds() == before + 1
        if release == "close":
            provider.close()
            assert open_fds() == before
            provider.route_duration(route("CAI", "CMN"))
            assert inner.fetched[-1] == route("CAI", "CMN")
        else:
            del provider
        assert open_fds() == before
        assert load_cache(path).keys() == {route("SYD", "FRA"), route("FRA", "CAI")}

    def test_a_provider_that_only_hits_opens_nothing(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_bytes(b"SYD FRA 555\nFRA CAI 300")
        before = open_fds()
        inner = RouteMinutes()
        provider = CachedProvider(inner, path=path)
        for r in (route("SYD", "FRA"), route("FRA", "CAI"), route("SYD", "FRA")):
            provider.route_duration(r)
        assert inner.fetched == []
        assert open_fds() == before
        assert path.read_bytes() == b"SYD FRA 555\nFRA CAI 300"

    def test_a_file_replaced_mid_run_gets_no_later_lines(self, tmp_path):
        """The provider keeps appending to the file it opened, not to the new one at its path."""
        path = tmp_path / "durations.txt"
        provider = CachedProvider(CountingProvider(300), path=path)
        provider.route_duration(route("SYD", "FRA"))
        path.unlink()
        path.write_bytes(b"CAI CMN 60\n")
        provider.route_duration(route("FRA", "CAI"))
        assert path.read_bytes() == b"CAI CMN 60\n"

    def test_concurrent_processes_keep_every_route(self, tmp_path):
        """Writers in separate processes, released together, append to one file."""
        path = tmp_path / "durations.txt"
        codes = [a + b + c for a in "ABCD" for b in "EFG" for c in "HI"]
        routes = [(o, d) for o in codes for d in codes if o != d]
        workers = 4
        script = textwrap.dedent(
            """
            import sys
            from itiguard.durations import CachedProvider, FlightDuration, RoutePair
            from itiguard.model import AirportCode

            class Minutes:
                def route_duration(self, r):
                    return FlightDuration(60 + sum(map(ord, str(r))) % 600)

            path, worker, workers = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
            routes = [line.split() for line in sys.argv[4].split(",")]
            provider = CachedProvider(Minutes(), path=path)
            print("ready", flush=True)
            sys.stdin.readline()
            for origin, dest in routes[worker::workers]:
                provider.route_duration(RoutePair(AirportCode(origin), AirportCode(dest)))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        listed = ",".join(f"{o} {d}" for o, d in routes)
        children = []
        try:
            for worker in range(workers):
                children.append(
                    subprocess.Popen(
                        [sys.executable, "-c", script, str(path), str(worker), str(workers), listed],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
                    )
                )
            for child in children:
                assert child.stdout.readline() == "ready\n"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.close()
            assert [child.wait(timeout=60) for child in children] == [0] * workers
        finally:
            for child in children:
                child.kill()
                child.stdin.close()
                child.stdout.close()
                child.wait()
        expected = {
            route(o, d): RouteMinutes().route_duration(route(o, d)) for o, d in routes
        }
        assert load_cache(path) == expected
        assert path.read_text(encoding="utf-8").count("\n") == len(routes)


class TestCacheFileThroughCli:
    """A cache file that cannot be written leaves stdout and the exit code as without one."""

    @pytest.mark.parametrize("command", ["correct", "bench", "generate"])
    def test_unwritable_cache_file_changes_nothing(self, command, fixtures_dir, tmp_path, capsys):
        demo = ["--provider", "fixture", "--fixture-file", str(fixtures_dir / "demo_durations.txt")]
        argv = {
            "correct": ["correct", str(fixtures_dir / "sample_invalid.json"), *demo],
            "bench": [
                "bench", str(fixtures_dir / "corpus" / "manifest.json"),
                "--provider", "fixture", "--fixture-file", str(fixtures_dir / "corpus" / "durations.txt"),
            ],
            "generate": ["generate", "--replay-dir", str(fixtures_dir / "replay"), *demo],
        }[command]
        expected_code = main(argv)
        expected = capsys.readouterr()
        code = main([*argv, "--cache-file", str(tmp_path / "missing" / "cache.txt")])
        captured = capsys.readouterr()
        assert code == expected_code == 0
        assert captured.out == expected.out
        assert "Traceback" not in captured.err
        assert "skipping" not in captured.err
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning: ")]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: cannot write cache file ")


ROUTES = [route(a, b) for a in ("SYD", "FRA", "CAI", "CMN") for b in ("SYD", "FRA", "CAI", "CMN") if a != b]


class SharedCacheFile(RuleBasedStateMachine):
    """Two providers over one cache file, each reopened at will."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.path = Path(self.dir) / "durations.txt"
        self.returned: dict[RoutePair, FlightDuration] = {}
        self.providers = [self.open_provider() for _ in range(2)]

    def open_provider(self) -> tuple[CachedProvider, RouteMinutes, set[RoutePair]]:
        inner = RouteMinutes()
        return CachedProvider(inner, path=self.path), inner, set(self.returned)

    @rule(which=st.sampled_from([0, 1]), r=st.sampled_from(ROUTES))
    def lookup(self, which, r):
        provider, _, _ = self.providers[which]
        duration = provider.route_duration(r)
        assert self.returned.setdefault(r, duration) == duration

    @rule(which=st.sampled_from([0, 1]))
    def reopen(self, which):
        self.providers[which] = self.open_provider()

    @invariant()
    def file_holds_every_duration_returned(self):
        assert load_cache(self.path) == self.returned

    @invariant()
    def no_provider_fetches_a_route_twice_or_one_on_disk_at_open(self):
        for _, inner, known_at_open in self.providers:
            assert len(inner.fetched) == len(set(inner.fetched))
            assert not known_at_open.intersection(inner.fetched)

    def teardown(self):
        shutil.rmtree(self.dir)


TestSharedCacheFile = SharedCacheFile.TestCase
TestSharedCacheFile.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
