from __future__ import annotations

import errno
import itertools
import json
import os
import random
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itiguard import model
from itiguard.durations import FixtureProvider
from itiguard.model import (
    AirportCode,
    BadPlaceFormatError,
    FormatError,
    InsufficientStopsError,
    InvalidJsonError,
    InvalidTimeFormatError,
    Itinerary,
    MissingFieldError,
    Stop,
    cause_text,
    format_minutes,
    format_timestamp,
    load_json,
    parse_itinerary,
    parse_place,
    parse_timestamp,
    read_file,
    render_itinerary,
    shorten,
)
from itiguard.validation import IssueKind, ValidationPolicy, validate
from support import open_fds, oracle_parse_itinerary, oracle_parse_place, random_itinerary


class TestTimestamp:
    def test_parse_example(self):
        ts = parse_timestamp("2024-03-20 14:30")
        assert format_timestamp(ts) == "2024-03-20 14:30"

    def test_parse_midnight(self):
        assert format_timestamp(parse_timestamp("2024-03-20 00:00")) == "2024-03-20 00:00"

    @pytest.mark.parametrize(
        "raw",
        [
            "2024-3-20 1:5",
            "2024-03-20 14:30:00",
            "2024-03-20T14:30",
            "2024-03-20 14:30 UTC",
            "2024-03-20 14:30Z",
            "2024-03-20 2:30 PM",
            "20-03-2024 14:30",
            "2024-03-20",
            "",
            "2024-03-20  14:30",
            "2024-03-20 14:30\n",
            "\u0662\u0660\u0662\u0664-03-20 14:30",  # Arabic-Indic digits: the wire form is ASCII
            "2024-03-20 1\u0664:30",
            "2024-03-20 14:3\u0660",
            "2024-03-20_14:30",
            "2024-03-20\t14:30",
            "2024-03-20\u00a014:30",
            "2024-03-20\n14:30",
            # 16 characters with the space at index 10: only the clock half rejects these.
            "2025-06-01 \uff11\uff12:\uff10\uff10",  # full-width digits
            "2025-06-01 \u0661\u0662:\u0663\u0660",  # Arabic-Indic digits
            "2025-06-01  7:05",
            "2025-06-01 7:05 ",
            "2025-06-01 +7:05",
            "2025-06-01 07:5 ",
            "2025-06-01 7:05\n",
            "2025-06-01 07-05",
        ],
    )
    def test_parse_rejects_deviations(self, raw):
        with pytest.raises(InvalidTimeFormatError):
            parse_timestamp(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            "2024-13-01 10:00",
            "2024-02-30 10:00",
            "2024-03-20 24:00",
            "0000-01-01 00:00",
            "1900-02-29 10:00",
            "2100-02-29 10:00",
        ],
    )
    def test_parse_rejects_impossible_dates(self, raw):
        # These pass the shape check but not the calendar.
        with pytest.raises(InvalidTimeFormatError):
            parse_timestamp(raw)

    def test_parse_rejects_non_string(self):
        with pytest.raises(InvalidTimeFormatError):
            parse_timestamp(1430)  # type: ignore[arg-type]

    @given(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1)))
    @settings(max_examples=200)
    def test_text_parse_round_trip(self, dt):
        text = dt.strftime("%Y-%m-%d %H:%M")
        assert format_timestamp(parse_timestamp(text)) == text

    @given(
        st.integers(1, 9999), st.integers(0, 13), st.integers(0, 32), st.integers(0, 25), st.integers(0, 61)
    )
    @settings(max_examples=500)
    def test_parse_agrees_with_strptime(self, year, month, day, hour, minute):
        text = f"{year:04d}-{month:02d}-{day:02d} {hour:02d}:{minute:02d}"
        try:
            expected = (datetime.strptime(text, "%Y-%m-%d %H:%M") - datetime(1970, 1, 1)) // timedelta(minutes=1)
        except ValueError:
            expected = None
        try:
            got = parse_timestamp(text)
        except InvalidTimeFormatError:
            got = None
        assert got == expected

    @pytest.mark.parametrize(
        "text", ["0001-01-01 00:00", "0999-12-31 23:59", "2000-02-29 00:00", "9999-12-31 23:59"]
    )
    def test_round_trip_at_the_year_range_ends(self, text):
        # Years below 1000 are zero-padded, so they read back.
        ts = parse_timestamp(text)
        assert format_timestamp(ts) == text
        assert parse_timestamp(format_timestamp(ts)) == ts

    # One minute before 0001-01-01 00:00 and one after 9999-12-31 23:59.
    @pytest.mark.parametrize("minutes", [-1035593281, 4223371680])
    def test_text_outside_the_year_range_raises(self, minutes):
        with pytest.raises(ValueError, match="outside years 0001-9999"):
            format_timestamp(minutes)

    def test_every_two_digit_clock(self):
        for hour in range(100):
            for minute in range(100):
                text = f"2025-06-01 {hour:02d}:{minute:02d}"
                if hour < 24 and minute < 60:
                    assert format_timestamp(parse_timestamp(text)) == text
                else:
                    with pytest.raises(InvalidTimeFormatError):
                        parse_timestamp(text)

    def test_every_day_1900_to_2100_agrees_with_datetime(self):
        epoch = datetime(1970, 1, 1)
        day = datetime(1900, 1, 1, 13, 7)
        while day.year <= 2100:
            expected = (day - epoch) // timedelta(minutes=1)
            assert parse_timestamp(day.strftime("%Y-%m-%d %H:%M")) == expected
            day += timedelta(days=1)

    @pytest.mark.parametrize("raw", ["2025-02-29 10:00", "2025-06-31 10:00", "2025-06-01 24:00"])
    def test_rejected_twice(self, raw):
        # The memo keeps rejected halves too; a second parse must reject again.
        for _ in range(2):
            with pytest.raises(InvalidTimeFormatError):
                parse_timestamp(raw)

    def test_memos_are_bounded(self):
        start = parse_timestamp("2000-01-01 00:00")
        for day in range(model._MEMO_SIZE + 100):
            parse_timestamp(format_timestamp(start + day * 24 * 60 + day % 1440))
        # More distinct dates than a memo holds: the date memos stay full.
        for memo in (model._date_days, model._date_text):
            assert memo.cache_info().currsize == model._MEMO_SIZE
        # The clock half needs no memo: two fixed tables hold every clock of a day.
        assert len(model._CLOCK_MINUTES) == len(model._CLOCK_TEXTS) == 24 * 60
        for minute_of_day in range(24 * 60):
            assert model._CLOCK_MINUTES[model._CLOCK_TEXTS[minute_of_day]] == minute_of_day

    def test_arithmetic(self):
        a = parse_timestamp("2025-06-01 10:00")
        b = parse_timestamp("2025-06-02 11:30")
        assert b - a == 25 * 60 + 30
        assert type(b - a) is int and type(a + 1) is int
        assert a + (25 * 60 + 30) == b
        assert a - b == -(25 * 60 + 30)
        # A timestamp is a plain int: its minute count since 1970.
        assert type(a) is int
        assert parse_timestamp("1970-01-02 00:01") == 24 * 60 + 1
        assert parse_timestamp("1969-12-31 23:59") == -1

    def test_ordering(self):
        a = parse_timestamp("2025-06-01 10:00")
        b = parse_timestamp("2025-06-01 10:01")
        assert a < b
        assert max(a, b) == b


class TestAirportCode:
    def test_valid(self):
        assert str(AirportCode("SYD")) == "SYD"
        assert str(AirportCode("ABC")) == "ABC"

    @pytest.mark.parametrize("raw", ["syd", "SYDX", "SY", "S7D", "", "SY D", "ABC\n"])
    def test_invalid(self, raw):
        with pytest.raises(ValueError):
            AirportCode(raw)

    def test_is_a_str_that_equals_its_code(self):
        code = AirportCode("SYD")
        assert isinstance(code, str)
        assert code == "SYD" and hash(code) == hash("SYD")
        assert code != ("SYD",)
        assert {("SYD", "FRA"): 1}[(code, AirportCode("FRA"))] == 1
        assert type(str(code)) is str and f"{code}->x" == "SYD->x"
        assert json.dumps({"airport": code}) == '{"airport": "SYD"}'
        assert repr(code) == "AirportCode(code='SYD')"


class TestParsePlace:
    def test_simple(self):
        assert parse_place("Sydney (SYD)", 0) == ("Sydney", AirportCode("SYD"))

    def test_last_parenthetical_wins(self):
        name, code = parse_place("Foo (Bar) (SYD)", 0)
        assert name == "Foo (Bar)"
        assert str(code) == "SYD"

    @pytest.mark.parametrize(
        "raw",
        ["Sydney", "Sydney (SYDX)", "(SYD)", "Sydney (syd)", "Syd\ud800ney (SYD)", "\udfffSydney (SYD)",
         42, 4.5, True, None, ["Sydney (SYD)"], {"Sydney": "SYD"}],
    )
    def test_rejects_bad_shapes(self, raw):
        with pytest.raises(BadPlaceFormatError) as exc:
            parse_place(raw, 3)
        assert exc.value.stop_index == 3


def outcome(parse, text, expected_stops):
    """What a parse gives: ("ok", itinerary) or ("error", type, message)."""
    try:
        return ("ok", parse(text, expected_stops))
    except (FormatError, ValueError) as err:
        return ("error", type(err), str(err))


GOOD_PLACES = st.one_of(
    st.sampled_from(["Sydney (SYD)", "Foo (Bar) (CAI)", "  Frankfurt (FRA)  ", "City " * 20 + "(SYD)"]),
    st.text(min_size=1, max_size=8).map(lambda name: f"x{name} (CMN)"),
)
BAD_PLACES = st.one_of(
    st.sampled_from(["Sydney", "(SYD)", "Sydney (syd)", "Sydney (SYDX)", "", "  (CAI)", "City " * 20 + "(syd)",
                     "Syd\ud800ney (SYD)", "City " * 20 + "\udc80 (SYD)"]),
    st.text(max_size=12),
    st.integers(),
    st.booleans(),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
GOOD_TIMES = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)).map(
    lambda moment: f"{moment.year:04d}-{moment:%m-%d %H:%M}"
)
BAD_TIMES = st.one_of(
    st.sampled_from(
        ["2025-02-29 10:00", "2025-06-01 24:00", "2025-06-01T10:00", "2025-6-1 10:00", "0000-01-01 00:00"]
    ),
    st.text(max_size=17),
    st.integers(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
)
GOOD_STOPS = st.fixed_dictionaries({"place": GOOD_PLACES, "arrival_time": GOOD_TIMES, "departure_time": GOOD_TIMES})
BAD_VALUES = {"place": BAD_PLACES, "arrival_time": BAD_TIMES, "departure_time": BAD_TIMES}


@st.composite
def broken_stops(draw):
    """A good stop with one to three fields given a bad value, made null or
    dropped; or a stop that is not an object."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)))
    stop = draw(GOOD_STOPS)
    for field in draw(st.lists(st.sampled_from(sorted(BAD_VALUES)), min_size=1, max_size=3, unique=True)):
        how = draw(st.sampled_from(["bad", "bad", "null", "drop"]))
        if how == "bad":
            stop[field] = draw(BAD_VALUES[field])
        elif how == "null":
            stop[field] = None
        else:
            del stop[field]
    return stop


@st.composite
def documents(draw):
    """Good stops with up to two of them broken, bare or wrapped."""
    stops = draw(st.lists(GOOD_STOPS, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        stops[draw(st.integers(0, len(stops) - 1))] = draw(broken_stops())
    return {"itinerary": stops} if draw(st.booleans()) else stops


class TestParseAgainstOracle:
    """The memoised place parse and the flat stop loop against the
    field-by-field loop they replaced (tests/support.py)."""

    @settings(max_examples=400, deadline=None)
    @given(documents(), st.sampled_from([None, None, "all", 0, 3]))
    def test_same_itinerary_or_same_first_error(self, doc, expected_stops):
        if expected_stops == "all":
            expected_stops = len(doc["itinerary"] if isinstance(doc, dict) else doc)
        text = json.dumps(doc)
        assert outcome(parse_itinerary, text, expected_stops) == outcome(
            oracle_parse_itinerary, text, expected_stops
        )

    def test_every_corpus_file_parses_as_the_oracle_does(self, fixtures_dir):
        for path in sorted((fixtures_dir / "corpus").glob("model-*.json")):
            data = path.read_bytes()
            assert parse_itinerary(data, None) == oracle_parse_itinerary(data, None)

    def test_same_bad_place_at_two_indices(self):
        # The memo holds the rejection; each error still names its own stop.
        for index in (1, 4, 1):
            with pytest.raises(BadPlaceFormatError) as exc:
                parse_place("Nowhere (nope)", index)
            assert exc.value.stop_index == index
            assert str(exc.value) == f"stop {index} place 'Nowhere (nope)' does not match 'City Name (IATA)'"

    @pytest.mark.parametrize("suffix", ["(SYD)", "(syd)"])
    def test_over_long_place_is_parsed_uncached(self, suffix):
        raw = "Long " * 13 + suffix
        assert len(raw) > model._PLACE_KEY_LIMIT
        before = model._place_parts.cache_info().currsize
        assert outcome(parse_place, raw, 0) == outcome(oracle_parse_place, raw, 0)
        assert outcome(parse_place, raw, 0) == outcome(oracle_parse_place, raw, 0)
        assert model._place_parts.cache_info().currsize == before

    def test_place_at_the_limit_is_memoised(self):
        raw = "x" * (model._PLACE_KEY_LIMIT - 6) + " (SYD)"
        assert len(raw) == model._PLACE_KEY_LIMIT
        parse_place(raw, 0)
        hits = model._place_parts.cache_info().hits
        assert parse_place(raw, 0) == ("x" * (model._PLACE_KEY_LIMIT - 6), AirportCode("SYD"))
        assert model._place_parts.cache_info().hits == hits + 1

    def test_place_memo_is_bounded(self):
        assert model._place_parts.cache_info().maxsize == model._MEMO_SIZE


class TestParseItinerary:
    def test_wrapped_document(self, fixtures_dir):
        itin = parse_itinerary((fixtures_dir / "sample_invalid.json").read_text(), 4)
        assert len(itin) == 4
        assert str(itin.stops[0].airport) == "SYD"
        assert itin.stops[0].arrival == parse_timestamp("2025-06-07 10:00")
        assert itin.stops[3].place == "Casablanca (CMN)"

    def test_bare_array(self):
        doc = json.dumps(
            [
                {"place": "Sydney (SYD)", "arrival_time": "2025-06-01 10:00", "departure_time": "2025-06-03 10:00"},
            ]
        )
        itin = parse_itinerary(doc, 1)
        assert len(itin) == 1
        assert itin.stops[0].place == "Sydney (SYD)"

    def test_stop_count_enforced(self, fixtures_dir):
        text = (fixtures_dir / "sample_invalid.json").read_text()
        with pytest.raises(InsufficientStopsError) as exc:
            parse_itinerary(text, 5)
        assert exc.value.expected == 5
        assert exc.value.actual == 4

    def test_none_skips_count_check(self, fixtures_dir):
        text = (fixtures_dir / "sample_invalid.json").read_text()
        assert len(parse_itinerary(text, None)) == 4

    @pytest.mark.parametrize("text", ["[]", '{"itinerary": []}'], ids=["bare", "wrapped"])
    def test_no_stops_is_invalid_json(self, text):
        with pytest.raises(InvalidJsonError) as exc:
            parse_itinerary(text, None)
        assert str(exc.value) == "an itinerary needs at least one stop"

    def test_bad_expected_stops(self):
        with pytest.raises(ValueError):
            parse_itinerary("[]", 0)

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "{]",
            "42",
            '"hello"',
            pytest.param("[" * 100_000, id="too-deep"),
            pytest.param("[" + "1" * 5000 + "]", id="past-digit-limit"),
        ],
    )
    def test_garbage_is_invalid_json(self, text):
        with pytest.raises(InvalidJsonError):
            parse_itinerary(text, 1)

    def test_load_json_rejects_bytes_that_are_not_utf8(self):
        with pytest.raises(InvalidJsonError):
            load_json(b'\xff["x"]')

    def test_wrong_wrapper_key(self):
        with pytest.raises(MissingFieldError) as exc:
            parse_itinerary('{"stops": []}', 1)
        assert exc.value.field == "itinerary"

    def test_missing_field_named(self):
        doc = json.dumps({"itinerary": [{"place": "Sydney (SYD)", "arrival_time": "2025-06-01 10:00"}]})
        with pytest.raises(MissingFieldError) as exc:
            parse_itinerary(doc, 1)
        assert exc.value.field == "departure_time"
        assert exc.value.stop_index == 0

    def test_missing_field_text_names_the_stop_only_for_a_stop_field(self):
        with pytest.raises(MissingFieldError) as top:
            parse_itinerary('{"stops": []}', 1)
        assert str(top.value) == "missing field 'itinerary'"
        doc = json.dumps({"itinerary": [{"place": "Sydney (SYD)", "arrival_time": "2025-06-01 10:00"}]})
        with pytest.raises(MissingFieldError) as in_stop:
            parse_itinerary(doc, 1)
        assert str(in_stop.value) == "missing field 'departure_time' in stop 0"

    def test_null_field_is_missing(self):
        doc = json.dumps(
            {"itinerary": [{"place": "Sydney (SYD)", "arrival_time": None, "departure_time": "2025-06-03 10:00"}]}
        )
        with pytest.raises(MissingFieldError) as exc:
            parse_itinerary(doc, 1)
        assert exc.value.field == "arrival_time"

    def test_bad_place(self):
        doc = json.dumps(
            {"itinerary": [{"place": "Sydney", "arrival_time": "2025-06-01 10:00", "departure_time": "2025-06-03 10:00"}]}
        )
        with pytest.raises(BadPlaceFormatError):
            parse_itinerary(doc, 1)

    def test_bad_time_carries_place_label(self):
        doc = json.dumps(
            {
                "itinerary": [
                    {"place": "Sydney (SYD)", "arrival_time": "2025-06-01 10:00", "departure_time": "2025-06-03 10:00"},
                    {"place": "Cairo (CAI)", "arrival_time": "2025-6-5 1:5", "departure_time": "2025-06-08 10:00"},
                ]
            }
        )
        with pytest.raises(InvalidTimeFormatError) as exc:
            parse_itinerary(doc, 2)
        assert exc.value.place_label == "Cairo (CAI)"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(25):
            itin, _, _ = random_itinerary(rng)
            assert parse_itinerary(render_itinerary(itin), len(itin)) == itin


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def json_inputs(draw) -> str:
    """A JSON document, or arbitrary text, with an optional leading BOM,
    surrounding whitespace and trailing data; empty text included."""
    body = draw(st.one_of(json_values.map(json.dumps), st.text(max_size=12), st.just("")))
    space = st.text(alphabet=" \t\n\r", max_size=2)
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    trailing = draw(st.sampled_from(["", "", "x", " 1", "{}", "]", "\ufeff"]))
    return bom + draw(space) + body + draw(space) + trailing


def json_outcome(load, text, refusals=(ValueError, RecursionError)) -> str:
    """The repr of what load returns, or the text of the refusal it raises;
    repr tells 1 from 1.0 and True and shows a NaN equal to itself."""
    try:
        return repr(load(text))
    except refusals as err:
        return f"error: {err}"


class TestLoadJson:
    @settings(max_examples=500, deadline=None)
    @given(json_inputs())
    def test_agrees_with_json_loads(self, text):
        expected = json_outcome(json.loads, text)
        if expected.startswith("error: "):
            expected = f"error: not valid JSON: {expected[7:]}"
        assert json_outcome(load_json, text, InvalidJsonError) == expected
        # The same text as UTF-8 bytes; hypothesis draws no lone surrogates.
        assert json_outcome(load_json, text.encode("utf-8"), InvalidJsonError) == expected

    @pytest.mark.parametrize("text", ["\ufeff{}", b"\xef\xbb\xbf{}", "\ufeff", b"\xef\xbb\xbf[1, 2]"])
    def test_leading_bom_is_refused_in_json_loads_words(self, text):
        with pytest.raises(InvalidJsonError) as exc:
            load_json(text)
        assert str(exc.value) == (
            "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
        )


SYD = AirportCode("SYD")


def wire_doc(itin: Itinerary) -> dict:
    return {
        "itinerary": [
            {
                "place": stop.place,
                "arrival_time": format_timestamp(stop.arrival),
                "departure_time": format_timestamp(stop.departure),
            }
            for stop in itin.stops
        ]
    }


class TestRender:
    def test_canonical_shape(self, sample_invalid, fixtures_dir):
        rendered = render_itinerary(sample_invalid)
        doc = json.loads(rendered)
        assert list(doc) == ["itinerary"]
        assert doc == json.loads((fixtures_dir / "sample_invalid.json").read_text())

    def test_equals_json_dumps_with_indent(self):
        rng = random.Random(11)
        names = ["São Paulo", 'The "Big" Apple', "Back\\slash", "Tab\tCity", "東京", "City"]
        for _ in range(200):
            itin, _, _ = random_itinerary(rng, min_stops=1)
            itin = Itinerary(
                tuple(
                    Stop(
                        rng.choice(names),
                        stop.airport,
                        stop.arrival + rng.randint(-10**9, 10**9),
                        stop.departure,
                    )
                    for stop in itin.stops
                )
            )
            assert render_itinerary(itin) == json.dumps(wire_doc(itin), indent=2)

    # 1 == True == 1.0, but each prints differently, in either order; so do
    # an AirportCode and a tuple in its place.
    @pytest.mark.parametrize(
        "cases",
        [
            *itertools.permutations([(1, SYD, "1 (SYD)"), (True, SYD, "True (SYD)"), (1.0, SYD, "1.0 (SYD)")]),
            *itertools.permutations([("x", SYD, "x (SYD)"), ("x", ("SYD",), "x (('SYD',))")]),
        ],
    )
    def test_equal_fields_that_print_differently(self, cases):
        at = parse_timestamp("2025-06-01 08:00")
        for name, airport, place in cases:
            itin = Itinerary((Stop(name, airport, at, at + 60),))
            rendered = render_itinerary(itin)
            assert json.loads(rendered)["itinerary"][0]["place"] == place
            assert rendered == json.dumps(wire_doc(itin), indent=2)


class TestDerived:
    # No stay or leg can meet this policy, so validate() reports every stay
    # and every travel time as the observed value of an issue.
    UNMEETABLE = ValidationPolicy(min_stay_minutes=10**6, buffer_minutes=10**6)

    def observed(self, itin, provider, kind):
        report = validate(itin, provider, self.UNMEETABLE)
        return [issue.observed for issue in report.issues if issue.kind is kind]

    def test_segments_and_stays(self, sample_invalid, demo_provider):
        travel = self.observed(sample_invalid, demo_provider, IssueKind.TRANSIT_TOO_SHORT)
        assert travel == [12 * 60, 104 * 60, 9 * 60]
        stays = self.observed(sample_invalid, demo_provider, IssueKind.STAY_TOO_SHORT)
        assert stays == [20 * 60, 58 * 60, 49 * 60, 83 * 60]

    def test_negative_travel_time_allowed(self):
        a = Stop("A", AirportCode("AAA"), parse_timestamp("2025-06-01 10:00"), parse_timestamp("2025-06-04 10:00"))
        b = Stop("B", AirportCode("BBB"), parse_timestamp("2025-06-04 08:00"), parse_timestamp("2025-06-07 10:00"))
        provider = FixtureProvider({("AAA", "BBB"): 60})
        assert self.observed(Itinerary((a, b)), provider, IssueKind.OVERLAP) == [-120]

    def test_empty_itinerary_rejected(self):
        with pytest.raises(ValueError):
            Itinerary(())


@pytest.mark.parametrize(
    "minutes,expected",
    [(1230, "20h 30m"), (0, "0h 0m"), (59, "0h 59m"), (-120, "-2h 0m"), (2880, "48h 0m"), (-1, "-0h 1m")],
)
def test_format_minutes(minutes, expected):
    assert format_minutes(minutes) == expected


def test_shorten_keeps_80_characters_whole_and_cuts_81():
    assert shorten("x" * 80) == "x" * 80
    assert shorten("x" * 81) == "x" * 80 + "... (81 characters)"


class TestCauseText:
    def test_follows_causes_and_contexts_to_the_innermost(self):
        try:
            try:
                try:
                    raise OSError("innermost " + "y" * 100)
                except OSError as err:
                    raise KeyError("middle") from err
            except KeyError:
                raise ValueError("outer")
        except ValueError as err:
            outer = err
        assert cause_text(outer) == shorten("innermost " + "y" * 100)

    def test_a_cause_wins_over_a_context(self):
        try:
            try:
                raise KeyError("context")
            except KeyError:
                raise ValueError("outer") from OSError("cause")
        except ValueError as err:
            assert cause_text(err) == "cause"

    def test_a_suppressed_context_is_not_followed(self):
        try:
            try:
                raise KeyError("context")
            except KeyError:
                raise ValueError("outer") from None
        except ValueError as err:
            assert cause_text(err) == "outer"

    def test_a_cycle_ends_at_its_last_new_link(self):
        a, b = ValueError("a"), KeyError("b")
        a.__context__, b.__context__ = b, a
        assert cause_text(a) == "'b'"


class TestReadFile:
    def pathlib_error(self, path) -> OSError:
        with pytest.raises(OSError) as info:
            Path(path).read_bytes()
        return info.value

    def test_a_file_longer_than_one_read_comes_back_whole(self, tmp_path):
        path = tmp_path / "long.bin"
        data = bytes(range(256)) * (3 * model._READ_CHUNK // 256) + b"tail"
        path.write_bytes(data)
        assert read_file(path) == data
        assert read_file(str(path)) == data

    def test_an_empty_file_is_empty_bytes(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        assert read_file(path) == b""

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_an_error_has_the_text_and_type_of_pathlibs(self, tmp_path, kind):
        path = tmp_path / "missing.json" if kind == "missing" else tmp_path
        expected = self.pathlib_error(path)
        for given in (path, str(path)):
            with pytest.raises(OSError) as info:
                read_file(given)
            assert type(info.value) is type(expected)
            assert str(info.value) == str(expected)
            assert info.value.filename == str(path)

    def test_no_descriptor_is_left_open(self, tmp_path, monkeypatch):
        path = tmp_path / "trip.json"
        path.write_bytes(b"[]")
        before = open_fds()
        read_file(path)
        assert open_fds() == before
        for bad in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(OSError):
                read_file(bad)
            assert open_fds() == before

        def failing_read(fd, size):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(model.os, "read", failing_read)
        with pytest.raises(OSError) as info:
            read_file(path)
        monkeypatch.undo()
        assert open_fds() == before
        assert str(info.value) == f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}: {str(path)!r}"
