from __future__ import annotations

import io
import json
import urllib.request
from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itiguard.durations import TransportError
from itiguard.gateway import (
    API_KEY_ENV,
    GenerationFailed,
    HttpGenerationClient,
    ReplayClient,
    ResponsesExhausted,
    ScriptedClient,
    generate_itinerary,
)
from itiguard.model import (
    QUOTE_LIMIT,
    AirportCode,
    BadPlaceFormatError,
    FormatError,
    InsufficientStopsError,
    InvalidJsonError,
    InvalidTimeFormatError,
    MissingFieldError,
    parse_itinerary,
)
from itiguard.prompts import (
    FIXED_SEQUENCE_PROMPT,
    GENERIC_PROMPT,
    INSUFFICIENT_STOPS_FEEDBACK,
    JSON_ERROR_FEEDBACK,
    TIME_FORMAT_FEEDBACK,
    GenerationRequest,
    build_base_prompt,
    build_feedback,
)
from support import refused_urlopen

POOL = (
    ("Sydney", "SYD"),
    ("Frankfurt", "FRA"),
    ("Cairo", "CAI"),
    ("Casablanca", "CMN"),
)
WINDOW = (date(2025, 6, 1), date(2025, 6, 30))


def generic_request(**overrides) -> GenerationRequest:
    kwargs = dict(num_destinations=4, city_pool=POOL, window_start=WINDOW[0], window_end=WINDOW[1])
    kwargs.update(overrides)
    return GenerationRequest(**kwargs)


def fixed_request() -> GenerationRequest:
    return generic_request(fixed_sequence=POOL)


class TestPromptGoldens:
    """Rendered prompts are pinned byte for byte. A substituted value is
    inserted verbatim, never scanned again: each test also renames Cairo to
    text that string.Template would read as placeholders and an escape."""

    def golden(self, goldens_dir, name: str, cairo: str = "Cairo") -> str:
        text = (goldens_dir / name).read_text(encoding="utf-8")
        return text.replace("Cairo (CAI)", f"{cairo} (CAI)")

    def pool(self, cairo: str) -> tuple[tuple[str, str], ...]:
        return tuple((cairo if name == "Cairo" else name, code) for name, code in POOL)

    def test_generic_prompt(self, goldens_dir):
        for cairo in ("Cairo", "$cities_str ${x} $$"):
            request = generic_request(city_pool=self.pool(cairo))
            assert build_base_prompt(request) == self.golden(goldens_dir, "prompt_generic.txt", cairo)

    def test_fixed_sequence_prompt(self, goldens_dir):
        for cairo in ("Cairo", "$cities_str ${x} $$"):
            request = generic_request(city_pool=self.pool(cairo), fixed_sequence=self.pool(cairo))
            assert build_base_prompt(request) == self.golden(goldens_dir, "prompt_fixed_sequence.txt", cairo)

    def test_json_error_feedback(self, goldens_dir):
        assert build_feedback(InvalidJsonError("bad"), generic_request()) == self.golden(
            goldens_dir, "feedback_json_error.txt"
        )

    def test_time_format_feedback(self, goldens_dir):
        for cairo in ("Cairo", "${place_label} $$"):
            rendered = build_feedback(InvalidTimeFormatError("June 5th", f"{cairo} (CAI)"), generic_request())
            assert rendered == self.golden(goldens_dir, "feedback_time_format.txt", cairo)

    def test_insufficient_stops_feedback(self, goldens_dir):
        assert build_feedback(InsufficientStopsError(4, 2), generic_request()) == self.golden(
            goldens_dir, "feedback_insufficient_stops.txt"
        )

    def test_time_format_feedback_without_label(self):
        rendered = build_feedback(InvalidTimeFormatError("June 5th"), generic_request())
        assert "Error in time format for unknown." in rendered


class TestCityListMemo:
    @pytest.mark.parametrize(
        "entry, message",
        [
            ((1, "SYD"), "city name must be a str"),
            ((True, "SYD"), "city name must be a str"),
            (("Sydney", ["SYD"]), "invalid IATA airport code"),
            (("Sydney", "syd"), "invalid IATA airport code"),
        ],
        ids=["int-name", "bool-name", "list-code", "lowercase-code"],
    )
    def test_unchecked_entry_is_rejected(self, entry, message):
        # Every pool the memo sees holds str names and AirportCodes, so equal
        # pools print alike: 1 == True, but neither is a city name.
        with pytest.raises(ValueError, match=message):
            generic_request(city_pool=(entry, *POOL[1:]))
        with pytest.raises(ValueError, match=message):
            generic_request(fixed_sequence=(entry, *POOL[1:]))

    def test_str_and_airport_code_pools_render_alike(self):
        # The two requests are equal, so the second is a hit on the first's entry.
        codes = tuple((name, AirportCode(code)) for name, code in POOL)
        for plain, coded in [
            (generic_request(), generic_request(city_pool=codes)),
            (fixed_request(), generic_request(city_pool=codes, fixed_sequence=codes)),
        ]:
            text = build_base_prompt(plain)
            before = build_base_prompt.cache_info()
            assert build_base_prompt(coded) == text
            after = build_base_prompt.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_memo_is_bounded(self):
        assert build_base_prompt.cache_info().maxsize == 16

    def test_checked_entries_are_kept_as_the_same_objects(self):
        codes = tuple((name, AirportCode(code)) for name, code in POOL)
        request = generic_request(city_pool=codes, fixed_sequence=codes)
        for pool in (request.city_pool, request.fixed_sequence):
            assert all(kept is entry for kept, entry in zip(pool, codes, strict=True))


def oracle_prompt(request: GenerationRequest) -> str:
    """The base prompt through string.Template, from the request's fields."""
    def pairs(separator, entries):
        return separator.join(f"{name} ({code})" for name, code in entries)

    if request.fixed_sequence is None:
        return GENERIC_PROMPT.substitute(
            num_destinations=request.num_destinations,
            cities_str=pairs(", ", request.city_pool),
            date_start=request.window_start.isoformat(),
            date_end=request.window_end.isoformat(),
        )
    name, code = request.fixed_sequence[0]
    return FIXED_SEQUENCE_PROMPT.substitute(
        num_destinations=request.num_destinations,
        fixed_route_str=pairs(" -> ", request.fixed_sequence),
        cities_str=pairs(", ", request.city_pool),
        example_place=name,
        example_iata=code,
    )


CODES = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3, max_size=3)
POOLS = st.lists(st.tuples(st.text(max_size=6), CODES), min_size=1, max_size=6)


@st.composite
def request_sets(draw) -> list[GenerationRequest]:
    """For one or two pools, with codes as strs or as AirportCodes: a generic
    request, and maybe a fixed-sequence one, for every count from 2 to 8 in
    each of three windows. That is more distinct requests than the memo
    keeps, and many share a pool, a count or a window. Returned in a drawn
    order."""
    requests = []
    for pool in draw(st.lists(POOLS, min_size=1, max_size=2)):
        if draw(st.booleans()):
            pool = [(name, AirportCode(code)) for name, code in pool]
        first = draw(st.dates(date(2024, 1, 1), date(2027, 12, 31)))
        second = first + timedelta(days=draw(st.integers(1, 90)))
        for start, end in ((first, first), (first, second), (second, second)):
            for count in range(2, 9):
                requests.append(GenerationRequest(count, pool, start, end))
                sequence = draw(st.none() | st.lists(st.sampled_from(pool), min_size=count, max_size=count))
                if sequence is not None:
                    requests.append(GenerationRequest(count, pool, start, end, sequence))
    return draw(st.permutations(requests))


class TestPromptMemo:
    """build_base_prompt keeps one entry per distinct request, and each is
    the text string.Template gives for that request."""

    @settings(max_examples=25, deadline=None)
    @given(requests=request_sets())
    def test_equals_string_template_through_evictions(self, requests):
        # Every request twice over, from an empty memo: the second call in a
        # row is a hit, and each pass evicts.
        build_base_prompt.cache_clear()
        for request in requests * 2:
            expected = oracle_prompt(request)
            assert build_base_prompt(request) == expected
            assert build_base_prompt(request) == expected
        assert build_base_prompt.cache_info().currsize == build_base_prompt.cache_info().maxsize


class TestGenerationRequest:
    def test_too_few_destinations(self):
        with pytest.raises(ValueError):
            generic_request(num_destinations=1)

    def test_two_destinations_accepted(self):
        assert generic_request(num_destinations=2).num_destinations == 2

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            generic_request(city_pool=())

    def test_window_end_before_start(self):
        with pytest.raises(ValueError):
            generic_request(window_start=date(2025, 6, 30), window_end=date(2025, 6, 1))

    def test_one_day_window_accepted(self):
        request = generic_request(window_start=date(2025, 6, 1), window_end=date(2025, 6, 1))
        assert request.window_start == request.window_end

    def test_sequence_length_must_match(self):
        with pytest.raises(ValueError):
            generic_request(fixed_sequence=POOL[:3])

    def test_sequence_must_come_from_pool(self):
        with pytest.raises(ValueError, match="^fixed_sequence city 'Oslo \\(OSL\\)' is not in city_pool$"):
            generic_request(fixed_sequence=POOL[:3] + (("Oslo", "OSL"),))

    @pytest.mark.parametrize("entry", ["AB", b"AB"], ids=["str", "bytes"])
    def test_string_is_not_a_pair(self, entry):
        with pytest.raises(ValueError, match="expected \\(name, iata\\) pairs"):
            GenerationRequest(2, (entry, ("Cairo", "CAI")), WINDOW[0], WINDOW[1])
        with pytest.raises(ValueError, match="expected \\(name, iata\\) pairs"):
            generic_request(fixed_sequence=(entry, *POOL[1:4]))

    @pytest.mark.parametrize("count", [2.0, 3.5, True], ids=["float", "fraction", "bool"])
    def test_count_must_be_an_int(self, count):
        with pytest.raises(ValueError) as exc:
            generic_request(num_destinations=count)
        assert str(exc.value) == f"num_destinations must be an int, got {count!r}"

    @pytest.mark.parametrize("field", ["window_start", "window_end"])
    @pytest.mark.parametrize(
        "bound",
        ["2025-06-01", datetime(2025, 6, 1, 12, 0), None],
        ids=["str", "datetime", "none"],
    )
    def test_window_bounds_must_be_dates(self, field, bound):
        with pytest.raises(ValueError) as exc:
            generic_request(**{field: bound})
        assert str(exc.value) == f"{field} must be a date, got {bound!r}"

    @pytest.mark.parametrize(
        "pool, sequence",
        [
            (5, None),
            ([5, ("Cairo", "CAI")], None),
            (POOL, 5),
            (POOL, [*POOL[:3], 5]),
        ],
        ids=["pool", "pool-entry", "sequence", "sequence-entry"],
    )
    def test_non_iterable_pool_or_entry(self, pool, sequence):
        with pytest.raises(ValueError) as exc:
            generic_request(city_pool=pool, fixed_sequence=sequence)
        assert str(exc.value) == "expected (name, iata) pairs, got 5"

    def test_lists_normalized_to_tuples(self):
        request = GenerationRequest(4, [list(c) for c in POOL], WINDOW[0], WINDOW[1])
        assert request.city_pool == POOL

    def test_base_prompt_dispatches_on_sequence(self, goldens_dir):
        generic = (goldens_dir / "prompt_generic.txt").read_text(encoding="utf-8")
        fixed = (goldens_dir / "prompt_fixed_sequence.txt").read_text(encoding="utf-8")
        assert build_base_prompt(generic_request()) == generic
        assert build_base_prompt(fixed_request()) == fixed


class TestBuildFeedback:
    def test_text_by_error_class(self):
        request = generic_request(num_destinations=3, city_pool=POOL[:3])
        cases = [
            (InvalidJsonError("bad"), JSON_ERROR_FEEDBACK),
            (
                InvalidTimeFormatError("June 5th", "Cairo (CAI)"),
                TIME_FORMAT_FEEDBACK.substitute(place_label="Cairo (CAI)"),
            ),
            (InvalidTimeFormatError("June 5th"), TIME_FORMAT_FEEDBACK.substitute(place_label="unknown")),
            (InvalidTimeFormatError("June 5th", ""), TIME_FORMAT_FEEDBACK.substitute(place_label="unknown")),
            # The stop count comes from the request, not from the error.
            (InsufficientStopsError(4, 2), INSUFFICIENT_STOPS_FEEDBACK.substitute(num_destinations=3)),
            (MissingFieldError("arrival_time", 1), JSON_ERROR_FEEDBACK),
            (BadPlaceFormatError(0, "Sydney"), JSON_ERROR_FEEDBACK),
        ]
        for error, text in cases:
            assert build_feedback(error, request) == text


class TestScriptedClient:
    def test_records_prompts_in_order(self):
        client = ScriptedClient(["a", "b"])
        assert client.complete("p1") == "a"
        assert client.complete("p2") == "b"
        assert client.prompts == ["p1", "p2"]

    def test_exhaustion(self):
        client = ScriptedClient(["only"])
        client.complete("p")
        with pytest.raises(ResponsesExhausted, match="exhausted"):
            client.complete("p")


class TestGenerateItinerary:
    @pytest.fixture
    def valid_text(self, fixtures_dir) -> str:
        return (fixtures_dir / "sample_corrected.json").read_text(encoding="utf-8")

    @pytest.fixture
    def invalid_times_text(self, fixtures_dir) -> str:
        # Well-formed but violates the temporal rules.
        return (fixtures_dir / "sample_invalid.json").read_text(encoding="utf-8")

    def bad_time_text(self, valid_text: str) -> str:
        doc = json.loads(valid_text)
        doc["itinerary"][0]["arrival_time"] = "June 7th, 10am"
        return json.dumps(doc)

    def test_first_try_success(self, valid_text):
        client = ScriptedClient([valid_text])
        itinerary, attempts = generate_itinerary(client, generic_request())
        assert attempts == 1
        assert len(itinerary) == 4
        assert client.prompts == [build_base_prompt(generic_request())]

    def test_retry_prepends_feedback(self, valid_text):
        client = ScriptedClient(["{ not json", valid_text])
        _, attempts = generate_itinerary(client, generic_request())
        assert attempts == 2
        base = build_base_prompt(generic_request())
        assert client.prompts == [base, JSON_ERROR_FEEDBACK + base]

    def test_all_attempts_fail(self):
        client = ScriptedClient(["x"] * 10)
        with pytest.raises(GenerationFailed) as exc:
            generate_itinerary(client, generic_request())
        assert exc.value.attempts == 4
        assert len(client.prompts) == 4
        assert isinstance(exc.value.last_error, InvalidJsonError)

    def test_feedback_replaced_not_stacked(self, valid_text):
        client = ScriptedClient(["garbage", self.bad_time_text(valid_text), valid_text])
        _, attempts = generate_itinerary(client, generic_request())
        assert attempts == 3
        base = build_base_prompt(generic_request())
        expected = TIME_FORMAT_FEEDBACK.substitute(place_label="Sydney (SYD)")
        assert client.prompts[2] == expected + base
        assert JSON_ERROR_FEEDBACK not in client.prompts[2]

    def test_temporal_violations_do_not_retry(self, invalid_times_text):
        client = ScriptedClient([invalid_times_text])
        itinerary, attempts = generate_itinerary(client, generic_request())
        assert attempts == 1
        assert len(itinerary) == 4

    @pytest.mark.parametrize("kind", ["json", "time", "stops"])
    def test_equal_requests_send_the_same_base_prompt(self, kind, valid_text, goldens_dir):
        doc = json.loads(valid_text)
        if kind == "time":
            doc["itinerary"][0]["arrival_time"] = "June 7th, 10am"
        elif kind == "stops":
            doc["itinerary"] = doc["itinerary"][:2]
        malformed = valid_text[: len(valid_text) // 2] if kind == "json" else json.dumps(doc)
        with pytest.raises(FormatError) as exc:
            parse_itinerary(malformed, expected_stops=4)
        base = (goldens_dir / "prompt_generic.txt").read_text(encoding="utf-8")
        sent = []
        for _ in range(2):
            request = generic_request()
            client = ScriptedClient([malformed, valid_text])
            assert generate_itinerary(client, request)[1] == 2
            sent.append([prompt.encode() for prompt in client.prompts])
        expected = [base.encode(), (build_feedback(exc.value, generic_request()) + base).encode()]
        assert sent == [expected, expected]

    def test_zero_retries(self):
        client = ScriptedClient(["x"])
        with pytest.raises(GenerationFailed) as exc:
            generate_itinerary(client, generic_request(), max_retries=0)
        assert exc.value.attempts == 1

    def test_wrong_stop_count_triggers_stop_feedback(self, valid_text):
        doc = json.loads(valid_text)
        doc["itinerary"] = doc["itinerary"][:2]
        client = ScriptedClient([json.dumps(doc), valid_text])
        _, attempts = generate_itinerary(client, generic_request())
        assert attempts == 2
        expected = INSUFFICIENT_STOPS_FEEDBACK.substitute(num_destinations=4)
        assert client.prompts[1].startswith(expected)


class TestReplayClient:
    def test_sorted_order(self, tmp_path):
        (tmp_path / "002.txt").write_text("second")
        (tmp_path / "001.txt").write_text("first")
        client = ReplayClient(tmp_path)
        assert client.complete("p") == b"first"
        assert client.complete("p") == b"second"

    def test_for_request_layout(self, tmp_path):
        target = tmp_path / "demo" / "4"
        target.mkdir(parents=True)
        (target / "001.txt").write_text("reply")
        client = ReplayClient.for_request(tmp_path, "demo", 4)
        assert client.complete("p") == b"reply"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayClient(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayClient(tmp_path)

    def test_exhaustion(self, tmp_path):
        (tmp_path / "001.txt").write_text("only")
        client = ReplayClient(tmp_path)
        client.complete("p")
        with pytest.raises(ResponsesExhausted, match="exhausted"):
            client.complete("p")

    def test_bundled_demo_recording(self, fixtures_dir, sample_invalid):
        from itiguard.model import parse_itinerary

        client = ReplayClient.for_request(fixtures_dir / "replay", "demo", 4)
        assert parse_itinerary(client.complete("p"), expected_stops=4) == sample_invalid


class RecordingTransport:
    """A transport of http_fetch's shape that answers every call with content."""

    def __init__(self, content: bytes):
        self.content = content
        self.calls: list[dict] = []

    def __call__(self, url, headers, body):
        self.calls.append({"url": url, "headers": headers, "body": body})
        return self.content


def answer(payload) -> bytes:
    return json.dumps(payload).encode()


class TestHttpGenerationClient:
    ENDPOINT = "https://example.test/generate"

    @pytest.mark.parametrize("url", ["file:///srv/generate", "data:,x", "ftp://example.test", "foo", ""])
    def test_an_endpoint_that_is_not_http_is_refused_when_built(self, url):
        transport = RecordingTransport(answer({"text": "hello"}))
        with pytest.raises(ValueError) as exc:
            HttpGenerationClient(url, transport=transport)
        assert str(exc.value) == f"generation endpoint must use http or https, not {url!r}"
        assert transport.calls == []

    @pytest.mark.parametrize("url", ["http:generate", "https://", "http:///generate", "http://:8080/generate",
                                     "https://[bad/generate"])
    def test_an_endpoint_without_a_host_is_refused_when_built(self, url):
        transport = RecordingTransport(answer({"text": "hello"}))
        with pytest.raises(ValueError) as exc:
            HttpGenerationClient(url, transport=transport)
        assert str(exc.value) == f"generation endpoint names no valid host: {url!r}"
        assert transport.calls == []

    def test_the_scheme_is_matched_in_any_case(self):
        transport = RecordingTransport(answer({"text": "hello"}))
        assert HttpGenerationClient("HTTPS://example.test/generate", transport=transport).complete("p") == "hello"

    def test_round_trip(self):
        transport = RecordingTransport(answer({"text": "hello"}))
        client = HttpGenerationClient(self.ENDPOINT, api_key="k", transport=transport)
        assert client.complete("make me a trip") == "hello"
        call = transport.calls[0]
        assert call["url"] == self.ENDPOINT
        assert call["body"] == b'{"prompt": "make me a trip"}'
        assert call["headers"] == {"Content-Type": "application/json", "Authorization": "Bearer k"}

    def test_default_transport_posts_through_http_fetch_with_a_60s_timeout(self, monkeypatch):
        seen = []

        def urlopen(request, timeout):
            seen.append((request.get_method(), request.full_url, request.data, request.headers, timeout))
            return io.BytesIO(answer({"text": "x"}))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        assert HttpGenerationClient(self.ENDPOINT, api_key="k").complete("p") == "x"
        # urllib.request.Request capitalises each header name.
        headers = {"Content-type": "application/json", "Authorization": "Bearer k"}
        assert seen == [("POST", self.ENDPOINT, b'{"prompt": "p"}', headers, 60.0)]

    def test_default_transport_posts_over_loopback(self, loopback):
        client = HttpGenerationClient(f"{loopback.url}/200/generate", api_key="k")
        assert client.complete("make me a trip") == '{"prompt": "make me a trip"}'
        [(method, path, headers, body)] = loopback.seen
        assert (method, path, body) == ("POST", "/200/generate", b'{"prompt": "make me a trip"}')
        assert (headers["authorization"], headers["content-type"]) == ("Bearer k", "application/json")

    def test_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "env-key")
        transport = RecordingTransport(answer({"text": "x"}))
        HttpGenerationClient(self.ENDPOINT, transport=transport).complete("p")
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer env-key"

    def test_no_key_no_auth_header(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        transport = RecordingTransport(answer({"text": "x"}))
        HttpGenerationClient(self.ENDPOINT, transport=transport).complete("p")
        assert "Authorization" not in transport.calls[0]["headers"]

    def test_http_error_propagates(self):
        def fail(url, headers, body):
            raise TransportError("HTTP 500")

        client = HttpGenerationClient(self.ENDPOINT, transport=fail)
        with pytest.raises(ValueError, match="^generation endpoint request failed: HTTP 500$") as exc:
            client.complete("p")
        assert isinstance(exc.value.__cause__, TransportError)

    def test_http_status_error_keeps_its_text(self, loopback):
        client = HttpGenerationClient(f"{loopback.url}/503/generate")
        with pytest.raises(ValueError) as exc:
            client.complete("p")
        assert str(exc.value) == "generation endpoint request failed: HTTP 503"

    def test_long_transport_error_is_quoted_shortened(self, monkeypatch):
        text = "x" * (QUOTE_LIMIT + 1)

        def refuse(request, timeout):
            raise OSError(text)

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        client = HttpGenerationClient("http://127.0.0.1:9/generate")
        with pytest.raises(ValueError) as exc:
            client.complete("p")
        assert str(exc.value) == (
            f"generation endpoint request failed: {text[:QUOTE_LIMIT]}... ({len(text)} characters)"
        )
        assert isinstance(exc.value.__cause__, TransportError)

    def test_chained_transport_error_quotes_its_innermost_cause(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", refused_urlopen)
        client = HttpGenerationClient("http://127.0.0.1:9/generate")
        with pytest.raises(ValueError) as exc:
            client.complete("p")
        assert str(exc.value) == "generation endpoint request failed: [Errno 111] Connection refused"
        assert isinstance(exc.value.__cause__, TransportError)

    @pytest.mark.parametrize(
        "content", [b"<html>", b"[" * 100_000, b"\xff{}"], ids=["not-json", "too-deep", "not-utf8"]
    )
    def test_undecodable_body(self, content):
        transport = RecordingTransport(content)
        client = HttpGenerationClient(self.ENDPOINT, transport=transport)
        with pytest.raises(ValueError, match="generation endpoint returned not valid JSON"):
            client.complete("p")

    @pytest.mark.parametrize("payload", [{"message": "x"}, {"text": 5}, ["text"], "text"])
    def test_unexpected_payload(self, payload):
        transport = RecordingTransport(answer(payload))
        client = HttpGenerationClient(self.ENDPOINT, transport=transport)
        with pytest.raises(ValueError, match="unexpected payload"):
            client.complete("p")
