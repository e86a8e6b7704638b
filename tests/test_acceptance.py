"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line naming the behavior it certifies, so
a pytest -s run reads as a checklist. Criteria 2-4 share one seeded corpus
of 10,000 random itineraries built once per module.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from itiguard.correction import NonConvergenceError, correct
from itiguard.durations import (
    CachedProvider,
    FixtureProvider,
    RemoteDurationClient,
    RoutePair,
    RouteUnavailable,
    TransportError,
)
from itiguard.gateway import GenerationFailed, ScriptedClient, generate_itinerary
from itiguard.metrics import aggregate, load_manifest, render_stats
from itiguard.model import (
    AirportCode,
    InsufficientStopsError,
    InvalidJsonError,
    InvalidTimeFormatError,
    Itinerary,
    Stop,
    parse_itinerary,
    parse_timestamp,
    render_itinerary,
)
from itiguard.prompts import (
    JSON_ERROR_FEEDBACK,
    GenerationRequest,
    build_base_prompt,
    build_feedback,
)
from itiguard.validation import IssueKind, ValidationPolicy, validate
from support import brute_force_issues, random_itinerary

TESTS_DIR = Path(__file__).resolve().parent
FAILURES_DIR = TESTS_DIR / "failures"
CORPUS_SIZE = 10_000
CORPUS_SEED = 20250819


def check(label: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"{label}: {detail or 'failed'}"


@dataclass
class Corpus:
    # (original, provider, duration table, corrected, error) per itinerary;
    # corrected is None and error the NonConvergenceError when correct()
    # left an issue behind after its one pass.
    items: list
    build_seconds: float


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    rng = random.Random(CORPUS_SEED)
    started = time.perf_counter()
    items = []
    for _ in range(CORPUS_SIZE):
        itin, provider, table = random_itinerary(rng)
        try:
            fixed, _ = correct(itin, provider)
            error = None
        except NonConvergenceError as err:
            fixed, error = None, err
        items.append((itin, provider, table, fixed, error))
    return Corpus(items, time.perf_counter() - started)


def test_criterion_1_reference_sample(sample_invalid, sample_corrected, demo_provider):
    started = time.perf_counter()
    report = validate(sample_invalid, demo_provider)
    found = [(i.kind, i.subject, i.observed, i.required) for i in report.issues]
    expected = [
        (IssueKind.STAY_TOO_SHORT, 0, 20 * 60, 48 * 60),
        (IssueKind.TRANSIT_TOO_SHORT, 0, 12 * 60, 21 * 60),
        (IssueKind.TRANSIT_TOO_LONG, 1, 104 * 60, 10 * 60),
    ]
    fixed, _ = correct(sample_invalid, demo_provider)
    elapsed = time.perf_counter() - started
    check(
        "criterion 1: reference sample reproduces exactly",
        found == expected and fixed == sample_corrected and elapsed < 1.0,
        f"issues={found} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_corrector_soundness(corpus):
    started = time.perf_counter()
    dirty = sum(
        1
        for _, provider, _, fixed, error in corpus.items
        if error or not validate(fixed, provider).is_valid
    )
    elapsed = corpus.build_seconds + (time.perf_counter() - started)
    check(
        f"criterion 2: corrected output validates clean on {CORPUS_SIZE} random itineraries",
        dirty == 0 and elapsed < 30.0,
        f"dirty={dirty} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_corrector_idempotence(corpus):
    bad = 0
    for _, provider, _, fixed, error in corpus.items:
        if error:
            continue  # no output to correct again; criterion 4 reports it
        again, trace = correct(fixed, provider)
        if again != fixed or trace.adjustments:
            bad += 1
    check(
        f"criterion 3: correction is idempotent on {CORPUS_SIZE} random itineraries",
        bad == 0,
        f"{bad} non-idempotent cases",
    )


def _shrink_multi_pass(itin: Itinerary, provider) -> Itinerary:
    """Drop stops while correction still leaves an issue after its one pass."""
    current = itin
    changed = True
    while changed and len(current) > 2:
        changed = False
        for i in range(len(current)):
            stops = current.stops[:i] + current.stops[i + 1 :]
            if len(stops) < 2:
                continue
            candidate = Itinerary(stops)
            try:
                correct(candidate, provider)
            except NonConvergenceError:
                current = candidate
                changed = True
                break
    return current


def test_criterion_4_single_pass(corpus):
    counterexamples = [
        (itin, provider, table) for itin, provider, table, _, error in corpus.items if error
    ]
    if counterexamples:
        itin, provider, table = counterexamples[0]
        shrunk = _shrink_multi_pass(itin, provider)
        FAILURES_DIR.mkdir(exist_ok=True)
        out = FAILURES_DIR / "multi_pass_counterexample.json"
        out.write_text(
            json.dumps(
                {
                    "itinerary": json.loads(render_itinerary(shrunk)),
                    "durations": {f"{a} {b}": m for (a, b), m in sorted(table.items())},
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    check(
        f"criterion 4: one pass repairs every one of {CORPUS_SIZE} itineraries",
        not counterexamples,
        f"{len(counterexamples)} cases left issues after the pass, first dumped to {FAILURES_DIR}",
    )


def test_criterion_5_validator_oracle_equivalence():
    rng = random.Random(4242)
    mismatches = 0
    for _ in range(1000):
        itin, provider, table = random_itinerary(rng)
        got = list(validate(itin, provider).issues)
        want = brute_force_issues(itin, table, ValidationPolicy())
        if got != want:
            mismatches += 1
    check(
        "criterion 5: validator agrees with brute-force oracle on 1000 itineraries",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_6_corpus_arithmetic(fixtures_dir):
    corpus_dir = fixtures_dir / "corpus"
    provider = FixtureProvider.from_file(corpus_dir / "durations.txt")
    records = []
    for entry in load_manifest(corpus_dir / "manifest.json"):
        itin = parse_itinerary((corpus_dir / entry.file).read_text(encoding="utf-8"), entry.num_cities)
        records.append((entry, validate(itin, provider)))
    rows = {(r.model_tag, r.num_cities): r for r in aggregate(records)}
    row_a = rows[("model-a", 4)]
    row_b = rows[("model-b", 4)]
    rendered = render_stats(sorted(rows.values(), key=lambda r: r.model_tag))
    numbers_ok = (
        row_a.invalid_itineraries_pct == pytest.approx(48.0)
        and row_a.invalid_segments_pct == pytest.approx(21.0)
        and row_a.avg_issues_per_itinerary == pytest.approx(0.63)
        and row_b.invalid_itineraries_pct == pytest.approx(97.0)
        and row_b.invalid_segments_pct == pytest.approx(78.0)
        and row_b.avg_issues_per_itinerary == pytest.approx(2.34)
    )
    rendering_ok = (
        "48.00%" in rendered
        and "21.00%" in rendered
        and "0.63" in rendered
        and "97.00%" in rendered
        and "78.00%" in rendered
        and "2.34" in rendered
    )
    check(
        "criterion 6: bundled corpus reproduces the target stats rows",
        numbers_ok and rendering_ok,
        rendered,
    )


class CountingProvider:
    def __init__(self):
        self.calls = 0

    def route_duration(self, route: RoutePair):
        self.calls += 1
        from itiguard.durations import FlightDuration

        return FlightDuration(300)


class FlakyFetch:
    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, url: str, headers) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(f"boom {self.calls}")
        return '{"hours": 5, "minutes": 0}'


def test_criterion_7_provider_behavior():
    route = RoutePair(AirportCode("SYD"), AirportCode("FRA"))

    inner = CountingProvider()
    cached = CachedProvider(inner)
    cached.route_duration(route)
    cached.route_duration(route)
    cache_ok = inner.calls == 1

    retry_ok = True
    for failures in (0, 1, 2):
        fetch = FlakyFetch(failures)
        client = RemoteDurationClient("https://api.test", fetch=fetch, sleep=lambda _: None)
        client.route_duration(route)
        retry_ok = retry_ok and fetch.calls == min(failures + 1, 3)

    fetch = FlakyFetch(10)
    client = RemoteDurationClient("https://api.test", fetch=fetch, sleep=lambda _: None)
    exhausted_ok = False
    try:
        client.route_duration(route)
    except RouteUnavailable as err:
        exhausted_ok = err.attempts == 3 and fetch.calls == 3
    check(
        "criterion 7: caching dedupes lookups and remote retries stop at 3 attempts",
        cache_ok and retry_ok and exhausted_ok,
        f"cache_calls={inner.calls} exhausted_ok={exhausted_ok}",
    )


def test_criterion_8_retry_loop_and_prompt_goldens(fixtures_dir, goldens_dir):
    pool = (
        ("Sydney", "SYD"),
        ("Frankfurt", "FRA"),
        ("Cairo", "CAI"),
        ("Casablanca", "CMN"),
    )
    from datetime import date

    request = GenerationRequest(4, pool, date(2025, 6, 1), date(2025, 6, 30))
    fixed_request = GenerationRequest(
        4, pool, date(2025, 6, 1), date(2025, 6, 30), fixed_sequence=pool
    )
    valid_text = (fixtures_dir / "sample_corrected.json").read_text(encoding="utf-8")
    base = build_base_prompt(request)

    client = ScriptedClient(["{ nope", valid_text])
    _, attempts = generate_itinerary(client, request)
    retry_ok = attempts == 2 and client.prompts[1] == JSON_ERROR_FEEDBACK + base

    failed_ok = False
    try:
        generate_itinerary(ScriptedClient(["x"] * 8), request)
    except GenerationFailed as err:
        failed_ok = err.attempts == 4

    goldens = {
        "prompt_generic.txt": build_base_prompt(request),
        "prompt_fixed_sequence.txt": build_base_prompt(fixed_request),
        "feedback_json_error.txt": build_feedback(InvalidJsonError("bad"), request),
        "feedback_time_format.txt": build_feedback(InvalidTimeFormatError("June 5th", "Cairo (CAI)"), request),
        "feedback_insufficient_stops.txt": build_feedback(InsufficientStopsError(4, 2), request),
    }
    stale = [
        name
        for name, rendered in goldens.items()
        if rendered != (goldens_dir / name).read_text(encoding="utf-8")
    ]
    check(
        "criterion 8: format retries recover with feedback and prompts match goldens byte-for-byte",
        retry_ok and failed_ok and not stale,
        f"retry_ok={retry_ok} failed_ok={failed_ok} stale={stale}",
    )


def test_criterion_9_latency():
    codes = ["SYD", "FRA", "CAI", "CMN", "LHR", "CDG"]
    table = {}
    for a, b in zip(codes, codes[1:]):
        table[(a, b)] = 300
    provider = FixtureProvider(table)
    stops = []
    arrival = parse_timestamp("2025-06-01 08:00")
    for i, code in enumerate(codes):
        # Stays of one day and one-hour hops: plenty to correct.
        departure = arrival + 24 * 60
        stops.append(Stop(f"City {i}", AirportCode(code), arrival, departure))
        arrival = departure + 60
    itin = Itinerary(tuple(stops))

    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        validate(itin, provider)
        fixed, _ = correct(itin, provider)
        best = min(best, time.perf_counter() - started)
    clean = validate(fixed, provider).is_valid
    check(
        "criterion 9: six-stop validate+correct stays under 50 ms with warm durations",
        clean and best < 0.050,
        f"best={best * 1000:.1f}ms clean={clean}",
    )
