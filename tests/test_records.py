"""Record construction by the package's one rule: a record that holds a value
from outside is checked by its constructor, and a record whose invariant
the package has just established is built without it.

The first tests pin each checked constructor: the error type and message
for each bad input, in the order the checks run. The rest walk seeded
itineraries with same-airport legs and missing routes through every site
that builds a record unchecked, and require each record to be of its exact
class and to equal what the checked path, or the one bounds formula, gives.
"""

from __future__ import annotations

import random
from datetime import date

import pytest

from itiguard.correction import Adjustment, CorrectionTrace, correct
from itiguard.durations import FixtureProvider, FlightDuration, RoutePair
from itiguard.model import (
    QUOTE_LIMIT,
    AirportCode,
    Itinerary,
    Stop,
    parse_itinerary,
    parse_timestamp,
    render_itinerary,
)
from itiguard.prompts import GenerationRequest
from itiguard.validation import (
    Issue,
    IssueKind,
    ValidationPolicy,
    ValidationReport,
    resolve_segment_bounds,
    validate,
)
from support import CountingProvider, brute_force_issues, random_broken_itinerary

SYD, FRA = AirportCode("SYD"), AirportCode("FRA")
T0 = parse_timestamp("2025-06-01 08:00")
POOL = (("Sydney", SYD), ("Frankfurt", FRA))
JUNE_1, JUNE_30 = date(2025, 6, 1), date(2025, 6, 30)
NAN, INF = float("nan"), float("inf")

CHECKED = [
    (lambda: AirportCode("sy"), "invalid IATA airport code: 'sy'"),
    (lambda: AirportCode("SYDX"), "invalid IATA airport code: 'SYDX'"),
    (lambda: AirportCode(5), "invalid IATA airport code: 5"),
    (lambda: Itinerary(()), "an itinerary needs at least one stop"),
    (lambda: RoutePair(SYD, AirportCode("SYD")), "route origin and destination are both SYD"),
    (lambda: FlightDuration(0), "implausible flight duration: 0 minutes"),
    (lambda: FlightDuration(2881), "implausible flight duration: 2881 minutes"),
    (lambda: FlightDuration(60.0), "implausible flight duration: 60.0 minutes"),
    (lambda: FlightDuration(True), "implausible flight duration: True minutes"),
    # A table entry is checked as a fixture file line is: codes, route, minutes.
    (lambda: FixtureProvider({("syd", "FRA"): 90}), "invalid IATA airport code: 'syd'"),
    (lambda: FixtureProvider({("SYD", "x"): 90}), "invalid IATA airport code: 'x'"),
    (lambda: FixtureProvider({("SYD", "SYD"): 90}), "route origin and destination are both SYD"),
    (lambda: FixtureProvider({("SYD", "FRA"): 90.7}), "implausible flight duration: 90.7 minutes"),
    (lambda: FixtureProvider({("SYD", "FRA"): "95"}), "implausible flight duration: '95' minutes"),
    (lambda: FixtureProvider({("SYD", "FRA"): True}), "implausible flight duration: True minutes"),
    # Minutes must be exact ints, tested before any range check.
    (lambda: ValidationPolicy(min_stay_minutes=2880.5), "min_stay_minutes must be an int, got 2880.5"),
    (lambda: ValidationPolicy(min_stay_minutes=-1.0), "min_stay_minutes must be an int, got -1.0"),
    (lambda: ValidationPolicy(buffer_minutes=True), "buffer_minutes must be an int, got True"),
    (lambda: ValidationPolicy(min_stay_minutes=0, buffer_minutes=240.0), "buffer_minutes must be an int, got 240.0"),
    # The multiplier must be a number and strict a bool, also tested before any range check.
    (lambda: ValidationPolicy(min_stay_minutes=0, max_multiplier="3"), "max_multiplier must be a number, got '3'"),
    (lambda: ValidationPolicy(max_multiplier=None), "max_multiplier must be a number, got None"),
    (lambda: ValidationPolicy(min_stay_minutes=0, strict="no"), "strict must be a bool, got 'no'"),
    (lambda: ValidationPolicy(strict=1), "strict must be a bool, got 1"),
    (lambda: ValidationPolicy(min_stay_minutes=0, buffer_minutes=-1), "min_stay must be positive"),
    (lambda: ValidationPolicy(buffer_minutes=-1, max_multiplier=1), "buffer must be >= 0"),
    (lambda: ValidationPolicy(max_multiplier=1.0), "max_multiplier must be > 1"),
    (lambda: ValidationPolicy(max_multiplier=NAN), "max_multiplier nan is not finite or too large"),
    (lambda: ValidationPolicy(max_multiplier=INF), "max_multiplier inf is not finite or too large"),
    (lambda: Adjustment(3, "arrival", T0, T0, IssueKind.OVERLAP), "adjustment at stop 3 changes nothing"),
    (lambda: GenerationRequest(1.0, ("ab",), "2025-06-01", JUNE_30), "num_destinations must be an int, got 1.0"),
    (lambda: GenerationRequest(1, ("ab",), JUNE_1, "2025-06-30"), "window_end must be a date, got '2025-06-30'"),
    (lambda: GenerationRequest(1, ("ab",), JUNE_1, JUNE_30), "expected (name, iata) pairs, got 'ab'"),
    (lambda: GenerationRequest(1, (), JUNE_30, JUNE_1), "an itinerary needs at least 2 destinations, got 1"),
    (lambda: GenerationRequest(2, (), JUNE_30, JUNE_1), "city_pool must not be empty"),
    (
        lambda: GenerationRequest(2, POOL, JUNE_30, JUNE_1),
        "date window ends before it starts: 2025-06-30..2025-06-01",
    ),
    (lambda: GenerationRequest(2, POOL, JUNE_1, JUNE_30, POOL[:1]), "fixed_sequence has 1 cities, expected 2"),
    (
        lambda: GenerationRequest(2, POOL, JUNE_1, JUNE_30, (POOL[0], ("Oslo", AirportCode("OSL")))),
        "fixed_sequence city 'Oslo (OSL)' is not in city_pool",
    ),
    # The name comes from outside, so a long one is shortened.
    (
        lambda: GenerationRequest(2, POOL, JUNE_1, JUNE_30, (POOL[0], ("O" * 90, AirportCode("OSL")))),
        f"fixed_sequence city '{'O' * QUOTE_LIMIT}... (96 characters)' is not in city_pool",
    ),
]


@pytest.mark.parametrize("build, message", CHECKED, ids=[message for _, message in CHECKED])
def test_checked_constructor_errors(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "record, fields",
    [
        (AirportCode("SYD"), ("SYD",)),
        (Itinerary([Stop("Sydney", SYD, T0, T0)]), ((Stop("Sydney", SYD, T0, T0),),)),
        (RoutePair(SYD, FRA), (SYD, FRA)),
        (FlightDuration(2880), (2880,)),
        (ValidationPolicy(1, 0, 1.5, True), (1, 0, 1.5, True)),
        (Adjustment(0, "arrival", T0, T0 + 1, IssueKind.OVERLAP), (0, "arrival", T0, T0 + 1, IssueKind.OVERLAP)),
        (GenerationRequest(2, [list(pair) for pair in POOL], JUNE_1, JUNE_1), (2, POOL, JUNE_1, JUNE_1, None)),
        (GenerationRequest(2, POOL, JUNE_1, JUNE_1, POOL[::-1]), (2, POOL, JUNE_1, JUNE_1, POOL[::-1])),
    ],
    ids=lambda value: type(value).__name__,
)
def test_checked_constructor_builds_its_fields(record, fields):
    if type(record) is AirportCode:
        # A checked str, not a record: it is its one field, the code.
        assert record == fields[0] and hash(record) == hash(fields[0])
        assert record != fields
    else:
        assert tuple(record) == fields
    assert type(record)(*fields) == record


POLICIES = (
    ValidationPolicy(),
    ValidationPolicy(min_stay_minutes=20 * 60, buffer_minutes=95, max_multiplier=1.37),
)


def broken_cases(count: int = 400):
    rng = random.Random(1509)
    for n in range(count):
        itin, table = random_broken_itinerary(rng)
        yield itin, table, POLICIES[n % len(POLICIES)]


def test_resolved_bounds_follow_the_one_formula():
    seen = {"same airport": 0, "missing route": 0, "resolved": 0}
    for itin, table, policy in broken_cases():
        provider = CountingProvider(FixtureProvider(table))
        bounds = resolve_segment_bounds(itin, provider, policy)
        assert len(bounds) == len(itin) - 1
        asked = []
        for leg, (here, there) in zip(bounds, zip(itin.stops, itin.stops[1:])):
            a, b = here.airport, there.airport
            if a == b:
                seen["same airport"] += 1
                assert leg is None
                continue
            asked.append((a, b))
            minutes = table.get((min(a, b), max(a, b)))
            if minutes is None:
                seen["missing route"] += 1
                assert leg is None
                continue
            seen["resolved"] += 1
            # A plain (t_min, t_max) pair of ints, built by the one formula.
            t_min = minutes + policy.buffer_minutes
            assert type(leg) is tuple
            assert leg == (t_min, int(t_min * policy.max_multiplier))
            assert all(type(value) is int for value in leg)
        assert provider.routes == asked
        # The provider gets a plain pair of the stops' own codes.
        for route in provider.routes:
            assert type(route) is tuple and len(route) == 2
            assert all(type(code) is AirportCode for code in route)
    assert min(seen.values()) > 50, seen


def assert_exact_stops(itin):
    assert type(itin) is Itinerary
    for stop in itin.stops:
        assert type(stop) is Stop
        assert type(stop.airport) is AirportCode
        assert type(stop.arrival) is int
        assert type(stop.departure) is int


def test_reports_traces_and_corrections_hold_exact_records():
    kinds = set()
    adjusted = 0
    for itin, table, policy in broken_cases():
        provider = FixtureProvider(table)
        report = validate(itin, provider, policy)
        assert type(report) is ValidationReport
        assert all(type(issue) is Issue and type(issue.kind) is str for issue in report.issues)
        assert list(report.issues) == brute_force_issues(itin, table, policy)
        kinds.update(issue.kind for issue in report.issues)

        fixed, trace = correct(itin, provider, policy)
        assert type(trace) is CorrectionTrace
        assert_exact_stops(fixed)
        for adjustment in trace.adjustments:
            assert type(adjustment) is Adjustment
            assert type(adjustment.old) is int
            assert type(adjustment.new) is int
            assert type(adjustment.field) is str and type(adjustment.reason) is str
            assert getattr(itin.stops[adjustment.stop_index], adjustment.field) == adjustment.old
            assert Adjustment(*adjustment) == adjustment
        adjusted += len(trace.adjustments)
        after = validate(fixed, provider, policy)
        assert all(type(issue) is Issue for issue in after.issues)
        assert {issue.kind for issue in after.issues} <= {IssueKind.ROUTE_DATA_UNAVAILABLE}

        parsed = parse_itinerary(render_itinerary(fixed), len(fixed))
        assert_exact_stops(parsed)
        assert parsed == fixed
    assert kinds == {"overlap", "transit_too_short", "transit_too_long", "stay_too_short", "route_data_unavailable"}
    assert adjusted > 0


def test_correction_reuses_what_it_leaves_alone():
    reused = rebuilt = 0
    for itin, table, policy in broken_cases():
        fixed, trace = correct(itin, FixtureProvider(table), policy)
        new = {(adj.stop_index, adj.field): adj.new for adj in trace.adjustments}
        assert len(fixed.stops) == len(itin.stops)
        for i, (before, after) in enumerate(zip(itin.stops, fixed.stops)):
            if not any(key[0] == i for key in new):
                reused += 1
                assert after is before
                continue
            rebuilt += 1
            assert after.place_name is before.place_name and after.airport is before.airport
            # A field no adjustment names is the input's own timestamp.
            for field in ("arrival", "departure"):
                value = getattr(after, field)
                assert value is new.get((i, field), getattr(before, field))
    assert min(reused, rebuilt) > 100, (reused, rebuilt)
