from __future__ import annotations

import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itiguard import model
from itiguard.correction import correct
from itiguard.durations import CachedProvider, FixtureProvider, FlightDuration, RouteUnavailable
from itiguard.model import AirportCode, Itinerary, Stop, parse_timestamp
from itiguard.validation import (
    NO_ROUTE_DATA,
    SEGMENT_ISSUE_KINDS,
    Issue,
    IssueKind,
    ValidationPolicy,
    ValidationReport,
    check_against_bounds,
    resolve_segment_bounds,
    segment_violation,
    stay_violation,
    validate,
)
from support import CountingProvider, brute_force_issues, open_fds, random_corpus, random_itinerary


def make_stop(code: str, arrival: str, departure: str) -> Stop:
    return Stop(f"City {code}", AirportCode(code), parse_timestamp(arrival), parse_timestamp(departure))


def checked(
    stays: list[int], gap: int = 450, bounds: tuple[int, int] = (300, 600)
) -> tuple[Issue, ...]:
    """check_against_bounds on stops with these stays in minutes, each leg
    taking gap minutes against bounds."""
    stops, at = [], 0
    for i, stay in enumerate(stays):
        code = AirportCode("AAA" if i % 2 else "BBB")
        stops.append(Stop(f"City {i}", code, at, at + stay))
        at += stay + gap
    report = check_against_bounds(Itinerary(stops), [bounds] * (len(stays) - 1), ValidationPolicy())
    return report.issues


class TestPolicy:
    def test_defaults(self):
        policy = ValidationPolicy()
        assert policy.min_stay_minutes == 2880
        assert policy.buffer_minutes == 240
        assert policy.max_multiplier == 2.0
        assert policy.strict is False

    @pytest.mark.parametrize(
        "kwargs",
        [{"min_stay_minutes": 0}, {"buffer_minutes": -1}, {"max_multiplier": 1.0}],
    )
    def test_rejects_degenerate_values(self, kwargs):
        with pytest.raises(ValueError):
            ValidationPolicy(**kwargs)

    def test_zero_buffer_accepted(self):
        assert ValidationPolicy(buffer_minutes=0).buffer_minutes == 0

    def test_one_minute_stay_accepted(self):
        assert ValidationPolicy(min_stay_minutes=1).min_stay_minutes == 1

    @pytest.mark.parametrize("field, name", [("min_stay_minutes", "min_stay"), ("buffer_minutes", "buffer")])
    def test_a_span_past_what_the_wire_form_spells_is_refused(self, field, name):
        # From 0001-01-01 00:00 to 9999-12-31 23:59.
        span = model._MAX_MINUTES - model._MIN_MINUTES
        assert span == 5_258_964_959
        assert getattr(ValidationPolicy(**{field: span}), field) == span
        with pytest.raises(ValueError) as exc:
            ValidationPolicy(**{field: span + 1})
        assert str(exc.value) == f"{name} must be <= 5258964959"

    def test_overflow_edge_counts_the_buffer(self):
        # t_max of the longest flight, (2880 + 240) * multiplier, overflows
        # just above 5.76e304; without the buffer it would not until 6.24e304.
        assert ValidationPolicy(buffer_minutes=240, max_multiplier=5.7e304).max_multiplier == 5.7e304
        with pytest.raises(ValueError, match="not finite or too large"):
            ValidationPolicy(buffer_minutes=240, max_multiplier=6e304)


class TestCheckStay:
    """The minimum-stay rule as check_against_bounds reports it."""

    def test_exactly_minimum_passes(self):
        assert checked([2880, 2880]) == ()

    def test_one_minute_under_fails(self):
        (issue,) = checked([2880, 2880, 2879])
        assert issue == Issue(IssueKind.STAY_TOO_SHORT, 2, observed=2879, required=2880)

    def test_inverted_times_are_a_short_stay(self):
        (issue,) = checked([-2880, 2880])
        assert issue.kind is IssueKind.STAY_TOO_SHORT
        assert issue.observed == -2880


class TestCheckSegment:
    """The three leg rules as check_against_bounds reports them."""

    BOUNDS = (300, 600)  # (t_min, t_max)

    @pytest.mark.parametrize("gap", [300, 600, 450])
    def test_within_bounds_passes(self, gap):
        assert checked([2880, 2880], gap, self.BOUNDS) == ()

    def test_under_minimum(self):
        (issue,) = checked([2880, 2880], 299, self.BOUNDS)
        assert issue == Issue(IssueKind.TRANSIT_TOO_SHORT, 0, observed=299, required=300)

    def test_over_maximum(self):
        (issue,) = checked([2880, 2880], 601, self.BOUNDS)
        assert issue == Issue(IssueKind.TRANSIT_TOO_LONG, 0, observed=601, required=600)

    def test_negative_is_overlap(self):
        (issue,) = checked([2880, 2880], -1, self.BOUNDS)
        assert issue == Issue(IssueKind.OVERLAP, 0, observed=-1, required=300)


class TestTransitBounds:
    """The bounds formula, t_min = flight + buffer and t_max =
    int(t_min * multiplier), as resolve_segment_bounds applies it."""

    @staticmethod
    def resolved(flight: int, buffer: int, multiplier: float) -> tuple[int, int]:
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("FRA", "2025-06-04 10:00", "2025-06-06 10:00"),
            )
        )
        policy = ValidationPolicy(buffer_minutes=buffer, max_multiplier=multiplier)
        (leg,) = resolve_segment_bounds(itin, FixtureProvider({("SYD", "FRA"): flight}), policy)
        assert type(leg) is tuple
        return leg

    def test_flight_plus_buffer_and_twice_that(self):
        assert self.resolved(1020, 240, 2.0) == (1260, 2520)

    def test_multiplier_truncates(self):
        assert self.resolved(100, 0, 1.5) == (100, 150)

    @given(flight=st.integers(1, 2880), buffer=st.integers(0, 600))
    @settings(max_examples=200)
    def test_window_is_well_formed(self, flight, buffer):
        t_min, t_max = self.resolved(flight, buffer, 2.0)
        assert flight <= t_min <= t_max
        assert t_max == 2 * t_min


class TestRuleFunctions:
    """The int rule functions at their edges."""

    def test_stay_at_minimum_passes(self):
        policy = ValidationPolicy(min_stay_minutes=2880)
        assert stay_violation(2880, policy) is None
        assert stay_violation(2879, policy) is IssueKind.STAY_TOO_SHORT

    @pytest.mark.parametrize("travel", [300, 600])
    def test_travel_at_a_bound_passes(self, travel):
        assert segment_violation(travel, 300, 600) is None

    def test_just_outside_the_bounds(self):
        assert segment_violation(299, 300, 600) is IssueKind.TRANSIT_TOO_SHORT
        assert segment_violation(601, 300, 600) is IssueKind.TRANSIT_TOO_LONG

    @pytest.mark.parametrize("travel", [-1, -600, -10**9])
    def test_negative_travel_is_overlap_before_too_short(self, travel):
        assert segment_violation(travel, 300, 600) is IssueKind.OVERLAP
        assert segment_violation(travel, 0, 0) is IssueKind.OVERLAP

    def test_zero_travel_with_zero_minimum_passes(self):
        assert segment_violation(0, 0, 0) is None


class TestValidate:
    def test_reference_sample_issue_list(self, sample_invalid, demo_provider):
        report = validate(sample_invalid, demo_provider)
        assert report.verdict == "invalid"
        assert list(report.issues) == [
            Issue(IssueKind.STAY_TOO_SHORT, 0, observed=20 * 60, required=48 * 60),
            Issue(IssueKind.TRANSIT_TOO_SHORT, 0, observed=12 * 60, required=21 * 60),
            Issue(IssueKind.TRANSIT_TOO_LONG, 1, observed=104 * 60, required=10 * 60),
        ]
        assert report.unverifiable_segments == ()

    def test_corrected_sample_is_valid(self, sample_corrected, demo_provider):
        report = validate(sample_corrected, demo_provider)
        assert report.is_valid
        assert report.verdict == "valid"
        assert report.issues == ()

    def test_same_airport_leg_is_an_issue_and_unverifiable(self):
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("SYD", "2025-06-03 20:00", "2025-06-05 20:00"),
            )
        )
        report = validate(itin, FixtureProvider({}))
        assert [issue.kind for issue in report.issues] == [IssueKind.ROUTE_DATA_UNAVAILABLE]
        assert report.unverifiable_segments == (0,)
        assert not report.is_valid

    def test_provider_miss_skips_quietly(self):
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("FRA", "2025-06-03 20:00", "2025-06-05 20:00"),
            )
        )
        report = validate(itin, FixtureProvider({}))
        assert report.issues == ()
        assert report.unverifiable_segments == (0,)
        assert report.is_valid

    def test_provider_miss_strict_raises(self):
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("FRA", "2025-06-03 20:00", "2025-06-05 20:00"),
            )
        )
        with pytest.raises(RouteUnavailable) as failure:
            validate(itin, FixtureProvider({}), ValidationPolicy(strict=True))
        # The provider's own error, not a copy: its route and text reach the caller.
        assert type(failure.value) is RouteUnavailable and failure.value.__cause__ is None
        assert failure.value.route == ("SYD", "FRA")
        assert str(failure.value).startswith("no flight duration for SYD->FRA after 1 attempt(s): ")

    def test_report_serializes(self, sample_invalid, demo_provider):
        doc = validate(sample_invalid, demo_provider).to_dict()
        assert doc["verdict"] == "invalid"
        assert doc["issues"][0] == {
            "kind": "stay_too_short",
            "subject": 0,
            "observed": 1200,
            "required": 2880,
        }

    def test_matches_brute_force_oracle_on_random_corpus(self):
        rng = random.Random(1234)
        policy = ValidationPolicy()
        for _ in range(300):
            itin, provider, table = random_itinerary(rng)
            assert list(validate(itin, provider, policy).issues) == brute_force_issues(
                itin, table, policy
            )

    def test_matches_oracle_with_same_airport_legs_and_missing_routes(self):
        rng = random.Random(4321)
        policy = ValidationPolicy()
        for _ in range(300):
            itin, _, table = random_itinerary(rng)
            stops = list(itin.stops)
            for i in range(1, len(stops)):
                if rng.random() < 0.2:
                    stops[i] = stops[i]._replace(airport=stops[i - 1].airport)
            itin = Itinerary(tuple(stops))
            table = {route: minutes for route, minutes in table.items() if rng.random() < 0.75}
            provider = FixtureProvider(table)
            unchecked = tuple(
                i
                for i, (a, b) in enumerate(zip(stops, stops[1:]))
                if a.airport == b.airport
                or (min(str(a.airport), str(b.airport)), max(str(a.airport), str(b.airport)))
                not in table
            )
            report = validate(itin, provider, policy)
            assert list(report.issues) == brute_force_issues(itin, table, policy)
            assert report.unverifiable_segments == unchecked
            fixed, trace = correct(itin, provider, policy)
            assert trace.skipped_segments == unchecked
            left = validate(fixed, provider, policy).issues
            assert {issue.kind for issue in left} <= {IssueKind.ROUTE_DATA_UNAVAILABLE}

    def test_custom_policy_respected(self, sample_invalid, demo_provider):
        # A 20h stay passes once the minimum drops below it.
        lax = ValidationPolicy(min_stay_minutes=18 * 60)
        kinds = [issue.kind for issue in validate(sample_invalid, demo_provider, lax).issues]
        assert IssueKind.STAY_TOO_SHORT not in kinds


class DirectedProvider:
    """Durations per directed route: (A, B) and (B, A) may differ, and a
    route missing from the table is unavailable."""

    def __init__(self, table: dict[tuple[str, str], int]):
        self.table = table

    def route_duration(self, route):
        minutes = self.table.get(route)
        if minutes is None:
            raise RouteUnavailable(route, attempts=1, reason="not in the table")
        return FlightDuration(minutes)


class TestKnownRoutes:
    """One CachedProvider across validate() calls: the per-run memo of what
    the provider said for each route, a failure included."""

    @staticmethod
    def sydney_frankfurt_cairo() -> Itinerary:
        return Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("FRA", "2025-06-03 20:00", "2025-06-05 20:00"),
                make_stop("CAI", "2025-06-06 08:00", "2025-06-08 08:00"),
            )
        )

    def test_shared_memo_gives_the_reports_of_fresh_resolution(self):
        rng = random.Random(2718)
        itineraries, _ = random_corpus(rng, 200)
        codes = sorted({str(stop.airport) for itin in itineraries for stop in itin.stops})
        table = {(a, b): rng.randint(60, 1200) for a in codes for b in codes if a != b and rng.random() < 0.8}
        policy = ValidationPolicy(buffer_minutes=90, max_multiplier=1.5)
        counting = CountingProvider(DirectedProvider(table))
        memo = CachedProvider(counting)
        for itin in itineraries:
            assert validate(itin, memo, policy) == validate(itin, DirectedProvider(table), policy)
        routes = {
            (a.airport, b.airport)
            for itin in itineraries
            for a, b in zip(itin.stops, itin.stops[1:])
            if a.airport != b.airport
        }
        # Each directed route was asked for once, those without a duration
        # too, and the memo answers for it from then on.
        assert sorted(counting.routes) == sorted(routes)
        assert any(route not in table for route in routes)
        for route in routes:
            if route in table:
                assert memo.route_duration(route) == FlightDuration(table[route])
            else:
                with pytest.raises(RouteUnavailable) as failure:
                    memo.route_duration(route)
                assert failure.value.route == route
        assert counting.calls == len(routes)

    def test_shared_memo_gives_the_strict_outcomes_of_fresh_resolution(self):
        rng = random.Random(3141)
        itineraries, _ = random_corpus(rng, 200)
        codes = sorted({str(stop.airport) for itin in itineraries for stop in itin.stops})
        table = {(a, b): rng.randint(60, 1200) for a in codes for b in codes if a != b and rng.random() < 0.9}
        strict = ValidationPolicy(buffer_minutes=90, max_multiplier=1.5, strict=True)
        counting = CountingProvider(DirectedProvider(table))
        memo = CachedProvider(counting)
        raised = 0
        for itin in itineraries:
            try:
                expected = validate(itin, DirectedProvider(table), strict)
            except RouteUnavailable as fresh:
                with pytest.raises(RouteUnavailable) as shared:
                    validate(itin, memo, strict)
                assert (shared.value.route, shared.value.attempts, shared.value.reason) == (
                    fresh.route, fresh.attempts, fresh.reason
                )
                assert str(shared.value) == str(fresh)
                raised += 1
            else:
                assert validate(itin, memo, strict) == expected
        assert 0 < raised < len(itineraries)
        # Each directed route was asked for once, a dead one too, however
        # many later itineraries stopped at it.
        assert sorted(counting.routes) == sorted(set(counting.routes))
        assert raised > sum(route not in table for route in counting.routes)

    def test_a_known_entry_is_used_without_asking_the_provider(self):
        itin = self.sydney_frankfurt_cairo()
        counting = CountingProvider(FixtureProvider({("SYD", "FRA"): 400}))
        memo = CachedProvider(counting)
        first = validate(itin, memo, ValidationPolicy())
        assert first.issues == (Issue(IssueKind.TRANSIT_TOO_SHORT, 0, observed=600, required=640),)
        assert first.unverifiable_segments == (1,)
        assert counting.routes == [("SYD", "FRA"), ("FRA", "CAI")]
        assert validate(itin, memo, ValidationPolicy()) == first
        assert counting.calls == 2

    def test_strict_miss_raises_and_stores_its_error_for_its_route(self):
        itin = self.sydney_frankfurt_cairo()
        strict = ValidationPolicy(strict=True)
        counting = CountingProvider(FixtureProvider({("SYD", "FRA"): 60}))
        memo = CachedProvider(counting)
        with pytest.raises(RouteUnavailable) as first:
            validate(itin, memo, strict)
        failure = first.value
        assert failure.route == ("FRA", "CAI") and failure.attempts == 1
        assert counting.calls == 2
        # A later leg on the dead route raises a new error with the same
        # route, attempts, reason and text without a lookup.
        with pytest.raises(RouteUnavailable) as again:
            validate(itin, memo, strict)
        assert counting.calls == 2
        remembered = again.value
        assert remembered is not failure
        assert (remembered.route, remembered.attempts, remembered.reason) == (
            failure.route, failure.attempts, failure.reason
        )
        assert str(remembered) == str(failure)

    def test_same_airport_legs_are_not_stored(self):
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("SYD", "2025-06-03 20:00", "2025-06-05 20:00"),
            )
        )
        counting = CountingProvider(FixtureProvider({}))
        report = validate(itin, CachedProvider(counting), ValidationPolicy())
        assert [issue.kind for issue in report.issues] == [IssueKind.ROUTE_DATA_UNAVAILABLE]
        assert counting.calls == 0

    def test_a_failed_route_adds_no_cache_file_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        memo = CachedProvider(FixtureProvider({("SYD", "FRA"): 60}), path=path)
        report = validate(self.sydney_frankfurt_cairo(), memo, ValidationPolicy())
        memo.close()
        assert report.unverifiable_segments == (1,)
        assert path.read_text(encoding="utf-8") == "SYD FRA 60\n"
        # The failure lived in memory only: a new provider on the file asks again.
        counting = CountingProvider(FixtureProvider({}))
        with pytest.raises(RouteUnavailable):
            CachedProvider(counting, path=path).route_duration(("FRA", "CAI"))
        assert counting.calls == 1


class SlottedProvider:
    """A provider that cannot be weakly referenced: __slots__ without
    __weakref__. Counts its lookups."""

    __slots__ = ("table", "calls")

    def __init__(self, table: dict[tuple[str, str], int]):
        self.table = table
        self.calls = 0

    def route_duration(self, route):
        self.calls += 1
        return FlightDuration(self.table[route])


def outcome(call, *args):
    """What call(*args) returned, or the type and text of the
    RouteUnavailable it raised."""
    try:
        return call(*args)
    except RouteUnavailable as err:
        return type(err), str(err)


class TestWindowMemo:
    """resolve_segment_bounds remembers each route's window for the provider
    and policy objects it was last called with."""

    itinerary = staticmethod(TestKnownRoutes.sydney_frankfurt_cairo)
    TABLE = {("SYD", "FRA"): 400, ("FRA", "CAI"): 240}

    def test_a_second_call_with_the_same_provider_and_policy_asks_for_no_route(self):
        itin, policy = self.itinerary(), ValidationPolicy()
        counting = CountingProvider(FixtureProvider(self.TABLE))
        first = validate(itin, counting, policy)
        assert counting.routes == [("SYD", "FRA"), ("FRA", "CAI")]
        assert validate(itin, counting, policy) == first
        assert resolve_segment_bounds(itin, counting, policy) == [(640, 1280), (480, 960)]
        assert correct(itin, counting, policy) == correct(itin, FixtureProvider(self.TABLE), policy)
        assert counting.calls == 2

    def test_a_new_policy_object_asks_again(self):
        itin = self.itinerary()
        counting = CountingProvider(FixtureProvider(self.TABLE))
        validate(itin, counting, ValidationPolicy())
        # An equal policy is still another object.
        validate(itin, counting, ValidationPolicy())
        assert counting.calls == 4
        longer = ValidationPolicy(buffer_minutes=300)
        assert resolve_segment_bounds(itin, counting, longer) == [(700, 1400), (540, 1080)]
        assert counting.calls == 6

    def test_a_new_provider_object_asks_again(self):
        itin, policy = self.itinerary(), ValidationPolicy()
        first = CountingProvider(FixtureProvider(self.TABLE))
        second = CountingProvider(FixtureProvider({("SYD", "FRA"): 500, ("FRA", "CAI"): 240}))
        validate(itin, first, policy)
        assert resolve_segment_bounds(itin, second, policy) == [(740, 1480), (480, 960)]
        # One slot: going back to the first provider asks it again.
        assert resolve_segment_bounds(itin, first, policy) == [(640, 1280), (480, 960)]
        assert (first.calls, second.calls) == (4, 2)

    def test_a_dead_route_is_asked_for_on_every_call(self):
        itin, policy = self.itinerary(), ValidationPolicy()
        counting = CountingProvider(FixtureProvider({("SYD", "FRA"): 400}))
        for _ in range(3):
            assert validate(itin, counting, policy).unverifiable_segments == (1,)
        assert counting.routes == [("SYD", "FRA")] + [("FRA", "CAI")] * 3

    def test_a_dead_route_raises_the_same_error_on_every_strict_call(self):
        itin, strict = self.itinerary(), ValidationPolicy(strict=True)
        inner = CountingProvider(FixtureProvider({("SYD", "FRA"): 400}))
        cached = CountingProvider(CachedProvider(inner))
        texts = []
        for _ in range(3):
            with pytest.raises(RouteUnavailable) as failure:
                validate(itin, cached, strict)
            texts.append(str(failure.value))
        assert texts == ["no flight duration for FRA->CAI after 1 attempt(s): no fixture duration for route"] * 3
        assert cached.routes == [("SYD", "FRA")] + [("FRA", "CAI")] * 3
        assert inner.routes == [("SYD", "FRA"), ("FRA", "CAI")]

    def test_a_same_airport_leg_is_never_asked_for(self):
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("SYD", "2025-06-03 20:00", "2025-06-05 20:00"),
                make_stop("FRA", "2025-06-06 08:00", "2025-06-08 08:00"),
            )
        )
        policy = ValidationPolicy()
        counting = CountingProvider(FixtureProvider(self.TABLE))
        for _ in range(2):
            assert resolve_segment_bounds(itin, counting, policy) == [NO_ROUTE_DATA, (640, 1280)]
        assert counting.routes == [("SYD", "FRA")]

    def test_a_dropped_provider_closes_its_cache_file(self, tmp_path):
        before = open_fds()
        provider = CachedProvider(FixtureProvider(self.TABLE), path=tmp_path / "cache.txt")
        validate(self.itinerary(), provider, ValidationPolicy())
        assert (tmp_path / "cache.txt").read_text(encoding="utf-8") == "SYD FRA 400\nFRA CAI 240\n"
        assert open_fds() == before + 1
        del provider
        assert open_fds() == before

    def test_a_provider_without_weak_references_gets_a_memo_per_call(self):
        # SYD-FRA twice: the call's own memo answers the second leg.
        itin = Itinerary(
            (
                make_stop("SYD", "2025-06-01 10:00", "2025-06-03 10:00"),
                make_stop("FRA", "2025-06-03 20:00", "2025-06-05 20:00"),
                make_stop("SYD", "2025-06-06 08:00", "2025-06-08 08:00"),
                make_stop("FRA", "2025-06-08 20:00", "2025-06-10 20:00"),
            )
        )
        table = {("SYD", "FRA"): 400, ("FRA", "SYD"): 420}
        slotted, policy = SlottedProvider(table), ValidationPolicy()
        with pytest.raises(TypeError):
            weakref.ref(slotted)
        expected = validate(itin, DirectedProvider(table), policy)
        assert expected.issues
        for calls in (2, 4):
            assert validate(itin, slotted, policy) == expected
            assert slotted.calls == calls

    def test_alternating_providers_and_policies_match_fresh_providers(self):
        rng = random.Random(1618)
        itineraries, table = random_corpus(rng, 300)
        # A second table with other durations and other dead routes.
        other = {route: minutes + 37 for route, minutes in table.items() if rng.random() < 0.8}
        tables = (table, other)
        providers = (CachedProvider(FixtureProvider(table)), FixtureProvider(other))
        policies = (ValidationPolicy(buffer_minutes=90, max_multiplier=1.5), ValidationPolicy(strict=True))
        combos = [(rng.randrange(2), rng.randrange(2)) for _ in itineraries]
        # A fresh provider and a fresh copy of the policy for each call, so
        # that no call finds another's windows.
        expected = [
            (outcome(validate, itin, FixtureProvider(tables[p]), ValidationPolicy(*policies[q])),
             outcome(correct, itin, FixtureProvider(tables[p]), ValidationPolicy(*policies[q])))
            for itin, (p, q) in zip(itineraries, combos)
        ]
        got = [
            (outcome(validate, itin, providers[p], policies[q]), outcome(correct, itin, providers[p], policies[q]))
            for itin, (p, q) in zip(itineraries, combos)
        ]
        assert got == expected
        raised = sum(report[0] is RouteUnavailable for report, _ in expected)
        assert 0 < raised < len(itineraries)

def test_issue_kinds_are_the_wire_strings():
    # A kind is the str the JSON report prints, so a dict keyed by wire
    # strings finds it; only the three leg kinds mark a segment invalid.
    wire = {
        "overlap": 0,
        "transit_too_short": 1,
        "transit_too_long": 2,
        "stay_too_short": 3,
        "route_data_unavailable": 4,
    }
    kinds = (
        IssueKind.OVERLAP,
        IssueKind.TRANSIT_TOO_SHORT,
        IssueKind.TRANSIT_TOO_LONG,
        IssueKind.STAY_TOO_SHORT,
        IssueKind.ROUTE_DATA_UNAVAILABLE,
    )
    assert [type(kind) for kind in kinds] == [str] * 5
    assert [wire[kind] for kind in kinds] == [0, 1, 2, 3, 4]
    assert SEGMENT_ISSUE_KINDS == frozenset(kinds[:3])


def test_empty_report_is_valid():
    report = ValidationReport()
    assert report.is_valid
    assert report.verdict == "valid"
