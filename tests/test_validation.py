from __future__ import annotations

import random

import pytest

from itiguard.correction import correct
from itiguard.durations import FixtureProvider, TransitBounds
from itiguard.model import AirportCode, Itinerary, Stop, Timestamp
from itiguard.validation import (
    Issue,
    IssueKind,
    ProviderError,
    ValidationPolicy,
    ValidationReport,
    check_segment,
    check_stay,
    segment_violation,
    stay_violation,
    validate,
)
from support import brute_force_issues, random_itinerary


def make_stop(code: str, arrival: str, departure: str) -> Stop:
    return Stop(f"City {code}", AirportCode(code), Timestamp.parse(arrival), Timestamp.parse(departure))


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


class TestCheckStay:
    def test_exactly_minimum_passes(self):
        assert check_stay(0, 2880, ValidationPolicy()) is None

    def test_one_minute_under_fails(self):
        issue = check_stay(2, 2879, ValidationPolicy())
        assert issue == Issue(IssueKind.STAY_TOO_SHORT, 2, observed=2879, required=2880)

    def test_inverted_times_are_a_short_stay(self):
        issue = check_stay(0, -2880, ValidationPolicy())
        assert issue.kind is IssueKind.STAY_TOO_SHORT
        assert issue.observed == -2880


class TestCheckSegment:
    BOUNDS = TransitBounds(t_min=300, t_max=600)

    @pytest.mark.parametrize("gap", [300, 600, 450])
    def test_within_bounds_passes(self, gap):
        assert check_segment(0, gap, self.BOUNDS) is None

    def test_under_minimum(self):
        issue = check_segment(0, 299, self.BOUNDS)
        assert issue == Issue(IssueKind.TRANSIT_TOO_SHORT, 0, observed=299, required=300)

    def test_over_maximum(self):
        issue = check_segment(0, 601, self.BOUNDS)
        assert issue == Issue(IssueKind.TRANSIT_TOO_LONG, 0, observed=601, required=600)

    def test_negative_is_overlap(self):
        issue = check_segment(0, -1, self.BOUNDS)
        assert issue == Issue(IssueKind.OVERLAP, 0, observed=-1, required=300)


class TestRuleFunctions:
    """The int rule functions at their edges, and the Issue builders over them."""

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

    def test_check_stay_agrees_on_a_grid(self):
        for min_stay in (1, 60, 2880):
            policy = ValidationPolicy(min_stay_minutes=min_stay)
            for stay in range(-2 * min_stay - 2, 2 * min_stay + 3, max(1, min_stay // 7)):
                kind = stay_violation(stay, policy)
                issue = check_stay(3, stay, policy)
                if kind is None:
                    assert issue is None
                else:
                    assert issue == Issue(kind, 3, observed=stay, required=min_stay)

    def test_check_segment_agrees_on_a_grid(self):
        for t_min, t_max in ((0, 0), (0, 5), (300, 300), (300, 600), (1260, 2520)):
            bounds = TransitBounds(t_min=t_min, t_max=t_max)
            for travel in range(-t_max - 3, 2 * t_max + 4, max(1, t_max // 11)):
                kind = segment_violation(travel, t_min, t_max)
                issue = check_segment(5, travel, bounds)
                if kind is None:
                    assert issue is None
                    assert 0 <= travel and t_min <= travel <= t_max
                else:
                    required = t_max if kind is IssueKind.TRANSIT_TOO_LONG else t_min
                    assert issue == Issue(kind, 5, observed=travel, required=required)
            for travel in (t_min - 1, t_min, t_max, t_max + 1):
                issue = check_segment(5, travel, bounds)
                assert (issue.kind if issue else None) is segment_violation(travel, t_min, t_max)


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
        with pytest.raises(ProviderError):
            validate(itin, FixtureProvider({}), ValidationPolicy(strict=True))

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


def test_empty_report_is_valid():
    report = ValidationReport()
    assert report.is_valid
    assert report.verdict == "valid"
