from __future__ import annotations

import random

import pytest

from itiguard import correction
from itiguard.correction import Adjustment, CorrectionTrace, NonConvergenceError, correct
from itiguard.durations import FixtureProvider, RouteUnavailable
from itiguard.model import AirportCode, Itinerary, Stop, format_timestamp, parse_timestamp
from itiguard.validation import IssueKind, ValidationPolicy, validate
from support import CountingProvider, random_itinerary


def make_stop(code: str, arrival: str, departure: str) -> Stop:
    return Stop(f"City {code}", AirportCode(code), parse_timestamp(arrival), parse_timestamp(departure))


def times(itin: Itinerary) -> list[tuple[str, str]]:
    return [(format_timestamp(stop.arrival), format_timestamp(stop.departure)) for stop in itin.stops]


class TestReferenceSample:
    def test_corrected_timestamps(self, sample_invalid, demo_provider):
        fixed, trace = correct(sample_invalid, demo_provider)
        assert times(fixed) == [
            ("2025-06-07 10:00", "2025-06-09 10:00"),
            ("2025-06-10 07:00", "2025-06-12 07:00"),
            ("2025-06-12 12:00", "2025-06-17 13:00"),
            ("2025-06-17 22:00", "2025-06-21 09:00"),
        ]
        assert trace.passes == 1
        assert trace.skipped_segments == ()

    def test_matches_committed_fixture(self, sample_invalid, sample_corrected, demo_provider):
        fixed, _ = correct(sample_invalid, demo_provider)
        assert fixed == sample_corrected

    def test_first_arrival_never_moves(self, sample_invalid, demo_provider):
        fixed, _ = correct(sample_invalid, demo_provider)
        assert fixed.stops[0].arrival == sample_invalid.stops[0].arrival

    def test_trace_records_rules_at_application_time(self, sample_invalid, demo_provider):
        _, trace = correct(sample_invalid, demo_provider)
        fields = [(adj.stop_index, adj.field, adj.reason) for adj in trace.adjustments]
        # The stay fix moves Sydney's departure past Frankfurt's arrival, so
        # by the time the first leg is repaired it is an overlap, not a
        # too-short transit as in the original report.
        assert fields == [
            (0, "departure", IssueKind.STAY_TOO_SHORT),
            (1, "arrival", IssueKind.OVERLAP),
            (1, "departure", IssueKind.STAY_TOO_SHORT),
            (2, "arrival", IssueKind.TRANSIT_TOO_LONG),
        ]

    def test_output_revalidates_clean(self, sample_invalid, demo_provider):
        fixed, _ = correct(sample_invalid, demo_provider)
        assert validate(fixed, demo_provider).is_valid


class TestOverlapCase:
    def test_two_stop_overlap(self):
        itin = Itinerary(
            (
                make_stop("AAA", "2025-06-01 08:00", "2025-06-03 08:00"),
                make_stop("BBB", "2025-06-03 06:00", "2025-06-06 06:00"),
            )
        )
        provider = FixtureProvider({("AAA", "BBB"): 60})
        fixed, trace = correct(itin, provider)
        assert fixed.stops[1].arrival == parse_timestamp("2025-06-03 13:00")
        assert [adj.reason for adj in trace.adjustments] == [IssueKind.OVERLAP]


class TestValidInput:
    def test_identity(self, sample_corrected, demo_provider):
        fixed, trace = correct(sample_corrected, demo_provider)
        assert fixed == sample_corrected
        assert trace.adjustments == ()
        assert trace.passes == 1


class TestRandomCorpus:
    def corpus(self, seed: int, count: int):
        rng = random.Random(seed)
        return [random_itinerary(rng) for _ in range(count)]

    def test_output_always_validates_clean(self):
        for itin, provider, _ in self.corpus(99, 300):
            fixed, _ = correct(itin, provider)
            assert validate(fixed, provider).is_valid

    def test_idempotent(self):
        for itin, provider, _ in self.corpus(100, 300):
            once, _ = correct(itin, provider)
            twice, second_trace = correct(once, provider)
            assert twice == once
            assert second_trace.adjustments == ()

    def test_single_pass(self):
        for itin, provider, _ in self.corpus(101, 300):
            _, trace = correct(itin, provider)
            assert trace.passes == 1

    def test_city_order_and_first_arrival_preserved(self):
        for itin, provider, _ in self.corpus(102, 100):
            fixed, _ = correct(itin, provider)
            assert [s.airport for s in fixed.stops] == [s.airport for s in itin.stops]
            assert fixed.stops[0].arrival == itin.stops[0].arrival


class TestOnePass:
    def test_one_lookup_per_leg(self):
        rng = random.Random(104)
        for _ in range(50):
            itin, provider, _ = random_itinerary(rng)
            counting = CountingProvider(provider)
            correct(itin, counting)
            assert counting.calls == len(itin) - 1

    def test_issue_left_by_the_pass_raises(self, sample_invalid, demo_provider, monkeypatch):
        monkeypatch.setattr(correction, "_adjustment_pass", lambda stops, *rest: stops)
        with pytest.raises(NonConvergenceError, match="3 issue"):
            correct(sample_invalid, demo_provider)


class TestUnresolvableRoutes:
    def itinerary(self) -> Itinerary:
        return Itinerary(
            (
                make_stop("AAA", "2025-06-01 08:00", "2025-06-01 09:00"),
                make_stop("BBB", "2025-06-01 10:00", "2025-06-01 11:00"),
                make_stop("CCC", "2025-06-01 12:00", "2025-06-01 13:00"),
            )
        )

    def test_missing_route_skipped_and_reported(self):
        provider = FixtureProvider({("BBB", "CCC"): 60})
        fixed, trace = correct(self.itinerary(), provider)
        assert trace.skipped_segments == (0,)
        # Stays still get fixed everywhere; the unresolvable leg keeps its gap.
        report = validate(fixed, provider)
        assert report.issues == ()
        assert report.unverifiable_segments == (0,)

    def test_same_airport_leg_skipped(self):
        itin = Itinerary(
            (
                make_stop("AAA", "2025-06-01 08:00", "2025-06-03 08:00"),
                make_stop("AAA", "2025-06-03 10:00", "2025-06-05 10:00"),
            )
        )
        fixed, trace = correct(itin, FixtureProvider({}))
        assert trace.skipped_segments == (0,)
        # The A->A issue is structural; correction cannot remove it.
        report = validate(fixed, FixtureProvider({}))
        assert [i.kind for i in report.issues] == [IssueKind.ROUTE_DATA_UNAVAILABLE]

    def test_strict_mode_raises(self):
        with pytest.raises(RouteUnavailable) as failure:
            correct(self.itinerary(), FixtureProvider({}), ValidationPolicy(strict=True))
        # The provider's error for the first leg, passed on unchanged.
        assert type(failure.value) is RouteUnavailable and failure.value.route == ("AAA", "BBB")


def apply_trace(itin: Itinerary, trace: CorrectionTrace) -> Itinerary:
    """Re-apply a trace to its input in order, checking that each adjustment
    overwrites exactly the value it logged as old."""
    stops = list(itin.stops)
    for adj in trace.adjustments:
        stop = stops[adj.stop_index]
        if adj.field == "arrival":
            assert stop.arrival == adj.old
            stops[adj.stop_index] = stop._replace(arrival=adj.new)
        else:
            assert stop.departure == adj.old
            stops[adj.stop_index] = stop._replace(departure=adj.new)
    return Itinerary(tuple(stops))


class TestReplay:
    def test_reproduces_output(self, sample_invalid, demo_provider):
        fixed, trace = correct(sample_invalid, demo_provider)
        assert apply_trace(sample_invalid, trace) == fixed

    def test_random_round_trip(self):
        rng = random.Random(103)
        for _ in range(100):
            itin, provider, _ = random_itinerary(rng)
            fixed, trace = correct(itin, provider)
            assert apply_trace(itin, trace) == fixed


class TestTraceTypes:
    def test_no_op_adjustment_rejected(self):
        ts = parse_timestamp("2025-06-01 08:00")
        with pytest.raises(ValueError):
            Adjustment(0, "arrival", ts, ts, IssueKind.OVERLAP)

    @pytest.mark.parametrize(
        "text, step", [("0001-01-01 00:00", -1), ("9999-12-31 23:59", 1)], ids=["year-0001", "year-9999"]
    )
    def test_adjustment_to_a_timestamp_the_wire_cannot_spell_names_its_stop(self, text, step):
        # The last spellable minute is accepted; one minute past it is refused.
        edge = parse_timestamp(text)
        old = edge - step
        assert format_timestamp(Adjustment(2, "departure", old, edge, IssueKind.STAY_TOO_SHORT).new) == text
        with pytest.raises(ValueError) as exc:
            Adjustment(2, "departure", old, edge + step, IssueKind.STAY_TOO_SHORT)
        assert str(exc.value) == (
            f"timestamp {edge + step} minutes from 1970, the repaired departure of stop 2, "
            "is outside years 0001-9999"
        )

    def test_trace_serializes(self, sample_invalid, demo_provider):
        _, trace = correct(sample_invalid, demo_provider)
        doc = trace.to_dict()
        assert doc["passes"] == 1
        assert doc["adjustments"][0] == {
            "stop_index": 0,
            "field": "departure",
            "old": "2025-06-08 06:00",
            "new": "2025-06-09 10:00",
            "reason": "stay_too_short",
        }
