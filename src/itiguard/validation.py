"""Temporal validation rules for itineraries.

Four rules, checked per stop and per leg:
  - no overlap: a leg's travel time must not be negative;
  - minimum transit: a leg must allow at least t_min = flight + buffer;
  - maximum transit: a leg must not exceed t_max = multiplier x t_min;
  - minimum stay: every stop must last at least the policy minimum (48h).

Violations are strict: exact equality with a bound passes, so an itinerary
whose times sit exactly on t_min or the minimum stay is valid. Legs whose
route duration cannot be resolved are listed as unverifiable and excluded
from the verdict in non-strict mode; strict mode raises the provider's
durations.RouteUnavailable instead. A leg between two identical airports
is structurally broken and is reported as an issue as well.

Each comparison lives in one place, stay_violation or segment_violation:
they take int minutes and name the broken rule by its IssueKind, a plain
str that Issue.kind holds and the JSON report prints as it is.
check_against_bounds turns their answer into an Issue, and the correction
pass asks them directly.

ValidationPolicy holds numbers from flags and config, so its constructor
checks them, its minutes as exact ints; the per-leg records are built
with model._new_tuple, and each leg's route is handed to the provider as
a plain (origin, destination) pair of codes.

Transit bounds: a leg's window is a plain (t_min, t_max) pair of int
minutes. t_min = flight + buffer is the minimum feasible door-to-door time,
the flight duration plus a fixed airport-logistics buffer (default 4h), and
t_max = int(t_min * multiplier) is the maximum reasonable time (default
twice t_min). resolve_segment_bounds is the one place this formula lives.
Resolving each route once per run is the provider's job: the CLI wraps
every provider in a durations.CachedProvider.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .durations import MAX_FLIGHT_MINUTES, DurationProvider, RouteUnavailable
from .model import _MAX_MINUTES, _MIN_MINUTES, Itinerary, _new_tuple

# The longest span the wire form can spell: no two timestamps it can write
# lie further apart, so a longer minimum stay or buffer could never be met.
_MAX_POLICY_MINUTES = _MAX_MINUTES - _MIN_MINUTES


class IssueKind:
    """The five rule names, as the plain strings Issue.kind holds and the
    JSON report prints."""

    OVERLAP = "overlap"
    TRANSIT_TOO_SHORT = "transit_too_short"
    TRANSIT_TOO_LONG = "transit_too_long"
    STAY_TOO_SHORT = "stay_too_short"
    ROUTE_DATA_UNAVAILABLE = "route_data_unavailable"


# Kinds that mark a flight leg (not a stay) as invalid.
SEGMENT_ISSUE_KINDS = frozenset(
    {IssueKind.OVERLAP, IssueKind.TRANSIT_TOO_SHORT, IssueKind.TRANSIT_TOO_LONG}
)


class Issue(NamedTuple):
    """One rule violation.

    subject is a stop index for STAY_TOO_SHORT and a segment index otherwise;
    observed/required are minute durations, absent for ROUTE_DATA_UNAVAILABLE.
    """

    kind: str
    subject: int
    observed: int | None = None
    required: int | None = None


class ValidationPolicy(
    namedtuple("ValidationPolicy", "min_stay_minutes buffer_minutes max_multiplier strict")
):
    __slots__ = ()

    def __new__(
        cls,
        min_stay_minutes: int = 48 * 60,
        buffer_minutes: int = 4 * 60,
        max_multiplier: float = 2.0,
        strict: bool = False,
    ):
        # Minutes are added to timestamps, which must stay exact ints.
        for name, minutes in (("min_stay_minutes", min_stay_minutes), ("buffer_minutes", buffer_minutes)):
            if type(minutes) is not int:
                raise ValueError(f"{name} must be an int, got {minutes!r}")
        if not isinstance(max_multiplier, (int, float)):
            raise ValueError(f"max_multiplier must be a number, got {max_multiplier!r}")
        if type(strict) is not bool:
            raise ValueError(f"strict must be a bool, got {strict!r}")
        if min_stay_minutes <= 0:
            raise ValueError("min_stay must be positive")
        if min_stay_minutes > _MAX_POLICY_MINUTES:
            raise ValueError(f"min_stay must be <= {_MAX_POLICY_MINUTES}")
        if buffer_minutes < 0:
            raise ValueError("buffer must be >= 0")
        if buffer_minutes > _MAX_POLICY_MINUTES:
            raise ValueError(f"buffer must be <= {_MAX_POLICY_MINUTES}")
        if max_multiplier <= 1:
            raise ValueError("max_multiplier must be > 1")
        # t_max is int(t_min * max_multiplier); it must stay finite for the
        # longest flight, which also turns away nan and infinity.
        if not math.isfinite((MAX_FLIGHT_MINUTES + buffer_minutes) * max_multiplier):
            raise ValueError(f"max_multiplier {max_multiplier} is not finite or too large")
        return tuple.__new__(cls, (min_stay_minutes, buffer_minutes, max_multiplier, strict))


class ValidationReport(NamedTuple):
    issues: tuple[Issue, ...] = ()
    unverifiable_segments: tuple[int, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not self.issues

    @property
    def verdict(self) -> str:
        return "valid" if self.is_valid else "invalid"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "issues": [issue._asdict() for issue in self.issues],
            "unverifiable_segments": list(self.unverifiable_segments),
        }


def stay_violation(stay: int, policy: ValidationPolicy) -> str | None:
    """The minimum-stay rule on a stay of departure minus arrival in minutes:
    STAY_TOO_SHORT below policy.min_stay_minutes, None from it on. A
    negative stay (inverted times) is subsumed here."""
    return IssueKind.STAY_TOO_SHORT if stay < policy.min_stay_minutes else None


def segment_violation(travel_time: int, t_min: int, t_max: int) -> str | None:
    """The overlap / minimum-transit / maximum-transit rules on a leg's
    travel time (next arrival minus departure, in minutes), checked in that
    order: a negative time is OVERLAP before it is TRANSIT_TOO_SHORT.
    Times from t_min to t_max inclusive pass (None)."""
    if travel_time < 0:
        return IssueKind.OVERLAP
    if travel_time < t_min:
        return IssueKind.TRANSIT_TOO_SHORT
    if travel_time > t_max:
        return IssueKind.TRANSIT_TOO_LONG
    return None


def resolve_segment_bounds(
    itin: Itinerary, provider: DurationProvider, policy: ValidationPolicy
) -> list[tuple[int, int] | None]:
    """Resolve each leg's transit bounds, one (t_min, t_max) entry per leg.

    Entry i is None when leg i cannot be checked: its two airports are the
    same, or the provider has no duration for its route. Which of the two
    it was can be read off the itinerary. The provider's route_duration and
    the policy's numbers are read once per call, and a leg's route goes to
    the provider as the plain pair (origin, destination) right after the
    test that its two codes differ. Strict mode re-raises the provider's
    RouteUnavailable as it is, with its route, attempts and reason.
    """
    route_duration = provider.route_duration
    buffer = policy.buffer_minutes
    multiplier = policy.max_multiplier
    stops = itin.stops
    bounds: list[tuple[int, int] | None] = []
    origin = stops[0].airport
    for stop in stops[1:]:
        dest = stop.airport
        if origin == dest:
            bounds.append(None)
        else:
            try:
                duration = route_duration((origin, dest))
            except RouteUnavailable:
                if policy.strict:
                    raise
                bounds.append(None)
            else:
                t_min = duration.minutes + buffer
                bounds.append((t_min, int(t_min * multiplier)))
        origin = dest
    return bounds


def validate(
    itin: Itinerary,
    provider: DurationProvider,
    policy: ValidationPolicy = ValidationPolicy(),
) -> ValidationReport:
    """Apply every rule to every stop and leg, in itinerary order.

    n stops produce n stay checks and n-1 segment checks; the verdict is
    valid iff no issue was found.
    """
    return check_against_bounds(itin, resolve_segment_bounds(itin, provider, policy), policy)


def check_against_bounds(
    itin: Itinerary, bounds: list[tuple[int, int] | None], policy: ValidationPolicy
) -> ValidationReport:
    """The rules of validate() against bounds already resolved for itin's legs.

    bounds is what resolve_segment_bounds returned for an itinerary with the
    same airports in the same order; no provider is consulted. A None entry
    makes its leg unverifiable, and a ROUTE_DATA_UNAVAILABLE issue when the
    leg joins an airport to itself. Timestamps are int minutes, so they
    subtract to the durations stay_violation / segment_violation compare;
    an Issue is built only for a violation, and its required value is
    t_max for TRANSIT_TOO_LONG and t_min for the other leg kinds.
    """
    stops = itin.stops
    min_stay = policy.min_stay_minutes
    issues: list[Issue] = []
    unverifiable: list[int] = []
    previous = None
    for i, stop in enumerate(stops):
        arrival = stop.arrival
        if previous is not None:
            # Leg i - 1 ends here; its issue follows stop i - 1's stay issue.
            leg = bounds[i - 1]
            if leg is not None:
                t_min, t_max = leg
                travel = arrival - departure
                kind = segment_violation(travel, t_min, t_max)
                if kind is not None:
                    required = t_max if kind == IssueKind.TRANSIT_TOO_LONG else t_min
                    issues.append(_new_tuple(Issue, (kind, i - 1, travel, required)))
            else:
                unverifiable.append(i - 1)
                if previous.airport == stop.airport:
                    issues.append(_new_tuple(Issue, (IssueKind.ROUTE_DATA_UNAVAILABLE, i - 1, None, None)))
        departure = stop.departure
        stay = departure - arrival
        kind = stay_violation(stay, policy)
        if kind is not None:
            issues.append(_new_tuple(Issue, (kind, i, stay, min_stay)))
        previous = stop
    return _new_tuple(ValidationReport, (tuple(issues), tuple(unverifiable)))
