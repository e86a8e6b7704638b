"""Temporal validation rules for itineraries.

Four rules, checked per stop and per leg:
  - no overlap: a leg's travel time must not be negative;
  - minimum transit: a leg must allow at least t_min = flight + buffer;
  - maximum transit: a leg must not exceed t_max = multiplier x t_min;
  - minimum stay: every stop must last at least the policy minimum (48h).

Violations are strict: exact equality with a bound passes, so an itinerary
whose times sit exactly on t_min or the minimum stay is valid. A leg whose
route duration cannot be resolved gets the NO_ROUTE_DATA window, so only
the overlap rule checks it, and it is listed as unverifiable in non-strict
mode; strict mode raises the provider's durations.RouteUnavailable
instead. A leg between two identical airports gets the same window and is
reported as a ROUTE_DATA_UNAVAILABLE issue as well, after its overlap.

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
twice t_min). resolve_segment_bounds is the one place this formula lives,
and it remembers each route's window for the provider and policy it was
last called with, so a repeated leg costs one dict lookup: validate,
correct and every CLI command share that memo. It holds the provider
weakly, compares provider and policy by identity, and keeps only resolved
windows, so a route the provider could not resolve is asked for again on
every call, as the provider would be asked without the memo.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from typing import NamedTuple

from .durations import MAX_FLIGHT_MINUTES, DurationProvider, RouteUnavailable
from .model import _MAX_MINUTES, _MIN_MINUTES, Itinerary, _new_tuple

# The longest span the wire form can spell: no two timestamps it can write
# lie further apart, so a longer minimum stay or buffer could never be met.
_MAX_POLICY_MINUTES = _MAX_MINUTES - _MIN_MINUTES

# The window of a leg with no route data: no travel time exceeds its t_max,
# so it breaks only the overlap rule, with required 0.
NO_ROUTE_DATA = (0, _MAX_POLICY_MINUTES)


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


# The window memo of resolve_segment_bounds: (weak reference to the provider,
# policy, {route: (t_min, t_max)}) of its last call. One slot is enough, since
# a run builds one provider and one policy. Threads that race to replace it
# lose at most a memo, and a window stored twice is the same window.
_windows_slot: tuple[weakref.ref, ValidationPolicy, dict] | None = None


def resolve_segment_bounds(
    itin: Itinerary, provider: DurationProvider, policy: ValidationPolicy
) -> list[tuple[int, int]]:
    """Resolve each leg's transit bounds, one (t_min, t_max) entry per leg.

    Entry i is NO_ROUTE_DATA itself when leg i has no route data: its two
    airports are the same, or the provider has no duration for its route.
    Which of the two it was can be read off the itinerary. A leg's route
    goes to the provider as the plain pair (origin, destination), and only
    when its two codes differ and the memo holds no window for it under
    this provider and policy; a call with another provider or policy object
    starts a new memo. A provider that cannot be weakly referenced gets a
    memo for this one call. Strict mode re-raises the provider's
    RouteUnavailable as it is, with its route, attempts and reason.
    """
    global _windows_slot
    slot = _windows_slot
    if slot is not None and slot[0]() is provider and slot[1] is policy:
        windows = slot[2]
    else:
        windows = {}
        try:
            _windows_slot = (weakref.ref(provider), policy, windows)
        except TypeError:  # no weak reference: the memo serves this call only
            pass
    stops = itin.stops
    bounds: list[tuple[int, int]] = []
    origin = stops[0].airport
    for stop in stops[1:]:
        dest = stop.airport
        if origin == dest:
            bounds.append(NO_ROUTE_DATA)
        else:
            route = (origin, dest)
            window = windows.get(route)
            if window is None:
                try:
                    duration = provider.route_duration(route)
                except RouteUnavailable:
                    if policy.strict:
                        raise
                    window = NO_ROUTE_DATA
                else:
                    t_min = duration.minutes + policy.buffer_minutes
                    window = windows[route] = (t_min, int(t_min * policy.max_multiplier))
            bounds.append(window)
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
    itin: Itinerary, bounds: list[tuple[int, int]], policy: ValidationPolicy
) -> ValidationReport:
    """The rules of validate() against bounds already resolved for itin's legs.

    bounds is what resolve_segment_bounds returned for an itinerary with the
    same airports in the same order; no provider is consulted. Every leg is
    checked against its window. A NO_ROUTE_DATA entry also makes its leg
    unverifiable, and a ROUTE_DATA_UNAVAILABLE issue, after the leg's
    overlap issue, when the leg joins an airport to itself. Timestamps are
    int minutes, so they subtract to the durations stay_violation /
    segment_violation compare; an Issue is built only for a violation, and
    its required value is t_max for TRANSIT_TOO_LONG and t_min for the
    other leg kinds.
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
            t_min, t_max = leg
            travel = arrival - departure
            kind = segment_violation(travel, t_min, t_max)
            if kind is not None:
                required = t_max if kind == IssueKind.TRANSIT_TOO_LONG else t_min
                issues.append(_new_tuple(Issue, (kind, i - 1, travel, required)))
            if leg is NO_ROUTE_DATA:
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
