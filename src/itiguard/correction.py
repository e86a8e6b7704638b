"""Deterministic repair of temporal rule violations.

One forward pass over the stops fixes everything: at each stop the stay is
extended to the minimum first (departure := arrival + min_stay), then the
outgoing leg is checked against its transit bounds using that updated
departure. A leg that is too short, overlapping, or too long gets its
arrival pinned to departure + t_min, which satisfies both bounds. Because
each stop's arrival is final before its stay is examined, a single pass
leaves no violations. Timestamps are plain int minutes, so the pass adds
and subtracts them as they are, and which stop or leg breaks which rule is
decided by the validator's int rule functions, stay_violation /
segment_violation; this module only decides how to fix it. The pass
builds the corrected stops as it goes, reusing each untouched stop as it
is. Each Adjustment goes through its constructor, which refuses a new
value outside the years the wire form can spell and names the stop and
field; the other records are built with model._new_tuple.

correct() is the one repair entry point. It resolves the per-leg list of
(t_min, t_max) pairs through resolve_segment_bounds, makes the pass, and
checks the result once against those same bounds; any issue left over is
reported as NonConvergenceError, a logic bug rather than bad input. A
caller that validates first asks the provider for each route again, which
the run's durations.CachedProvider answers from memory.

The first stop's arrival anchors the schedule and is never moved; city order
is never changed. Legs whose bounds entry is None are skipped and recorded
so the caller knows which part of the output is unchecked. The trace logs
every timestamp the pass changed, with its old and new value and the rule
that forced it: an Adjustment's field is the name of the Stop field it
changed, "arrival" or "departure", and its reason is the IssueKind string,
both printed as they are.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .durations import DurationProvider
from .model import _MAX_MINUTES, _MIN_MINUTES, Itinerary, Stop, _new_tuple, format_timestamp
from .validation import (
    IssueKind,
    ValidationPolicy,
    check_against_bounds,
    resolve_segment_bounds,
    segment_violation,
    stay_violation,
)


class NonConvergenceError(RuntimeError):
    """Issues survived the forward pass; indicates a logic bug, not bad input."""


class Adjustment(namedtuple("Adjustment", "stop_index field old new reason")):
    """One timestamp change: which stop, which field, old -> new, and the
    rule that forced it; field is "arrival" or "departure"."""

    __slots__ = ()

    def __new__(cls, stop_index: int, field: str, old: int, new: int, reason: str):
        if new == old:
            raise ValueError(f"adjustment at stop {stop_index} changes nothing")
        if not _MIN_MINUTES <= new <= _MAX_MINUTES:
            raise ValueError(
                f"timestamp {new:d} minutes from 1970, the repaired {field} of stop {stop_index}, "
                "is outside years 0001-9999"
            )
        return tuple.__new__(cls, (stop_index, field, old, new, reason))

    def to_dict(self) -> dict:
        return {
            "stop_index": self.stop_index,
            "field": self.field,
            "old": format_timestamp(self.old),
            "new": format_timestamp(self.new),
            "reason": self.reason,
        }


class CorrectionTrace(NamedTuple):
    """Audit log of a correction run: the adjustments in the order the pass
    made them, and the legs it could not check. passes is 1 for every run."""

    adjustments: tuple[Adjustment, ...]
    skipped_segments: tuple[int, ...]
    passes = 1

    def to_dict(self) -> dict:
        return {
            "adjustments": [adj.to_dict() for adj in self.adjustments],
            "passes": self.passes,
            "skipped_segments": list(self.skipped_segments),
        }


def _adjustment_pass(
    stops: tuple[Stop, ...],
    bounds: list[tuple[int, int] | None],
    policy: ValidationPolicy,
    out: list[Adjustment],
) -> tuple[Stop, ...]:
    """The forward pass: appends to out every change it makes and returns
    the corrected stops. The pass changes each field at most once, so an
    adjustment's old value is always the stop's own timestamp, and a stop
    whose two timestamps it left alone is reused as it is."""
    corrected = []
    departure = None
    for i, stop in enumerate(stops):
        arrival = stop.arrival
        if i:
            # Leg i - 1 ends here, after stop i - 1's departure is final.
            leg = bounds[i - 1]
            if leg is not None:
                t_min, t_max = leg
                kind = segment_violation(arrival - departure, t_min, t_max)
                if kind:
                    arrival = departure + t_min
                    out.append(Adjustment(i, "arrival", stop.arrival, arrival, kind))
        departure = stop.departure
        kind = stay_violation(departure - arrival, policy)
        if kind:
            departure = arrival + policy.min_stay_minutes
            out.append(Adjustment(i, "departure", stop.departure, departure, kind))
        corrected.append(
            stop
            if arrival is stop.arrival and departure is stop.departure
            else _new_tuple(Stop, (stop.place_name, stop.airport, arrival, departure))
        )
    return tuple(corrected)


def correct(
    itin: Itinerary, provider: DurationProvider, policy: ValidationPolicy = ValidationPolicy()
) -> tuple[Itinerary, CorrectionTrace]:
    """Repair every detected violation by shifting timestamps forward.

    Resolves the route bounds once, makes one forward pass, and checks the
    result with check_against_bounds on the same bounds. The legs whose
    entry is None become the trace's skipped_segments. Returns the
    corrected itinerary plus the trace. Raises the provider's
    RouteUnavailable unchanged in strict mode if a route cannot be
    resolved, ValueError if a repaired timestamp falls outside the years
    the wire form can spell, and NonConvergenceError if the check finds an
    issue the pass should have fixed.
    """
    bounds = resolve_segment_bounds(itin, provider, policy)
    adjustments: list[Adjustment] = []
    stops = _adjustment_pass(itin.stops, bounds, policy, adjustments)
    # As many stops as itin, which passed Itinerary's check.
    candidate = _new_tuple(Itinerary, (stops,))
    report = check_against_bounds(candidate, bounds, policy)
    correctable = [i for i in report.issues if i.kind != IssueKind.ROUTE_DATA_UNAVAILABLE]
    if correctable:
        raise NonConvergenceError(f"{len(correctable)} issue(s) remain after the pass: {correctable}")
    trace = _new_tuple(CorrectionTrace, (tuple(adjustments), report.unverifiable_segments))
    return candidate, trace
