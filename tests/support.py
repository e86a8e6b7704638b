"""Shared test helpers: seeded random corpora and independent oracles.

The oracles re-derive every rule with plain arithmetic on purpose. Tests
that compare package output against them are cross-checking two separate
implementations, so nothing here may call into itiguard.validation logic
beyond constructing the Issue values used for comparison. The parse oracle
is the stop loop as it was before places were memoised and the timestamp
lookups inlined: one uncached parse_place and one parse_timestamp per field.
"""

from __future__ import annotations

import os
import random
import re
import string

from itiguard import AirportCode, FixtureProvider, Itinerary, Stop, parse_timestamp
from itiguard.model import (
    BadPlaceFormatError,
    InsufficientStopsError,
    InvalidJsonError,
    InvalidTimeFormatError,
    MissingFieldError,
    load_json,
)
from itiguard.validation import Issue, IssueKind, ValidationPolicy

# What requests says when nothing listens on the port: far longer than an
# error line should quote.
REFUSED = (
    "HTTPConnectionPool(host='127.0.0.1', port=9): Max retries exceeded with url: {path} "
    "(Caused by NewConnectionError('<urllib3.connection.HTTPConnection object at "
    "0x7f3a5c2b1d50>: Failed to establish a new connection: [Errno 111] Connection refused'))"
)


def raise_refused(path: str) -> None:
    """Raise requests.ConnectionError(REFUSED) chained as requests chains a
    refused connection: raised while handling urllib3's MaxRetryError, which
    is raised from a NewConnectionError, which is raised from the
    ConnectionRefusedError. LookupError and RuntimeError stand in for the
    two urllib3 classes."""
    import requests

    try:
        try:
            try:
                raise ConnectionRefusedError(111, "Connection refused")
            except OSError as err:
                raise RuntimeError(f"Failed to establish a new connection: {err}") from err
        except RuntimeError as err:
            raise LookupError(f"Max retries exceeded with url: {path}") from err
    except LookupError:
        raise requests.ConnectionError(REFUSED.format(path=path))


BASE = parse_timestamp("2025-06-01 00:00")
WINDOW_MINUTES = 30 * 24 * 60

GOLDEN_TABLE = {("SYD", "FRA"): 1020, ("FRA", "CAI"): 60, ("CAI", "CMN"): 60}


def open_fds() -> int:
    """How many descriptors this process holds open."""
    return len(os.listdir("/proc/self/fd"))


_ORACLE_PLACE_RE = re.compile(r"\(([A-Z]{3})\)\s*$")


def oracle_parse_place(raw: object, stop_index: int) -> tuple[str, AirportCode]:
    if not isinstance(raw, str):
        raise BadPlaceFormatError(stop_index, raw)
    match = _ORACLE_PLACE_RE.search(raw)
    if not match:
        raise BadPlaceFormatError(stop_index, raw)
    name = raw[: match.start()].strip()
    if not name:
        raise BadPlaceFormatError(stop_index, raw)
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise BadPlaceFormatError(stop_index, raw) from None
    return name, AirportCode(match.group(1))


def oracle_parse_itinerary(text: str | bytes, expected_stops: int | None) -> Itinerary:
    """parse_itinerary with the field-by-field stop loop: the same result,
    or the same first error, is required of the package."""
    if expected_stops is not None and expected_stops < 1:
        raise ValueError("expected_stops must be >= 1")
    doc = load_json(text)
    if isinstance(doc, dict):
        items = doc.get("itinerary")
        if not isinstance(items, list):
            raise MissingFieldError("itinerary")
    elif isinstance(doc, list):
        items = doc
    else:
        raise InvalidJsonError(f"top-level JSON must be an array or object, got {type(doc).__name__}")
    if expected_stops is not None and len(items) != expected_stops:
        raise InsufficientStopsError(expected_stops, len(items))
    stops = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise InvalidJsonError(f"stop {i} is not a JSON object")
        for field in ("place", "arrival_time", "departure_time"):
            if item.get(field) is None:
                raise MissingFieldError(field, i)
        name, airport = oracle_parse_place(item["place"], i)
        times = []
        for field in ("arrival_time", "departure_time"):
            try:
                times.append(parse_timestamp(item[field]))
            except InvalidTimeFormatError as err:
                raise InvalidTimeFormatError(err.raw, place_label=item["place"]) from None
        stops.append(Stop(name, airport, times[0], times[1]))
    return Itinerary(tuple(stops))


class CountingProvider:
    """Wraps a provider and counts its route_duration calls, keeping each
    route it was asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.routes = []

    def route_duration(self, route):
        self.calls += 1
        self.routes.append(route)
        return self.inner.route_duration(route)


def random_airport_codes(rng: random.Random, n: int) -> list[str]:
    """n codes with no two consecutive equal; same-airport legs cannot be
    route-checked and get exercised by dedicated tests instead."""
    codes: list[str] = []
    while len(codes) < n:
        code = "".join(rng.choice(string.ascii_uppercase) for _ in range(3))
        if codes and code == codes[-1]:
            continue
        codes.append(code)
    return codes


def random_itinerary(
    rng: random.Random, *, min_stops: int = 2, max_stops: int = 8
) -> tuple[Itinerary, FixtureProvider, dict[tuple[str, str], int]]:
    """One arbitrary itinerary plus a fixture provider covering its legs.

    Timestamps are uniform over a 30-day window with no ordering imposed, so
    overlaps, inverted stays, and absurd gaps all occur. Flight durations
    are uniform in [1h, 20h]. The raw duration table is returned too, keyed
    by sorted airport pair, for oracle use.
    """
    n = rng.randint(min_stops, max_stops)
    codes = random_airport_codes(rng, n)
    stops = []
    for code in codes:
        arrival = BASE + rng.randint(0, WINDOW_MINUTES)
        departure = BASE + rng.randint(0, WINDOW_MINUTES)
        stops.append(Stop(f"City {code}", AirportCode(code), arrival, departure))
    table: dict[tuple[str, str], int] = {}
    for a, b in zip(codes, codes[1:]):
        key = (min(a, b), max(a, b))
        table.setdefault(key, rng.randint(60, 1200))
    return Itinerary(tuple(stops)), FixtureProvider(table), table


def random_broken_itinerary(
    rng: random.Random,
) -> tuple[Itinerary, dict[tuple[str, str], int]]:
    """random_itinerary where about 15% of legs join an airport to itself and
    about 20% of routes are missing from the returned duration table."""
    itin, _, table = random_itinerary(rng)
    stops = list(itin.stops)
    for i in range(1, len(stops)):
        if rng.random() < 0.15:
            stops[i] = stops[i]._replace(airport=stops[i - 1].airport)
    table = {route: minutes for route, minutes in table.items() if rng.random() < 0.8}
    return Itinerary(tuple(stops)), table


def random_corpus(
    rng: random.Random, files: int, *, pool: int = 6
) -> tuple[list[Itinerary], dict[tuple[str, str], int]]:
    """files itineraries of 2-8 stops over one pool of pool airports, so
    routes repeat from file to file, plus a duration table keyed by sorted
    pair that misses about 20% of the pool's routes. About 15% of legs join
    an airport to itself; timestamps are uniform as in random_itinerary."""
    codes: set[str] = set()
    while len(codes) < pool:
        codes.add("".join(rng.choice(string.ascii_uppercase) for _ in range(3)))
    ordered = sorted(codes)
    table = {
        (a, b): rng.randint(60, 1200)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1:]
        if rng.random() < 0.8
    }
    itineraries = []
    for _ in range(files):
        stop_codes = [rng.choice(ordered)]
        for _ in range(rng.randint(1, 7)):
            previous = stop_codes[-1]
            if rng.random() < 0.15:
                stop_codes.append(previous)
            else:
                stop_codes.append(rng.choice([code for code in ordered if code != previous]))
        stops = [
            Stop(
                f"City {code}",
                AirportCode(code),
                BASE + rng.randint(0, WINDOW_MINUTES),
                BASE + rng.randint(0, WINDOW_MINUTES),
            )
            for code in stop_codes
        ]
        itineraries.append(Itinerary(tuple(stops)))
    return itineraries, table


def brute_force_issues(
    itin: Itinerary, table: dict[tuple[str, str], int], policy: ValidationPolicy
) -> list[Issue]:
    """Independent rule check: explicit loops and formulas only.

    Mirrors the documented reporting order (stop i's stay, then segment i)
    and the documented semantics: equality with a bound passes; a missing
    route is silently unverifiable; a same-airport leg is an issue.
    """
    issues: list[Issue] = []
    n = len(itin.stops)
    for i in range(n):
        stop = itin.stops[i]
        stay = stop.departure - stop.arrival
        if stay < policy.min_stay_minutes:
            issues.append(
                Issue(IssueKind.STAY_TOO_SHORT, i, observed=stay, required=policy.min_stay_minutes)
            )
        if i < n - 1:
            nxt = itin.stops[i + 1]
            a, b = str(stop.airport), str(nxt.airport)
            if a == b:
                issues.append(Issue(IssueKind.ROUTE_DATA_UNAVAILABLE, i))
                continue
            flight = table.get((min(a, b), max(a, b)))
            if flight is None:
                continue
            t_min = flight + policy.buffer_minutes
            t_max = int(t_min * policy.max_multiplier)
            gap = nxt.arrival - stop.departure
            if gap < 0:
                issues.append(Issue(IssueKind.OVERLAP, i, observed=gap, required=t_min))
            elif gap < t_min:
                issues.append(Issue(IssueKind.TRANSIT_TOO_SHORT, i, observed=gap, required=t_min))
            elif gap > t_max:
                issues.append(Issue(IssueKind.TRANSIT_TOO_LONG, i, observed=gap, required=t_max))
    return issues
