"""Flight-duration providers.

A provider maps a directed airport pair to a minimum flight duration. The
pair is a plain (origin, destination) tuple of two different AirportCodes,
which the validator builds for each leg; RoutePair is its checked form for
routes read from outside (the cache file), and equals and hashes like the
plain pair, so either one finds the other's cache entry. Implementations:
a deterministic fixture table, a great-circle estimator, and a remote HTTP
client with bounded retries. CachedProvider layers an in-memory table plus
an optional on-disk file over any of them so repeated routes never trigger
a second fetch; it is the one per-run memo of route answers, so it also
remembers, in memory only, each route the inner provider could not resolve.

The cache file holds 'ORIGIN DEST minutes' lines and is append-only: each
fetched route adds one line, the file is never rewritten, and when a route
appears twice the later line wins. Corrupt lines are never removed, so
every load warns about them again. A provider opens the file for writing
on its first miss and holds that one O_APPEND descriptor until it is
closed or dropped, so a file deleted or replaced mid-run gets none of that
run's later lines. A failed write prints one `warning:` line on stderr and
the provider carries on from memory alone.
"""

from __future__ import annotations

import errno
import math
import os
import time
import weakref
from collections import namedtuple
from pathlib import Path
from typing import Callable, Mapping, Protocol

from .model import (
    AirportCode,
    InvalidJsonError,
    _new_tuple,
    cause_text,
    error_text,
    load_json,
    read_file,
    shorten,
    warn,
)

MAX_FLIGHT_MINUTES = 48 * 60  # sanity bound, no commercial flight exceeds 48h
FETCH_ATTEMPTS = 3
RETRY_DELAY_SECONDS = 1.0
FETCH_TIMEOUT_SECONDS = 30.0
API_KEY_ENV = "AERODATABOX_API_KEY"

EARTH_RADIUS_KM = 6371.0
CRUISE_SPEED_KMH = 800.0
GROUND_OVERHEAD_MINUTES = 30


class RouteUnavailable(Exception):
    """No duration could be obtained for a route after all attempts."""

    def __init__(self, route: tuple[AirportCode, AirportCode], attempts: int, reason: str):
        self.route = route
        self.attempts = attempts
        self.reason = reason
        origin, destination = route
        super().__init__(
            f"no flight duration for {origin}->{destination} after {attempts} attempt(s): {reason}"
        )


class TransportError(Exception):
    """A single remote fetch failed (network error or non-2xx status)."""


class PayloadError(ValueError):
    """The remote response body could not be used."""


class RoutePair(namedtuple("RoutePair", "origin destination")):
    """Directed airport pair from outside, checked: same-airport pairs are
    rejected. It equals and hashes like the plain (origin, destination)
    tuple that providers are handed."""

    __slots__ = ()

    def __new__(cls, origin: AirportCode, destination: AirportCode):
        if origin == destination:
            raise ValueError(f"route origin and destination are both {origin}")
        return tuple.__new__(cls, (origin, destination))


class FlightDuration(namedtuple("FlightDuration", "minutes")):
    """Minimum flight duration in minutes, 0 < minutes <= 48h."""

    __slots__ = ()

    def __new__(cls, minutes: int):
        if not isinstance(minutes, int) or not 0 < minutes <= MAX_FLIGHT_MINUTES:
            raise ValueError(f"implausible flight duration: {minutes!r} minutes")
        return tuple.__new__(cls, (minutes,))


class DurationProvider(Protocol):
    def route_duration(self, route: tuple[AirportCode, AirportCode]) -> FlightDuration:
        """Return the minimum flight duration of the (origin, destination)
        pair, two different codes, or raise RouteUnavailable."""


class FixtureProvider:
    """Deterministic provider backed by a {(origin, dest): minutes} table.

    Lookups are direction-symmetric: (A, B) falls back to (B, A).
    """

    def __init__(self, table: Mapping[tuple[str, str], int]):
        # Each entry is validated once here and its FlightDuration served as is.
        self._table = {(o, d): FlightDuration(int(m)) for (o, d), m in table.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureProvider":
        """Load the table from a duration file, which must exist (unlike a
        cache file, a missing fixture file is an error, not an empty table).
        The file is opened once, and the durations _parse_cache has checked
        are served as they are."""
        data = _read_existing(path)
        if data is None:
            raise ValueError(f"fixture file {path} does not exist")
        provider = object.__new__(cls)
        provider._table = _parse_cache(data, path)
        return provider

    def route_duration(self, route: tuple[AirportCode, AirportCode]) -> FlightDuration:
        duration = self._table.get(route)
        if duration is None:
            origin, destination = route
            duration = self._table.get((destination, origin))
            if duration is None:
                raise RouteUnavailable(route, attempts=1, reason="no fixture duration for route")
        return duration


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a sphere of radius 6371 km."""
    for lat, lon in ((lat1, lon1), (lat2, lon2)):
        if abs(lat) > 90 or abs(lon) > 180:
            raise ValueError(f"invalid coordinates: ({lat}, {lon})")
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def estimate_duration_great_circle(
    origin_coords: tuple[float, float], dest_coords: tuple[float, float]
) -> FlightDuration:
    """Estimate flight time from geometry: distance at a 800 km/h cruise plus
    a 30-minute fixed overhead, rounded up to a whole minute."""
    distance = haversine_km(*origin_coords, *dest_coords)
    minutes = math.ceil(distance / CRUISE_SPEED_KMH * 60.0 + GROUND_OVERHEAD_MINUTES)
    return FlightDuration(minutes)


class GreatCircleProvider:
    """Offline provider estimating durations from airport coordinates."""

    def __init__(self, coords: Mapping[str, tuple[float, float]]):
        self._coords = coords

    def route_duration(self, route: tuple[AirportCode, AirportCode]) -> FlightDuration:
        origin, destination = route
        try:
            origin_coords = self._coords[origin]
            dest_coords = self._coords[destination]
        except KeyError as err:
            raise RouteUnavailable(
                route, attempts=1, reason=f"no coordinates for airport {err.args[0]}"
            ) from None
        return estimate_duration_great_circle(origin_coords, dest_coords)


def parse_duration_payload(body: bytes | str) -> FlightDuration:
    """Extract hours+minutes from a remote JSON response.

    Accepts either a flat {"hours": H, "minutes": M} object or one nesting
    those fields under a "duration" key. Anything unusable, a null duration
    included, raises PayloadError.
    """
    try:
        doc = load_json(body)
    except InvalidJsonError as err:
        raise PayloadError(f"payload is {err}") from None
    if not isinstance(doc, dict):
        raise PayloadError("payload is not a JSON object")
    value = doc
    if "duration" in doc:
        value = doc["duration"]
        if value is None:
            raise PayloadError("duration field is null")
        if not isinstance(value, dict):
            raise PayloadError("duration field is not an object")
    if "hours" not in value and "minutes" not in value:
        raise PayloadError("payload carries no hours/minutes fields")
    # JSON's true and false are bools, not exact ints; the test of the total
    # is FlightDuration's own check, so the record is built directly.
    total = 0
    for field, scale in (("hours", 60), ("minutes", 1)):
        raw = value.get(field, 0)
        if type(raw) is not int or not 0 <= raw <= MAX_FLIGHT_MINUTES:
            raise PayloadError(f"bad {field} value: {shorten(repr(raw))}")
        total += raw * scale
    if not 0 < total <= MAX_FLIGHT_MINUTES:
        raise PayloadError(f"implausible duration: {total} minutes")
    return _new_tuple(FlightDuration, (total,))


# fetch(url, headers) -> raw response body; raises TransportError on failure
FetchFn = Callable[[str, Mapping[str, str]], bytes]


class RemoteDurationClient:
    """HTTP client for a flight-times service, with bounded retries.

    GET {base_url}/{origin}/{destination}; the API key (X-Api-Key header)
    comes from the AERODATABOX_API_KEY environment variable unless given.
    A failed fetch or unusable payload is retried after RETRY_DELAY_SECONDS,
    up to FETCH_ATTEMPTS attempts in all, then RouteUnavailable is raised.
    fetch and sleep stand in for the HTTP request and the wait, for tests.
    The default fetch imports requests on its first call, so a run that
    never fetches does not load the HTTP stack.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        *,
        fetch: FetchFn | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._base_url = base_url.rstrip("/")
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._fetch = fetch or self._http_fetch
        self._sleep = sleep

    def _http_fetch(self, url: str, headers: Mapping[str, str]) -> bytes:
        import requests

        try:
            response = requests.get(url, headers=dict(headers), timeout=FETCH_TIMEOUT_SECONDS)
        except requests.RequestException as err:
            raise TransportError(cause_text(err)) from err
        if not 200 <= response.status_code < 300:
            raise TransportError(f"HTTP {response.status_code}")
        return response.content

    def route_duration(self, route: tuple[AirportCode, AirportCode]) -> FlightDuration:
        origin, destination = route
        url = "/".join((self._base_url, origin, destination))
        headers = {"X-Api-Key": self._api_key} if self._api_key else {}
        last_reason = "no attempts made"
        for attempt in range(1, FETCH_ATTEMPTS + 1):
            try:
                return parse_duration_payload(self._fetch(url, headers))
            except (TransportError, PayloadError) as err:
                last_reason = str(err)
                if attempt < FETCH_ATTEMPTS:
                    self._sleep(RETRY_DELAY_SECONDS)
        raise RouteUnavailable(route, attempts=FETCH_ATTEMPTS, reason=last_reason)


# What Path.exists() takes for "no such file": the path, or a directory on
# it, is missing, or a symlink on it loops.
_MISSING_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP})


def _read_existing(path: str | Path) -> bytes | None:
    """The bytes of the file at path through read_file, or None when there
    is no such file; any other OSError (a directory, no permission) is
    raised."""
    try:
        return read_file(path)
    except OSError as err:
        if err.errno in _MISSING_ERRNOS:
            return None
        raise


def load_cache(path: str | Path) -> dict[RoutePair, FlightDuration]:
    """Load a route -> duration map from the file at path through
    _parse_cache; a missing file is an empty map."""
    data = _read_existing(path)
    return {} if data is None else _parse_cache(data, path)


def _parse_cache(data: bytes, path: str | Path) -> dict[RoutePair, FlightDuration]:
    """The route -> duration map of the 'ORIGIN DEST minutes' lines in data,
    read from path; corrupt lines (including lines that are not UTF-8) are
    skipped with a warning that names path, never fatal. A line whose two
    codes are one airport is corrupt too, as RoutePair rejects it."""
    cache: dict[RoutePair, FlightDuration] = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            origin, dest, minutes = raw.decode("utf-8").split()
            cache[RoutePair(AirportCode(origin), AirportCode(dest))] = FlightDuration(int(minutes))
        except ValueError:
            line = raw.decode("utf-8", "backslashreplace")
            warn(f"skipping corrupt cache line {Path(path)}:{lineno}: {shorten(repr(line))}")
    return cache


def save_cache(cache: Mapping[tuple[AirportCode, AirportCode], FlightDuration], fd: int) -> None:
    """Append sorted 'ORIGIN DEST minutes' lines, joined from the codes as
    they are, to the file open as fd in one write (open it with O_APPEND).
    load_cache keeps the later of two lines for a route, so load(save(c))
    agrees with c on every route of c, and equals c when the file was new."""
    lines = sorted(
        " ".join((origin, destination, str(duration.minutes))) + "\n"
        for (origin, destination), duration in cache.items()
    )
    data = "".join(lines).encode("utf-8")
    while data:  # a regular file takes it all in one write unless the disk fills
        data = data[os.write(fd, data):]


class CachedProvider:
    """Two-tier cache (memory + optional append-only file) over any provider.

    A hit never touches the inner provider; a miss fetches once, stores the
    duration in memory and appends its one line to the file through
    save_cache. A RouteUnavailable from the inner provider is remembered for
    the provider's lifetime, in memory only: a later lookup of that route
    raises a new RouteUnavailable with the same attempts and reason without
    asking again. The file is opened on the first miss, with O_APPEND, and
    that descriptor is held until close() or until the provider is dropped;
    a file deleted or replaced meanwhile gets none of the later lines. The
    file is never truncated, so a crash loses at most the line being
    written; a last line found without its newline when the file is loaded
    is ended before the first append. Providers in other processes may
    append to the same file; load_cache keeps the later of two lines for
    one route. Nothing is ever removed from the file, so a corrupt line
    stays in it and load_cache warns about it on every load. If a write
    fails, it prints one `warning:` line, closes the file and leaves it
    alone from then on. The provider holds no lock, so use each one from
    one thread.
    """

    def __init__(self, inner: DurationProvider, *, path: str | Path | None = None):
        self._inner = inner
        self._path = Path(path) if path else None
        data = _read_existing(self._path) if self._path is not None else None
        self._cache = _parse_cache(data, self._path) if data else {}
        # A last line without its newline (hand-edited, or torn by a crash)
        # would merge with the first appended line into one corrupt line.
        self._torn = bool(data) and data[-1:] != b"\n"
        # Each route the inner provider could not resolve: (attempts, reason).
        self._failed: dict[tuple[AirportCode, AirportCode], tuple[int, str]] = {}
        self._fd: int | None = None
        self._closer: weakref.finalize | None = None

    def route_duration(self, route: tuple[AirportCode, AirportCode]) -> FlightDuration:
        duration = self._cache.get(route)
        if duration is not None:
            return duration
        failure = self._failed.get(route)
        if failure is not None:
            raise RouteUnavailable(route, *failure)
        try:
            duration = self._inner.route_duration(route)
        except RouteUnavailable as err:
            self._failed[route] = (err.attempts, err.reason)
            raise
        self._cache[route] = duration
        if self._path is not None:
            self._append(route, duration)
        return duration

    def close(self) -> None:
        """Close the cache file, if a miss opened it; later misses stay in memory."""
        if self._closer is not None:
            self._closer()
        self._path = None

    def _append(self, route: tuple[AirportCode, AirportCode], duration: FlightDuration) -> None:
        try:
            if self._fd is None:
                # 0o666 is the mode open() creates files with; os.open's default is 0o777.
                self._fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                # Closes at garbage collection, or at interpreter exit.
                self._closer = weakref.finalize(self, os.close, self._fd)
                if self._torn:
                    os.write(self._fd, b"\n")
            save_cache({route: duration}, self._fd)
        except OSError as err:
            warn(f"cannot write cache file {self._path}: {error_text(err)}; continuing without it")
            self.close()

