"""Itinerary domain model and the JSON wire format.

An itinerary is an ordered list of stops, each a city with an IATA airport
code and minute-resolution UTC arrival/departure timestamps. The parser
accepts the two document shapes seen in the wild (a bare array of stop
objects, or an object wrapping that array under an "itinerary" key) and
never reorders or repairs anything: inconsistent timestamps are the
validator's business, not the parser's.

A timestamp is a count of minutes since 1970-01-01 00:00 UTC on the
proleptic Gregorian calendar. Parsing and formatting split the wire form
into its date half "YYYY-MM-DD" and its clock half "HH:MM". A day has 1440
clocks, so two fixed tables built at import cover the clock half:
_CLOCK_MINUTES from each valid "HH:MM" to its minute of the day (no other
text is a key) and _CLOCK_TEXTS back. Dates are unbounded, so the date
half goes through one memo per direction, an lru_cache of at most
_MEMO_SIZE (2048) entries filled lazily; the dates of one itinerary sit in
one travel window, so the memos nearly always hit. Only on a miss does
datetime.date check and convert the date; a rejected date is memoised as
None, so it is rejected again. parse_timestamp and the stop loop of
parse_itinerary share the one lookup, _wire_minutes; parse_date reads a
bare date half through the same date memo.

Places repeat as often as dates do, so parse_place memoises the split of a
place string the same way: one lru_cache of _MEMO_SIZE entries keyed on the
raw string, a rejected place memoised as None. Only a str of at most
_PLACE_KEY_LIMIT (64) characters is looked up; a longer one is split
uncached, so the memo never holds a large string from outside.

Records are tuples, timestamps are plain ints and airport codes are strs,
built by one rule: a value from outside the package is checked where it
enters, and the record is then built directly (see _new_tuple below).

Every whole input file the package reads (itinerary, manifest, config,
duration table, cache, recorded response) comes through read_file.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from datetime import date
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_AIRPORT_RE = re.compile(r"[A-Z]{3}")
# Last parenthesized 3-letter token wins, so city names containing
# parentheses ("San Francisco (Bay Area)") still parse.
_PLACE_RE = re.compile(r"\(([A-Z]{3})\)\s*$")
# The code points UTF-8 cannot encode. A JSON escape such as "\ud800" yields
# one alone, and a report that printed it would fail part-way.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

_MINUTES_PER_DAY = 24 * 60
# Entries per date memo: over five years of days.
_MEMO_SIZE = 2048
# Longest place string the place memo keeps; longer ones are parsed uncached.
_PLACE_KEY_LIMIT = 64

QUOTE_LIMIT = 80
# Bytes asked of each os.read in read_file (64 KiB); a longer file takes
# more reads.
_READ_CHUNK = 65536


def shorten(text: str) -> str:
    """An outside value's text for an error message: whole up to QUOTE_LIMIT
    characters, else its first QUOTE_LIMIT and its full length."""
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def cause_text(err: BaseException) -> str:
    """The shortened text of the innermost exception in err's chain of
    __cause__ and (unsuppressed) __context__, as a traceback would follow
    it: the reason that a library's wrapped errors give last, such as the
    "[Errno 111] Connection refused" under urllib's URLError."""
    seen = {id(err)}
    while True:
        inner = err.__cause__ or (None if err.__suppress_context__ else err.__context__)
        if inner is None or id(inner) in seen:
            return shorten(str(err))
        seen.add(id(inner))
        err = inner


def warn(message: str) -> None:
    """Print one 'warning:' line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def error_text(err: Exception) -> str:
    """An error's text for a message that names the file itself: an
    OSError's strerror, since its full text repeats the path."""
    return err.strerror if isinstance(err, OSError) and err.strerror is not None else str(err)


# Day 0 of the minute count is 1970-01-01.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# The wire form spells years 0001-9999 only.
_MIN_MINUTES = (date.min.toordinal() - _EPOCH_ORDINAL) * _MINUTES_PER_DAY
_MAX_MINUTES = (date.max.toordinal() - _EPOCH_ORDINAL + 1) * _MINUTES_PER_DAY - 1


@lru_cache(maxsize=_MEMO_SIZE)
def _date_days(text: str) -> int | None:
    """Days from 1970-01-01 to 'YYYY-MM-DD', or None when the shape or the
    calendar is wrong (month 13, Feb 30, year 0)."""
    if not _DATE_RE.fullmatch(text):
        return None
    try:
        return date(int(text[0:4]), int(text[5:7]), int(text[8:10])).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None


@lru_cache(maxsize=_MEMO_SIZE)
def _date_text(days: int) -> str:
    """Inverse of _date_days, for the years 0001-9999."""
    return date.fromordinal(days + _EPOCH_ORDINAL).isoformat()


# "00:00" to "23:59" at their minutes of the day, each joined from an "HH:"
# prefix and an "MM" text: a fraction of the import time of 1440 f-strings.
_TWO_DIGITS = [f"{n:02d}" for n in range(60)]
_CLOCK_TEXTS = tuple(hh + mm for hh in [d + ":" for d in _TWO_DIGITS[:24]] for mm in _TWO_DIGITS)
_CLOCK_MINUTES = dict(zip(_CLOCK_TEXTS, range(_MINUTES_PER_DAY)))


def _wire_minutes(text: object) -> int | None:
    """Minutes since 1970 of 'YYYY-MM-DD HH:MM', or None for anything else."""
    # The length check keeps every date memo key at 10 characters.
    if isinstance(text, str) and len(text) == 16 and text[10] == " ":
        days = _date_days(text[:10])
        minute_of_day = _CLOCK_MINUTES.get(text[11:])
        if days is not None and minute_of_day is not None:
            return days * _MINUTES_PER_DAY + minute_of_day
    return None


class FormatError(ValueError):
    """An itinerary document violates the JSON wire format."""


class InvalidJsonError(FormatError):
    """Document is not valid JSON, or its top-level shape is wrong."""


class InvalidTimeFormatError(FormatError):
    """A timestamp deviates from 'YYYY-MM-DD HH:MM' (24-hour, zero-padded, UTC).

    raw is the offending value as the document spelled it: a str as is,
    anything else as its repr."""

    def __init__(self, raw: object, place_label: str | None = None):
        self.raw = raw = raw if isinstance(raw, str) else repr(raw)
        self.place_label = place_label
        where = f" for {shorten(place_label)}" if place_label else ""
        super().__init__(f"invalid time format{where}: {shorten(repr(raw))}")


class InsufficientStopsError(FormatError):
    """Stop count differs from the requested number of destinations."""

    def __init__(self, expected: int, actual: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"expected exactly {expected} stops, got {actual}")


class MissingFieldError(FormatError):
    """A required field is absent (or null)."""

    def __init__(self, field: str, stop_index: int | None = None):
        self.field = field
        self.stop_index = stop_index
        at = f" in stop {stop_index}" if stop_index is not None else ""
        super().__init__(f"missing field {field!r}{at}")


class BadPlaceFormatError(FormatError):
    """A place field does not match 'City Name (IATA)' or holds text UTF-8 cannot encode."""

    def __init__(self, stop_index: int, raw: object):
        self.stop_index = stop_index
        self.raw = raw
        cause = ("holds text UTF-8 cannot encode" if isinstance(raw, str) and _SURROGATE_RE.search(raw)
                 else "does not match 'City Name (IATA)'")
        super().__init__(f"stop {stop_index} place {shorten(repr(raw))} {cause}")


def parse_timestamp(text: str) -> int:
    """Minutes since 1970 of the wire form 'YYYY-MM-DD HH:MM'; raises
    InvalidTimeFormatError for anything else."""
    minutes = _wire_minutes(text)
    if minutes is None:
        raise InvalidTimeFormatError(text)
    return minutes


def parse_date(text: str) -> date:
    """The date of a wire form date half 'YYYY-MM-DD'; raises ValueError
    for anything else, on every Python version."""
    # The length check keeps every date memo key at 10 characters.
    days = _date_days(text) if len(text) == 10 else None
    if days is None:
        raise ValueError(f"invalid date {shorten(repr(text))}; expected YYYY-MM-DD")
    return date.fromordinal(days + _EPOCH_ORDINAL)


def format_timestamp(minutes: int) -> str:
    """Wire form of minutes since 1970; raises ValueError outside the years
    0001-9999 it can spell."""
    if not _MIN_MINUTES <= minutes <= _MAX_MINUTES:
        raise ValueError(f"timestamp {minutes:d} minutes from 1970 is outside years 0001-9999")
    days, minute_of_day = divmod(minutes, _MINUTES_PER_DAY)
    return f"{_date_text(days)} {_CLOCK_TEXTS[minute_of_day]}"


class AirportCode(str):
    """Three-letter uppercase IATA airport code: a str that passed the check,
    so it equals, hashes and prints as its code."""

    __slots__ = ()

    def __new__(cls, code: str):
        if not isinstance(code, str) or not _AIRPORT_RE.fullmatch(code):
            raise ValueError(f"invalid IATA airport code: {code!r}")
        return str.__new__(cls, code)

    def __repr__(self) -> str:
        return f"AirportCode(code={str.__repr__(self)})"


class Stop(NamedTuple):
    """One visited city: name, airport, and the raw arrival/departure times.

    No ordering is enforced between arrival and departure; generator output
    may be inconsistent and the validator reports that.
    """

    place_name: str
    airport: AirportCode
    arrival: int
    departure: int

    @property
    def place(self) -> str:
        return f"{self.place_name} ({self.airport})"


class Itinerary(namedtuple("Itinerary", "stops")):
    """Ordered stops, in visit order as emitted by the generator; len() is
    the number of stops."""

    __slots__ = ()

    def __new__(cls, stops: tuple[Stop, ...]):
        stops = tuple(stops)
        if len(stops) < 1:
            raise ValueError("an itinerary needs at least one stop")
        return tuple.__new__(cls, (stops,))

    def __len__(self) -> int:
        return len(self.stops)


def read_file(path: str | os.PathLike[str], *, dir_fd: int | None = None) -> bytes:
    """The whole content of the file at path, through one raw descriptor:
    os.open, os.read until it returns b"", os.close in a finally.

    dir_fd, when given, is an open directory that a relative path is
    resolved against, as os.open's dir_fd is (openat): a caller that reads
    many files from one directory spares the kernel the walk from the
    working directory and itself the path join. An absolute path ignores it.

    Path.read_bytes goes through io.open, which builds a FileIO and a
    BufferedReader and makes four more system calls per file: an fstat and
    an isatty ioctl to choose the buffering, another fstat and an lseek in
    readall. An OSError names path as its filename, so its text is
    pathlib's: a directory opens fine and fails only at the read, whose
    EISDIR carries no filename of its own.
    """
    fd = os.open(path, os.O_RDONLY, dir_fd=dir_fd)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as err:
        err.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


# The decoder json.loads ends in, called directly: loads checks its keyword
# arguments and builds a **kw dict on every call.
_decode_json = json.JSONDecoder().decode


def load_json(text: str | bytes) -> object:
    """json.loads for text from outside the program; bytes must be UTF-8.
    Whatever it cannot decode raises InvalidJsonError: bad syntax, a leading
    BOM, bytes that are not UTF-8, an integer past CPython's digit limit (all
    ValueError) and nesting deeper than the recursion limit (RecursionError)."""
    try:
        # json.loads would guess UTF-16 or UTF-32 from the first bytes.
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        # json.loads' BOM rule, word for word, ahead of the decoder it calls.
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _decode_json(text)
    except (ValueError, RecursionError) as err:
        raise InvalidJsonError(f"not valid JSON: {err}") from None


def _split_place(raw: str) -> tuple[str, AirportCode] | None:
    """(name, airport) of 'City Name (IATA)', or None when raw does not match
    or holds text UTF-8 cannot encode."""
    match = _PLACE_RE.search(raw)
    if not match or _SURROGATE_RE.search(raw):
        return None
    name = raw[: match.start()].strip()
    if not name:
        return None
    return name, AirportCode(match.group(1))


_place_parts = lru_cache(maxsize=_MEMO_SIZE)(_split_place)


def parse_place(raw: object, stop_index: int) -> tuple[str, AirportCode]:
    """Split 'City Name (IATA)' into name and airport code."""
    if not isinstance(raw, str):
        raise BadPlaceFormatError(stop_index, raw)
    parts = _place_parts(raw) if len(raw) <= _PLACE_KEY_LIMIT else _split_place(raw)
    if parts is None:
        raise BadPlaceFormatError(stop_index, raw)
    return parts


# A record that checks its values is a namedtuple subclass whose __new__ runs
# the checks and then returns tuple.__new__ (_make and _replace skip them);
# AirportCode, the one checked value that is not a record, is a str subclass
# built the same way through str.__new__. A timestamp is a plain int:
# parse_timestamp checks the wire text, and format_timestamp the range.
# Where the caller has just established a record's invariant, _new_tuple
# builds it with no Python-level __new__ frame; a value from outside the
# package never reaches a record this way before that record's check.
_new_tuple = tuple.__new__


def parse_itinerary(text: str | bytes, expected_stops: int | None) -> Itinerary:
    """Parse an itinerary document and check it has exactly expected_stops stops.

    Accepts both wire shapes: a bare JSON array of stop objects, or an object
    with an "itinerary" array. Raises a FormatError subclass naming the first
    problem found; stops are checked in order, fields in the order place,
    arrival_time, departure_time. expected_stops=None skips the count check,
    for callers reading files of unknown length.
    """
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

    if not items:
        raise InvalidJsonError("an itinerary needs at least one stop")
    stops = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise InvalidJsonError(f"stop {i} is not a JSON object")
        place = item.get("place")
        arrival = item.get("arrival_time")
        departure = item.get("departure_time")
        if place is None:
            raise MissingFieldError("place", i)
        if arrival is None:
            raise MissingFieldError("arrival_time", i)
        if departure is None:
            raise MissingFieldError("departure_time", i)
        name, airport = parse_place(place, i)
        arrival_minutes = _wire_minutes(arrival)
        if arrival_minutes is None:
            raise InvalidTimeFormatError(arrival, place_label=place)
        departure_minutes = _wire_minutes(departure)
        if departure_minutes is None:
            raise InvalidTimeFormatError(departure, place_label=place)
        stops.append(_new_tuple(Stop, (name, airport, arrival_minutes, departure_minutes)))
    return _new_tuple(Itinerary, (tuple(stops),))


def render_itinerary(itin: Itinerary) -> str:
    """Serialize to the canonical wire form (wrapped "itinerary" array, 2-space indent).

    The text is written directly and equals json.dumps(doc, indent=2) of the
    wrapped document byte for byte: place goes through the function
    json.dumps calls for a str, so its escaping is the standard encoder's,
    and timestamps are ASCII digits.

    parse_itinerary(render_itinerary(x), len(x)) == x.
    """
    stops = ",\n".join(
        f'    {{\n      "place": {encode_basestring_ascii(f"{stop.place_name} ({stop.airport})")},\n'
        f'      "arrival_time": "{format_timestamp(stop.arrival)}",\n'
        f'      "departure_time": "{format_timestamp(stop.departure)}"\n    }}'
        for stop in itin.stops
    )
    return f'{{\n  "itinerary": [\n{stops}\n  ]\n}}'


def format_minutes(minutes: int) -> str:
    """Human form of a signed minute duration, e.g. 1230 -> '20h 30m'."""
    sign = "-" if minutes < 0 else ""
    m = abs(minutes)
    return f"{sign}{m // 60}h {m % 60}m"
