"""Prompt construction for itinerary generation.

Two base prompts (free city choice vs. a pre-defined route), both built by
build_base_prompt, plus three feedback messages used when a response fails
to parse, picked by build_feedback from the class of the parse error. The
exact wording is load-bearing: tests pin the rendered text byte-for-byte
against golden files, so any edit here must update those files
deliberately.

The templates are string.Templates: build_base_prompt, an lru_cache keyed
on the request, substitutes a base prompt once per distinct request (the
16 used last are kept), and build_feedback substitutes a feedback once per
retry.

Note the templates intentionally disagree with the validator in two places:
they ask the model for a 1 hour transit buffer (the validator enforces 4)
and the pre-defined-route variant says "> 49 hours" where the other says
"> 48". The validator's policy is what counts; the prompt text stays as is.
"""

from __future__ import annotations

from collections import namedtuple
from datetime import date
from functools import lru_cache
from string import Template

from .model import AirportCode, FormatError, InsufficientStopsError, InvalidTimeFormatError, shorten


GENERIC_PROMPT = Template("""
Generate a travel itinerary visiting $num_destinations destinations, exclusively using air travel.
You MUST use ONLY these cities for your itinerary:
$cities_str

IMPORTANT: Return ONLY a valid JSON object with this EXACT structure (no additional text, no markdown formatting):
{
    "itinerary": [
        {
            "place": "city_name (IATA)",
            "arrival_time": "YYYY-MM-DD HH:MM",
            "departure_time": "YYYY-MM-DD HH:MM"
        },
        {
            "place": "city_name (IATA)",
            "arrival_time": "YYYY-MM-DD HH:MM",
            "departure_time": "YYYY-MM-DD HH:MM"
        }
        // ... up to $num_destinations items
    ]
}

Requirements:
1. All times MUST be in UTC.
2. Use 24-hour format (e.g., 14:30, 00:00 for midnight).
3. Travel dates must be between $date_start and $date_end.
4. Include the IATA airport code for each city in parentheses.
5. Do NOT add any explanatory text or markdown formatting.
6. Ensure the JSON is properly formatted with correct commas and brackets.
7. For each city, the difference between its 'departure_time' and 'arrival_time' (i.e., the stay at that city) MUST be more than 2 days (> 48 hours).
8. For each segment, the difference between the 'departure_time' of the previous city and the 'arrival_time' of the next city MUST be equal to the minimum realistic flight time (plus a 1 hour buffer for airport procedures). Do NOT add extra days or hours to the travel time.
9. The stay duration and the travel duration are separate: do NOT add the 2-day minimum stay to the travel time. The 2-day minimum applies only to the time spent at each city.
10. Return ONLY the JSON object, nothing else.
""")

FIXED_SEQUENCE_PROMPT = Template("""
You are tasked with creating a valid time schedule for a PRE-DEFINED travel itinerary.
The itinerary visits $num_destinations destinations.
You MUST follow this exact sequence of cities and use their IATA codes as provided:
$fixed_route_str

The cities involved are from the following list (for context and ensuring correct naming/IATA):
$cities_str

IMPORTANT: Return ONLY a valid JSON object with this EXACT structure (no additional text, no markdown formatting):
{
    "itinerary": [
        // Example for the first stop, ensure "place" matches the fixed sequence
        {
            "place": "$example_place ($example_iata)", 
            "arrival_time": "YYYY-MM-DD HH:MM",
            "departure_time": "YYYY-MM-DD HH:MM"
        }
        // ... and so on for all $num_destinations cities in the fixed_route_sequence
    ]
}

Requirements:
1. All times MUST be in UTC.
2. Use 24-hour format (e.g., 14:30, 00:00 for midnight) ONLY and EXACTLY MATCH the format 'YYYY-MM-DD HH:MM'.
3. The "place" field in your JSON for each stop MUST EXACTLY MATCH the city name and IATA code from the fixed sequence provided above. Do not alter the sequence or the cities.
4. Do NOT add any explanatory text or markdown formatting.
5. Ensure the JSON is properly formatted with correct commas and brackets.
6. Account for minimum flight times between cities (use realistic minimum flight durations).
7. For each city, the difference between its 'departure_time' and 'arrival_time' (i.e., the stay at that city) MUST be more than 2 days (> 49 hours).
8. For each segment, the difference between the 'departure_time' of the previous city and the 'arrival_time' of the next city MUST be equal to the minimum realistic flight time (plus a 1 hour buffer for airport procedures). Do NOT add extra days or hours to the travel time.
9. The stay duration and the travel duration are separate: do NOT add the 2-day minimum stay to the travel time. The 2-day minimum applies only to the time spent at each city.
10. Return ONLY the JSON object, nothing else.
""")

JSON_ERROR_FEEDBACK = """The previous response was not a valid JSON object. Please ensure:
1. The response is a single, valid JSON object
2. The JSON has an "itinerary" array containing exactly 4 stops
3. Each stop has "place", "arrival_time", and "departure_time" fields
4. All times are in UTC and follow the format 'YYYY-MM-DD HH:MM'
5. Each place includes the IATA code in parentheses
Example format:
{
    "itinerary": [
        {
            "place": "London (LHR)",
            "arrival_time": "2024-03-20 10:00",
            "departure_time": "2024-03-20 14:00"
        }
    ]
}"""

TIME_FORMAT_FEEDBACK = Template("""Error in time format for $place_label. Please ensure:
1. All times are in UTC and follow the EXACT format 'YYYY-MM-DD HH:MM'
2. Use 24-hour format (e.g., 14:30, 00:00 for midnight)
3. Include leading zeros (e.g., '01:05' not '1:5')
4. No timezone indicators or UTC suffix
Example: '2024-03-20 14:30'""")

INSUFFICIENT_STOPS_FEEDBACK = Template("""Generated itinerary has insufficient stops. Please ensure:
1. The itinerary contains exactly $num_destinations stops
2. Each stop has all required fields (place, arrival_time, departure_time)
3. Each place includes the IATA code in parentheses
4. All times are in UTC and follow the format 'YYYY-MM-DD HH:MM'
Example format:
{
    "itinerary": [
        {
            "place": "London (LHR)",
            "arrival_time": "2024-03-20 10:00",
            "departure_time": "2024-03-20 14:00"
        },
        {
            "place": "Paris (CDG)",
            "arrival_time": "2024-03-20 16:00",
            "departure_time": "2024-03-21 10:00"
        }
    ]
}""")


def _checked_cities(cities) -> tuple[tuple[str, AirportCode], ...]:
    """cities as (name, code) pairs of a str and an AirportCode. An entry
    that already is one is kept as the same object, since tuple() of a
    tuple returns it."""
    try:
        entries = iter(cities)
    except TypeError:
        raise ValueError(f"expected (name, iata) pairs, got {cities!r}") from None
    out = []
    for entry in entries:
        # A two-character string would otherwise pass as a pair.
        try:
            pair = () if isinstance(entry, (str, bytes)) else tuple(entry)
        except TypeError:
            pair = ()
        if len(pair) != 2:
            raise ValueError(f"expected (name, iata) pairs, got {entry!r}")
        name, code = pair
        if type(name) is not str:
            raise ValueError(f"city name must be a str, got {name!r}")
        if type(code) is not AirportCode:
            pair = (name, AirportCode(code))
        out.append(pair)
    return tuple(out)


class GenerationRequest(
    namedtuple("GenerationRequest", "num_destinations city_pool window_start window_end fixed_sequence")
):
    """Inputs that shape a generation prompt.

    fixed_sequence pins both the cities and their order; when it is None the
    model picks freely from city_pool. Every sequence entry must come from
    the pool. Each entry of either is a (name, code) pair whose name is a
    str and whose code is a valid IATA code; a code that is not yet an
    AirportCode is made one. num_destinations is an int (not a bool or a
    float) and the window bounds are dates (not datetimes), so two
    GenerationRequests that compare equal print the same prompt.
    """

    __slots__ = ()

    def __new__(
        cls,
        num_destinations: int,
        city_pool: tuple[tuple[str, AirportCode], ...],
        window_start: date,
        window_end: date,
        fixed_sequence: tuple[tuple[str, AirportCode], ...] | None = None,
    ):
        if type(num_destinations) is not int:
            raise ValueError(f"num_destinations must be an int, got {num_destinations!r}")
        for name, bound in (("window_start", window_start), ("window_end", window_end)):
            if type(bound) is not date:
                raise ValueError(f"{name} must be a date, got {bound!r}")
        city_pool = _checked_cities(city_pool)
        if fixed_sequence is not None:
            fixed_sequence = _checked_cities(fixed_sequence)
        if num_destinations < 2:
            raise ValueError(f"an itinerary needs at least 2 destinations, got {num_destinations}")
        if not city_pool:
            raise ValueError("city_pool must not be empty")
        if window_end < window_start:
            raise ValueError(f"date window ends before it starts: {window_start}..{window_end}")
        if fixed_sequence is not None:
            if len(fixed_sequence) != num_destinations:
                raise ValueError(
                    f"fixed_sequence has {len(fixed_sequence)} cities, expected {num_destinations}"
                )
            pool = set(city_pool)
            for entry in fixed_sequence:
                if entry not in pool:
                    place = shorten(f"{entry[0]} ({entry[1]})")
                    raise ValueError(f"fixed_sequence city {place!r} is not in city_pool")
        return tuple.__new__(cls, (num_destinations, city_pool, window_start, window_end, fixed_sequence))


def _pairs_str(separator: str, pairs: tuple[tuple[str, AirportCode], ...]) -> str:
    return separator.join(f"{name} ({code})" for name, code in pairs)


@lru_cache(maxsize=16)
def build_base_prompt(request: GenerationRequest) -> str:
    """The first prompt for a request: the pre-defined-route template when it
    has a fixed_sequence, the free-choice template otherwise. Memoised on
    the request, which is immutable and prints the same when equal."""
    cities_str = _pairs_str(", ", request.city_pool)
    if request.fixed_sequence is None:
        return GENERIC_PROMPT.substitute(
            num_destinations=request.num_destinations,
            cities_str=cities_str,
            date_start=request.window_start.isoformat(),
            date_end=request.window_end.isoformat(),
        )
    first_name, first_code = request.fixed_sequence[0]
    return FIXED_SEQUENCE_PROMPT.substitute(
        num_destinations=request.num_destinations,
        fixed_route_str=_pairs_str(" -> ", request.fixed_sequence),
        cities_str=cities_str,
        example_place=first_name,
        example_iata=first_code,
    )


def build_feedback(error: FormatError, request: GenerationRequest) -> str:
    """Render the feedback message for one parse failure, picked by the
    error's class: the time-format text names the error's place_label, or
    "unknown" when the failing stop could not be named; the stop-count text
    asks for the request's number of stops; any other FormatError gets the
    JSON text. The caller prepends the result to the unchanged base prompt.
    """
    if isinstance(error, InvalidTimeFormatError):
        return TIME_FORMAT_FEEDBACK.substitute(place_label=error.place_label or "unknown")
    if isinstance(error, InsufficientStopsError):
        return INSUFFICIENT_STOPS_FEEDBACK.substitute(num_destinations=request.num_destinations)
    return JSON_ERROR_FEEDBACK
