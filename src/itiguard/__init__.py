"""Temporal guardrails for multi-city flight itineraries.

Validates generated itineraries against four rules (no overlapping legs,
minimum and maximum transit windows derived from real flight durations, and
a minimum stay per city) and deterministically repairs violations in a
single forward pass. Ships with pluggable flight-duration providers, prompt
and retry machinery for working with text-generation models, corpus
metrics, and a CLI. The rest of the API lives in the submodules
(validation, correction, durations, gateway, metrics, model, prompts).
"""

from .durations import FixtureProvider
from .model import AirportCode, Itinerary, Stop, parse_itinerary, render_itinerary
from .model import format_timestamp, parse_timestamp

__version__ = "0.1.0"

__all__ = [
    "AirportCode",
    "FixtureProvider",
    "Itinerary",
    "Stop",
    "format_timestamp",
    "parse_itinerary",
    "parse_timestamp",
    "render_itinerary",
]
