"""Temporal guardrails for multi-city flight itineraries.

Validates generated itineraries against four rules (no overlapping legs,
minimum and maximum transit windows derived from real flight durations, and
a minimum stay per city) and deterministically repairs violations in a
single forward pass. Ships with pluggable flight-duration providers, prompt
and retry machinery for working with text-generation models, corpus
metrics, and a CLI.
"""

from .correction import (
    Adjustment,
    CorrectionTrace,
    NonConvergenceError,
    TraceMismatchError,
    correct,
    replay_trace,
)
from .durations import (
    CachedProvider,
    DurationProvider,
    FixtureProvider,
    FlightDuration,
    GreatCircleProvider,
    RemoteDurationClient,
    RoutePair,
    RouteUnavailable,
    TransitBounds,
)
from .gateway import (
    GenerationClient,
    GenerationFailed,
    HttpGenerationClient,
    ReplayClient,
    ScriptedClient,
    generate_itinerary,
)
from .metrics import (
    CorpusRecord,
    CorpusStats,
    EmptyGroupError,
    aggregate,
    failure_mode_breakdown,
    render_stats,
)
from .model import (
    AirportCode,
    FormatError,
    InsufficientStopsError,
    InvalidJsonError,
    InvalidTimeFormatError,
    Itinerary,
    Segment,
    Stop,
    Timestamp,
    parse_itinerary,
    render_itinerary,
)
from .prompts import (
    FeedbackKind,
    GenerationRequest,
    build_feedback,
    build_fixed_sequence_prompt,
    build_generic_prompt,
)
from .validation import (
    Issue,
    IssueKind,
    ProviderError,
    ValidationPolicy,
    ValidationReport,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Adjustment",
    "AirportCode",
    "CachedProvider",
    "CorpusRecord",
    "CorpusStats",
    "CorrectionTrace",
    "DurationProvider",
    "EmptyGroupError",
    "FeedbackKind",
    "FixtureProvider",
    "FlightDuration",
    "FormatError",
    "GenerationClient",
    "GenerationFailed",
    "GenerationRequest",
    "GreatCircleProvider",
    "HttpGenerationClient",
    "InsufficientStopsError",
    "InvalidJsonError",
    "InvalidTimeFormatError",
    "Issue",
    "IssueKind",
    "Itinerary",
    "NonConvergenceError",
    "ProviderError",
    "RemoteDurationClient",
    "ReplayClient",
    "RoutePair",
    "RouteUnavailable",
    "ScriptedClient",
    "Segment",
    "Stop",
    "Timestamp",
    "TraceMismatchError",
    "TransitBounds",
    "ValidationPolicy",
    "ValidationReport",
    "aggregate",
    "build_feedback",
    "build_fixed_sequence_prompt",
    "build_generic_prompt",
    "correct",
    "failure_mode_breakdown",
    "generate_itinerary",
    "parse_itinerary",
    "render_itinerary",
    "replay_trace",
    "validate",
]
