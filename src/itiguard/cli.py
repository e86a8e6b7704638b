"""Command-line front end.

Four subcommands: validate (check files, report issues), correct (repair a
file and print the fixed document), generate (prompt a model, then validate
and correct the result), and bench (validate a corpus and print aggregate
statistics).

Exit codes are part of the contract: 0 everything valid, 1 at least one
itinerary invalid, 2 input or provider problem, 3 the check after the single
correction pass found an issue left (a bug), 4 generation retries exhausted,
130 interrupted (Ctrl-C), 141 stdout closed by its reader (no error line;
correct and generate flush their document before they write to stderr).
A failure that ends the run is raised, and the except clauses in main are
the one table that maps it to its code. Only validate returns 2 itself,
after it has reported every file.

Settings resolve as flags > config file > built-in defaults. The config
file is one JSON object whose keys mirror AppConfig. main builds the run's
provider and policy once, from the resolved settings, and hands both to the
command's handler: a run has one route memo, whatever the command.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import date
from typing import NamedTuple

from .airports import AIRPORT_COORDS
from .correction import CorrectionTrace, NonConvergenceError, correct
from .durations import (
    CachedProvider,
    DurationProvider,
    FixtureProvider,
    GreatCircleProvider,
    RemoteDurationClient,
    RouteUnavailable,
)
from .gateway import (
    DEFAULT_MAX_RETRIES,
    GenerationFailed,
    HttpGenerationClient,
    ReplayClient,
    ResponsesExhausted,
    generate_itinerary,
)
from .metrics import aggregate, failure_mode_breakdown, load_manifest, render_stats
from .model import (
    AirportCode,
    Itinerary,
    error_text,
    format_minutes,
    load_json,
    parse_date,
    parse_itinerary,
    read_file,
    render_itinerary,
    shorten,
    warn,
)
from .prompts import GenerationRequest
from .validation import (
    Issue,
    IssueKind,
    ValidationPolicy,
    validate,
)

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_NON_CONVERGENCE = 3
EXIT_GENERATION = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

DEMO_CITY_POOL = (
    ("Sydney", "SYD"),
    ("Frankfurt", "FRA"),
    ("Cairo", "CAI"),
    ("Casablanca", "CMN"),
    ("London", "LHR"),
    ("Paris", "CDG"),
    ("Tokyo", "HND"),
    ("New York", "JFK"),
)


# The --format values of each command that prints a report.
FORMATS = {"validate": ("table", "json"), "bench": ("table", "csv", "json")}

_DEFAULT_POLICY = ValidationPolicy()


class AppConfig(NamedTuple):
    """Resolved settings shared by all subcommands; the policy fields are
    ValidationPolicy's defaults, in hours."""

    provider: str = "great-circle"
    buffer_hours: float = _DEFAULT_POLICY.buffer_minutes / 60
    min_stay_hours: float = _DEFAULT_POLICY.min_stay_minutes / 60
    max_multiplier: float = _DEFAULT_POLICY.max_multiplier
    strict: bool = _DEFAULT_POLICY.strict
    trace: bool = False
    format: str = "table"
    cache_file: str | None = None
    fixture_file: str | None = None
    base_url: str | None = None


def resolve_config(args: argparse.Namespace) -> AppConfig:
    """Layer config sources: defaults, then config file, then explicit flags.

    Flags parsed with default=None count as "not given" and leave the lower
    layers alone. A format the command does not print is refused here,
    before any input is read.
    """
    config = AppConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        data = load_json(read_file(config_path))
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        defaults = AppConfig._field_defaults
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {shorten(', '.join(sorted(unknown)))}")
        for key, value in data.items():
            data[key] = _check_config_type(key, value, defaults[key])
        config = config._replace(**data)
    overrides = {}
    for name in AppConfig._fields:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    config = config._replace(**overrides) if overrides else config
    formats = FORMATS.get(args.command)
    if formats and config.format not in formats:
        raise ValueError(
            f"{args.command} supports --format {', '.join(formats[:-1])} or {formats[-1]}, "
            f"not {shorten(repr(config.format))}"
        )
    return config


def _check_config_type(key: str, value: object, default: object) -> object:
    """A config value must have its default's type, and is returned as the
    flags would give it: a number may be an int and becomes a float, so one
    no float can hold is refused here. Keys that default to None take a
    string."""
    if isinstance(default, bool):
        ok, expected = isinstance(value, bool), "true or false"
    elif isinstance(default, float):
        ok, expected = type(value) in (int, float) and abs(value) <= sys.float_info.max, "a finite number"
        value = float(value) if ok else value
    else:
        ok, expected = isinstance(value, str) or (value is None and default is None), "a string"
    if not ok:
        raise ValueError(f"config key {key} must be {expected}, got {shorten(json.dumps(value))}")
    return value


def build_policy(config: AppConfig) -> ValidationPolicy:
    return ValidationPolicy(
        min_stay_minutes=_minutes("min_stay_hours", config.min_stay_hours),
        buffer_minutes=_minutes("buffer_hours", config.buffer_hours),
        max_multiplier=config.max_multiplier,
        strict=bool(config.strict),
    )


def _minutes(key: str, hours: float) -> int:
    """hours rounded to the nearest whole minute. A negative value is
    refused before rounding, and so is a positive one that rounds to 0."""
    minutes = hours * 60
    if not math.isfinite(minutes):
        raise ValueError(f"{key} must be a finite number of hours, got {hours}")
    if minutes < 0:
        raise ValueError(f"{key} must not be negative, got {hours}")
    rounded = round(minutes)
    if minutes and not rounded:
        raise ValueError(f"{key} {hours} rounds to 0 minutes; hours are rounded to the nearest minute")
    return rounded


def build_provider(config: AppConfig) -> CachedProvider:
    """The configured provider inside a CachedProvider, the run's one memo:
    each route is asked for once per run, a route without a duration too."""
    if config.provider == "fixture":
        if not config.fixture_file:
            raise ValueError("--fixture-file is required with --provider fixture")
        base: DurationProvider = FixtureProvider.from_file(config.fixture_file)
    elif config.provider == "great-circle":
        base = GreatCircleProvider(AIRPORT_COORDS)
    elif config.provider == "live":
        if not config.base_url:
            raise ValueError("--base-url is required with --provider live")
        base = RemoteDurationClient(config.base_url)
    else:
        raise ValueError(f"unknown provider kind {shorten(repr(config.provider))}")
    return CachedProvider(base, path=config.cache_file)


def _issue_line(issue: Issue, itin: Itinerary) -> str:
    if issue.kind == IssueKind.STAY_TOO_SHORT:
        where = f"stop {issue.subject} ({itin.stops[issue.subject].place})"
    else:
        origin = itin.stops[issue.subject].airport
        destination = itin.stops[issue.subject + 1].airport
        where = f"segment {issue.subject} ({origin}->{destination})"
    detail = ""
    if issue.observed is not None and issue.required is not None:
        detail = f": observed {format_minutes(issue.observed)}, required {format_minutes(issue.required)}"
    return f"  - {issue.kind} {where}{detail}"


def cmd_validate(args: argparse.Namespace, config: AppConfig,
                 provider: CachedProvider, policy: ValidationPolicy) -> int:
    results = []
    had_error = False
    for path in args.inputs:
        try:
            itinerary = parse_itinerary(read_file(path), None)
            report = validate(itinerary, provider, policy)
        except (OSError, ValueError, RouteUnavailable) as err:
            print(f"{path}: error: {err}", file=sys.stderr)
            had_error = True
            continue
        results.append((path, itinerary, report))
    if config.format == "json":
        payload = [{"file": path, **report.to_dict()} for path, _, report in results]
        print(json.dumps(payload, indent=2))
    else:
        for path, itinerary, report in results:
            if report.is_valid:
                line = f"{path}: valid"
            else:
                line = f"{path}: INVALID ({len(report.issues)} issue(s))"
            if report.unverifiable_segments:
                line += f", {len(report.unverifiable_segments)} unverifiable segment(s)"
            print(line)
            for issue in report.issues:
                print(_issue_line(issue, itinerary))
    if had_error:
        return EXIT_INPUT
    if any(not report.is_valid for _, _, report in results):
        return EXIT_INVALID
    return EXIT_VALID


def cmd_correct(args: argparse.Namespace, config: AppConfig,
                provider: CachedProvider, policy: ValidationPolicy) -> int:
    itinerary = parse_itinerary(read_file(args.input), None)
    corrected, trace = correct(itinerary, provider, policy)
    print(render_itinerary(corrected), flush=True)
    if config.trace:
        print(json.dumps(trace.to_dict(), indent=2), file=sys.stderr)
    return EXIT_VALID


def _parse_city_list(raw: str) -> tuple[tuple[str, AirportCode], ...]:
    """Parse 'Name:IATA,Name:IATA,...' into (name, code) pairs."""
    cities = []
    for part in raw.split(","):
        name, sep, code = part.strip().rpartition(":")
        if not sep or not name.strip():
            raise ValueError(f"city entry {part.strip()!r} must look like 'Name:IATA'")
        cities.append((name.strip(), AirportCode(code.strip().upper())))
    return tuple(cities)


def cmd_generate(args: argparse.Namespace, config: AppConfig,
                 provider: CachedProvider, policy: ValidationPolicy) -> int:
    city_pool = DEMO_CITY_POOL if args.cities is None else _parse_city_list(args.cities)
    sequence = None if args.route is None else _parse_city_list(args.route)
    request = GenerationRequest(
        num_destinations=len(sequence) if sequence else args.destinations,
        city_pool=city_pool,
        window_start=args.window_start,
        window_end=args.window_end,
        fixed_sequence=sequence,
    )
    if args.replay_dir:
        client = ReplayClient.for_request(args.replay_dir, args.model_tag, request.num_destinations)
    elif args.endpoint:
        client = HttpGenerationClient(args.endpoint)
    else:
        raise ValueError("configure a generation client with --replay-dir or --endpoint")
    itinerary, attempts = generate_itinerary(client, request, max_retries=args.max_retries)
    report = validate(itinerary, provider, policy)
    trace: CorrectionTrace | None = None
    final = itinerary
    if not report.is_valid and not args.no_correct:
        final, trace = correct(itinerary, provider, policy)
    print(render_itinerary(final), flush=True)
    adjustments = len(trace.adjustments) if trace else 0
    print(
        f"generation: {attempts} attempt(s); {len(report.issues)} issues found; "
        f"{adjustments} adjustment(s) applied",
        file=sys.stderr,
    )
    if config.trace and trace is not None:
        print(json.dumps(trace.to_dict(), indent=2), file=sys.stderr)
    return EXIT_VALID


def cmd_bench(args: argparse.Namespace, config: AppConfig,
              provider: CachedProvider, policy: ValidationPolicy) -> int:
    if args.breakdown and config.format != "table":
        raise ValueError(f"bench --breakdown needs --format table, not {shorten(repr(config.format))}")
    entries = load_manifest(args.manifest)
    # "." for a manifest in the working directory, so an empty file name
    # still names a directory, as Path(".") / "" does.
    root = os.path.dirname(args.manifest) or "."
    records = []
    for entry in entries:
        try:
            itinerary = parse_itinerary(read_file(os.path.join(root, entry.file)), entry.num_cities)
            report = validate(itinerary, provider, policy)
            records.append((entry, report))
        except RouteUnavailable as err:
            # Strict mode: a route without a duration ends the run, as in validate.
            raise ValueError(f"{shorten(entry.file)}: {err}") from None
        except Exception as err:
            warn(f"skipping {shorten(entry.file)}: {shorten(error_text(err))}")
    stats = aggregate(records, include_stays=args.include_stays)
    if config.format == "json":
        print(json.dumps([row._asdict() for row in stats], indent=2))
    else:
        print(render_stats(stats, config.format), end="")
    if args.breakdown:
        breakdown = failure_mode_breakdown(records)
        for tag in sorted(breakdown):
            counts = ", ".join(f"{kind}={count}" for kind, count in sorted(breakdown[tag].items()))
            print(f"{tag}: {counts}")
    return EXIT_VALID


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands a subcommand's parser its part of the command line
        # through this method, so the arguments are added on the first parse.
        add, self._add_arguments = self._add_arguments, None
        if add is not None:
            _add_common_arguments(self)
            add(self)
        return super().parse_known_args(args, namespace)

    def print_help(self, file=None):
        # Unlike argparse's own print_help, this lets a closed stdout raise, at the write or the flush.
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def _window_date(text: str) -> date:
    """A --window-start or --window-end value: exactly 'YYYY-MM-DD', by the
    wire format's date rule, on every Python version (3.11's
    date.fromisoformat also takes '20250601' and '2025-W23-1')."""
    try:
        return parse_date(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand takes, ahead of its own."""
    parser.add_argument("--config", help="JSON config file; keys mirror the defaults")
    parser.add_argument("--provider", choices=["live", "fixture", "great-circle"],
                        help="flight duration source (default: great-circle)")
    parser.add_argument("--fixture-file", help="duration table for --provider fixture")
    parser.add_argument("--base-url", help="duration API root for --provider live")
    parser.add_argument("--cache-file", help="persistent duration cache")
    # The flags default to None ("not given"), so %(default)s cannot show
    # the policy's defaults.
    parser.add_argument("--buffer-hours", type=float, help="airport buffer added to flight time "
                        f"(default: {_DEFAULT_POLICY.buffer_minutes / 60:g})")
    parser.add_argument("--min-stay-hours", type=float, help="minimum stay per city "
                        f"(default: {_DEFAULT_POLICY.min_stay_minutes / 60:g})")
    parser.add_argument("--max-multiplier", type=float, help="max transit as a multiple of minimum transit "
                        f"(default: {_DEFAULT_POLICY.max_multiplier:g})")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="treat unresolvable routes as errors instead of skipping them")


def _add_validate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("inputs", nargs="+", help="itinerary JSON file(s)")
    parser.add_argument("--format", choices=FORMATS["validate"], default=None)


def _add_correct_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="itinerary JSON file")
    parser.add_argument("--trace", action="store_true", default=None,
                        help="print the adjustment log to stderr")


def _add_generate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--destinations", type=int, default=4,
                        help="number of stops (default: 4; ignored with --route)")
    parser.add_argument("--cities", help="city pool as 'Name:IATA,Name:IATA,...'")
    parser.add_argument("--route", help="fixed city sequence as 'Name:IATA,...'")
    parser.add_argument("--window-start", type=_window_date, default=date(2025, 6, 1))
    parser.add_argument("--window-end", type=_window_date, default=date(2025, 6, 30))
    parser.add_argument("--replay-dir", help="serve recorded model responses from this directory")
    parser.add_argument("--model-tag", default="demo", help="recording subdirectory (default: demo)")
    parser.add_argument("--endpoint", help="live generation endpoint URL")
    parser.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES,
                        help="format-feedback retries after the first attempt (default: %(default)s)")
    parser.add_argument("--no-correct", action="store_true",
                        help="emit the validated itinerary without repairing it")
    parser.add_argument("--trace", action="store_true", default=None,
                        help="print the adjustment log to stderr")


def _add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("manifest", help="corpus manifest JSON")
    parser.add_argument("--format", choices=FORMATS["bench"], default=None)
    parser.add_argument("--include-stays", action="store_true",
                        help="count stay violations in the invalid-segment rate")
    parser.add_argument("--breakdown", action="store_true",
                        help="also print issue-kind counts per model tag")


def build_parser() -> argparse.ArgumentParser:
    """The itiguard parser, whose subcommand parsers are empty until parsed.

    Each add_argument call builds an argparse HelpFormatter, and a run uses
    one subcommand, so a subcommand's parser gets its arguments only when
    argparse hands it the command line (_Parser.parse_known_args). The top
    level help and the invalid-choice error need only the names and help
    texts, which add_parser takes here. Nothing is kept across calls: each
    call builds a new parser.
    """
    parser = _Parser(
        prog="itiguard",
        description="Validate, correct, and generate multi-city flight itineraries.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("validate", add_arguments=_add_validate_arguments,
                          help="check itinerary files against the temporal rules")
    subparsers.add_parser("correct", add_arguments=_add_correct_arguments,
                          help="repair an itinerary and print the corrected JSON")
    subparsers.add_parser("generate", add_arguments=_add_generate_arguments,
                          help="generate an itinerary, then validate and correct it")
    subparsers.add_parser("bench", add_arguments=_add_bench_arguments,
                          help="validate a corpus and print aggregate statistics")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a failure that ends the run is mapped to its exit
    code here and nowhere else, with one 'error:' line on stderr."""
    handlers = {"validate": cmd_validate, "correct": cmd_correct, "generate": cmd_generate, "bench": cmd_bench}
    try:
        args = build_parser().parse_args(argv)
        try:
            config = resolve_config(args)
        except (OSError, ValueError) as err:
            return _fail(f"bad configuration: {err}", EXIT_INPUT)
        code = handlers[args.command](args, config, build_provider(config), build_policy(config))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except NonConvergenceError as err:
        return _fail(f"correction did not converge: {err}", EXIT_NON_CONVERGENCE)
    except (GenerationFailed, ResponsesExhausted) as err:
        return _fail(str(err), EXIT_GENERATION)
    except (OSError, ValueError, RouteUnavailable) as err:
        return _fail(str(err), EXIT_INPUT)
    except KeyboardInterrupt:
        return _fail("interrupted", EXIT_INTERRUPTED)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())
