"""Command-line front end.

Four subcommands: validate (check files, report issues), correct (repair a
file and print the fixed document), generate (prompt a model, then validate
and correct the result), and bench (validate a corpus and print aggregate
statistics). A command line that starts with a command is parsed by that
command's parser alone; build_parser's full parser takes every other one.

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
import shutil
import sys
from datetime import date
from functools import partial
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


# bench's descriptor of the manifest's directory. O_PATH, where the system
# has it, needs only search permission on the directory, as a path through
# it does.
_DIR_FLAGS = getattr(os, "O_PATH", os.O_RDONLY) | os.O_DIRECTORY

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
        # A name that is not UTF-8 on disk would print as a lone-surrogate
        # escape that no JSON reader can encode again.
        payload = [
            {"file": os.fsencode(path).decode("utf-8", "backslashreplace"), **report.to_dict()}
            for path, _, report in results
        ]
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


def _file_label(name: str) -> str:
    """A manifest file name for a one-line message: as it is when every
    character prints, else its repr, so a newline or NUL in it can neither
    split the line nor forge another."""
    return shorten(name if name.isprintable() else repr(name))


def cmd_bench(args: argparse.Namespace, config: AppConfig,
              provider: CachedProvider, policy: ValidationPolicy) -> int:
    if args.breakdown and config.format != "table":
        raise ValueError(f"bench --breakdown needs --format table, not {shorten(repr(config.format))}")
    entries = load_manifest(args.manifest)
    # Each file is opened relative to the manifest's directory, opened once:
    # no path join and no walk from the working directory per file.
    root = os.open(os.path.dirname(args.manifest) or ".", _DIR_FLAGS)
    records = []
    try:
        for entry in entries:
            try:
                # "." keeps an empty name naming the directory, which warns
                # "Is a directory".
                itinerary = parse_itinerary(read_file(entry.file or ".", dir_fd=root), entry.num_cities)
                report = validate(itinerary, provider, policy)
                records.append((entry, report))
            except RouteUnavailable as err:
                # Strict mode: a route without a duration ends the run, as in validate.
                raise ValueError(f"{_file_label(entry.file)}: {err}") from None
            except Exception as err:
                warn(f"skipping {_file_label(entry.file)}: {shorten(error_text(err))}")
    finally:
        os.close(root)
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
    def __init__(self, *args, **kwargs):
        # argparse builds a HelpFormatter per add_argument, and each one asks
        # for the terminal size: ask once per parser, for the width
        # HelpFormatter would compute itself.
        kwargs.setdefault("formatter_class", partial(
            argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2))
        super().__init__(*args, **kwargs)

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


# name -> (its line in the top-level help, the adder of its own flags)
_COMMANDS = {
    "validate": ("check itinerary files against the temporal rules", _add_validate_arguments),
    "correct": ("repair an itinerary and print the corrected JSON", _add_correct_arguments),
    "generate": ("generate an itinerary, then validate and correct it", _add_generate_arguments),
    "bench": ("validate a corpus and print aggregate statistics", _add_bench_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command's flags included, for the command
    lines parse_args does not take itself. Each call builds a new one."""
    parser = _Parser(
        prog="itiguard",
        description="Validate, correct, and generate multi-city flight itineraries.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help_text)
        _add_common_arguments(subparser)
        add_arguments(subparser)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), same output and errors. A line that
    starts with a command is parsed by that command's parser alone, as
    build_parser makes it, since each add_argument builds a HelpFormatter. The
    rest, and a line that parser leaves arguments over, go to build_parser,
    so the top-level usage and errors stay argparse's own."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"itiguard {argv[0]}")
        _add_common_arguments(parser)
        _COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command; a failure that ends the run is mapped to its exit
    code here and nowhere else, with one 'error:' line on stderr."""
    handlers = {"validate": cmd_validate, "correct": cmd_correct, "generate": cmd_generate, "bench": cmd_bench}
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
