"""The three workloads of the itiguard benchmark.

Each workload builds its inputs from the seed before any timing starts,
exposes one round of operations as zero-argument callables, and checks the
outputs of a round afterwards, outside the timed region. A round is one pass
over the workload's input set, so every round does the same work.

- generate-repair: the request path of ``itiguard generate`` without
  argparse. Parse, correction and render do most of the work; duration
  lookups are dict hits.
- corpus-bench: an in-process ``itiguard bench`` over the bundled corpus.
  File reads, parse, validate, metrics and the thread pool do the work;
  correction never runs.
- live-cache-cold: ``validate`` through ``CachedProvider`` over a
  ``RemoteDurationClient`` whose fetch is an in-process fake. The only
  workload where the durations layer dominates and the only one that
  writes: every round starts from an empty cache file.

The workload code calls itiguard through module attributes
(``validation.validate``, not a from-import) so that the tracer's patches
take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import zlib
from datetime import date, datetime, timedelta
from pathlib import Path

from itiguard import cli, correction, durations, gateway, model, prompts, validation
from itiguard.airports import AIRPORT_COORDS

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "fixtures" / "corpus"

GENERATE_CASES = 2000
MIN_STOPS, MAX_STOPS = 2, 8
WIRE_FORMAT = "%Y-%m-%d %H:%M"
WINDOW_START = datetime(2025, 6, 1)
WINDOW_MINUTES = 30 * 24 * 60
STAY_MINUTES = 50 * 60
BUFFER_MINUTES = 4 * 60
CODES = sorted(AIRPORT_COORDS)
CITY_POOL = tuple((f"City {code}", model.AirportCode(code)) for code in CODES)

# Pinned stdout of `itiguard bench fixtures/corpus/manifest.json --provider
# fixture --fixture-file fixtures/corpus/durations.txt --breakdown`; the
# corpus generator plants exactly these counts.
CORPUS_STDOUT = """\
Model    Cities  Invalid Itin.  Invalid Seg.  Avg Issues/Itn.
-------  ------  -------------  ------------  ---------------
model-a  4       48.00%         21.00%        0.63
model-b  4       97.00%         78.00%        2.34
model-a: transit_too_long=27, transit_too_short=36
model-b: transit_too_long=119, transit_too_short=115
"""


def default_policy() -> validation.ValidationPolicy:
    return cli.build_policy(cli.AppConfig())


def duration_table(seed: int) -> dict[tuple[str, str], int]:
    """Seeded flight minutes in [1h, 20h] for every airport pair, keyed by sorted pair."""
    rng = random.Random(f"{seed}:durations")
    return {(a, b): rng.randint(60, 1200) for i, a in enumerate(CODES) for b in CODES[i + 1:]}


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _wire(moment: datetime) -> str:
    return moment.strftime(WIRE_FORMAT)


def llm_like_schedule(rng: random.Random, codes: list[str], flight_minutes) -> list[tuple[datetime, datetime]]:
    """Valid 50h stays and gaps exactly at t_min, with 0-3 planted bad gaps,
    the way scripts/generate_corpus.py builds its corpus."""
    n = len(codes)
    bad = set(rng.sample(range(n - 1), min(rng.randint(0, 3), n - 1)))
    arrival = WINDOW_START + timedelta(days=rng.randint(0, 20), hours=6 + rng.randint(0, 17))
    times = []
    for i in range(n):
        departure = arrival + timedelta(minutes=STAY_MINUTES)
        times.append((arrival, departure))
        if i < n - 1:
            t_min = flight_minutes(codes[i], codes[i + 1]) + BUFFER_MINUTES
            if i not in bad:
                gap = t_min
            elif rng.random() < 0.5:
                gap = t_min - 60
            else:
                gap = 2 * t_min + 60
            arrival = departure + timedelta(minutes=gap)
    return times


def uniform_schedule(rng: random.Random, n: int) -> list[tuple[datetime, datetime]]:
    """Arrival and departure each uniform over a 30-day window, as in tests/support.py."""
    return [
        (
            WINDOW_START + timedelta(minutes=rng.randint(0, WINDOW_MINUTES)),
            WINDOW_START + timedelta(minutes=rng.randint(0, WINDOW_MINUTES)),
        )
        for _ in range(n)
    ]


def schedule_stops(rng: random.Random, index: int, codes: list[str], flight_minutes) -> list[dict]:
    """Stop objects in wire form; even indices get LLM-like schedules, odd ones uniform."""
    if index % 2 == 0:
        times = llm_like_schedule(rng, codes, flight_minutes)
    else:
        times = uniform_schedule(rng, len(codes))
    return [
        {"place": f"City {code} ({code})", "arrival_time": _wire(a), "departure_time": _wire(d)}
        for code, (a, d) in zip(codes, times)
    ]


class GenerateRepair:
    """One op: generate_itinerary(ScriptedClient), validate, correct if invalid, render."""

    name = "generate-repair"
    itineraries_per_op = 1
    MALFORMED_EVERY = 5

    def __init__(self, seed: int, workdir: Path):
        self.provider, self.policy = self.setup_program(seed, workdir)
        table = duration_table(seed)
        rng = random.Random(f"{seed}:generate-repair")

        def flight(a: str, b: str) -> int:
            return table[(min(a, b), max(a, b))]

        self.cases = []
        for i in range(GENERATE_CASES):
            codes = rng.sample(CODES, rng.randint(MIN_STOPS, MAX_STOPS))
            stops = schedule_stops(rng, i, codes, flight)
            good = json.dumps({"itinerary": stops}, indent=4)
            responses = [good]
            if i % self.MALFORMED_EVERY == 0:
                responses.insert(0, self._malformed((i // self.MALFORMED_EVERY) % 3, stops, good))
            request = prompts.GenerationRequest(
                num_destinations=len(codes),
                city_pool=CITY_POOL,
                window_start=date(2025, 6, 1),
                window_end=date(2025, 6, 30),
            )
            expected = ([s["place"] for s in stops], stops[0]["arrival_time"], len(responses))
            self.cases.append((request, tuple(responses), expected))
        self.digest = _digest([sorted(table.items()), [c[1] for c in self.cases]])
        self._verified: dict[int, tuple[str, int]] = {}

    @staticmethod
    def setup_program(seed: int, workdir: Path):
        return durations.FixtureProvider(duration_table(seed)), default_policy()

    @staticmethod
    def _malformed(kind: int, stops: list[dict], good: str) -> str:
        """Bad JSON, a bad time format, or a wrong stop count, in that cycle."""
        if kind == 0:
            return good[: len(good) // 2]
        if kind == 1:
            bad = [dict(stop) for stop in stops]
            bad[0]["arrival_time"] = bad[0]["arrival_time"].replace(" ", "T")
            return json.dumps({"itinerary": bad}, indent=4)
        return json.dumps({"itinerary": stops[:-1]}, indent=4)

    def round_ops(self) -> list:
        provider, policy = self.provider, self.policy

        def op(request, responses):
            client = gateway.ScriptedClient(responses)
            itinerary, attempts = gateway.generate_itinerary(client, request)
            report = validation.validate(itinerary, provider, policy)
            if not report.is_valid:
                itinerary, _ = correction.correct(itinerary, provider, policy)
            return model.render_itinerary(itinerary), attempts

        return [lambda r=request, s=responses: op(r, s) for request, responses, _ in self.cases]

    def check_round(self, outputs: list) -> list[bool]:
        """Flag wrong outputs. The first correct output of each case is
        checked in full; later rounds must reproduce it exactly."""
        wrong = []
        for i, out in enumerate(outputs):
            if i in self._verified:
                wrong.append(out != self._verified[i])
            elif self._check_full(i, out):
                self._verified[i] = out
                wrong.append(False)
            else:
                wrong.append(True)
        return wrong

    def _check_full(self, index: int, out) -> bool:
        if not isinstance(out, tuple):
            return False
        text, attempts = out
        places, first_arrival, expected_attempts = self.cases[index][2]
        if attempts != expected_attempts:
            return False
        try:
            stops = json.loads(text)["itinerary"]
            if [s["place"] for s in stops] != places or stops[0]["arrival_time"] != first_arrival:
                return False
            itinerary = model.parse_itinerary(text, len(places))
        except (ValueError, KeyError, TypeError, IndexError):
            return False
        return validation.validate(itinerary, self.provider, self.policy).is_valid


class CorpusBench:
    """One op: in-process `itiguard bench` over the bundled 200-file corpus."""

    name = "corpus-bench"
    itineraries_per_op = 200

    # The corpus is bundled, so the seed does not change the inputs.
    ARGV = [
        "bench", str(CORPUS_DIR / "manifest.json"), "--provider", "fixture",
        "--fixture-file", str(CORPUS_DIR / "durations.txt"), "--breakdown",
    ]

    def __init__(self, seed: int, workdir: Path):
        files = sorted(CORPUS_DIR.iterdir())
        self.digest = _digest([[p.name, p.read_text(encoding="utf-8")] for p in files])

    @staticmethod
    def setup_program(seed: int, workdir: Path):
        config = cli.AppConfig(provider="fixture", fixture_file=str(CORPUS_DIR / "durations.txt"))
        return cli.build_provider(config), cli.build_policy(config)

    def round_ops(self) -> list:
        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.ARGV)
            return code, out.getvalue()

        return [op]

    def check_round(self, outputs: list) -> list[bool]:
        return [out != (cli.EXIT_VALID, CORPUS_STDOUT) for out in outputs]


class FakeFlightService:
    """In-process stand-in for the live duration API.

    Serves great-circle minutes as the live JSON payload. The first fetch of
    one route in eight fails with a transport error, so the client's retry
    path runs; the retry succeeds.
    """

    FAIL_FIRST_EVERY = 8

    def __init__(self, payloads: dict[str, bytes]):
        self._payloads = payloads
        self._seen: set[str] = set()

    def fetch(self, url: str, headers) -> bytes:
        if url not in self._seen:
            self._seen.add(url)
            if zlib.crc32(url.encode()) % self.FAIL_FIRST_EVERY == 0:
                raise durations.TransportError(f"injected failure for {url}")
        return self._payloads[url]


def _no_sleep(seconds: float) -> None:
    pass


class LiveCacheCold:
    """One op: validate() of a pre-built itinerary through a cold file cache."""

    name = "live-cache-cold"
    itineraries_per_op = 1
    BASE_URL = "http://durations.invalid/flights"
    # 4000 itineraries see 2251-2256 of the 2256 directed routes, by seed
    # (seeds 1-20; the exact set is self.routes), and about 27% of ops
    # miss at least once: p50 falls among hits and p90 among misses. At
    # 2000, about 52% of ops miss and p50 would sit on the hit/miss edge.
    ITINERARIES = 4000

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.policy = default_policy()
        reference = durations.GreatCircleProvider(AIRPORT_COORDS)
        minutes = {
            (a, b): reference.route_duration(
                durations.RoutePair(model.AirportCode(a), model.AirportCode(b))
            ).minutes
            for a in CODES for b in CODES if a != b
        }
        self.payloads = {
            f"{self.BASE_URL}/{a}/{b}": json.dumps({"hours": m // 60, "minutes": m % 60}).encode()
            for (a, b), m in minutes.items()
        }
        rng = random.Random(f"{seed}:live-cache-cold")
        texts = []
        for i in range(self.ITINERARIES):
            codes = rng.sample(CODES, rng.randint(MIN_STOPS, MAX_STOPS))
            stops = schedule_stops(rng, i, codes, lambda a, b: minutes[(a, b)])
            texts.append(json.dumps({"itinerary": stops}))
        self.itineraries = [model.parse_itinerary(text, None) for text in texts]
        self.references = [validation.validate(it, reference, self.policy) for it in self.itineraries]
        self.routes = {
            (str(a.airport), str(b.airport)): minutes[(str(a.airport), str(b.airport))]
            for it in self.itineraries for a, b in zip(it.stops, it.stops[1:])
        }
        self.digest = _digest(texts)
        self._cache_path = workdir / "cache.txt"

    @classmethod
    def setup_program(cls, seed: int, workdir: Path, service: FakeFlightService | None = None):
        client = durations.RemoteDurationClient(
            cls.BASE_URL, api_key="", fetch=(service or FakeFlightService({})).fetch, sleep=_no_sleep
        )
        return durations.CachedProvider(client, path=workdir / "cache.txt"), default_policy()

    def round_ops(self) -> list:
        """Ops of one round, over a fresh fake service and an empty cache file."""
        provider, policy = self.setup_program(0, self.workdir, FakeFlightService(self.payloads))
        return [lambda it=it: validation.validate(it, provider, policy) for it in self.itineraries]

    def check_round(self, outputs: list) -> list[bool]:
        """Each report must equal the great-circle reference, and the cache
        file must hold exactly the routes seen, with their minutes; a wrong
        file marks the round's last op as failed."""
        wrong = [out != ref for out, ref in zip(outputs, self.references)]
        cached: dict | None = {}
        if self._cache_path.exists():
            try:
                for line in self._cache_path.read_text(encoding="utf-8").splitlines():
                    origin, destination, minutes = line.split()
                    cached[(origin, destination)] = int(minutes)
            except ValueError:
                cached = None
            self._cache_path.unlink()
        wrong[-1] = wrong[-1] or cached != self.routes
        return wrong


WORKLOADS = {w.name: w for w in (GenerateRepair, CorpusBench, LiveCacheCold)}
