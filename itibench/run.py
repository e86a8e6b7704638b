#!/usr/bin/env python3
"""Benchmark driver for itiguard.

    python3 itibench/run.py --workload generate-repair --seed 1 --seconds 30 --trace 0

Runs one closed-loop workload (one client, the next op starts when the last
one returns) in this process, for whole rounds until ``--seconds`` of
measured time have passed and at least MIN_SAMPLES ops have been timed.
Inputs are built from ``--seed`` before timing starts, and every output is
checked after its round, outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead, from rounds that alternate traced and untraced so that the tracing
overhead can be reported. A summary line goes to stderr.

Times are process CPU times, scaled to a reference host speed by a
calibration loop run between ops (see hostspeed.py); raw CPU and wall
medians are printed on stderr.

``requests.get`` and ``requests.post`` raise in this process; any call to
them counts as a failed op. Numbers from a shared machine are noisy: compare
runs only against runs interleaved with them on the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"

MIN_SAMPLES = 100  # leaves at least 10 samples beyond p90
# Setup probes are spread over the run, between rounds: the host's speed
# drifts in phases of a few seconds, and a median over one phase drifts too.
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("generate-repair", "corpus-bench", "live-cache-cold")


def _import_program() -> None:
    if not (SRC / "itiguard" / "__init__.py").is_file():
        sys.exit(f"itibench: no itiguard sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


class NetworkGuard:
    """Makes requests.get and requests.post raise, and counts the calls."""

    def __init__(self):
        import requests

        self._requests = requests
        self._originals = (requests.get, requests.post)
        self.calls = 0

    def _blocked(self, *args, **kwargs):
        self.calls += 1
        raise RuntimeError("network access is disabled in the benchmark")

    def __enter__(self):
        self._requests.get = self._requests.post = self._blocked
        return self

    def __exit__(self, *exc):
        self._requests.get, self._requests.post = self._originals


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup(workload: str, seed: int) -> float:
    """CPU seconds of a fresh interpreter that imports itiguard.cli, builds the
    workload's provider and policy, as a run does before its first op, and exits."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    before = _children_cpu_s()
    subprocess.run(command, check=True)
    return _children_cpu_s() - before


class Histogram:
    """Op times in ns, in fixed-size log buckets.

    The storage does not grow with the number of ops, so a run that times
    more ops does not show a higher peak_rss_mb. Buckets are 0.2% wide, from
    1 µs to about 8 minutes; a quantile is interpolated in log space between
    the edges of its bucket, by its rank among the bucket's samples.
    """

    LOW_NS = 1_000.0
    RATIO = 1.002
    BUCKETS = 10_000

    def __init__(self):
        self.counts = array("q", bytes(8 * self.BUCKETS))
        self.total = 0

    def add(self, ns: float) -> None:
        index = int(math.log(max(ns, self.LOW_NS) / self.LOW_NS, self.RATIO))
        self.counts[min(index, self.BUCKETS - 1)] += 1
        self.total += 1

    def quantile(self, share: float) -> float:
        """Nearest-rank quantile."""
        rank = max(1, math.ceil(share * self.total))
        below = 0
        for index, count in enumerate(self.counts):
            if below + count >= rank:
                return self.LOW_NS * self.RATIO ** (index + (rank - below - 0.5) / count)
            below += count
        raise ValueError("empty histogram")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object printed by main()."""
    import tracing
    from workloads import WORKLOADS

    speed = HostSpeed()
    setup_times: list[float] = []

    def probe() -> None:
        speed.calibrate()
        setup_times.append(probe_setup(workload, seed) * speed.factor)

    if not trace:
        probe_setup(workload, seed)  # warm-up: compiles bytecode, fills the page cache
    workdir = WORKDIR / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with NetworkGuard() as guard:
            w = WORKLOADS[workload](seed, workdir)
            tracer = tracing.Tracer()
            # Per op CPU time at reference speed, keyed by traced; raw CPU and
            # wall times for the stderr summary.
            samples = {False: Histogram(), True: Histogram()}
            raw_cpu = {False: Histogram(), True: Histogram()}
            raw_wall = {False: Histogram(), True: Histogram()}
            attempted = failed = rounds = 0
            while (
                speed.wall_ns < seconds * 1e9
                or samples[trace].total < MIN_SAMPLES
                or (trace and not samples[False].total)
            ):
                while not trace and len(setup_times) < SETUP_REPEATS and (
                    speed.wall_ns >= seconds * 1e9 * len(setup_times) / SETUP_REPEATS
                ):
                    probe()
                traced = trace and rounds % 2 == 1
                if traced:
                    tracer.install()
                ops = w.round_ops()
                outputs = []
                lost = []
                speed.start()
                for op in ops:
                    calls = guard.calls
                    wall_start = time.perf_counter_ns()
                    cpu_start = time.process_time_ns()
                    try:
                        out = op()
                    except Exception as err:  # a raising op is a failed op, not a crashed run
                        out = err
                    cpu = time.process_time_ns() - cpu_start
                    wall_end = time.perf_counter_ns()
                    samples[traced].add(cpu * speed.factor)
                    raw_cpu[traced].add(cpu)
                    raw_wall[traced].add(wall_end - wall_start)
                    outputs.append(out)
                    lost.append(guard.calls != calls)
                    if traced:
                        tracer.end_op()
                    speed.tick(wall_end)
                speed.stop()
                if traced:
                    tracer.uninstall()
                failed += sum(map(bool.__or__, w.check_round(outputs), lost))
                attempted += len(ops)
                rounds += 1
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while not trace and len(setup_times) < SETUP_REPEATS:
                probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORKDIR.rmdir()

    timed = samples[trace]
    if trace:
        overhead = timed.quantile(0.5) / samples[False].quantile(0.5)
        values = tracer.layer_metrics(overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        completed = (attempted - failed) * w.itineraries_per_op
        metrics = {
            "op_p50_us": {"value": timed.quantile(0.5) / 1e3, "unit": "us"},
            "op_p90_us": {"value": timed.quantile(0.9) / 1e3, "unit": "us"},
            "itin_per_s": {"value": completed / (speed.scaled_cpu_ns / 1e9), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mib, "unit": "MiB"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    print(
        f"itibench: workload={workload} seed={seed} trace={int(trace)} rounds={rounds} "
        f"samples={timed.total} attempted={attempted} failed={failed} "
        f"error_ratio={failed / attempted:.6f} cpu_p50_us={raw_cpu[trace].quantile(0.5) / 1e3:.1f} "
        f"wall_p50_us={raw_wall[trace].quantile(0.5) / 1e3:.1f} "
        f"speed_factor_mean={speed.mean_factor:.3f} inputs={w.digest[:16]}",
        file=sys.stderr,
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.setup_probe:
        import itiguard.cli  # noqa: F401  (the import is what is being timed)
        from workloads import WORKLOADS

        WORKLOADS[args.workload].setup_program(args.seed, WORKDIR)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
