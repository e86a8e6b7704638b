#!/usr/bin/env python3
"""Record a set of benchmark runs to a JSON file.

    python3 itibench/record.py --seeds 1-10 --traced-seeds 1-2 --out itibench/baseline/seed.json

Runs run.py once per (seed, workload), seed by seed so that every workload
sees the same phases of a shared host, then the traced runs. For each
end-to-end metric it writes the median, the quartiles and the spread, the
distance between the quartiles as a share of the median, next to the raw
results and the Python version, core count and commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=True, cwd=HERE.parent)
    print(done.stderr.strip(), file=sys.stderr, flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=HERE)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--traced-seeds", type=_seeds, default=_seeds("1-2"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    untraced = {w: [] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            untraced[workload].append({"seed": seed, **_run(workload, seed, 0)})
    for seed in args.traced_seeds:
        for workload in WORKLOADS:
            traced[workload].append({"seed": seed, **_run(workload, seed, 1)})

    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": SPEC["run_seconds"],
        "note": "Numbers from a shared sandbox are noisy; compare only runs interleaved on one machine.",
        "workloads": {
            w: {
                "untraced": _summary(untraced[w]) if untraced[w] else {},
                "traced": _summary(traced[w]) if traced[w] else {},
                "runs": untraced[w] + traced[w],
            }
            for w in WORKLOADS
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for w in WORKLOADS:
        for name, s in record["workloads"][w]["untraced"].items():
            print(f"{w:16s} {name:12s} median={s['median']:.4f} {s['unit']:6s} spread={s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
