#!/usr/bin/env python3
"""Regenerate the bundled synthetic corpus under fixtures/corpus/.

The corpus pins the metrics pipeline arithmetic with planted defect counts.
Two groups of 100 four-city itineraries:

    model-a: 15 itineraries with 2 bad segments + 33 with 1 -> 63 bad
             segments over 300, 48 itineraries affected
             => 48.00% invalid, 21.00% invalid segments, 0.63 avg issues
    model-b: 57x3 + 23x2 + 17x1 -> 234 bad segments over 300, 97 affected
             => 97.00% invalid, 78.00% invalid segments, 2.34 avg issues

Stays are always 50h (valid), so every issue is a transit issue and the
three aggregate numbers stay coupled. Valid gaps sit exactly at the minimum
transit bound (equality passes); short gaps undercut it by an hour; long
gaps overshoot the maximum by an hour.

Deterministic: one fixed seed drives every choice, so a rerun reproduces
the committed files byte for byte.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from itiguard import AirportCode, Itinerary, Stop, parse_timestamp, render_itinerary

SEED = 20250819
BUFFER_MINUTES = 4 * 60
STAY_MINUTES = 50 * 60
STOPS = 4

CITIES = [
    ("Sydney", "SYD"),
    ("Frankfurt", "FRA"),
    ("Cairo", "CAI"),
    ("Casablanca", "CMN"),
    ("London", "LHR"),
    ("Paris", "CDG"),
    ("Tokyo", "HND"),
    ("New York", "JFK"),
]

# (model_tag, [(itineraries, bad segments each), ...])
GROUPS = [
    ("model-a", [(15, 2), (33, 1), (52, 0)]),
    ("model-b", [(57, 3), (23, 2), (17, 1), (3, 0)]),
]


def build_itinerary(rng: random.Random, durations: dict, bad_segments: int) -> Itinerary:
    cities = rng.sample(CITIES, STOPS)
    bad_indices = set(rng.sample(range(STOPS - 1), bad_segments))
    start = parse_timestamp("2025-06-01 06:00")
    arrival = start + rng.randint(0, 20) * 1440 + rng.randint(0, 23) * 60
    stops = []
    for i, (name, code) in enumerate(cities):
        departure = arrival + STAY_MINUTES
        stops.append(Stop(name, AirportCode(code), arrival, departure))
        if i < STOPS - 1:
            key = frozenset((code, cities[i + 1][1]))
            t_min = durations[key] + BUFFER_MINUTES
            if i not in bad_indices:
                gap = t_min
            elif rng.random() < 0.5:
                gap = t_min - 60
            else:
                gap = 2 * t_min + 60
            arrival = departure + gap
    return Itinerary(tuple(stops))


def main() -> None:
    rng = random.Random(SEED)
    out_dir = Path(__file__).resolve().parent.parent / "fixtures" / "corpus"
    out_dir.mkdir(parents=True, exist_ok=True)

    durations = {}
    for i, (_, a) in enumerate(CITIES):
        for _, b in CITIES[i + 1:]:
            durations[frozenset((a, b))] = rng.randint(120, 900)
    lines = sorted(f"{min(pair)} {max(pair)} {minutes}\n" for pair, minutes in durations.items())
    (out_dir / "durations.txt").write_text("".join(lines), encoding="utf-8")

    manifest = []
    for tag, plan in GROUPS:
        counts = [bad for n, bad in plan for _ in range(n)]
        rng.shuffle(counts)
        for i, bad in enumerate(counts):
            name = f"{tag}-{i:03d}.json"
            itinerary = build_itinerary(rng, durations, bad)
            (out_dir / name).write_text(render_itinerary(itinerary) + "\n", encoding="utf-8")
            manifest.append({"file": name, "model_tag": tag, "num_cities": STOPS})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} itineraries to {out_dir}")


if __name__ == "__main__":
    main()
