"""The benchmark's time base: process CPU time, scaled to a reference speed.

On a shared virtual machine, wall time mixes the program's work with time
the hypervisor gives to other guests: steal reached 46% of both vCPUs while
the first baseline was taken. The guest kernel leaves stolen time out of a
process's CPU time, so the benchmark times ops, measured segments and setup
probes in process CPU time (all threads, user plus system).

CPU time still drifts with contention on the physical host: the same code
ran up to twice as slow, in phases of seconds to minutes. So the benchmark
also times a fixed pure-Python unit, independent of itiguard, every
CALIBRATION_INTERVAL_NS of measured wall time, and multiplies each time
measured after it by ``REFERENCE_UNIT_NS / unit_ns``. Here ``unit_ns`` is
the median CPU time of the unit over the last three calibrations. The
results read as times on a host where the unit takes REFERENCE_UNIT_NS.

The unit does the kind of work itiguard does: JSON decode and encode,
``strptime``/``strftime``, string slicing and small dicts. A change to
itiguard cannot change its cost, except by work that runs alongside it,
such as a background thread.
"""

from __future__ import annotations

import json
import statistics
import time
from datetime import datetime

REFERENCE_UNIT_NS = 150_000.0  # the unit's typical cost on the 2-core host of the first baseline
CALIBRATION_INTERVAL_NS = 250_000_000
UNITS_PER_CALIBRATION = 25

_DOC = json.dumps(
    {
        "itinerary": [
            {
                "place": f"City {code} ({code})",
                "arrival_time": f"2025-06-{day:02d} 10:00",
                "departure_time": f"2025-06-{day + 2:02d} 12:30",
            }
            for day, code in enumerate(("AMS", "CDG", "DXB", "HND", "JFK", "SYD"), start=1)
        ]
    },
    indent=4,
)


def _unit() -> str:
    stops = []
    for stop in json.loads(_DOC)["itinerary"]:
        arrival = datetime.strptime(stop["arrival_time"], "%Y-%m-%d %H:%M")
        stops.append({"code": stop["place"].rpartition("(")[2][:3], "arrival": arrival.strftime("%Y-%m-%d %H:%M")})
    return json.dumps({"stops": stops}, indent=2)


class HostSpeed:
    """The current scale factor, and the time measured so far.

    Measured time is split into segments of about CALIBRATION_INTERVAL_NS of
    wall time, each after a calibration. ``wall_ns`` sums the segments' wall
    time, which decides when a run ends; ``scaled_cpu_ns`` sums their CPU
    time at the reference speed. Calibrations are left out of both. The
    state has a fixed size, so it does not add to the run's peak memory.
    """

    def __init__(self):
        self._recent: list[float] = []
        self.factor = 1.0
        self._factor_sum = 0.0
        self._calibrations = 0
        self.wall_ns = 0
        self.scaled_cpu_ns = 0.0
        self._wall_start = 0
        self._cpu_start = 0
        self.calibrate()

    @property
    def mean_factor(self) -> float:
        return self._factor_sum / self._calibrations

    def calibrate(self) -> None:
        start = time.process_time_ns()
        for _ in range(UNITS_PER_CALIBRATION):
            _unit()
        unit_ns = (time.process_time_ns() - start) / UNITS_PER_CALIBRATION
        self._recent = self._recent[-2:] + [unit_ns]
        self.factor = REFERENCE_UNIT_NS / statistics.median(self._recent)
        self._factor_sum += self.factor
        self._calibrations += 1

    def start(self) -> None:
        """Calibrate, then start a measured segment."""
        self.calibrate()
        self._wall_start = time.perf_counter_ns()
        self._cpu_start = time.process_time_ns()

    def stop(self) -> None:
        """End the measured segment."""
        self.scaled_cpu_ns += (time.process_time_ns() - self._cpu_start) * self.factor
        self.wall_ns += time.perf_counter_ns() - self._wall_start

    def tick(self, wall_now: int) -> None:
        """Between two ops: recalibrate once the segment is long enough."""
        if wall_now - self._wall_start >= CALIBRATION_INTERVAL_NS:
            self.stop()
            self.start()
