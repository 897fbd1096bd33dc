"""Machine-speed calibration: times are reported in reference seconds.

The benchmark runs on shared machines where other tenants slow a process
down, by up to 70% for tens of seconds at a time, and CPU time inflates as
much as wall time.  Every timed unit is therefore bracketed by a fixed
calibration workload, and the unit's time is taken as a multiple of the
calibration time measured next to it.  Multiplied by REFERENCE_S, a fixed
constant close to the calibration's time on the reference machine, that
multiple reads as the seconds the unit takes there; the machine's speed at
the moment cancels.

The calibration is the benchmark's own pure-Python polynomial arithmetic
(x^e modulo a degree-6 polynomial mod p, plus some dict and str work), so it
slows down under contention the way the program does.  It never calls the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

from refmath import poly_mulmod

# calibration_work() on the reference machine, 2 vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7, where it reads 1.4-2.8 ms as the machine's load changes.
# Only a scale: it turns multiples of the calibration into seconds.
REFERENCE_S = 0.0022

_MODULUS = [3, 1, 4, 1, 5, 9, 1]
_P = 1_000_003
_EXPONENT = (1 << 40) + 12345


def calibration_work() -> None:
    for _ in range(3):
        result, base, e = [1], [0, 1], _EXPONENT
        while e:
            if e & 1:
                result = poly_mulmod(result, base, _MODULUS, _P)
            base = poly_mulmod(base, base, _MODULUS, _P)
            e >>= 1
    {i: str(i) for i in range(2000)}


def measure() -> tuple[float, float]:
    """(wall, process CPU) seconds of one calibration_work()."""
    cpu, wall = time.process_time(), time.perf_counter()
    calibration_work()
    return time.perf_counter() - wall, time.process_time() - cpu


def median_wall(times: int = 5) -> float:
    return statistics.median(measure()[0] for _ in range(times))
