"""Host calibration for the benchmark's timings.

The host's speed drifts by tens of percent over minutes (2 shared cores), and
the drift moves every CPU-bound timing alike. So the timed loop runs a fixed
calibration unit every CAL_EVERY_S seconds. The unit is a sparse product with
Fraction coefficients, the same kind of work as detlam's series kernel but
independent of detlam, so a change to detlam cannot move it. Each verdict's
time is scaled by CAL_REF_S / (mean unit time around it). Calibrated times
read as they would on a host where one unit takes CAL_REF_S; raw times are
printed beside them.
"""

import statistics
import time
from fractions import Fraction

CAL_TERMS = tuple(
    ((i, j, k), Fraction(i + 2 * j + 1, k + 3))
    for i in range(6) for j in range(6 - i) for k in range(6 - i - j)
)
CAL_DEGREE = 7
CAL_REPS = 5
CAL_EVERY_S = 0.5
CAL_REF_S = 0.005


def calibration_unit() -> float:
    """Median seconds of CAL_REPS runs of the fixed calibration product."""
    runs = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc = {}
        for (a, b, c), x in CAL_TERMS:
            for (d, e, f), y in CAL_TERMS:
                if a + b + c + d + e + f <= CAL_DEGREE:
                    key = (a + d, b + e, c + f)
                    acc[key] = acc.get(key, 0) + x * y
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)
