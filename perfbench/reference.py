"""A fixed piece of work that measures the host's current speed."""

import time

import numpy as np

# The reference task's median time on the 2-vCPU Xeon where the bounds were
# set. setup_s is reported at this reference speed.
NOMINAL_REF_S = 0.045

_REF_VALUES = np.linspace(0.1, 0.9, 1000)


def reference_task() -> float:
    """Seconds taken by a fixed piece of pure-Python work, about 45 ms.

    It runs before every set-up and around every timed pass. The host's
    speed drifts by 20-30% over minutes on a shared machine, and the drift
    slows this task as much as it slows the program, so a time divided by
    the reference time is steady. The work mixes what the program's passes do:
    loops over numpy scalars (float kernel), Python integer arithmetic
    (fixed kernel), float formatting (CSV writers) and float recurrences.
    It uses nothing from the program, so no change to the program moves it.
    """
    start = time.perf_counter()
    s = 0.0
    for _ in range(40):
        for k in range(_REF_VALUES.size):
            s = _REF_VALUES[k] * s + _REF_VALUES[k]
    acc = 1
    for i in range(90000):
        acc = (acc * 1000003 + i) & 0xFFFFFFFFFFFFFFFFF
    for _ in range(9):
        ",".join([format(v, ".17g") for v in _REF_VALUES])
    x = 0.0
    for _ in range(200000):
        x = 0.999 * x + 1.0
    return time.perf_counter() - start
