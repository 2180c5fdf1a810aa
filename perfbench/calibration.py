"""A fixed reference task that gauges how fast the host runs right now.

The host's speed drifts by up to 1.9x within a minute, and CPU time moves
with wall time, so the drift is in the processor, not in scheduling.  The
benchmark therefore runs `calibrate` before every op and after the last,
and reports each op time scaled by REFERENCE_S over the mean of the two
passes on either side of it: seconds at the speed at which one calibration
pass takes REFERENCE_S.  The task uses only the interpreter, numpy and
scipy, never the package, so a change to the package cannot move it; it
mixes the three kinds of work the package's ops do (a pure-Python loop,
dense numpy, adaptive quadrature of a Python integrand).
"""

import time

import numpy as np
from scipy import integrate

# one pass on this benchmark's reference host (2 vCPU Sapphire Rapids KVM
# guest) in its fast phase
REFERENCE_S = 0.010
_MATRIX = np.random.default_rng(0).random((400, 60))
_VECTOR = np.random.default_rng(1).random(400)


def _task() -> None:
    total = 0
    for i in range(40000):
        total += i * i % 7
    for _ in range(3):
        np.linalg.lstsq(_MATRIX, _VECTOR, rcond=None)
        np.exp(_MATRIX).sum()
    for k in range(1, 21):
        integrate.quad(lambda x: np.cos(k * x) * np.exp(-x * x), 0.0, 6.0)


def calibrate() -> float:
    """Wall seconds of one calibration pass."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start


def scale(calibration_s: float) -> float:
    """Factor that turns a wall time measured next to a calibration pass of
    `calibration_s` into seconds at the reference speed."""
    return REFERENCE_S / calibration_s
