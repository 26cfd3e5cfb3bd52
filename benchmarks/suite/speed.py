"""Timings normalized to a reference machine speed.

The benchmark runs on machines shared with other tenants, which slow
CPU-bound work by up to 2x for seconds at a time.  So while a timed block
runs, a timer signal interrupts it every ``INTERVAL_S`` to run a fixed
calibration kernel on the same thread: pure Python plus small NumPy matrix
products, independent of the code under test.  The block's own time (its
wall time minus the kernel runs) is scaled by ``REFERENCE_S / median(kernel
times)``.  On an idle machine of the reference speed the scale is 1, so
normalized times read as seconds on that machine.

Only single-threaded, CPU-bound blocks gain from this: the kernel measures
the speed of the CPU the block runs on, at the time it runs.  Measured on
the reference machine over runs of 10 or more, it cut the run-to-run
spread of figures passes from about 12% to 3%, and of median DSE sweeps
from 7.5% to 4.3%.  Serve requests stay raw wall times: most of a
request is the batch window's sleep, and the work runs in other
processes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import statistics
import time

import numpy as np

#: Seconds the kernel takes on the reference machine (a 2-vCPU Xeon VM).
REFERENCE_S = 0.001
#: Seconds between two kernel runs inside a timed block.
INTERVAL_S = 0.05

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(6000):
        table[i & 511] = i
        total += table.get((i * 7) & 511, 0)
    x = _MATRIX
    for _ in range(5):
        x = np.tanh(x @ _MATRIX * 0.01)
    return time.perf_counter() - start


def scale(kernels) -> float:
    """Factor from the speed the kernel times show to the reference speed."""
    return REFERENCE_S / statistics.median(kernels)


@dataclasses.dataclass
class Interval:
    wall: float = 0.0  # seconds the block itself ran (kernel runs excluded)
    scale: float = 1.0  # factor to the reference speed
    norm: float = 0.0  # wall * scale


@contextlib.contextmanager
def timed(normalize: bool = True):
    """Time the ``with`` body as an :class:`Interval`; with ``normalize``
    False no kernel runs and the scale is 1."""
    interval = Interval()
    kernels = []
    if normalize:
        kernels.append(kernel_s())  # one sample even for a short block
        previous = signal.signal(signal.SIGALRM, lambda *_: kernels.append(kernel_s()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield interval
    finally:
        if normalize:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - start
        if normalize:
            signal.signal(signal.SIGALRM, previous)
            interval.wall = elapsed - sum(kernels[1:])
            interval.scale = scale(kernels)
        else:
            interval.wall = elapsed
        interval.norm = interval.wall * interval.scale
