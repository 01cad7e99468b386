"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the same job can take 1.5x longer from one minute to the
next, which no amount of repetition inside a ten-second run averages out.
The benchmark therefore runs this loop before and after every job and
reports each job's time scaled by ``CALIBRATION_NOMINAL_S / calibration
time``: seconds on a host running the loop at its nominal speed.  A change
to qsample moves the job's time and not the loop's, so the scaled time moves
by the same factor.  ``run.py`` checks that the loop stays untouched: a job
may leave no thread or child process running, and the loop must run as fast
in the measuring process as in a fresh interpreter.

The loop uses the same kinds of operations as qsample's kernels: exact
``Fraction`` arithmetic over subsets, tuple and dict traffic, seeding numpy
generators and drawing subsets from them (as the Monte-Carlo and protocol
paths do per trial), and a small matrix product.  It calls no function the per-layer tracer wraps.  Do not edit
it: every time the benchmark reports is relative to it.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

# The loop's time on the 2-core Xeon host the benchmark was sized on; it
# sets the scale of every reported time and nothing else.
CALIBRATION_NOMINAL_S = 0.005

_THIRD = Fraction(1, 3)
_MATRIX = np.arange(64.0).reshape(8, 8)


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for subset in itertools.combinations(range(1, 12), 5):
        weight = Fraction(sum(1 for i in subset if i % 3 == 0), 5)
        total += abs(weight - _THIRD)
        table[subset] = weight
    for i in range(10):
        rng = np.random.default_rng((7, i))
        table[i] = tuple(sorted(rng.choice(12, size=4, replace=False) + 1))
    float((_MATRIX @ _MATRIX.T).sum())
    return time.perf_counter() - start
