"""Speed of the machine at the moment, from a fixed kernel.

On a shared host the speed of one process moves by a third and more
within seconds: with the neighbours idle the same call runs in 0.7 of
the time it takes with them busy, and both states last from one second
to tens of seconds.  A median over the rounds of a run cannot remove a
state that covers most of the run, so each end-to-end time is scaled by
the speed measured next to it (see one_round.py).

The kernel is the benchmark's own code, not the program's, so a change
to rwre does not change it.  It mixes the kinds of work the experiment
calls spend their time on: numpy Beta, Gamma and Poisson draws on arrays
of a thousand (the tau cascade), ``betaincinv`` (Beta environments with
beta != 1), passes over an array of 1e5 doubles (potential scans and
renewal series) and a pure-Python loop (per-site code).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import betaincinv

# The kernel's median time on the 2-core machine the bounds were set on
# (see README.md).  It only sets the scale: a time scaled by it reads as
# the time the call takes when the kernel takes this long.
REFERENCE_S = 0.0051

# Long enough to average out the millisecond-scale jitter of single
# kernel runs, short next to the seconds that a speed state lasts.
_SAMPLE_S = 0.15


def _kernel() -> float:
    rng = np.random.default_rng(20070321)
    u = np.zeros(1000)
    total = 0.0
    for _ in range(8):
        omega = rng.beta(1.5, 1.0, 1000)
        lam = rng.standard_gamma(u + 1.0) * ((1.0 - omega) / omega)
        u = rng.poisson(np.minimum(lam, 1e9)).astype(np.float64)
        total += float(u.sum())
    total += float(betaincinv(2.0, 1.5, rng.random(300)).sum())
    x = rng.random(100_000)
    total += float(np.cumsum(np.log(x))[-1]) + float(np.sort(x)[0])
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return total + acc


def kernel_s() -> float:
    """Mean time of the kernel over about _SAMPLE_S of runs, in s."""
    runs = 0
    start = time.perf_counter()
    while True:
        _kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= _SAMPLE_S:
            return elapsed / runs
