"""Calibration round: a fixed pure-Python loop that measures host speed.

The host's CPU speed drifts by up to a factor of two, in phases that last
from a fraction of a second to minutes, and a slow phase can cover a whole
run.  A calibration round timed right before and right after every op
slows down with the op, so an op's time divided by the mean round around
it (local_round) hardly moves with the phase.  The round does the kinds of
work the engine does (dict updates on tuple keys, sums of Fractions with
small and with large denominators) but never calls the program, so no
change to the program can change it.

Times are reported in reference seconds: seconds on a host on which one
round takes REF_ROUND_S.  A 2-vCPU x86-64 cloud host runs one round in
about 5 ms in a fast phase and in up to 10 ms in a slow one, so there
reference seconds are seconds at the fast speed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter
from typing import Sequence

REF_ROUND_S = 0.005


def calibration_round() -> float:
    """Seconds taken by one round of the fixed loop."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(2500):
        key = ((i * 7919) % 1009, i & 7)
        table[key] = table.get(key, 0) + i * i
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i * i + 1)
    for i in range(600):
        a = Fraction(i % 13 + 1, 5 ** (i % 5))
        total += a * a
    return perf_counter() - t0


def to_reference(seconds: float, round_s: float) -> float:
    """seconds measured while one round took round_s, in reference seconds."""
    return seconds * REF_ROUND_S / round_s


def local_round(mids: Sequence[float], rounds: Sequence[float], i: int,
                start: float, end: float) -> float:
    """Mean calibration round around op i, which ran from start to end.

    mids and rounds hold the midpoint time and the duration of every round of
    a pass, in time order; rounds i and i + 1 are the ones right before and
    right after the op.  Rounds whose midpoint lies within one op duration of
    the op count too: the speed changes many times during a long op, and the
    mean round over a stretch as long as the op follows it better than the
    two rounds beside it.
    """
    reach = end - start
    lo = min(i, bisect_left(mids, start - reach))
    hi = max(i + 2, bisect_right(mids, end + reach))
    return sum(rounds[lo:hi]) / (hi - lo)
