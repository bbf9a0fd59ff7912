"""Host speed, sampled by a fixed kernel, for scaling wall times.

On a shared host the CPU a process gets can run at very different speeds
from one second to the next (a busy sibling hyperthread, a neighbour's
burst), and a run minutes later can see a different mix.  Wall times
then spread between runs far more than any change to kocalc would move
them.  ``Sampler`` measures the host's momentary speed with ``kernel()``,
a fixed exact-arithmetic loop that is the benchmark's own code (no
change to kocalc can make it faster or slower), and ``Sampler.scaled()``
turns a stretch of wall time into the time the same work would take
at the reference speed, at which ``kernel()`` takes ``REFERENCE_S``.

The kernel is a sparse product of two small matrices of complex
rationals, in the style of ``ExactMatrix.__matmul__``, so that it slows
about as much as kocalc's own inner loops when the host does.  While a
``Sampler`` is running, a ``SIGALRM`` timer runs the kernel every
``INTERVAL_S`` from the main thread, so a long operation is sampled
throughout; ``sample()`` runs it on demand between operations.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: ``kernel()``'s time at the reference speed; scaled times are "as if on
#: a host where the kernel takes exactly this long".
REFERENCE_S = 0.001
INTERVAL_S = 0.04
_N = 6


class _Complex:
    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction) -> None:
        self.re, self.im = re, im


def _entry(i: int, j: int) -> _Complex:
    kind = (7 * i + 3 * j) % 5
    if kind == 0:
        return _Complex(Fraction((-1) ** (i + j)), Fraction(0))
    if kind == 1:
        return _Complex(Fraction(0), Fraction(1))
    if kind == 2:
        return _Complex(Fraction(1, 2), Fraction(-1, 2))
    return _Complex(Fraction(0), Fraction(0))


_MATRIX = tuple(_entry(i, j) for i in range(_N) for j in range(_N))


def kernel() -> None:
    """Run the fixed kernel once."""
    a = b = _MATRIX
    out = []
    for i in range(_N):
        row = a[i * _N:(i + 1) * _N]
        for j in range(_N):
            re = im = Fraction(0)
            for t in range(_N):
                x = row[t]
                if not (x.re or x.im):
                    continue
                y = b[t * _N + j]
                if not (y.re or y.im):
                    continue
                re += x.re * y.re - x.im * y.im
                im += x.re * y.im + x.im * y.re
            out.append(_Complex(re, im))


class Sampler:
    """Kernel runs taken by a timer while running, and on demand."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []  # (start, end) of each timer run
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                t0 = perf_counter()
                kernel()
                self.runs.append((t0, perf_counter()))
            finally:
                self._busy = False

    def sample(self) -> float:
        """One kernel time, taken now; the timer does not interrupt it."""
        self._busy = True
        try:
            t0 = perf_counter()
            kernel()
            return perf_counter() - t0
        finally:
            self._busy = False

    def scaled(self, t0: float, t1: float, before: float, after: float) -> float:
        """The stretch of wall time from ``t0`` to ``t1`` at the reference speed.

        The timer's kernel runs inside the stretch are taken out of it.
        The host's slowdown over the stretch is the mean of their times and
        of ``before`` and ``after``, kernel times taken just outside it,
        over ``REFERENCE_S``.  The host switches between fast and slow
        spells within a long stretch, and the timer samples it evenly in
        time, so the mean (not the median) follows the share of each; the
        highest and lowest tenth are left out, as a kernel run can be
        interrupted.
        """
        during = []
        for start, end in reversed(self.runs):
            if start < t0:
                break
            if end <= t1:
                during.append(end - start)
        times = sorted([before, *during, after])
        cut = len(times) // 10
        slowdown = statistics.fmean(times[cut:len(times) - cut]) / REFERENCE_S
        return (t1 - t0 - sum(during)) / slowdown

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
