"""Host-speed reference: a fixed pure-Python kernel timed beside the
operations, so timings can be reported at a constant host speed.

The benchmark host is a VM on a shared machine (2-vCPU Xeon).  Its speed
drifts by 20 to 70% within seconds, and CPU time drifts with wall time:
the code is slowed, not descheduled.  A fixed kernel of the same kind of
work as the program (exact ``Fraction`` elimination, small-integer
elimination mod p) slows by nearly the same factor when timed in the same
second.  Over ten 20 s runs of each workload (seeds 301-310), the spread
(quartile distance over median) of the median latency was 0.15 to 0.31
raw and 0.02 to 0.04 adjusted; of throughput, 0.13 to 0.24 raw and 0.01
to 0.05 adjusted.

``Probe`` times the kernel between operations, spending about ``SHARE`` of
the operation time on it.  ``factor(start, end)`` is the kernel time next
to an interval divided by ``NOMINAL_S``, the kernel's time on the
reference machine when quiet; dividing an operation's wall time by that
factor gives its time at the reference speed.  The kernel never touches
the program under test, so a change to the program moves the adjusted
times in the same proportion as the raw ones.
"""

import bisect
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0020   # kernel seconds on the reference machine (2-vCPU Xeon VM), quiet
SHARE = 0.08         # kernel time per operation time
PRIME = 101


def _fixed_matrix(rows, cols, step):
    return [[(7 * i * i + step * j * j + 3 * i * j + i + 1) % 23 - 11 for j in range(cols)]
            for i in range(rows)]


RATIONAL = [[Fraction(x, 1 + (i + j) % 4) for j, x in enumerate(row)]
            for i, row in enumerate(_fixed_matrix(7, 9, 5))]
MODULAR = _fixed_matrix(24, 26, 2)


def _rank_rational(rows):
    m = [row[:] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def kernel():
    """One unit of reference work; returns the ranks it computed."""
    return _rank_rational(RATIONAL), _rank_mod_p(MODULAR, PRIME)


class Probe:
    """Kernel timings taken between operations, and the factors they give."""

    def __init__(self):
        self.mids = []       # perf_counter at the middle of each sample
        self.secs = []       # kernel seconds of each sample
        self.spent = 0.0
        self.op_total = 0.0

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.mids.append((start + end) / 2)
            self.secs.append(end - start)
            self.spent += end - start

    def warm_up(self, count=20):
        """Samples before the first operation; they give the first
        operations their context and do not count against ``SHARE``."""
        self.sample(count)
        self.spent = 0.0

    def after(self, op_seconds):
        """Sample until the kernel's time is back to ``SHARE`` of the
        operation time so far."""
        self.op_total += op_seconds
        while self.spent < SHARE * self.op_total:
            self.sample()

    def factor(self, start, end):
        """Median kernel time of the samples taken during [start, end] and
        the nearest one on each side, as a multiple of ``NOMINAL_S``.  The
        nearest samples follow bursts of contention that a wider window
        would average away."""
        lo = max(bisect.bisect_left(self.mids, start) - 1, 0)
        hi = bisect.bisect_right(self.mids, end) + 1
        return statistics.median(self.secs[lo:hi]) / NOMINAL_S

    def median_factor(self):
        """Median kernel time of all samples, as a multiple of ``NOMINAL_S``."""
        return statistics.median(self.secs) / NOMINAL_S
