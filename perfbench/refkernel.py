"""A fixed reference kernel that gauges how fast the host runs Python now.

On a shared host the speed of a CPU-bound Python process moves with the
load of other tenants, within seconds: the same round of qsolv operations
took anywhere from 0.87 s to 1.54 s in runs a few minutes apart, and the
process's CPU time moved with it, so neither wall time nor CPU time holds
still.  The benchmark therefore times this short kernel between chunks of
about ``CHUNK_SECONDS`` of operations, and scales each chunk's timings by
``REF_SECONDS / kernel time`` (the mean of the kernel times on either side
of it): a chunk that ran while the host was slow is scaled down by as much
as the kernel was slowed around it.

The kernel does the kind of work qsolv does -- sparse polynomials held as
dicts from exponent tuples to ``Fraction`` coefficients, multiplied and
added through a small class -- so that contention slows it by about as
much as it slows qsolv.  It uses the standard library only and does not
depend on the code under test, so a change to qsolv cannot move it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# The kernel's time on an idle 2-vCPU host with Python 3.11.7.  Scaled
# timings are seconds on a host that runs the kernel this fast.
REF_SECONDS = 0.0035
# Operations run for about this long between two kernel times.
CHUNK_SECONDS = 0.05


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: Fraction(v) for k, v in terms.items() if v}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return _Poly(out)

    def __mul__(self, other):
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0) + ca * cb
        return _Poly(out)


def _factors():
    rng = random.Random(54321)
    return [_Poly({tuple(rng.randint(-1, 2) for _ in range(3)):
                   Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)})
            for _ in range(4)]


_FACTORS = _factors()


def kernel():
    """A fixed amount of work; returns a checksum that never changes."""
    acc = _Poly({(0, 0, 0): 1})
    for p in _FACTORS:
        acc = acc * p + p
    return len(acc.terms)


CHECKSUM = kernel()


def kernel_seconds():
    start = perf_counter()
    value = kernel()
    elapsed = perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError("reference kernel gave a different checksum")
    return elapsed


class Meter:
    """Scales a stream of timings by the kernel times around them.

    ``add`` takes a raw timing; ``flush`` times the kernel and fixes the
    scale of every timing added since the last flush.  ``scaled`` holds the
    scaled timings in the order they were added.
    """

    def __init__(self):
        self.scaled = []
        self._pending = []
        self._pending_s = 0.0
        self._before = kernel_seconds()

    def add(self, seconds):
        self._pending.append(seconds)
        self._pending_s += seconds
        if self._pending_s >= CHUNK_SECONDS:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        after = kernel_seconds()
        factor = REF_SECONDS / ((self._before + after) / 2)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending, self._pending_s = [], 0.0
        self._before = after
