"""Reference computations that gauge the machine's speed of the moment.

Other tenants of the shared machine slow this process by up to half, in
stretches of a few seconds, and they slow different kinds of work by different
amounts.  Each workload is therefore timed against a mix of small kernels
that resembles its own hot path (as the traced run shows it), built from numpy
and Python only and never from amplab, so that a change to the program moves
the op times and not the reference.  ``NOMINAL_S`` holds each kernel's time on
an idle core of the 2-core Xeon VM the bounds were set on.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

_GATHER = np.arange(64, dtype=complex).reshape(8, 8) / 64.0
_SQUARE = np.arange(96 * 96, dtype=complex).reshape(96, 96) / 9216.0
_INTS = np.arange(1 << 16, dtype=np.int64)


class _Filter:
    __slots__ = ("time", "holes")

    def __init__(self, time: int, holes: tuple) -> None:
        if time < 0:
            raise ValueError("negative time")
        self.time, self.holes = time, holes


def objects() -> None:
    """Small validated Python objects, sorted tuples, dict lookups."""
    by_time = {}
    for i in range(600):
        item = _Filter(i % 17, tuple(sorted((i * 7 + k) % 13 for k in range(3))))
        earlier = by_time.get(item.time, item)
        by_time[item.time] = _Filter(item.time, earlier.holes[-3:] + item.holes[:1])


def tuples() -> None:
    """A list of index tuples turned into an array, then gathers along it."""
    paths = np.array(list(itertools.product(range(8), repeat=4)), dtype=np.intp)
    amps = np.ones(len(paths), complex)
    prev = np.zeros(len(paths), np.intp)
    for col in range(4):
        amps *= _GATHER[paths[:, col], prev]
        prev = paths[:, col]


def arrays() -> None:
    """Integer and complex array arithmetic, a mask, fresh pages."""
    for _ in range(3):
        np.abs(_INTS * (1 + 1j))[(_INTS // 7) % 5 == 2].sum()
    np.ones(1 << 19).sum()


def transcendental() -> None:
    """log, cumulative sums and exp over an array, then a compensated sum."""
    for _ in range(2):
        math.fsum(np.exp(np.cumsum(np.log(_INTS[1 : 1 << 14] / 16384.0)) / 1e4))


def matmul() -> None:
    """Dense complex matrix products."""
    square = _SQUARE
    for _ in range(6):
        square = square @ square / np.linalg.norm(square)


def text() -> None:
    """Float formatting and JSON round trips."""
    values = np.arange(600) / 7.0
    ",".join(f"{x:.17g}" for x in values)
    json.loads(json.dumps([[float(x), -float(x)] for x in values]))


NOMINAL_S = {
    objects: 0.00105,
    tuples: 0.00141,
    arrays: 0.00230,
    transcendental: 0.00182,
    matmul: 0.00103,
    text: 0.00176,
}

MIXES = {
    "fuzz-oracle": (tuples,) * 5,
    "fuzz-long": (objects, tuples, matmul) * 2,
    "replica": (arrays, arrays, transcendental, matmul),
    "chain": (matmul, matmul, text, arrays, tuples),
}

# amplab's import in a fresh interpreter (numpy, scipy, module code): of the
# mixes, the broad one of chain tracked it best
IMPORT_MIX = MIXES["chain"]


def speed(mix) -> float:
    """Nominal over measured time of one pass of ``mix``: 1 on an idle core,
    below 1 while other tenants slow the machine."""
    start = time.perf_counter()
    for kernel in mix:
        kernel()
    return sum(NOMINAL_S[kernel] for kernel in mix) / (time.perf_counter() - start)
