"""Amplitude assignment for setups: sum rule, product rule, consistency.

Every setup gets a complex amplitude.  The one evaluation core,
``block_vectors``, takes a ``SetupBlock`` (``setups.py``) and threads one
vector per column, as the columns of one array, through the one-step kernel:
every column is a unit vector at its source site at step 0, each filter
sets the sites it closes to 0 in its column at its step, and a column is
read after its stop step, before that step's filters.  The detector-site
entry of a column's vector is the amplitude.  The core, ``evaluate`` and
``consistency_check`` take only a block: ``setup_block`` converts setups at
the edges, and ``amplitude`` is the one entry point for a single ``Setup``.
That evaluation is mathematically identical to a sum over all hole-threading
paths weighted by products of single-step kernel entries, and
``amplitude_bruteforce`` computes that sum literally as an independent
oracle, one setup at a time: a meet in the middle over the layers of open
sites, each extending every partial path by a product of step entries.

An evaluation strategy is one class that evaluates a whole block: the
transfer matrix (the core on the block), the product rule (the core on the
block's parts between its single-hole filters, multiplied), sigma insertion
(the core on the block with an all-holes filter at every free step) and the
brute-force path sum.  ``consistency_check`` evaluates a block by each
strategy once, into one complex column per strategy, and computes every
pair's deviations on the block by one array rule, ``_deviations``; its
``BlockReport`` holds those arrays.  The rule takes moduli by ``np.hypot``
of the parts, which is the libm ``hypot`` of Python's complex ``abs``, so it
gives the scalar ``relative_deviation`` bit for bit; ``np.abs`` of a complex
array may differ from it in the last bit.  Agreement across strategies is
the package's headline correctness alarm.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .lattice import Kernel
from .setups import Setup, SetupBlock, SetupError, check_sites, setup_block

DEFAULT_PATH_GUARD = 10_000_000

NEAR_ZERO = 1e-14


class PathExplosionError(RuntimeError):
    """Brute-force path enumeration would exceed the path guard."""


def block_vectors(block: SetupBlock, kernel: Kernel) -> np.ndarray:
    """Masked transfer-matrix evolution of a block, one column per setup.

    Every column starts as the unit vector at its source site at step 0,
    and every step multiplies every column by the one-step kernel.  A column
    is read off after its stop step, before that step's filters; then each
    filter of the step sets the sites it closes, the zeros of its 0/1 row,
    to 0 in its column.  Those closed entries are listed once per block, as
    flat indices ``site * B + column`` into the C-ordered (L, B) state in
    the filters' (step, column) order, so a step's filters are one scatter
    of zeros; an all-holes filter closes nothing and is inert.  Columns in
    stop order and filters in time order are each cut into steps by one
    ``searchsorted``, and one more finds where each step's filters begin in
    the list.  On finite values the scatter is the 0/1 mask multiply
    bit for bit but for the sign of an exact zero, as x * 1 = x and
    x * 0 = +-0.  A non-finite entry differs: inf at an open site stays
    inf, where the multiply made it inf + NaN i, so its column is
    non-finite either way; inf at a closed site becomes 0, where the
    multiply made it NaN, as the filter's exact 0 would.  Entry ``[x, b]`` of the (L, B) result is column ``b`` at site
    ``x``.  A step is ``kernel.apply``: the dense product, or a banded
    kernel's block-tridiagonal panels, taken C-ordered so that the scatter
    writes through a view.  One setup is a block of one, stepped by
    matrix-vector products; the bits of a column depend only on the number
    of columns in its block.  Three blocks of one are still faster than one
    block of three: at L=512 a panel step took 19-21 us for one column and
    96-104 us for three.
    """
    num_sites = kernel.num_sites
    if block.num_sites != num_sites:
        raise SetupError(
            f"block of {block.num_sites} sites on a kernel of {num_sites} sites"
        )
    if not len(block):
        return np.zeros((num_sites, 0), dtype=complex)
    # site * B + column of every closed entry, in the filters' order
    closed = (block.masks == 0)[block.row]
    flat = np.flatnonzero(closed)  # filter * L + site
    del closed
    filters = flat // num_sites
    flat %= num_sites
    flat *= len(block)
    flat += block.column[filters]
    read = np.argsort(block.stop, kind="stable")  # ascending within a step
    last = int(block.stop[read[-1]])
    steps = np.arange(1, last + 2)
    # the filters of each step, then their closed entries
    bounds = np.searchsorted(filters, np.searchsorted(block.time, steps))
    read_bounds = np.searchsorted(block.stop[read], steps)
    psi = np.zeros((num_sites, len(block)), dtype=complex)
    psi[block.src, np.arange(len(block))] = 1.0
    vectors = np.empty_like(psi)
    for k in range(1, last + 1):
        psi = np.ascontiguousarray(kernel.apply(psi))
        lo, hi = read_bounds[k - 1], read_bounds[k]
        if lo < hi:
            vectors[:, read[lo:hi]] = psi[:, read[lo:hi]]
        lo, hi = bounds[k - 1], bounds[k]
        if lo < hi:
            psi.reshape(-1)[flat[lo:hi]] = 0
    return vectors


def _amplitudes(block: SetupBlock, kernel: Kernel) -> np.ndarray:
    """The amplitude of each column: its detector-site entry."""
    vectors = block_vectors(block, kernel)
    return vectors[block.det, np.arange(len(block))]


def amplitude(setup: Setup, kernel: Kernel) -> complex:
    """Amplitude of ``setup`` by masked transfer-matrix evolution: the core
    on its block of one."""
    return complex(_amplitudes(setup_block((setup,), kernel.num_sites), kernel)[0])


def amplitude_bruteforce(
    setup: Setup, kernel: Kernel, max_paths: int = DEFAULT_PATH_GUARD
) -> complex:
    """Amplitude as a literal sum over every path threading the filter holes.

    Exponentially expensive; guarded by ``max_paths``, which is checked
    against the paths through the layers so far, as each layer of open
    sites is listed and before any array exists.  This is the oracle that
    every other evaluation strategy is checked against; ``_path_sum`` sums
    the paths.
    """
    check_sites(setup, kernel.num_sites)
    by_time = {f.time: f for f in setup.filters}
    allowed: list[tuple[int, ...]] = []
    n_paths = 1
    for t in range(setup.source.time + 1, setup.detector.time):
        f = by_time.get(t)
        sites = f.holes if f is not None else tuple(range(kernel.num_sites))
        allowed.append(sites)
        n_paths *= len(sites)
        if n_paths > max_paths:
            raise PathExplosionError(
                f"path count exceeds guard of {max_paths} paths"
            )
    if not all(allowed):
        return 0.0 + 0.0j  # a blocking filter kills every path
    layers = [(setup.source.site,), *allowed, (setup.detector.site,)]
    return _path_sum(kernel.step, layers)


def _path_sum(step: np.ndarray, layers: list[tuple[int, ...]]) -> complex:
    """The sum over every path through one site of each layer, the first the
    source alone and the last the detector alone, of the product of its
    ``step[site, prev]`` entries.

    A meet in the middle (Horowitz & Sahni 1974) at the intermediate layer
    with the fewest head plus tail paths: the head holds one literal product
    of step entries per path from the source to a join site, the tail one
    per path from a join site to the detector, and the sum is the sum over
    join sites of summed head times summed tail.  That is the only partial
    sum; it builds no mask, does no matrix-vector product and never calls
    the transfer matrix it checks.  With fewer than two intermediate layers
    every path is summed at once.  A layer's factors are read from
    ``step.T`` (``_factors``); a layer of every site, as a free step is,
    reads it whole, with no gather.
    """
    source, *allowed, detector = (np.array(sites) for sites in layers)
    if len(allowed) < 2:
        return complex(_grow_paths(step, source, [*allowed, detector]).sum())
    sizes = [len(sites) for sites in allowed]
    k = min(
        range(len(allowed)),
        key=lambda j: math.prod(sizes[: j + 1]) + math.prod(sizes[j:]),
    )
    # the last index of the head runs over the join sites, the first of the tail
    head = _grow_paths(step, source, allowed[: k + 1]).reshape(-1, sizes[k])
    tail = _grow_paths(step, allowed[k], [*allowed[k + 1 :], detector])
    tail = tail.reshape(sizes[k], -1)
    return complex(head.sum(axis=0) @ tail.sum(axis=1))


def _grow_paths(
    step: np.ndarray, start: np.ndarray, layers: list[np.ndarray]
) -> np.ndarray:
    """One product of step entries per path from a ``start`` site through
    one site of each layer, in ``itertools.product`` order.

    Partial path ``i`` ends at ``prev[i % len(prev)]``; its extension by
    ``sites[m]`` lands at ``i * len(sites) + m`` with its amplitude times
    ``step[sites[m], prev[i % len(prev)]]``.  The paths start as the first
    layer's factors themselves, one per pair of a start site and a site of
    that layer; each later layer multiplies them by its factors.
    """
    forward = step.T
    amps = _factors(forward, start, layers[0]).reshape(-1)
    for prev, sites in itertools.pairwise(layers):
        factors = _factors(forward, prev, sites)
        amps = (amps.reshape(-1, len(prev), 1) * factors).reshape(-1)
    return amps


def _factors(forward: np.ndarray, prev: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """``factors[j, m] = step[sites[m], prev[j]]``: rows ``prev`` and columns
    ``sites`` of ``forward``, which is ``step.T``.  Holes are sorted and
    unique, so a layer of ``num_sites`` entries is every site and is read
    whole, with no gather."""
    num_sites = forward.shape[1]
    if len(prev) < num_sites:
        forward = forward.take(prev, 0)
    if len(sites) < num_sites:
        forward = forward.take(sites, 1)
    return forward


def _guard_trips(block: SetupBlock, max_paths: int) -> np.ndarray:
    """Whether ``amplitude_bruteforce``'s path guard trips on each column.

    The guard counts the paths through the layers so far, so it trips when
    the layers before the first blocking filter (all of them if there is
    none) hold more than ``max_paths`` paths; a blocking first layer holds
    none, and on a column with no layer it checks nothing.  Each count is a
    Python int: ``num_sites`` to the power of the free layers times the hole
    counts of the filters before the first blocking one.
    """
    holes = block.hole_counts
    blocked = block.stop.copy()  # the first blocking step, or stop
    np.minimum.at(blocked, block.column[holes == 0], block.time[holes == 0])
    before = block.time < blocked[block.column]
    columns = block.column[before]
    free = blocked - 1 - np.bincount(columns, minlength=len(block))
    paths = np.power(block.num_sites, free, dtype=object)
    np.multiply.at(paths, columns, holes[before])
    paths[blocked == 1] = 0
    return (block.stop > 1) & (paths > max_paths)


class EvalStrategy:
    """One way to evaluate every column of a block.

    ``values`` gives the amplitude of each column; ``skipped`` names the
    columns the strategy cannot evaluate, each with its reason;
    ``independent`` marks the columns on which it computes something other
    than the core on the column's own filters; ``core_columns`` counts the
    ``block_vectors`` columns that ``values`` spends.
    """

    label: ClassVar[str]

    def values(self, block: SetupBlock, kernel: Kernel) -> np.ndarray:
        raise NotImplementedError

    def skipped(self, block: SetupBlock) -> dict[int, str]:
        return {}

    def independent(self, block: SetupBlock) -> np.ndarray:
        return np.zeros(len(block), dtype=bool)

    def core_columns(self, block: SetupBlock) -> int:
        return len(block)


@dataclass(frozen=True)
class TransferMatrix(EvalStrategy):
    """Evaluate by masked transfer-matrix products (the production path)."""

    label: ClassVar[str] = "transfer_matrix"

    def values(self, block: SetupBlock, kernel: Kernel) -> np.ndarray:
        return _amplitudes(block, kernel)


@dataclass(frozen=True)
class BruteForcePaths(EvalStrategy):
    """Evaluate by literal enumeration of every hole-threading path.

    ``skipped`` names the columns whose path guard trips, counted exactly
    on the block by ``_guard_trips``, with the text ``amplitude_bruteforce``
    raises; ``values`` passes each column to ``amplitude_bruteforce`` as a
    ``Setup``.  It is the one strategy that converts a block back to
    setups: that waits on the path sum on the block and on the benchmark
    self-test planting its path-sum defects elsewhere (items 14 and 3 of
    ROADMAP.md).
    """

    max_paths: int = DEFAULT_PATH_GUARD
    label: ClassVar[str] = "brute_force"

    def values(self, block: SetupBlock, kernel: Kernel) -> np.ndarray:
        return np.array(
            [amplitude_bruteforce(s, kernel, self.max_paths) for s in block.setups()],
            dtype=complex,
        )

    def skipped(self, block: SetupBlock) -> dict[int, str]:
        reason = f"path count exceeds guard of {self.max_paths} paths"
        trips = _guard_trips(block, self.max_paths)
        return dict.fromkeys(np.flatnonzero(trips).tolist(), reason)

    def independent(self, block: SetupBlock) -> np.ndarray:
        return np.ones(len(block), dtype=bool)

    def core_columns(self, block: SetupBlock) -> int:
        return 0


@dataclass(frozen=True)
class RecursiveDecompose(EvalStrategy):
    """Evaluate by splitting at every single-hole filter and multiplying the
    parts."""

    label: ClassVar[str] = "decompose_all"

    def values(self, block: SetupBlock, kernel: Kernel) -> np.ndarray:
        # every part of every column in one core call; each column's parts
        # multiply right-nested in Python complex: a0 * (a1 * (... * ak))
        parts, first = block.parts()
        factors = _amplitudes(parts, kernel).tolist()
        products = []
        for lo, hi in itertools.pairwise(first.tolist()):
            product = factors[hi - 1]
            for j in range(hi - 2, lo - 1, -1):
                product = factors[j] * product
            products.append(product)
        return np.array(products, dtype=complex)

    def independent(self, block: SetupBlock) -> np.ndarray:
        splits = block.column[block.hole_counts == 1]
        return np.bincount(splits, minlength=len(block)) > 0

    def core_columns(self, block: SetupBlock) -> int:
        return len(block) + int(np.count_nonzero(block.hole_counts == 1))


@dataclass(frozen=True)
class SigmaInsert(EvalStrategy):
    """Evaluate after inserting all-holes filters at every free interior time.

    The inserted filters are physically inert, so the value must match the
    plain evaluation.
    """

    label: ClassVar[str] = "sigma_all"

    def values(self, block: SetupBlock, kernel: Kernel) -> np.ndarray:
        return _amplitudes(block.widened(), kernel)


def evaluate(block: SetupBlock, kernel: Kernel, strategy: EvalStrategy) -> np.ndarray:
    """Amplitude of each column of a block under one evaluation strategy.

    Every strategy but the path sum makes one ``block_vectors`` call for the
    whole block; the path sum evaluates each setup on its own and raises
    ``PathExplosionError`` for the first whose path guard trips.
    """
    if not isinstance(strategy, EvalStrategy):
        raise TypeError(f"unknown strategy {strategy!r}")
    return strategy.values(block, kernel)


def _deviations(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """|z1 - z2| scaled by the larger modulus, entry by entry; absolute where
    both moduli are at most ``NEAR_ZERO``.

    Moduli are ``np.hypot`` of the parts, libm ``hypot`` as in Python's
    complex ``abs``; ``np.abs`` may differ from it in the last bit.  The
    larger modulus is Python's ``max`` of the two, which keeps the first
    when the second is not greater.  Where a finite value's modulus
    overflows, the pair is compared at a quarter of its size, where every
    modulus and difference is finite; dividing by four is exact but for
    subnormal parts, far below the modulus that sets the ratio.  A value
    with a NaN or an infinite part never overflows, so its deviation is NaN
    or infinite as its parts say.  No numpy warning is raised.
    """
    with np.errstate(all="ignore"):
        diff = z1 - z2
        a1, a2, d = (np.hypot(z.real, z.imag) for z in (z1, z2, diff))
        m = np.where(a2 > a1, a2, a1)
        deviations = np.where(m <= NEAR_ZERO, d, d / m)
        retry = np.zeros(deviations.shape, dtype=bool)
        for z, modulus in ((z1, a1), (z2, a2), (diff, d)):
            retry |= np.isinf(modulus) & np.isfinite(z)
        if retry.any():
            # a view as (re, im) pairs divides each part by four
            z1, z2 = ((z[retry].view(float) / 4).view(complex) for z in (z1, z2))
            deviations[retry] = _deviations(z1, z2)
    return deviations


def relative_deviation(z1: complex, z2: complex) -> float:
    """|z1 - z2| scaled by the larger magnitude; absolute for near-zero pairs.

    Amplitudes can vanish by interference, so two values whose magnitudes are
    both below 1e-14 are compared absolutely instead of relatively.  A pair
    whose modulus is past the float range is compared at a quarter of its
    size.  One pair of ``_deviations``.
    """
    return float(_deviations(np.array([z1], complex), np.array([z2], complex))[0])


@dataclass(frozen=True, eq=False)
class BlockReport:
    """Each strategy's values on a block, every pair's deviation on each
    setup, and what each strategy spent on the whole block.

    Pairs are the ``itertools.combinations`` of the labels; entry ``[b, p]``
    of ``deviations`` is pair ``p`` on setup ``b``, compared where both
    strategies ran, so the entries of ``compared`` in C order are the
    ``fuzz`` CSV rows.
    """

    labels: tuple[str, ...]  # in strategy order
    values: np.ndarray  # (setups, strategies) complex; 0 where skipped
    deviations: np.ndarray  # (setups, pairs) float; -inf where not compared
    compared: np.ndarray  # (setups, pairs) bool: both strategies ran
    skipped: dict[str, dict[int, str]]  # label -> setup -> reason
    max_deviation: float  # the worst over the block; NaN if any is NaN
    strategy_s: dict[str, float]  # label -> wall seconds
    core_columns: dict[str, int]  # label -> block_vectors columns
    # setups on which some pair compared two different computations: the
    # path sum ran, or decompose_all split at a single-hole filter
    independent_setups: int

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """The labels of each pair, in column order of ``deviations``."""
        return list(itertools.combinations(self.labels, 2))


def consistency_check(
    block: SetupBlock, kernel: Kernel, strategies: Sequence[EvalStrategy]
) -> BlockReport:
    """Evaluate a block of setups under every strategy and report, for each
    setup, the pairwise deviations.

    Each strategy, one per label, is evaluated once over the whole block
    into one column of ``values``.  A strategy skips the setups it names in
    ``skipped``, such as those whose path guard trips, and its reasons are
    its entry of the report's ``skipped``; at least two strategies must run
    on every setup.  The path guard is counted exactly on the block, so the
    path sum raises ``PathExplosionError`` only by itself; then it is
    skipped on every setup, with that reason.  Every pair's deviations on
    the block are one ``_deviations`` call over the setups where both ran.
    ``independent_setups`` counts the setups on which some strategy that ran
    is ``independent`` of the core: the path sum ran or the decomposition
    split.  On any other, every strategy that ran is the one core on the
    same filters, which compares a computation with itself.  Overflow raises
    no numpy warning: a non-finite amplitude gives a NaN deviation, which is
    a breach.
    """
    labels = tuple(strategy.label for strategy in strategies)
    values = np.zeros((len(block), len(labels)), dtype=complex)
    ran = np.ones(values.shape, dtype=bool)
    independent = np.zeros(len(block), dtype=bool)
    skipped, strategy_s, core_columns = {}, {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for s, strategy in enumerate(strategies):
            started = time.perf_counter()
            reasons = strategy.skipped(block)
            ran[list(reasons), s] = False
            columns = np.flatnonzero(ran[:, s])
            try:
                values[columns, s] = evaluate(
                    block.take(columns) if reasons else block, kernel, strategy
                )
            except PathExplosionError as exc:
                # the block's path guard is exact, so only a path sum that
                # raises by itself gets here: it is skipped on the block
                reasons.update(dict.fromkeys(columns.tolist(), str(exc)))
                ran[:, s] = False
            independent |= ran[:, s] & strategy.independent(block)
            skipped[strategy.label] = reasons
            strategy_s[strategy.label] = time.perf_counter() - started
            core_columns[strategy.label] = strategy.core_columns(block)
    counts = ran.sum(axis=1)
    if (counts < 2).any():
        b = int(np.argmax(counts < 2))
        reasons = {label: r[b] for label, r in skipped.items() if b in r}
        raise ValueError(
            f"consistency check needs at least two strategies to run; "
            f"{counts[b]} ran, skipped: {reasons}"
        )
    first, second = np.triu_indices(len(labels), 1)  # combinations order
    compared = ran[:, first] & ran[:, second]
    deviations = np.full(compared.shape, -np.inf)
    deviations[compared] = _deviations(
        values[:, first][compared], values[:, second][compared]
    )
    return BlockReport(
        labels,
        values,
        deviations,
        compared,
        skipped,
        float(deviations.max()),
        strategy_s,
        core_columns,
        int(independent.sum()),
    )
