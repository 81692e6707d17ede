"""Amplitude assignment for setups: sum rule, product rule, consistency.

Every setup gets a complex amplitude.  The production evaluator,
``detector_vector``, threads one source vector per setup of a batch, as the
columns of one array, through the one-step kernel, applying each filter as a
0/1 diagonal mask on its own column at its time; the detector-site component
of a column's final vector is the amplitude.  That evaluation is
mathematically identical to a sum over all hole-threading paths weighted by
products of single-step kernel entries, and ``amplitude_bruteforce`` computes
that sum literally as an independent oracle.

``consistency_check`` evaluates a block of setups by several independent
strategies (transfer matrix, brute-force path sum, decomposition at
single-hole filters via the product rule, insertion of all-holes sigma
filters), each strategy once over the whole block, and reports each setup's
maximal pairwise deviation.  Agreement across strategies is the package's
headline correctness alarm.
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
from .setups import Setup, check_sites, decompose_at, insert_sigma

DEFAULT_PATH_GUARD = 10_000_000

NEAR_ZERO = 1e-14


class PathExplosionError(RuntimeError):
    """Brute-force path enumeration would exceed the path guard."""


@dataclass(frozen=True)
class TransferMatrix:
    """Evaluate by masked transfer-matrix products (the production path)."""

    label: ClassVar[str] = "transfer_matrix"


@dataclass(frozen=True)
class BruteForcePaths:
    """Evaluate by literal enumeration of every hole-threading path."""

    max_paths: int = DEFAULT_PATH_GUARD
    label: ClassVar[str] = "brute_force"


@dataclass(frozen=True)
class RecursiveDecompose:
    """Evaluate by splitting at every single-hole filter and multiplying the
    parts."""

    label: ClassVar[str] = "decompose_all"


@dataclass(frozen=True)
class SigmaInsert:
    """Evaluate after inserting all-holes filters at every free interior time.

    The inserted filters are physically inert, so the value must match the
    plain evaluation.
    """

    label: ClassVar[str] = "sigma_all"


EvalStrategy = TransferMatrix | BruteForcePaths | RecursiveDecompose | SigmaInsert


def detector_vector(setups: Sequence[Setup], kernel: Kernel) -> np.ndarray:
    """Masked transfer-matrix evolution of a batch of setups, one column each.

    Column ``b`` starts as a unit vector at the source site of ``setups[b]``,
    and counts its steps, and the times of its filters, from its source time.
    Every step multiplies every column by the one-step kernel, then applies
    each column's filter of that step as a 0/1 mask if it closes a site; an
    all-holes filter is inert and applies no mask.  A column is read off
    after the last step of its span.  Entry ``[x, b]`` of the (L, B) result
    is the amplitude of ``setups[b]`` with its detector moved to site ``x``.
    One setup is a batch of one, stepped by matrix-vector products; the bits
    of a column depend only on the number of columns in its batch.
    """
    num_sites = kernel.num_sites
    for setup in setups:
        check_sites(setup, num_sites)
    # (step, column, holes) of each filter that closes a site, by step; holes
    # are unique and in range (check_sites): num_sites of them open every site
    closing = sorted(
        (f.time - setup.source.time, b, f.holes)
        for b, setup in enumerate(setups)
        for f in setup.filters
        if len(f.holes) < num_sites
    )
    masks = np.zeros((len(closing), num_sites))
    masks[
        np.repeat(np.arange(len(closing)), [len(holes) for _, _, holes in closing]),
        np.fromiter(itertools.chain.from_iterable(c[2] for c in closing), np.intp),
    ] = 1.0
    mask_columns = np.array([b for _, b, _ in closing], dtype=np.intp)
    ends: dict[int, list[int]] = {}  # span -> the columns read off after it
    for b, setup in enumerate(setups):
        ends.setdefault(setup.detector.time - setup.source.time, []).append(b)
    bounds = np.searchsorted([k for k, _, _ in closing], range(1, max(ends) + 2))
    psi = np.zeros((num_sites, len(setups)), dtype=complex)
    psi[[s.source.site for s in setups], np.arange(len(setups))] = 1.0
    vectors = np.empty_like(psi)
    for k in range(1, max(ends) + 1):
        psi = kernel.step @ psi
        lo, hi = bounds[k - 1], bounds[k]
        if lo < hi:
            psi[:, mask_columns[lo:hi]] *= masks[lo:hi].T
        if k in ends:
            vectors[:, ends[k]] = psi[:, ends[k]]
    return vectors


def _amplitudes(setups: Sequence[Setup], kernel: Kernel) -> np.ndarray:
    """The amplitude of each setup: its detector-site entry of its column."""
    vectors = detector_vector(setups, kernel)
    return vectors[[s.detector.site for s in setups], np.arange(len(setups))]


def amplitude(setup: Setup, kernel: Kernel) -> complex:
    """Amplitude of ``setup`` by masked transfer-matrix evolution."""
    return complex(detector_vector((setup,), kernel)[setup.detector.site, 0])


def amplitude_bruteforce(
    setup: Setup, kernel: Kernel, max_paths: int = DEFAULT_PATH_GUARD
) -> complex:
    """Amplitude as a literal sum over every path threading the filter holes.

    Exponentially expensive; guarded by ``max_paths``, which counts every
    full path and is checked before any array exists.  This is the oracle
    that every other evaluation strategy is checked against.

    A meet in the middle (Horowitz & Sahni 1974) at the intermediate layer
    with the fewest head plus tail paths: the head holds one literal product
    of ``step[site, prev]`` entries per path from the source to a join site,
    the tail one per path from a join site to the detector, and the
    amplitude is the sum over join sites of summed head times summed tail.
    That is the only partial sum; the oracle builds no mask, does no
    matrix-vector product and never calls the transfer matrix it checks.
    With fewer than two intermediate layers every path is summed at once.
    """
    num_sites = kernel.num_sites
    check_sites(setup, num_sites)
    by_time = {f.time: f for f in setup.filters}
    allowed: list[tuple[int, ...]] = []
    n_paths = 1
    for t in range(setup.source.time + 1, setup.detector.time):
        f = by_time.get(t)
        sites = f.holes if f is not None else tuple(range(num_sites))
        allowed.append(sites)
        n_paths *= len(sites)
        if n_paths > max_paths:
            raise PathExplosionError(
                f"path count exceeds guard of {max_paths} paths"
            )
    if n_paths == 0:
        return 0.0 + 0.0j  # a blocking filter kills every path
    step = kernel.step
    source = np.array([setup.source.site])
    layers = [np.array(sites) for sites in allowed + [(setup.detector.site,)]]
    if len(allowed) < 2:
        return complex(_grow_paths(step, source, layers).sum())
    sizes = [len(sites) for sites in allowed]
    k = min(
        range(len(allowed)),
        key=lambda j: math.prod(sizes[: j + 1]) + math.prod(sizes[j:]),
    )
    # the last index of the head runs over the join sites, the first of the tail
    head = _grow_paths(step, source, layers[: k + 1]).reshape(-1, sizes[k])
    tail = _grow_paths(step, layers[k], layers[k + 1 :]).reshape(sizes[k], -1)
    return complex(head.sum(axis=0) @ tail.sum(axis=1))


def _grow_paths(
    step: np.ndarray, start: np.ndarray, layers: list[np.ndarray]
) -> np.ndarray:
    """One product of step entries per path from a ``start`` site through
    one site of each layer, in ``itertools.product`` order.

    Partial path ``i`` ends at ``prev[i % len(prev)]``; its extension by
    ``sites[m]`` lands at ``i * len(sites) + m`` with its amplitude times
    ``step[sites[m], prev[i % len(prev)]]``.
    """
    amps = np.ones(len(start), dtype=complex)
    prev = start
    for sites in layers:
        # factors[j, m] = step[sites[m], prev[j]]
        factors = step[sites, prev[:, None]]
        amps = (amps.reshape(-1, len(prev), 1) * factors).reshape(-1)
        prev = sites
    return amps


def _split_times(setup: Setup) -> list[int]:
    """The times of the single-hole filters, where decompose_all splits."""
    return [f.time for f in setup.filters if len(f.holes) == 1]


def _amplitudes_decomposed(setups: Sequence[Setup], kernel: Kernel) -> np.ndarray:
    # split each setup at every single-hole filter, evaluate every part of
    # every setup as one batch, and multiply each setup's parts right-nested:
    # a0 * (a1 * (... * ak))
    parts, counts = [], []
    for setup in setups:
        first = len(parts)
        for split in _split_times(setup):
            earlier, setup = decompose_at(setup, split)
            parts.append(earlier)
        parts.append(setup)
        counts.append(len(parts) - first)
    factors = iter(_amplitudes(parts, kernel).tolist())
    products = []
    for count in counts:
        head = [next(factors) for _ in range(count - 1)]
        product = next(factors)
        for factor in reversed(head):
            product = factor * product
        products.append(product)
    return np.array(products, dtype=complex)


def _widened(setup: Setup, num_sites: int) -> Setup:
    occupied = set(setup.filter_times)
    times = [
        t
        for t in range(setup.source.time + 1, setup.detector.time)
        if t not in occupied
    ]
    return insert_sigma(setup, times, num_sites)


def evaluate(
    setups: Sequence[Setup], kernel: Kernel, strategy: EvalStrategy
) -> np.ndarray:
    """Amplitude of each setup of a batch under one evaluation strategy.

    Every strategy but the path sum makes one ``detector_vector`` call for
    the whole batch; the path sum evaluates each setup on its own and raises
    ``PathExplosionError`` for the first whose path guard trips.
    """
    if isinstance(strategy, TransferMatrix):
        return _amplitudes(setups, kernel)
    if isinstance(strategy, BruteForcePaths):
        return np.array(
            [amplitude_bruteforce(s, kernel, strategy.max_paths) for s in setups],
            dtype=complex,
        )
    if isinstance(strategy, RecursiveDecompose):
        return _amplitudes_decomposed(setups, kernel)
    if isinstance(strategy, SigmaInsert):
        return _amplitudes([_widened(s, kernel.num_sites) for s in setups], kernel)
    raise TypeError(f"unknown strategy {strategy!r}")


def _core_columns(setups: Sequence[Setup], strategy: EvalStrategy) -> int:
    """The number of ``detector_vector`` columns ``evaluate`` spends."""
    if isinstance(strategy, BruteForcePaths):
        return 0
    if isinstance(strategy, RecursiveDecompose):
        return sum(1 + len(_split_times(s)) for s in setups)
    return len(setups)


def relative_deviation(z1: complex, z2: complex) -> float:
    """|z1 - z2| scaled by the larger magnitude; absolute for near-zero pairs.

    Amplitudes can vanish by interference, so two values whose magnitudes are
    both below 1e-14 are compared absolutely instead of relatively.

    ``abs`` raises OverflowError on a finite value whose modulus is past the
    float range.  The ratio does not depend on a common scale, so such a pair
    is compared at a quarter of its size, where every modulus and difference
    is finite; dividing by four is exact in binary floating point.
    """
    try:
        m = max(abs(z1), abs(z2))
        if m <= NEAR_ZERO:
            return abs(z1 - z2)
        return abs(z1 - z2) / m
    except OverflowError:
        return relative_deviation(
            complex(z1.real / 4, z1.imag / 4), complex(z2.real / 4, z2.imag / 4)
        )


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-strategy amplitudes and all pairwise deviations for one setup."""

    values: dict[str, complex]  # label -> amplitude, in strategy order
    pair_deviations: tuple[tuple[str, str, float], ...]  # in CSV row order
    max_deviation: float
    skipped: dict[str, str]  # label -> reason of each strategy not run


@dataclass(frozen=True)
class BlockReport:
    """The report of each setup of a block, in order, and what each strategy
    spent on the whole block."""

    reports: tuple[ConsistencyReport, ...]
    max_deviation: float  # the worst over the block; NaN if any is NaN
    strategy_s: dict[str, float]  # label -> wall seconds
    core_columns: dict[str, int]  # label -> detector_vector columns
    # setups on which some pair compared two different computations: the
    # path sum ran, or decompose_all split at a single-hole filter
    independent_setups: int


def _worst(deviations: list[float]) -> float:
    # max() would drop a NaN deviation as agreement; NaN is the worst
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def consistency_check(
    setups: Setup | Sequence[Setup],
    kernel: Kernel,
    strategies: Sequence[EvalStrategy],
) -> BlockReport:
    """Evaluate a block of setups under every strategy and report, for each
    setup, the pairwise deviations.  One ``Setup`` is a block of one.

    Each strategy, one per label, is evaluated once over the whole block.  A
    brute-force path sum whose path guard trips on a setup is skipped for
    that setup, and its label and reason are recorded in that setup's
    ``skipped``; at least two strategies must run on every setup.
    ``independent_setups`` counts the setups on which the path sum ran or the
    decomposition split: on any other, every strategy that ran is the one
    core on the same filters, which compares a computation with itself.
    Overflow raises no numpy warning: a non-finite amplitude gives a NaN
    deviation, which is a breach.
    """
    if isinstance(setups, Setup):
        setups = (setups,)
    columns = {}  # label -> value per setup, None where skipped
    skipped: list[dict[str, str]] = [{} for _ in setups]
    strategy_s, core_columns = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for strategy in strategies:
            started = time.perf_counter()
            if isinstance(strategy, BruteForcePaths):
                # one setup at a time: its path guard may skip any one of them
                values = []
                for setup, reasons in zip(setups, skipped):
                    try:
                        values.append(complex(evaluate((setup,), kernel, strategy)[0]))
                    except PathExplosionError as exc:
                        values.append(None)
                        reasons[strategy.label] = str(exc)
            else:
                values = evaluate(setups, kernel, strategy).tolist()
            strategy_s[strategy.label] = time.perf_counter() - started
            core_columns[strategy.label] = _core_columns(setups, strategy)
            columns[strategy.label] = values
    decomposes = any(isinstance(s, RecursiveDecompose) for s in strategies)
    reports, independent = [], 0
    for b, (setup, reasons) in enumerate(zip(setups, skipped)):
        values = {name: col[b] for name, col in columns.items() if col[b] is not None}
        split = decomposes and bool(_split_times(setup))
        independent += split or BruteForcePaths.label in values
        if len(values) < 2:
            raise ValueError(
                f"consistency check needs at least two strategies to run; "
                f"{len(values)} ran, skipped: {reasons}"
            )
        pairs = tuple(
            (name_a, name_b, relative_deviation(val_a, val_b))
            for (name_a, val_a), (name_b, val_b) in itertools.combinations(
                values.items(), 2
            )
        )
        worst = _worst([dev for _, _, dev in pairs])
        reports.append(ConsistencyReport(values, pairs, worst, reasons))
    return BlockReport(
        tuple(reports),
        _worst([r.max_deviation for r in reports]),
        strategy_s,
        core_columns,
        independent,
    )
