"""Amplitude assignment for setups: sum rule, product rule, consistency.

Every setup gets a complex amplitude.  The production evaluator,
``detector_vector``, threads a source vector through the one-step kernel,
applying each filter as a 0/1 diagonal mask at its time; the detector-site
component of the final vector is the amplitude.  That evaluation is
mathematically identical to a sum over all hole-threading paths weighted by
products of single-step kernel entries, and ``amplitude_bruteforce`` computes
that sum literally as an independent oracle.

``consistency_check`` evaluates one setup by several independent strategies
(transfer matrix, brute-force path sum, decomposition at single-hole filters
via the product rule, insertion of all-holes sigma filters) and reports the
maximal pairwise deviation.  Agreement across strategies is the package's
headline correctness alarm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .lattice import Kernel, mask_vector
from .setups import Setup, check_sites, decompose_at, insert_sigma

DEFAULT_PATH_GUARD = 10_000_000

NEAR_ZERO = 1e-14


class PathExplosionError(RuntimeError):
    """Brute-force path enumeration would exceed the path guard."""


@dataclass(frozen=True)
class TransferMatrix:
    """Evaluate by masked matrix-vector products (the production path)."""

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


def detector_vector(setup: Setup, kernel: Kernel) -> np.ndarray:
    """Masked transfer-matrix evolution of ``setup`` up to its detector time.

    A unit vector at the source site is threaded through the one-step kernel,
    each filter that closes a site applied as a 0/1 mask at its time; an
    all-holes filter is inert and applies no mask.  Entry ``x`` of the result
    is the amplitude of the setup with its detector moved to site ``x``.
    """
    num_sites = kernel.num_sites
    check_sites(setup, num_sites)
    by_time = {f.time: f for f in setup.filters}
    psi = np.zeros(num_sites, dtype=complex)
    psi[setup.source.site] = 1.0
    for t in range(setup.source.time + 1, setup.detector.time + 1):
        psi = kernel.step @ psi
        f = by_time.get(t)
        # holes are unique and in range (check_sites): num_sites of them open every site
        if f is not None and len(f.holes) < num_sites:
            psi = psi * mask_vector(num_sites, f.holes)
    return psi


def amplitude(setup: Setup, kernel: Kernel) -> complex:
    """Amplitude of ``setup`` by masked transfer-matrix evolution."""
    return complex(detector_vector(setup, kernel)[setup.detector.site])


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


def _amplitude_decomposed(setup: Setup, kernel: Kernel) -> complex:
    # split at the first single-hole filter and recurse on the later part:
    # the right-nested product a0 * (a1 * (... * rest))
    split = next((f.time for f in setup.filters if len(f.holes) == 1), None)
    if split is None:
        return amplitude(setup, kernel)
    earlier, later = decompose_at(setup, split)
    return amplitude(earlier, kernel) * _amplitude_decomposed(later, kernel)


def _amplitude_sigma(setup: Setup, kernel: Kernel) -> complex:
    occupied = set(setup.filter_times)
    times = [
        t
        for t in range(setup.source.time + 1, setup.detector.time)
        if t not in occupied
    ]
    return amplitude(insert_sigma(setup, times, kernel.num_sites), kernel)


def evaluate(setup: Setup, kernel: Kernel, strategy: EvalStrategy) -> complex:
    """Amplitude of ``setup`` under one evaluation strategy."""
    if isinstance(strategy, TransferMatrix):
        return amplitude(setup, kernel)
    if isinstance(strategy, BruteForcePaths):
        return amplitude_bruteforce(setup, kernel, strategy.max_paths)
    if isinstance(strategy, RecursiveDecompose):
        return _amplitude_decomposed(setup, kernel)
    if isinstance(strategy, SigmaInsert):
        return _amplitude_sigma(setup, kernel)
    raise TypeError(f"unknown strategy {strategy!r}")


def relative_deviation(z1: complex, z2: complex) -> float:
    """|z1 - z2| scaled by the larger magnitude; absolute for near-zero pairs.

    Amplitudes can vanish by interference, so two values whose magnitudes are
    both below 1e-14 are compared absolutely instead of relatively.
    """
    m = max(abs(z1), abs(z2))
    if m <= NEAR_ZERO:
        return abs(z1 - z2)
    return abs(z1 - z2) / max(m, 1e-300)


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-strategy amplitudes and all pairwise deviations for one setup."""

    values: tuple[tuple[str, complex], ...]
    pair_deviations: tuple[tuple[str, str, float], ...]
    max_deviation: float
    skipped: tuple[tuple[str, str], ...]  # (label, reason) of each strategy not run

    def value(self, label: str) -> complex:
        for name, v in self.values:
            if name == label:
                return v
        raise KeyError(label)


def consistency_check(
    setup: Setup,
    kernel: Kernel,
    strategies: tuple[EvalStrategy, ...] | list[EvalStrategy],
) -> ConsistencyReport:
    """Evaluate ``setup`` under every strategy and report pairwise deviations.

    Each strategy is evaluated once.  A brute-force path sum whose path guard
    trips is skipped, and its label and reason are recorded in the report's
    ``skipped``; at least two strategies must run.
    """
    values = []
    skipped = []
    for strategy in strategies:
        try:
            values.append((strategy.label, evaluate(setup, kernel, strategy)))
        except PathExplosionError as exc:
            skipped.append((strategy.label, str(exc)))
    if len(values) < 2:
        raise ValueError(
            f"consistency check needs at least two strategies to run; "
            f"{len(values)} ran, skipped: {skipped}"
        )
    pairs = [
        (name_a, name_b, relative_deviation(val_a, val_b))
        for (name_a, val_a), (name_b, val_b) in itertools.combinations(values, 2)
    ]
    devs = [dev for _, _, dev in pairs]
    # max() would drop a NaN deviation as agreement; NaN is the worst
    worst = math.nan if any(map(math.isnan, devs)) else max(devs)
    return ConsistencyReport(tuple(values), tuple(pairs), worst, tuple(skipped))
