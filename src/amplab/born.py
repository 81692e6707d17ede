"""Detection-probability concentration for replica ensembles.

Take N independent replicas of a normalized state and a configuration-space
filter that passes only components in which the fraction of replicas found at
a marked site lies inside a window [f - eps, f + eps].  The squared overlap of
the filtered state with the unfiltered one is a binomial window mass

    sum_{n} C(N, n) p^n (1 - p)^(N - n),   p = |A_k|^2,

summed over replica counts n inside the window.  As N grows the mass
concentrates at fraction p: the filter becomes inert exactly when the window
contains p, which is the content of the Born rule.  This module computes the
overlap three independent ways: the exact binomial sum, with every term taken
relative to the mode and normalized by the bulk mass (``overlap_exact``), its
Gaussian limit (``overlap_gaussian``), and a literal tensor-product
construction for small N (``small_N_direct``), which lists every configuration
but builds the tensor one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .composite import TENSOR_GUARD
from .lattice import WaveFunction, is_normalized

SMALL_N_LIMIT = 12

# entries of the N-replica tensor that small_N_direct holds at a time
_BLOCK_ENTRIES = 1 << 16

# half-width of the bulk kept for normalization, in standard deviations;
# the truncated mass is below exp(-2*144*p(1-p)) and never matters
_BULK_SIGMAS = 12.0

# snap applied before ceil/floor, as a share of (|f| + eps) N: (f -/+ eps) N
# is rounded by a few 2**-53 of that, so an endpoint that is an integer up to
# float noise lands on the intended bin; at N = 1e9 the snap is under 1e-5
_EDGE_SNAP = 2.0**-48

# the snap never reaches half a replica, so it can take in at most the count
# nearest an edge; it binds only where (|f| + eps) N passes 2**47
_EDGE_SNAP_CAP = math.nextafter(0.5, 0.0)


def _check_replica_count(N: int) -> None:
    if N < 1:
        raise ValueError("N must be a positive integer")
    # past 2**53 replica counts are not exact floats and no exact sum exists
    if N > 2**53:
        raise ValueError(f"N must not exceed 2**53 = {2**53}")


@dataclass(frozen=True)
class BornExperiment:
    """Parameters of one concentration run: p = |A_k|^2, replica count N,
    target fraction f, window half-width epsilon."""

    p: float
    N: int
    f: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        _check_replica_count(self.N)
        if not 0.0 <= self.f <= 1.0:
            raise ValueError("f must lie in [0, 1]")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.f - self.epsilon > 1.0 or self.f + self.epsilon < 0.0:
            raise ValueError("window does not intersect [0, 1]")


@dataclass(frozen=True)
class ProjectorWindow:
    """Inclusive replica-count window [n_min, n_max] passed by the filter."""

    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_min <= self.n_max:
            raise ValueError("need 0 <= n_min <= n_max")


def _window_bounds(f: float, epsilon: float, N: int) -> tuple[int, int]:
    """Integer window: ceil((f-eps)N) .. floor((f+eps)N), clipped to [0, N].

    The inclusive-interior rounding keeps the window mass a lower bound on
    the real-interval mass.  May come back empty (lo > hi).  Clamping the
    snapped bounds to [-1, N + 1] changes no window and keeps an infinite
    bound (a huge epsilon) out of ceil and floor.
    """
    snap = min(_EDGE_SNAP * max(1.0, (abs(f) + epsilon) * N), _EDGE_SNAP_CAP)
    x_lo = (f - epsilon) * N - snap
    x_hi = (f + epsilon) * N + snap
    lo = math.ceil(min(max(x_lo, -1.0), N + 1.0))
    hi = math.floor(min(max(x_hi, -1.0), N + 1.0))
    return max(lo, 0), min(hi, N)


def _overlap_from_bounds(p: float, N: int, n_lo: int, n_hi: int) -> float:
    if n_lo > n_hi:
        return 0.0
    if p == 0.0:
        return 1.0 if n_lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if n_hi == N else 0.0
    sigma = math.sqrt(N * p * (1.0 - p))
    mode = min(max(int(round(N * p)), 0), N)
    half = int(math.ceil(_BULK_SIGMAS * sigma)) + 5
    bulk_lo, bulk_hi = max(0, mode - half), min(N, mode + half)
    if n_lo <= bulk_lo and n_hi >= bulk_hi:
        # the window holds the bulk, so its mass is at least the bulk's
        return 1.0
    span_lo, span_hi = min(n_lo, bulk_lo), max(n_hi, bulk_hi)
    # log of the term ratio (N - n) p / ((n + 1)(1 - p)) from n to n + 1,
    # summed outward from the mode: each term is taken relative to the
    # mode's, a common factor that cancels in window mass / bulk mass
    ns = np.arange(span_lo, span_hi, dtype=float)
    log_ratios = np.log(N - ns) - np.log(ns + 1.0) + (math.log(p) - math.log1p(-p))
    i0 = mode - span_lo
    log_terms = np.zeros(span_hi - span_lo + 1)
    np.cumsum(log_ratios[i0:], out=log_terms[i0 + 1 :])
    log_terms[:i0] = -np.cumsum(log_ratios[:i0][::-1])[::-1]
    terms = np.exp(log_terms)
    bulk_mass = math.fsum(terms[bulk_lo - span_lo : bulk_hi - span_lo + 1])
    window_mass = math.fsum(terms[n_lo - span_lo : n_hi - span_lo + 1])
    return min(1.0, max(0.0, window_mass / bulk_mass))


def overlap_exact(experiment: BornExperiment) -> float:
    """Exact binomial window mass (Psi_N, P Psi_N).

    Each term is taken relative to the mode's term, so none overflows;
    compensated summation keeps the absolute error near 1e-12, and dividing
    by the bulk mass cancels the mode's own probability, which is never
    computed.  Refuses N above 2**53, where counts are not exact floats.
    """
    n_lo, n_hi = _window_bounds(experiment.f, experiment.epsilon, experiment.N)
    return _overlap_from_bounds(experiment.p, experiment.N, n_lo, n_hi)


def overlap_for_window(p: float, N: int, window: ProjectorWindow) -> float:
    """Exact binomial mass on an explicit integer window; same core as
    :func:`overlap_exact` but skips the fraction-to-count rounding."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    _check_replica_count(N)
    return _overlap_from_bounds(p, N, window.n_min, min(window.n_max, N))


def overlap_gaussian(experiment: BornExperiment) -> float:
    """Gaussian-limit window mass: normal integral over [f - eps, f + eps]
    with mean p and variance p(1 - p)/N."""
    p, N = experiment.p, experiment.N
    if not 0.0 < p < 1.0:
        raise ValueError("Gaussian limit is degenerate for p in {0, 1}")
    sigma = math.sqrt(p * (1.0 - p) / N)
    scale = sigma * math.sqrt(2.0)
    hi = (experiment.f + experiment.epsilon - p) / scale
    lo = (experiment.f - experiment.epsilon - p) / scale
    return 0.5 * (math.erf(hi) - math.erf(lo))


def _fold(block: np.ndarray, coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Fold ``levels`` more replicas onto ``block``, one level at a time, into
    a (block, L) array: entry (b, j) is block[b] * coeffs[j]."""
    for _ in range(levels):
        out = np.empty((block.size, coeffs.size), dtype=complex)
        if block.size >= coeffs.size:  # one call per site, down a column
            for j in range(coeffs.size):
                np.multiply(block, coeffs[j], out=out[:, j])
        else:
            np.multiply.outer(block, coeffs, out=out)
        block = out.reshape(-1)
    return block


def small_N_direct(
    psi: WaveFunction, k_site: int, window: ProjectorWindow, N: int
) -> float:
    """Overlap by explicit construction in the N-replica configuration space.

    Lists every one of the L^N configurations of the tensor product, counts
    replicas at ``k_site`` in each, and sums |coefficient|^2 over those whose
    count falls in the window.  An independent check of the binomial algebra;
    limited to N <= 12 and L^N <= 1e7.

    Configuration (x_1..x_N), the first replica most significant, holds the
    left-nested product psi[x_1] * ... * psi[x_N] that an ``np.kron`` fold
    makes.  The ``lead`` leading replicas are folded once into a small
    tensor; each block takes a slice of it and folds the ``rest`` trailing
    replicas on, one level at a time, into a (block, L) array: the same
    products in the same order.  A level of at least L entries is written by
    one ``np.multiply`` per site, down a column; a shorter one by
    ``np.multiply.outer``, whose inner loop runs over the L sites.  numpy
    starts its inner loop once per call, so each form makes that loop the
    longer axis.  A block of several leading entries gathers its in-window
    entries through a mask of replica counts.  A block of one leading entry,
    whose count c is fixed, skips the last level of L^rest entries: the
    in-window trailing entries for c are indexed once per c as pairs
    (q, x_last) of a prefix entry and a last-replica site, and the block
    folds all but the last replica and forms only the products
    prefix[q] * psi[x_last], each the same multiplication of the same two
    operands.  The in-window |c|^2 are kept in flat order in one array with
    one sum: the same bits as summing over the whole tensor.

    Memory is 8 bytes per in-window configuration, plus one block of about
    ``_BLOCK_ENTRIES`` coefficients, plus, on blocks of one leading entry,
    the index arrays of the count c in hand: 24 bytes per in-window trailing
    entry.
    """
    if not 1 <= N <= SMALL_N_LIMIT:
        raise ValueError(f"N must lie in 1..{SMALL_N_LIMIT}")
    num_sites = psi.num_sites
    if not 0 <= k_site < num_sites:
        raise ValueError(f"site {k_site} outside [0, {num_sites})")
    total = num_sites**N
    if total > TENSOR_GUARD:
        raise ValueError(f"tensor dimension {total} exceeds guard {TENSOR_GUARD}")
    if not is_normalized(psi):
        raise ValueError("wave function 0 is not normalized")
    # the trailing replicas span at most one block; at least one replica leads
    rest = 0
    while rest < N - 1 and num_sites ** (rest + 1) <= _BLOCK_ENTRIES:
        rest += 1
    lead = N - rest
    leading = reduce(np.kron, [psi.coeffs] * lead)
    # replicas at k_site per leading and per trailing index, first replica
    # most significant; int8 holds counts up to SMALL_N_LIMIT
    hit = (np.arange(num_sites) == k_site).astype(np.int8)
    lead_counts = reduce(np.add.outer, [hit] * lead).reshape(-1)
    rest_counts = reduce(np.add.outer, [hit] * rest, np.zeros(1, np.int8)).reshape(-1)

    def in_window_size(replicas: int, shift: int) -> int:
        # C(n, c) (L - 1)^(n - c) configurations of n replicas put c at
        # k_site; shift counts the replicas at k_site outside these n
        lo, hi = max(window.n_min - shift, 0), min(window.n_max - shift, replicas)
        return sum(
            math.comb(replicas, c) * (num_sites - 1) ** (replicas - c)
            for c in range(lo, hi + 1)
        )

    def inside(counts: np.ndarray) -> np.ndarray:
        return (counts >= window.n_min) & (counts <= window.n_max)

    probs = np.empty(in_window_size(N, 0))
    rows = max(1, _BLOCK_ENTRIES // rest_counts.size)
    if rows == 1:
        # the in-window entries of a one-entry block depend only on its count
        # c: index them once per c, as (prefix, last replica) pairs, and fold
        # all but the last replica.  Blocks go count by count, so one count's
        # index arrays are in use at a time; each block writes its moduli at
        # its own place in flat order
        sizes = [in_window_size(rest, c) for c in range(lead + 1)]
        ends = np.cumsum(np.take(sizes, lead_counts))

        for c in np.unique(lead_counts):
            where = np.flatnonzero(inside(rest_counts + c))
            # numpy's floor division by a scalar is far faster than np.divmod
            prefix_index = where // num_sites
            last = psi.coeffs[where - prefix_index * num_sites]
            for start in np.flatnonzero(lead_counts == c):
                block = leading[start : start + 1]
                # one statement, so no array outlives it; and a new product
                # array, as numpy may round an aliased complex product
                # differently in the last bit
                np.abs(
                    _fold(block, psi.coeffs, rest - 1)[prefix_index] * last,
                    out=probs[ends[start] - last.size : ends[start]],
                )
    else:
        filled = 0
        for start in range(0, leading.size, rows):
            part = slice(start, start + rows)
            block = _fold(leading[part], psi.coeffs, rest)
            counts = np.add.outer(lead_counts[part], rest_counts).reshape(-1)
            chosen = block[inside(counts)]
            np.abs(chosen, out=probs[filled : filled + chosen.size])
            filled += chosen.size
    return float(np.square(probs, out=probs).sum())


@dataclass(frozen=True)
class ScanRow:
    N: int
    overlap_exact: float
    overlap_gaussian: float | None  # None where the Gaussian limit is degenerate
    deviation: float


def convergence_scan(
    p: float, f: float, epsilon: float, N_list: Sequence[int]
) -> list[ScanRow]:
    """Overlap/deviation rows for ascending N; shows the window mass tending
    to one when |f - p| < eps and to zero when the window excludes p.

    At p = 0 or 1 the exact overlap is well defined but the Gaussian limit is
    not, so those rows carry ``overlap_gaussian=None``.
    """
    if len(N_list) == 0:
        raise ValueError("N_list must name at least one replica count")
    if list(N_list) != sorted(N_list):
        raise ValueError("N_list must be ascending")
    rows = []
    for N in N_list:
        experiment = BornExperiment(p=p, N=int(N), f=f, epsilon=epsilon)
        exact = overlap_exact(experiment)
        gauss = overlap_gaussian(experiment) if 0.0 < p < 1.0 else None
        rows.append(ScanRow(int(N), exact, gauss, 1.0 - exact))
    return rows
