"""Deterministic random generators shared by the test modules, a
strict-JSON hook, an array inverse of increasing functions, the
``Setup``-level references of the block code, and the helpers and
references that only the tests call.

Everything here is seeded: the same seed always produces the same setups,
kernels and states, so failures reproduce exactly.

``insert_sigma`` and ``decompose_at`` state the setup algebra's two rules on
one ``Setup`` at a time and build nothing but ``Setup`` objects: they are the
references that ``SetupBlock.widened`` and ``SetupBlock.parts`` are checked
against, and use no block code.  ``random_setup`` is a test input, one setup
of ``random_block`` per seed.

The rest is called by no subcommand, so it is kept here and not in
``amplab``: and-composition of setups and the writers of setup and
wave-function files; hole masks, masked kernels and normalization; the
checks of linearity and of the discrete evolution equation; the affine
distance between regrades; and the composite setups and product states of
independent particles.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from amplab import (
    Event,
    FilterSpec,
    Kernel,
    LatticeConfig,
    Setup,
    SetupError,
    WaveFunction,
    amplitude,
    evolve,
    is_normalized,
    random_block,
)
from amplab.composite import TENSOR_GUARD
from amplab.lattice import _write_pairs, norm_sq
from amplab.setups import setup_to_dict


def reject_constant(token: str):
    """``parse_constant`` hook for ``json.loads``: a bare NaN or Infinity is
    not strict JSON."""
    raise ValueError(f"not strict JSON: {token}")


def increasing_inverse(f, target, lo: float, hi: float, steps: int = 60):
    """The x in [lo, hi] with f(x) = target, entry by entry, for an f that
    is strictly increasing on [lo, hi]: bisection on whole arrays.  60 steps
    halve a bracket of [0, 16] below the float spacing of any x of order
    one."""
    lo, hi = np.full(np.shape(target), lo), np.full(np.shape(target), hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        below = f(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2


def insert_sigma(setup: Setup, times: int | Iterable[int], num_sites: int) -> Setup:
    """Insert a filter with holes everywhere (equivalent to no filter) at
    ``times``, one time or an iterable of times.

    Each time must lie strictly between source and detector and be free: a
    time taken by a filter of ``setup`` or named twice fails ``Setup``'s time
    rule.  The widened setup is built once, whatever the number of times.
    """
    times = tuple(times) if isinstance(times, Iterable) else (times,)
    for time in times:
        if not setup.source.time < time < setup.detector.time:
            raise SetupError(
                f"sigma time {time} not strictly between source and detector"
            )
    everywhere = tuple(range(num_sites))
    sigmas = tuple(FilterSpec(time, everywhere) for time in times)
    return Setup(setup.source, setup.detector, setup.filters + sigmas)


def decompose_at(setup: Setup, time: int) -> tuple[Setup, Setup]:
    """Split at a single-hole filter into (earlier, later); inverse of and_compose."""
    f = setup.filter_at(time)
    if f is None:
        raise SetupError(f"no filter at time {time}")
    if len(f.holes) != 1:
        raise SetupError(
            f"filter at time {time} has {len(f.holes)} holes; decomposition "
            "needs exactly one"
        )
    junction = Event(f.holes[0], time)
    earlier = Setup(
        setup.source, junction, tuple(g for g in setup.filters if g.time < time)
    )
    later = Setup(
        junction, setup.detector, tuple(g for g in setup.filters if g.time > time)
    )
    return earlier, later


def random_setup(
    config: LatticeConfig,
    rng_seed: int | random.Random,
    max_filters: int,
) -> Setup:
    """The setup of ``random_block`` for one seed, so the same seed gives
    the same setup in any block.  An int seed must lie in ``[0, 2**64)``.  A
    ``random.Random`` gives a 63-bit seed drawn from it."""
    seed = rng_seed if isinstance(rng_seed, int) else rng_seed.getrandbits(63)
    return random_block(config, (seed,), max_filters).setups()[0]


def random_kernel(num_sites: int, rng: np.random.Generator) -> Kernel:
    """Dense complex kernel with entries ~ N(0, 1/L); generally non-unitary."""
    mat = rng.normal(size=(num_sites, num_sites)) + 1j * rng.normal(
        size=(num_sites, num_sites)
    )
    return Kernel(mat / np.sqrt(2.0 * num_sites))


def random_banded_kernel(num_sites: int, width: int, rng: np.random.Generator) -> Kernel:
    """Complex kernel whose nonzeros are exactly the cyclic diagonals within
    ``width`` of the main one, wrap corners included; generally non-unitary
    and not its own transpose."""
    sites = np.arange(num_sites)
    offsets = (sites[:, None] - sites) % num_sites
    band = np.minimum(offsets, num_sites - offsets) <= width
    mat = rng.normal(size=(num_sites, num_sites)) + 1j * rng.normal(
        size=(num_sites, num_sites)
    )
    return Kernel(mat * band / np.sqrt(2.0 * (2 * width + 1)))


def random_state(num_sites: int, rng: np.random.Generator) -> WaveFunction:
    coeffs = rng.normal(size=num_sites) + 1j * rng.normal(size=num_sites)
    return normalize(WaveFunction(coeffs))


def random_filters(
    rng: random.Random, num_sites: int, lo: int, hi: int, max_count: int
) -> tuple[FilterSpec, ...]:
    """Up to max_count filters with non-empty holes at distinct times in (lo, hi)."""
    slots = list(range(lo + 1, hi))
    count = rng.randint(0, min(max_count, len(slots)))
    times = sorted(rng.sample(slots, count))
    return tuple(
        FilterSpec(t, tuple(rng.sample(range(num_sites), rng.randint(1, num_sites))))
        for t in times
    )


def random_or_pair(config: LatticeConfig, rng: random.Random) -> tuple[Setup, Setup]:
    """Two setups identical except one filter with disjoint non-empty holes."""
    num_sites = config.num_sites
    while True:
        base = random_setup(config, rng, max_filters=min(3, config.num_steps - 1))
        if base.filters:
            break
    i = rng.randrange(len(base.filters))
    t = base.filters[i].time
    sites = list(range(num_sites))
    rng.shuffle(sites)
    cut1 = rng.randint(1, num_sites - 1)
    cut2 = rng.randint(cut1 + 1, num_sites)
    fa = FilterSpec(t, tuple(sites[:cut1]))
    fb = FilterSpec(t, tuple(sites[cut1:cut2]))
    a = Setup(base.source, base.detector, base.filters[:i] + (fa,) + base.filters[i + 1 :])
    b = Setup(base.source, base.detector, base.filters[:i] + (fb,) + base.filters[i + 1 :])
    return a, b


def random_and_pair(config: LatticeConfig, rng: random.Random) -> tuple[Setup, Setup]:
    """Two consecutive setups: the earlier detector is the later source."""
    num_sites, num_steps = config.num_sites, config.num_steps
    t_mid = rng.randint(1, num_steps - 1)
    junction = Event(rng.randrange(num_sites), t_mid)
    earlier = Setup(
        Event(rng.randrange(num_sites), 0),
        junction,
        random_filters(rng, num_sites, 0, t_mid, 2),
    )
    later = Setup(
        junction,
        Event(rng.randrange(num_sites), num_steps),
        random_filters(rng, num_sites, t_mid, num_steps, 2),
    )
    return earlier, later


# -- setups --------------------------------------------------------------


class NonConsecutiveError(SetupError):
    """and-composition attempted on setups that are not consecutive."""


def and_compose(earlier: Setup, later: Setup) -> Setup:
    """Concatenate two consecutive setups; the junction becomes a single-hole filter.

    Allowed only when ``earlier.detector == later.source`` (same site and
    time).  ``SetupBlock.parts`` inverts the operation at every single-hole
    filter of a block.
    """
    if earlier.detector != later.source:
        raise NonConsecutiveError(
            f"not consecutive: earlier detector {earlier.detector} != "
            f"later source {later.source}"
        )
    junction = earlier.detector
    merged = (
        earlier.filters
        + (FilterSpec(junction.time, (junction.site,)),)
        + later.filters
    )
    return Setup(earlier.source, later.detector, merged)


def save_setup(setup: Setup, path: str | Path) -> None:
    Path(path).write_text(json.dumps(setup_to_dict(setup)))


# -- lattice -------------------------------------------------------------


def mask_vector(num_sites: int, holes: Iterable[int]) -> np.ndarray:
    """0/1 diagonal of the projector that keeps only the given hole sites."""
    mask = np.zeros(num_sites, dtype=float)
    for site in holes:
        if not 0 <= site < num_sites:
            raise ValueError(f"hole site {site} outside [0, {num_sites})")
        mask[site] = 1.0
    return mask


def masked_kernel(kernel: Kernel, holes: Iterable[int]) -> Kernel:
    """Kernel M @ K: one step of evolution followed by a hole-mask projection."""
    mask = mask_vector(kernel.num_sites, holes)
    return Kernel(mask[:, None] * kernel.step)


def normalize(a: WaveFunction) -> WaveFunction:
    n = norm_sq(a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return WaveFunction(a.coeffs / np.sqrt(n))


def save_wavefunction(psi: WaveFunction, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_write_pairs(psi.coeffs)))


# -- evolution -----------------------------------------------------------

HERMITICITY_TOL = 1e-12


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of a matrix from its own conjugate transpose."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Evolution generator: a finite Hermitian matrix H == H^dagger."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Hamiltonian must be a square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Hamiltonian entries must be finite")
        if hermiticity_defect(arr) > HERMITICITY_TOL:
            raise ValueError("Hamiltonian matrix is not Hermitian")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def schrodinger_residual(
    psi: WaveFunction,
    hamiltonian: Hamiltonian,
    kernel: Kernel,
    dt: float,
) -> float:
    """Max-norm residual of i*(K Psi - Psi)/dt - H Psi."""
    if psi.num_sites != hamiltonian.matrix.shape[0]:
        raise ValueError("wave function and Hamiltonian dimensions differ")
    stepped = evolve(psi, kernel, 1)
    lhs = 1j * (stepped.coeffs - psi.coeffs) / dt
    rhs = hamiltonian.matrix @ psi.coeffs
    return float(np.max(np.abs(lhs - rhs)))


def linearity_check(
    kernel: Kernel,
    psi1: WaveFunction,
    psi2: WaveFunction,
    alpha: complex,
    beta: complex,
) -> float:
    """Max-norm gap between evolving a superposition and superposing their
    one-step evolutions.

    Zero (to rounding) for every kernel, including non-unitary masked ones;
    a violation indicates an implementation bug, not physics.
    """
    if psi1.num_sites != psi2.num_sites:
        raise ValueError("wave functions have different lengths")
    combo = WaveFunction(alpha * psi1.coeffs + beta * psi2.coeffs)
    lhs = evolve(combo, kernel, 1).coeffs
    rhs = alpha * evolve(psi1, kernel, 1).coeffs + beta * evolve(psi2, kernel, 1).coeffs
    return float(np.max(np.abs(lhs - rhs)))


# -- regrade -------------------------------------------------------------


def affine_fit_deviation(reference: np.ndarray, values: np.ndarray) -> float:
    """Max deviation of ``values`` from the best affine image of ``reference``.

    The regrade is only defined up to an affine map, so this is the canonical
    distance between a recovered tabulation and an analytic one.
    """
    reference = np.asarray(reference, dtype=float)
    values = np.asarray(values, dtype=float)
    slope, intercept = np.polyfit(reference, values, 1)
    return float(np.max(np.abs(slope * reference + intercept - values)))


# -- composite systems ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompositeSetup:
    """Ordered (setup, kernel) pairs, one per independent particle."""

    parts: tuple[tuple[Setup, Kernel], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("composite setup needs at least one part")
        spans = {
            (setup.source.time, setup.detector.time) for setup, _ in self.parts
        }
        if len(spans) != 1:
            raise ValueError(
                f"parts must share a global time axis, got spans {sorted(spans)}"
            )


def composite_amplitude(composite: CompositeSetup) -> complex:
    """Product of the part amplitudes."""
    value = 1.0 + 0.0j
    for setup, kernel in composite.parts:
        value *= amplitude(setup, kernel)
    return value


def product_state(psis: Sequence[WaveFunction]) -> np.ndarray:
    """Tensor coefficients of independent particles: flat array of length
    prod(L_i), entry at configuration (x_1..x_N) equal to prod Psi_i(x_i),
    with the first particle on the most significant index."""
    if not psis:
        raise ValueError("product_state needs at least one wave function")
    total = math.prod(psi.num_sites for psi in psis)
    if total > TENSOR_GUARD:
        raise ValueError(f"tensor dimension {total} exceeds guard {TENSOR_GUARD}")
    for i, psi in enumerate(psis):
        if not is_normalized(psi):
            raise ValueError(f"wave function {i} is not normalized")
    return reduce(np.kron, (psi.coeffs for psi in psis))
