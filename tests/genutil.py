"""Deterministic random generators shared by the test modules, a
strict-JSON hook and an array inverse of increasing functions.

Everything here is seeded: the same seed always produces the same setups,
kernels and states, so failures reproduce exactly.
"""

from __future__ import annotations

import random

import numpy as np

from amplab import (
    Event,
    FilterSpec,
    Kernel,
    LatticeConfig,
    Setup,
    WaveFunction,
    normalize,
    random_setup,
)


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


def random_kernel(num_sites: int, rng: np.random.Generator) -> Kernel:
    """Dense complex kernel with entries ~ N(0, 1/L); generally non-unitary."""
    mat = rng.normal(size=(num_sites, num_sites)) + 1j * rng.normal(
        size=(num_sites, num_sites)
    )
    return Kernel(mat / np.sqrt(2.0 * num_sites))


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
