"""Deterministic random generators shared by the test modules, a
strict-JSON hook, an array inverse of increasing functions, and the
``Setup``-level references of the block code.

Everything here is seeded: the same seed always produces the same setups,
kernels and states, so failures reproduce exactly.

``insert_sigma`` and ``decompose_at`` state the setup algebra's two rules on
one ``Setup`` at a time and build nothing but ``Setup`` objects: they are the
references that ``SetupBlock.widened`` and ``SetupBlock.parts`` are checked
against, and use no block code.  ``random_setup`` is a test input, one setup
of ``random_block`` per seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

import numpy as np

from amplab import (
    Event,
    FilterSpec,
    Kernel,
    LatticeConfig,
    Setup,
    SetupError,
    WaveFunction,
    normalize,
    random_block,
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
