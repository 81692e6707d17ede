"""Setups (testable propositions) and their composition algebra.

A setup is an idealized experiment: a particle is prepared at a source event,
passes a time-ordered sequence of instantaneous filters, and may fire a
detector at a final event.  Each filter blocks the whole lattice except a set
of "holes".  Two setups are equal exactly when they have the same source,
detector, and distribution of filters and holes.

Two composition operations build complex setups from simpler ones, and both
are deliberately partial:

* ``and_compose(earlier, later)`` concatenates two setups in immediate
  succession.  It is allowed only when the earlier detector coincides with
  the later source; the junction event becomes an explicit single-hole
  filter in the merged setup.  The operation is never commutative: if
  ``ab`` is allowed, ``ba`` is not.
* ``or_compose(a, b)`` merges two setups that are identical except at one
  single filter where their hole sets are disjoint and non-empty; the merged
  filter carries the union of the holes.  The operation is commutative.

A filter with holes everywhere (a "sigma" filter) is physically equivalent to
no filter at all and may be inserted freely; ``insert_sigma`` does this at one
free time or at several at once, building the widened setup once.  A
filter with an empty hole set blocks everything.  It is representable as a
degenerate test case (its amplitude is zero) but is rejected as an operand of
``or_compose`` and never produced by ``insert_sigma`` or ``random_setup``.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import Event, LatticeConfig, _json_int


class SetupError(ValueError):
    """A setup or a composition of setups is not allowed."""


class NonConsecutiveError(SetupError):
    """and-composition attempted on setups that are not consecutive."""


class NotCombinableError(SetupError):
    """or-composition attempted on setups that do not differ at exactly
    one filter with disjoint, non-empty hole sets."""


@dataclass(frozen=True)
class FilterSpec:
    """An instantaneous filter: open hole sites at one time index.

    Holes are stored sorted and duplicate-free so that structural equality
    matches physical equality.  An empty hole tuple means "block everything".
    """

    time: int
    holes: tuple[int, ...]

    def __post_init__(self) -> None:
        normalized = tuple(sorted(set(map(int, self.holes))))
        if normalized and normalized[0] < 0:  # sorted: the smallest comes first
            raise SetupError("hole sites must be non-negative")
        object.__setattr__(self, "holes", normalized)


@dataclass(frozen=True)
class Setup:
    """Source event, time-ordered filters, detector event."""

    source: Event
    detector: Event
    filters: tuple[FilterSpec, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.filters, key=lambda f: f.time))
        # one rule: a later detector, one filter per time, filters inside
        times = [self.source.time, *(f.time for f in ordered), self.detector.time]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise SetupError(
                f"source, filter and detector times must rise strictly: {times}"
            )
        object.__setattr__(self, "filters", ordered)

    def filter_at(self, time: int) -> FilterSpec | None:
        for f in self.filters:
            if f.time == time:
                return f
        return None

    @property
    def filter_times(self) -> tuple[int, ...]:
        return tuple(f.time for f in self.filters)


def check_sites(setup: Setup, num_sites: int) -> None:
    """Raise ``SetupError`` if any source, detector or hole site falls
    outside a lattice of ``num_sites`` sites."""
    for event, name in ((setup.source, "source"), (setup.detector, "detector")):
        if not 0 <= event.site < num_sites:
            raise SetupError(
                f"{name} site {event.site} outside lattice [0, {num_sites})"
            )
    for f in setup.filters:
        if f.holes and f.holes[-1] >= num_sites:  # holes are sorted, >= 0
            raise SetupError(
                f"filter at time {f.time} has holes outside [0, {num_sites})"
            )


def and_compose(earlier: Setup, later: Setup) -> Setup:
    """Concatenate two consecutive setups; the junction becomes a single-hole filter.

    Allowed only when ``earlier.detector == later.source`` (same site and
    time).  ``decompose_at`` at the junction time inverts the operation.
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


def or_compose(a: Setup, b: Setup) -> Setup:
    """Merge two setups differing at exactly one filter with disjoint holes."""
    if a.source != b.source or a.detector != b.detector:
        raise NotCombinableError("setups have different source or detector")
    if a.filter_times != b.filter_times:
        raise NotCombinableError("setups have filters at different times")
    diffs = [
        i for i, (fa, fb) in enumerate(zip(a.filters, b.filters)) if fa != fb
    ]
    if len(diffs) != 1:
        raise NotCombinableError(
            f"setups must differ at exactly one filter, found {len(diffs)} differences"
        )
    i = diffs[0]
    holes_a, holes_b = set(a.filters[i].holes), set(b.filters[i].holes)
    if not holes_a or not holes_b:
        raise NotCombinableError("blocking filters cannot be or-combined")
    if holes_a & holes_b:
        raise NotCombinableError(f"overlapping holes {sorted(holes_a & holes_b)}")
    merged = FilterSpec(a.filters[i].time, tuple(holes_a | holes_b))
    new_filters = a.filters[:i] + (merged,) + a.filters[i + 1 :]
    return Setup(a.source, a.detector, new_filters)


def insert_sigma(setup: Setup, times: int | Iterable[int], num_sites: int) -> Setup:
    """Insert a filter with holes everywhere (equivalent to no filter) at
    ``times``, one time or an iterable of times.

    Each time must lie strictly between source and detector, so that sigma
    filters are memoized at interior times only, and be free: a time taken
    by a filter of ``setup`` or named twice fails ``Setup``'s time rule.  The
    widened setup is built once, whatever the number of times, and each sigma
    filter once per time and lattice size.
    """
    times = tuple(times) if isinstance(times, Iterable) else (times,)
    for time in times:
        if not setup.source.time < time < setup.detector.time:
            raise SetupError(
                f"sigma time {time} not strictly between source and detector"
            )
    sigmas = tuple(_sigma_filter(time, num_sites) for time in times)
    return Setup(setup.source, setup.detector, setup.filters + sigmas)


@functools.cache
def _sigma_filter(time: int, num_sites: int) -> FilterSpec:
    """The all-holes filter at ``time`` on ``num_sites`` sites, built once and
    shared: a FilterSpec is frozen.  The keys are bounded by the lattice's
    interior times, not by the number of setups."""
    return FilterSpec(time, tuple(range(num_sites)))


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


# seeds of random setups lie in [0, SEED_LIMIT): each is one 64-bit key
SEED_LIMIT = 2**64

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment and the
# two multipliers of its output mixer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def check_seed_range(first: int, stop: int) -> None:
    """Raise ``SetupError`` unless the seeds ``first .. stop - 1`` all lie in
    ``[0, SEED_LIMIT)``.  A seed past the range would wrap onto the key of
    another seed, and a negative one onto a large one."""
    if first < 0:
        raise SetupError(f"seed must be non-negative, got {first}")
    if stop > SEED_LIMIT:
        raise SetupError(f"seeds must lie below 2**64, got {stop - 1}")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mixer, a bijection on uint64, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def random_setups(
    config: LatticeConfig,
    seeds: Sequence[int],
    max_filters: int,
) -> list[Setup]:
    """One deterministic random setup per seed, drawn for the whole block at
    once; each setup depends on its seed alone, never on its block.

    Source sits at time 0 and the detector at time ``num_steps``, each at a
    uniform site.  The filter count is uniform in ``0..max_filters``, the
    filter times a uniform subset of ``1..num_steps-1`` of that size, and
    each filter opens a uniform number ``1..num_sites`` of holes, a uniform
    subset of the sites.  Draw ``d`` of seed ``s`` is output ``d`` of the
    SplitMix64 stream keyed by ``mix64(s)``: ``mix64(mix64(s) + (d + 1)
    GAMMA)`` modulo 2**64, a counter-based generator.  An integer in
    ``0..n-1`` is a draw modulo ``n`` (bias below n / 2**64), and a uniform
    k-subset is the first k entries of a stable argsort of uniform draws, so
    even a tie of two draws orders the same on every machine.  The draws of
    a setup are, in order: source site, detector site, filter count, one key
    per interior time, and per filter slot its hole count, then one key per
    site.  Filter j takes entry j of the time argsort and the draws of slot j.
    """
    num_sites, num_steps = config.num_sites, config.num_steps
    if max_filters < 0 or max_filters > num_steps - 1:
        raise SetupError(
            f"max_filters must lie in [0, {num_steps - 1}] for {num_steps} steps"
        )
    if not seeds:
        return []
    check_seed_range(min(seeds), max(seeds) + 1)
    interior = num_steps - 1
    keys = _mix64(np.array(seeds, dtype=np.uint64))
    num_draws = 3 + interior + max_filters * (1 + num_sites)
    counters = np.arange(1, num_draws + 1, dtype=np.uint64)
    draws = _mix64(keys[:, None] + counters * _GAMMA)
    sites = (draws[:, :2] % np.uint64(num_sites)).tolist()
    counts = (draws[:, 2] % np.uint64(max_filters + 1)).astype(np.intp)
    times = np.argsort(draws[:, 3 : 3 + interior], axis=1, kind="stable") + 1
    # hole counts and hole orders of the slots in use, in the order they are
    # read: setup by setup, filter by filter
    used = np.arange(max_filters) < counts[:, None]
    slot_draws = draws[:, 3 + interior :].reshape(len(seeds), max_filters, 1 + num_sites)
    slot_draws = slot_draws[used]
    n_holes = (slot_draws[:, 0] % np.uint64(num_sites) + 1).tolist()
    orders = np.argsort(slot_draws[:, 1:], axis=1, kind="stable").tolist()
    holes = iter(zip(n_holes, orders))
    out = []
    for (src, det), count, ts in zip(sites, counts.tolist(), times.tolist()):
        filters = tuple(
            FilterSpec(t, tuple(order[:n]))
            for t, (n, order) in zip(ts, itertools.islice(holes, count))
        )
        out.append(Setup(Event(src, 0), Event(det, num_steps), filters))
    return out


def random_setup(
    config: LatticeConfig,
    rng_seed: int | random.Random,
    max_filters: int,
) -> Setup:
    """Deterministic random setup spanning the full time range of ``config``:
    ``random_setups`` on a block of one seed, so the same seed gives the same
    setup in any block.  An int seed must lie in ``[0, 2**64)``.  A
    ``random.Random`` gives a 63-bit seed drawn from it."""
    seed = rng_seed if isinstance(rng_seed, int) else rng_seed.getrandbits(63)
    return random_setups(config, (seed,), max_filters)[0]


def setup_to_dict(setup: Setup) -> dict:
    return {
        "source": {"site": setup.source.site, "time": setup.source.time},
        "detector": {"site": setup.detector.site, "time": setup.detector.time},
        "filters": [{"time": f.time, "holes": list(f.holes)} for f in setup.filters],
    }


def _json_event(data: dict) -> Event:
    return Event(_json_int(data["site"]), _json_int(data["time"]))


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a list of {what}, got {value!r}")
    return value


def setup_from_dict(data: dict) -> Setup:
    try:
        source = _json_event(data["source"])
        detector = _json_event(data["detector"])
        filters = tuple(
            FilterSpec(
                _json_int(f["time"]),
                tuple(map(_json_int, _json_list(f["holes"], "hole sites"))),
            )
            for f in _json_list(data.get("filters", []), "filters")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SetupError(f"malformed setup object: {exc}") from exc
    return Setup(source, detector, filters)


def save_setup(setup: Setup, path: str | Path) -> None:
    Path(path).write_text(json.dumps(setup_to_dict(setup)))


def load_setup(path: str | Path) -> Setup:
    return setup_from_dict(json.loads(Path(path).read_text()))
