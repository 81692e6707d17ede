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
  ``ab`` is allowed, ``ba`` is not.  No subcommand composes setups in
  succession: ``and_compose`` is a test reference in ``tests/genutil.py``,
  and ``SetupBlock.parts`` inverts it at every single-hole filter.
* ``or_compose(a, b)`` merges two setups that are identical except at one
  single filter where their hole sets are disjoint and non-empty; the merged
  filter carries the union of the holes.  The operation is commutative.

A filter with holes everywhere (a "sigma" filter) is physically equivalent to
no filter at all and may be inserted freely; ``SetupBlock.widened`` does this
at every free time of every column.  A filter with an empty hole set blocks
everything.  It is representable as a degenerate test case (its amplitude is
zero) but is rejected as an operand of ``or_compose`` and never produced by
``SetupBlock.widened`` or ``random_block``.

A ``SetupBlock`` holds many setups as a few arrays, one column per setup: the
source and detector sites and the last step of each column, with times
counted from each setup's own source time, so every column starts at step 0.
Each filter is one entry ``(time, column, row)``, sorted by time, then
column; ``row`` indexes a small table of 0/1 hole masks whose row
``SIGMA_ROW`` opens every site and is the one row every sigma filter of a
block points at.  ``random_block`` draws a block straight from its seeds,
``setup_block`` converts setups, and ``SetupBlock.setups`` converts back.
``SetupBlock.parts`` splits a block at its single-hole filters into a block
of parts, each moved to start at step 0.  A block holds
O(setups + filters * sites) numbers: no array of it grows with the product
of time, sites and setups, or with absolute time.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import MAX_STEPS, Event, LatticeConfig, _json_int


class SetupError(ValueError):
    """A setup or a composition of setups is not allowed."""


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
        span = self.detector.time - self.source.time
        if span > MAX_STEPS:
            raise SetupError(
                f"setup spans {span} steps; a span must be at most {MAX_STEPS}"
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


# the row of a block's hole table that opens every site
SIGMA_ROW = 0


def _sigma_row(num_sites: int) -> np.ndarray:
    """Row ``SIGMA_ROW`` of a block's hole table: every site open."""
    return np.ones(num_sites)


def _hole_rows(open_sites: np.ndarray) -> np.ndarray:
    """The 0/1 hole-mask row of each filter from its open sites, the True
    entries of its row of ``open_sites``."""
    return open_sites.astype(float)


class SetupBlock:
    """Setups as arrays, one column each (see the module docstring).

    Column ``b`` is a unit vector at site ``src[b]`` at step 0 and is read
    at site ``det[b]`` after step ``stop[b]``, at least 1, before that
    step's filters.  Its filters are the entries ``i`` with ``column[i] ==
    b``: at step ``time[i]`` they keep the sites open in ``masks[row[i]]``.
    A block from ``setup_block`` or ``random_block`` gives every filter a
    row of its own; only sigma filters share one.
    """

    __slots__ = ("src", "det", "stop", "time", "column", "row", "masks")

    def __init__(self, src, det, stop, time, column, row, masks) -> None:
        self.src = src  # (B,) source sites
        self.det = det  # (B,) detector sites
        self.stop = stop  # (B,) last step of each column
        self.time = time  # (F,) step of each filter, ascending
        self.column = column  # (F,) its column, ascending within a step
        self.row = row  # (F,) its row of masks
        self.masks = masks  # (R, num_sites) 0/1 hole masks

    def __len__(self) -> int:
        return len(self.src)

    @property
    def num_sites(self) -> int:
        return self.masks.shape[1]

    @property
    def hole_counts(self) -> np.ndarray:
        """The number of holes of each filter, as ints."""
        return np.count_nonzero(self.masks, axis=1)[self.row]

    def take(self, columns: np.ndarray) -> SetupBlock:
        """The block of the given columns, in ascending order, with their
        filters."""
        index = np.full(len(self), -1)
        index[columns] = np.arange(len(columns))
        kept = index[self.column] >= 0
        return SetupBlock(
            self.src[columns], self.det[columns], self.stop[columns],
            self.time[kept], index[self.column[kept]], self.row[kept], self.masks,
        )

    def setups(self) -> list[Setup]:
        """One ``Setup`` per column: source at time 0, detector at time
        ``stop``, and a filter per entry.  The brute-force path sum still
        takes one ``Setup`` at a time, so ``BruteForcePaths`` needs this."""
        entries, sites = np.nonzero(self.masks[self.row])  # sites ascending
        ends = np.cumsum(np.bincount(entries, minlength=len(self.row))).tolist()
        sites = sites.tolist()
        holes = [tuple(sites[a:b]) for a, b in zip([0, *ends], ends)]
        filters: list[list[FilterSpec]] = [[] for _ in range(len(self))]
        for t, b, h in zip(self.time.tolist(), self.column.tolist(), holes):
            filters[b].append(FilterSpec(t, h))
        columns = zip(self.src.tolist(), self.det.tolist(), self.stop.tolist(), filters)
        return [
            Setup(Event(src, 0), Event(det, stop), tuple(fs))
            for src, det, stop, fs in columns
        ]

    def widened(self) -> SetupBlock:
        """The block with a sigma filter, on row ``SIGMA_ROW``, at every
        interior step of every column that has no filter.  Its reference
        is ``insert_sigma`` in ``tests/genutil.py``, on one ``Setup`` at
        every free time."""
        layers = self.stop - 1  # interior steps of each column
        first = np.cumsum(layers) - layers  # index of each column's first one
        free = np.ones(int(layers.sum()), dtype=bool)
        free[first[self.column] + self.time - 1] = False
        column = np.repeat(np.arange(len(self)), layers)
        time = np.arange(len(free)) - (first - 1)[column]
        time = np.concatenate([self.time, time[free]])
        column = np.concatenate([self.column, column[free]])
        row = np.concatenate([self.row, np.full(len(time) - len(self.row), SIGMA_ROW)])
        order = np.lexsort((column, time))
        return SetupBlock(
            self.src, self.det, self.stop, time[order], column[order], row[order],
            self.masks,
        )

    def parts(self) -> tuple[SetupBlock, np.ndarray]:
        """The block split at every single-hole filter by index arithmetic,
        and the first part of each column; column ``b``'s parts are
        ``first[b]`` up to ``first[b + 1]``.  Its reference is
        ``decompose_at`` in ``tests/genutil.py``, on one ``Setup`` at one
        filter.

        Part ``j`` of a column runs from its ``j``-th split to the next, or
        from its source or to its detector; a split's hole is the detector of
        the part before it and the source of the part after it, and its entry
        is dropped.  Every other entry goes to the part whose span holds its
        step, moved back by the step where the part begins, so every part
        starts at step 0 and stops at its length.
        """
        single = self.hole_counts == 1
        split = np.flatnonzero(single)
        split = split[np.lexsort((self.time[split], self.column[split]))]
        span = int(self.stop.max(initial=0)) + 1
        keys = self.column * span + self.time  # (column, time) order
        split_keys = keys[split]
        # a part's index is its column's plus the splits before it in
        # (column, time) order
        first = np.arange(len(self) + 1)
        first += np.searchsorted(split_keys, first * span)
        stopped = self.column[split] + np.arange(len(split))
        sites = self.masks[self.row[split]].argmax(axis=1)
        src = np.empty(len(self) + len(split), dtype=np.intp)
        det, begin, stop = np.empty_like(src), np.zeros_like(src), np.empty_like(src)
        src[first[:-1]] = self.src
        det[first[1:] - 1], stop[first[1:] - 1] = self.det, self.stop
        det[stopped], stop[stopped] = sites, self.time[split]
        src[stopped + 1], begin[stopped + 1] = sites, self.time[split]
        column = self.column[~single] + np.searchsorted(split_keys, keys[~single])
        time = self.time[~single] - begin[column]
        order = np.lexsort((column, time))
        parts = SetupBlock(
            src, det, stop - begin, time[order], column[order],
            self.row[~single][order], self.masks,
        )
        return parts, first


def _block(src, det, stop, time, column, open_sites) -> SetupBlock:
    """The block of columns that start at step 0, with one filter per row of
    ``open_sites`` at ``time`` on ``column``, each on a row of its own."""
    order = np.lexsort((column, time))
    masks = np.vstack([_sigma_row(open_sites.shape[1]), _hole_rows(open_sites[order])])
    return SetupBlock(
        src, det, stop, time[order], column[order], np.arange(1, len(order) + 1), masks
    )


def setup_block(setups: Sequence[Setup], num_sites: int) -> SetupBlock:
    """The block of ``setups`` on ``num_sites`` sites, times counted from
    each setup's source time; ``SetupError`` if a site falls outside."""
    for setup in setups:
        check_sites(setup, num_sites)
    filters = [
        (f.time - s.source.time, b, f.holes)
        for b, s in enumerate(setups)
        for f in s.filters
    ]
    open_sites = np.zeros((len(filters), num_sites), dtype=bool)
    open_sites[
        np.repeat(np.arange(len(filters)), [len(holes) for _, _, holes in filters]),
        np.fromiter(itertools.chain.from_iterable(f[2] for f in filters), np.intp),
    ] = True
    return _block(
        np.array([s.source.site for s in setups], dtype=np.intp),
        np.array([s.detector.site for s in setups], dtype=np.intp),
        np.array([s.detector.time - s.source.time for s in setups], dtype=np.intp),
        np.array([t for t, _, _ in filters], dtype=np.intp),
        np.array([b for _, b, _ in filters], dtype=np.intp),
        open_sites,
    )


# seeds of random setups lie in [0, SEED_LIMIT): each is one 64-bit key
SEED_LIMIT = 2**64

# The most draws ``random_block`` makes per setup.  A block holds its draws,
# 8 bytes each, and while they are mixed a temporary of the same size; then,
# for each filter slot in use, a gathered copy of its draws, their argsort
# and its ranks.  tracemalloc put the peak at 49 bytes per draw when every
# slot is in use, and at 28 when filter counts are uniform, as they are
# drawn.  A full fuzz block of 256 setups at 2**15 draws then peaks at
# 256 * 2**15 * 49 bytes, about 390 MiB at worst and 220 MiB typically.
# The bound admits 2**14 steps at 2**11 sites with three filters, 22533
# draws.
MAX_DRAWS = 2**15

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


def random_block(
    config: LatticeConfig,
    seeds: Sequence[int],
    max_filters: int,
) -> SetupBlock:
    """One deterministic random setup per seed, drawn as one block; each
    setup depends on its seed alone, never on its block.

    Source sits at time 0 and the detector at time ``num_steps``, each at a
    uniform site.  The filter count is uniform in ``0..max_filters``, the
    filter times a uniform subset of ``1..num_steps-1`` of that size, and
    each filter opens a uniform number ``1..num_sites`` of holes, a uniform
    subset of the sites.  Draw ``d`` of seed ``s`` is output ``d`` of the
    SplitMix64 stream keyed by ``mix64(s)``: ``mix64(mix64(s) + (d + 1)
    GAMMA)`` modulo 2**64, a counter-based generator.  An integer in
    ``0..n-1`` is a draw modulo ``n`` (bias below n / 2**64), and a uniform
    k-subset is the first k entries of a stable argsort of uniform draws, so
    even a tie of two draws orders the same on every machine: the sites
    whose rank in that argsort is below k.  The draws of a setup are, in
    order: source site, detector site, filter count, one key per interior
    time, and per filter slot its hole count, then one key per site.  Filter
    j takes entry j of the time argsort and the draws of slot j.  A setup
    whose draws number more than ``MAX_DRAWS`` is refused before any is made.
    """
    num_sites, num_steps = config.num_sites, config.num_steps
    if max_filters < 0 or max_filters > num_steps - 1:
        raise SetupError(
            f"max_filters must lie in [0, {num_steps - 1}] for {num_steps} steps"
        )
    if len(seeds):
        check_seed_range(min(seeds), max(seeds) + 1)
    interior = num_steps - 1
    num_draws = 3 + interior + max_filters * (1 + num_sites)
    if num_draws > MAX_DRAWS:
        raise SetupError(
            f"a random setup of {num_sites} sites, {num_steps} steps and up to "
            f"{max_filters} filters takes {num_draws} draws; at most {MAX_DRAWS}"
        )
    keys = _mix64(np.array(seeds, dtype=np.uint64))
    counters = np.arange(1, num_draws + 1, dtype=np.uint64)
    draws = _mix64(keys[:, None] + counters * _GAMMA)
    sites = (draws[:, :2] % np.uint64(num_sites)).astype(np.intp)
    counts = (draws[:, 2] % np.uint64(max_filters + 1)).astype(np.intp)
    times = np.argsort(draws[:, 3 : 3 + interior], axis=1, kind="stable") + 1
    # the slots in use, setup by setup: slot j of setup b is filter j of b
    used = np.arange(max_filters) < counts[:, None]
    column, slot = np.nonzero(used)
    slot_draws = draws[:, 3 + interior :].reshape(len(keys), max_filters, 1 + num_sites)
    slot_draws = slot_draws[used]
    n_holes = (slot_draws[:, 0] % np.uint64(num_sites)).astype(np.intp) + 1
    order = np.argsort(slot_draws[:, 1:], axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(num_sites), order.shape), axis=1
    )
    return _block(
        sites[:, 0],
        sites[:, 1],
        np.full(len(keys), num_steps, dtype=np.intp),
        times[column, slot],
        column,
        ranks < n_holes[:, None],
    )


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


def load_setup(path: str | Path) -> Setup:
    return setup_from_dict(json.loads(Path(path).read_text()))
