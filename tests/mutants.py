"""Every planted defect of the amplitude alarm, in one table.

``MUTANTS`` maps a defect to its patch, ``(object, attribute, replacement)``,
and to its cell on each of ``TARGETS``: 50 fuzz setups at the default and at
the long shape, and ``amplitude`` on one setup.  A firing cell splits the
strategies ``tm da sa bf`` (transfer_matrix, decompose_all, sigma_all,
brute_force) by ``/`` into classes that agree: its pairs over 1e-10 are
exactly the pairs across two classes.  A ``Blind`` cell names why the alarm
misses the defect.
"""

import itertools

import numpy as np

import amplab.amplitudes as amplitudes
import amplab.setups as setups
from amplab import FilterSpec, Kernel
from amplab.lattice import mask_vector

TARGETS = ("fuzz-default", "fuzz-long", "amplitude")

_LABELS = {"tm": "transfer_matrix", "da": "decompose_all", "sa": "sigma_all", "bf": "brute_force"}


class Blind(str):
    """A cell the alarm misses, named by its cause."""


def breaches(cell: str) -> set[str]:
    """The pairs across the classes of a firing cell, named as in the fuzz CSV."""
    side = {_LABELS[s]: i for i, group in enumerate(cell.split("/")) for s in group.split()}
    pairs = itertools.combinations([label for label in _LABELS.values() if label in side], 2)
    return {f"{a}|{b}" for a, b in pairs if side[a] != side[b]}


def column(kernel, site, start, stop, filters, step=None, holes=None, shift=0):
    """A unit vector at ``site`` at time ``start``, stepped to time ``stop`` by
    ``step(kernel, psi)``, the kernel's step by default, and multiplied at
    time ``f.time + shift`` by the mask of ``holes(f, num_sites)``, ``f.holes``
    by default, for each filter ``f``, all-holes filters included."""
    num_sites = kernel.num_sites
    masks = {f.time + shift: holes(f, num_sites) if holes else f.holes for f in filters}
    psi = np.zeros(num_sites, dtype=complex)
    psi[site] = 1.0
    for t in range(start, stop + 1):
        if t > start:
            psi = step(kernel, psi) if step else kernel.step @ psi
        if t in masks:
            psi = psi * mask_vector(num_sites, masks[t])
    return psi


def core(step=None, holes=None, shift=0, earliest=False, latest=False, neighbour=0):
    """The patch of ``detector_vector`` by ``column``, one column per setup;
    the batching defects start every column at the block's earliest source
    time, read it at the latest detector time, or mask it by the filters of
    the next column."""

    def detector_vector(batch, kernel):
        first = min(s.source.time for s in batch)
        last = max(s.detector.time for s in batch)
        return np.column_stack([
            column(kernel, s.source.site, first if earliest else s.source.time,
                   last if latest else s.detector.time,
                   batch[(b + neighbour) % len(batch)].filters, step, holes, shift)
            for b, s in enumerate(batch)
        ])

    return amplitudes, "detector_vector", detector_vector


def _map(state_map):
    return lambda kernel, psi: state_map(kernel.step @ psi)


def _filterspec_drop(self, post_init=FilterSpec.__post_init__):
    # a FilterSpec does not know its lattice: 8 sites, those of the default
    # fuzz and of the amplitude kernel
    post_init(self)
    if 2 <= len(self.holes) < 8:
        object.__setattr__(self, "holes", self.holes[:-1])


def _conjugated_path_sum(setup, kernel, *rest, path_sum=amplitudes.amplitude_bruteforce):
    return path_sum(setup, Kernel(kernel.step.conj()), *rest)


NO_ORACLE = Blind("the path guard skips brute_force on every long setup")
LINEAR = Blind("the path guard skips brute_force on every long setup, and under a linear"
               " defect the one core of the others keeps the product rule and sigma invariance")
SYMMETRIC = Blind("the fuzz kernel is its own transpose")
SAME_HOLES = Blind("every strategy reads the same wrong hole sets")
ONE_COLUMN = Blind("the setup has no single-hole filter, so every core call is a batch of one")

# the cells of a core defect that breaks the product rule: each part of a
# split steps through the defect on its own
PRODUCT_RULE = ("tm sa / da / bf", "tm sa / da", "tm da sa / bf")

MUTANTS = {
    # the core: its mask before the step, one step late, without its first
    # hole, or without the last of 2..L-1 holes
    "before": (core(shift=-1), *PRODUCT_RULE),
    "late": (core(shift=1), *PRODUCT_RULE),
    "drop": (
        core(holes=lambda f, n: f.holes[1:]), "tm / da / sa / bf", "tm / da / sa", "tm da / sa / bf"
    ),
    "multi-hole-drop": (
        core(holes=lambda f, n: f.holes[:-1] if 2 <= len(f.holes) < n else f.holes),
        "tm da sa / bf", LINEAR, "tm da sa / bf",
    ),
    # nonlinear steps, which the paper shows inconsistent, and linear ones
    "kerr": (core(_map(lambda psi: psi * np.exp(-0.01j * np.abs(psi) ** 2))), *PRODUCT_RULE),
    "norm": (core(_map(lambda psi: psi / np.linalg.norm(psi))), *PRODUCT_RULE),
    "cubic": (core(_map(lambda psi: psi + 0.01 * psi * np.abs(psi) ** 2)), *PRODUCT_RULE),
    "phase": (core(_map(lambda psi: np.exp(0.1j) * psi)), "tm da sa / bf", LINEAR, "tm da sa / bf"),
    "leak": (core(_map(lambda psi: 0.999 * psi)), "tm da sa / bf", LINEAR, "tm da sa / bf"),
    "transposed": (core(lambda kernel, psi: kernel.step.T @ psi), *(SYMMETRIC,) * 3),
    # batching: only the decomposition's parts have spans of their own
    "start": (core(earliest=True), "tm sa bf / da", "tm sa / da", ONE_COLUMN),
    "read": (core(latest=True), "tm sa bf / da", "tm sa / da", ONE_COLUMN),
    "neighbour": (core(neighbour=1), "tm sa / da / bf", "tm sa / da", ONE_COLUMN),
    # the setup algebra: filters short of a hole, and sigma filters without
    # site 0, which only sigma_all inserts
    "filterspec-drop": ((FilterSpec, "__post_init__", _filterspec_drop), *(SAME_HOLES,) * 3),
    "sigma-drop": (
        (setups, "_sigma_filter", lambda time, num_sites: FilterSpec(time, range(1, num_sites))),
        "tm da bf / sa", "tm da / sa", "tm da bf / sa",
    ),
    # the path sum on the time-reversed kernel
    "conjugated-path-sum": (
        (amplitudes, "amplitude_bruteforce", _conjugated_path_sum),
        "tm da sa / bf", NO_ORACLE, "tm da sa / bf",
    ),
}
