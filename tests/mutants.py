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
from amplab import FilterSpec
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


def block_filters(block):
    """The filters strictly inside each column's span, at their steps: those
    that the block core applies before it reads the column."""
    filters = [[] for _ in range(len(block))]
    for t, b, r in zip(block.time.tolist(), block.column.tolist(), block.row.tolist()):
        if 0 < t < block.stop[b]:
            filters[b].append(FilterSpec(t, np.flatnonzero(block.masks[r]).tolist()))
    return filters


def core(step=None, holes=None, shift=0, latest=False, neighbour=0):
    """The patch of the block core ``block_vectors`` by ``column``, one column
    per block column, each from step 0; the batching defects read every
    column at the latest stop step, or mask it by the filters of the next
    column."""

    def block_vectors(block, kernel):
        last = int(block.stop.max())
        filters = block_filters(block)
        return np.column_stack([
            column(kernel, int(block.src[b]), 0, last if latest else int(block.stop[b]),
                   filters[(b + neighbour) % len(block)], step, holes, shift)
            for b in range(len(block))
        ])

    return amplitudes, "block_vectors", block_vectors


def _parts_at_parent_steps(block, parts=setups.SetupBlock.parts):
    # every part starts at step 0 and stops at its length, but its filters
    # stay at the parent's steps: a part begins where the parts before it in
    # its column end
    moved, first = parts(block)
    begin = np.cumsum(moved.stop) - moved.stop
    begin -= np.repeat(begin[first[:-1]], np.diff(first))
    time = moved.time + begin[moved.column]
    order = np.lexsort((moved.column, time))
    return setups.SetupBlock(
        moved.src, moved.det, moved.stop, time[order], moved.column[order],
        moved.row[order], moved.masks,
    ), first


def _map(state_map):
    return lambda kernel, psi: state_map(kernel.step @ psi)


def _hole_draw_drop(open_sites, hole_rows=setups._hole_rows):
    # the last open site of every filter with 2..L-1 holes is closed, in the
    # block's hole table: drawn, and converted from setups
    open_sites = open_sites.copy()
    num_sites = open_sites.shape[1]
    counts = open_sites.sum(axis=1)
    rows = np.flatnonzero((2 <= counts) & (counts < num_sites))
    last = num_sites - 1 - np.argmax(open_sites[rows, ::-1], axis=1)
    open_sites[rows, last] = False
    return hole_rows(open_sites)


def _conjugated_path_sum(step, layers, path_sum=amplitudes._path_sum):
    return path_sum(step.conj(), layers)


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
    # batching: only the decomposition's parts have spans of their own, and
    # only SetupBlock.parts moves filters to a part's own steps
    "start": (
        (setups.SetupBlock, "parts", _parts_at_parent_steps), "tm sa bf / da", "tm sa / da",
        ONE_COLUMN,
    ),
    "read": (core(latest=True), "tm sa bf / da", "tm sa / da", ONE_COLUMN),
    "neighbour": (core(neighbour=1), "tm sa / da / bf", "tm sa / da", ONE_COLUMN),
    # the block's hole table: filters short of a hole, and the shared
    # all-holes row without site 0, which only sigma_all's filters point at
    "filterspec-drop": ((setups, "_hole_rows", _hole_draw_drop), *(SAME_HOLES,) * 3),
    "sigma-drop": (
        (setups, "_sigma_row", lambda num_sites: (np.arange(num_sites) > 0).astype(float)),
        "tm da bf / sa", "tm da / sa", "tm da bf / sa",
    ),
    # the layered path sum on the time-reversed kernel
    "conjugated-path-sum": (
        (amplitudes, "_path_sum", _conjugated_path_sum),
        "tm da sa / bf", NO_ORACLE, "tm da sa / bf",
    ),
}
