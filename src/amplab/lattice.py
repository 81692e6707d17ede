"""Discrete lattice arena: kernels, wave functions, basic linear algebra.

The arena is a one-dimensional chain of ``num_sites`` positions evolving over
integer times ``0..num_steps``.  A :class:`Kernel` holds the one-step complex
transition matrix ``K[to, from]``; repeated application of this matrix,
optionally interleaved with hole masks (see :mod:`amplab.setups`), generates
every amplitude in the package.  Step matrices are arbitrary complex matrices;
unitarity is only guaranteed when a kernel is built from a Hermitian generator.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

BOUNDARIES = ("ring", "open")

UNITARITY_TOL = 1e-12
UNITARITY_PROBES = 4

# The most steps a setup or a config may span.  A block costs memory per
# column and step: at its peak ``SetupBlock.widened`` holds one bool and
# seven intp entries, 57 bytes, and ``random_block`` two uint64 draws, 16
# bytes.  A full fuzz block of 256 columns at 2**14 steps then peaks at
# 256 * 2**14 * 57 bytes, about 240 MB; each further step adds 14.6 KB.
MAX_STEPS = 2**14

# The most sites a config may hold.  A kernel is built from dense L x L
# complex matrices, 16 bytes an entry: the Hamiltonian and its scaled copy,
# then in ``expm_series`` the argument, and once the band goes dense the
# term, the sum and a product or two; ``Kernel`` copies the result.
# tracemalloc put the peak of ``make_tight_binding_kernel`` at 3.5 (banded)
# to 4.9 (dense) such matrices, so at most five live at once: at 2**11
# sites that is 5 * 16 * 2**22 bytes, 320 MiB, and each further site adds
# about 0.3 MiB.  A banded kernel's panels (``Kernel.apply``) add 3bL
# entries, at most L^2 / 2 as they need six blocks or more.
MAX_SITES = 2**11

# A kernel steps through its panels when they hold at least six blocks on at
# least 144 sites, and densely otherwise.  Panels cost about 3/nb of the dense
# product plus a fixed few microseconds for the gather and the batched call.
# Measured per step on one BLAS thread, in microseconds, for B = 1 / B = 100
# columns, dense against panels:
#   L=128 nb=8: 5.3/154 against 6.2/119 (nb=128: 4.9/178 against 5.1/46)
#   L=144 nb=6: 9.2/221 against 8.5/161 (nb=144: 9.6/325 against 8.4/65)
#   L=256 nb=8: 15.4/658 against 9.9/386
#   L=512 nb=16: 146/2736 against 15/842
#   L=2048 nb=64: 2493/46832 against 111/3433
# Below 144 sites, or with fewer than six blocks (nb=5 at L=80: 2.1/66
# against 3.3/71), panels lose at one column.
PANEL_MIN_BLOCKS = 6
PANEL_MIN_SITES = 144


class KernelFormatError(ValueError):
    """A kernel file or step matrix failed validation."""


@dataclass(frozen=True)
class LatticeConfig:
    """Extent of the simulation arena.

    ``num_sites`` must be at least three: with fewer sites there is no room
    for the three pairwise-disjoint single-hole filters that the algebraic
    law tests require.  It is at most ``MAX_SITES`` and ``num_steps`` at
    most ``MAX_STEPS``, so no config asks for more memory than those bounds
    allow.  ``dt`` only matters when a kernel is generated from a
    Hamiltonian, in units with hbar = 1; all downstream identities are
    unit-agnostic.
    """

    num_sites: int
    num_steps: int
    dt: float = 1.0

    def __post_init__(self) -> None:
        if not 3 <= self.num_sites <= MAX_SITES:
            raise ValueError(
                f"num_sites must lie in [3, {MAX_SITES}], got {self.num_sites}"
            )
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError(
                f"num_steps must lie in [1, {MAX_STEPS}], got {self.num_steps}"
            )
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be a positive finite real")


@dataclass(frozen=True, order=True)
class Event:
    """A spacetime point: lattice site at an integer time."""

    site: int
    time: int


@dataclass(frozen=True, eq=False)
class Kernel:
    """One-step transition matrix on the lattice, indexed ``step[to, from]``.

    ``apply`` steps states, through block-tridiagonal panels when the matrix
    is banded; ``step`` stays the dense matrix that the path sum, the
    unitarity probe and kernel files read."""

    step: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.step, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise KernelFormatError("kernel step matrix must be square")
        if arr.shape[0] < 1:
            raise KernelFormatError("kernel needs at least one site")
        if not np.all(np.isfinite(arr)):
            raise KernelFormatError("kernel entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "step", arr)

    @property
    def num_sites(self) -> int:
        return self.step.shape[0]

    @functools.cached_property
    def _panels(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The cyclic block-tridiagonal form of ``step``, or None to step
        densely.  With w the cyclic half band width of the exact nonzeros, the
        sites split into nb blocks of b sites, b the smallest divisor of L
        that is at least w; row block i then touches only column blocks i-1,
        i and i+1, held as panel i of an (nb, b, 3b) array with the (nb, 3b)
        columns it reads.  A kernel with no nonzero entry, or one whose
        panels would be fewer than ``PANEL_MIN_BLOCKS`` or whose sites are
        fewer than ``PANEL_MIN_SITES``, steps densely.
        """
        n = self.num_sites
        if n < PANEL_MIN_SITES or not self.step.any():
            return None
        width = max(_cyclic_width(self.step), 1)
        size = next(b for b in range(width, n + 1) if n % b == 0)
        blocks = n // size
        if blocks < PANEL_MIN_BLOCKS:
            return None
        columns = (np.arange(-size, 2 * size) + size * np.arange(blocks)[:, None]) % n
        panels = np.take_along_axis(
            self.step.reshape(blocks, size, n), columns[:, None, :], axis=2
        )
        panels.setflags(write=False)
        return panels, columns

    def apply(self, states: np.ndarray) -> np.ndarray:
        """``step @ states`` for an (L,) or (L, B) array, through the panels
        when the kernel has them: one gather and one batched product."""
        if self._panels is None:
            return self.step @ states
        panels, columns = self._panels
        gathered = states[columns].reshape(*columns.shape, -1)  # (nb, 3b, B)
        return (panels @ gathered).reshape(states.shape)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex coefficients over lattice sites."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex).reshape(-1)
        if arr.size < 1:
            raise ValueError("wave function needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("wave function coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def num_sites(self) -> int:
        return self.coeffs.shape[0]


def _cyclic_width(matrix: np.ndarray) -> int:
    """The largest cyclic distance of a nonzero of square ``matrix`` from its
    main diagonal, 0 if it has none."""
    n = matrix.shape[0]
    rows, cols = np.divmod(np.flatnonzero(matrix), n)
    offsets = (rows - cols) % n
    return int(np.minimum(offsets, n - offsets).max(initial=0))


def _band_rows(width: int, n: int) -> np.ndarray:
    """Row of each entry of a band array: ``band[width + e, c]`` holds
    ``M[(c + e) % n, c]``, the entry of cyclic diagonal e in column c."""
    return (np.arange(n) + np.arange(-width, width + 1)[:, None]) % n


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    n = band.shape[1]
    dense = np.zeros((n, n), dtype=band.dtype)
    dense[_band_rows(band.shape[0] // 2, n), np.arange(n)] = band
    return dense


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Band of the product of two band arrays; the widths add.  Diagonal f
    of b meets column c + f of a, and the roll carries the ring's wrap."""
    wa, wb = a.shape[0] // 2, b.shape[0] // 2
    out = np.zeros((2 * (wa + wb) + 1, a.shape[1]), dtype=np.result_type(a, b))
    for f in range(-wb, wb + 1):
        out[wb + f : wb + f + 2 * wa + 1] += np.roll(a, -f, axis=1) * b[wb + f]
    return out


def expm_series(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series.

    The argument is halved until its infinity norm is at most 1/2, the series
    is summed until a term falls below 1e-16 relative to the running sum, and
    the result is squared back up.  Deterministic, no eigendecomposition, so
    entries that no power of the argument reaches stay exactly zero.

    The series is summed as exp(-i x) with x = i a, which is exact (a swap and
    a sign per entry).  For a = -i dt H with H real, x = dt H is real, and
    every series product is a real one; the phase (-i)^k goes on as each term
    is added.  Only the squarings multiply complex matrices.

    When every nonzero of x lies on the cyclic diagonals |e| <= w with
    2w + 1 <= n, the terms and the sum are held as band arrays (see
    ``_band_rows``), and each product costs the band, not n^3.  The first
    product whose band would not fit turns every matrix dense for good.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm_series needs a square matrix")
    with np.errstate(over="ignore"):  # a norm past the float range is refused
        norm = float(np.linalg.norm(a, np.inf))
    if not np.isfinite(norm):
        raise ValueError("expm_series needs finite entries")
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    x = 1j * (a * 0.5**squarings)  # 2.0**squarings overflows past 1023
    if not x.imag.any():
        x = x.real
    n = a.shape[0]
    width = _cyclic_width(x)
    banded = 2 * width + 1 <= n
    if banded:
        x = x[_band_rows(width, n), np.arange(n)]
    term = np.ones((1, n), dtype=x.dtype) if banded else np.eye(n, dtype=x.dtype)
    result = term.astype(complex)
    for k in range(1, 80):
        if banded and term.shape[0] + 2 * width > n:  # the product's 2w + 1
            banded = False
            x, term, result = map(_band_to_dense, (x, term, result))
        term = (_band_product(term, x) if banded else term @ x) / k
        grow = (term.shape[0] - result.shape[0]) // 2
        if grow:
            result = np.pad(result, ((grow, grow), (0, 0)))
        result = result + (1, -1j, -1, 1j)[k % 4] * term
        if banded:  # the infinity norm sums each entry's modulus into its row
            rows = _band_rows(term.shape[0] // 2, n).ravel()
            norms = [np.bincount(rows, np.abs(m).ravel(), n).max() for m in (term, result)]
        else:
            norms = [np.linalg.norm(m, np.inf) for m in (term, result)]
        if norms[0] <= 1e-16 * norms[1]:
            break
    else:
        raise RuntimeError("matrix exponential series failed to converge")
    # a square past the float range reads inf or NaN, which Kernel refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            if banded and 2 * result.shape[0] - 1 > n:  # the square's 4w + 1
                banded, result = False, _band_to_dense(result)
            result = _band_product(result, result) if banded else result @ result
    return _band_to_dense(result) if banded else result


def tight_binding_hamiltonian(
    num_sites: int,
    hop: complex,
    onsite: Sequence[float] | float = 0.0,
    boundary: str = "ring",
) -> np.ndarray:
    """Hermitian nearest-neighbour Hamiltonian with the given couplings.

    ``hop`` sits on the lower sub-diagonal (site i -> i+1) and its conjugate
    on the upper one; ``onsite`` fills the diagonal.  A ring boundary wraps
    the chain (requires at least 3 sites to avoid a doubled bond).
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")
    onsite_arr = np.asarray(onsite, dtype=float)
    if onsite_arr.ndim == 1 and onsite_arr.shape[0] != num_sites:
        raise ValueError("onsite vector length must equal num_sites")
    diag = np.broadcast_to(onsite_arr, (num_sites,))
    if not np.all(np.isfinite(diag)) or not np.isfinite(hop):
        raise ValueError("couplings must be finite")
    h = np.diag(diag.astype(complex))
    i = np.arange(num_sites - 1)
    h[i + 1, i] = hop
    h[i, i + 1] = np.conj(hop)
    if boundary == "ring":
        if num_sites < 3:
            raise ValueError("ring boundary needs at least 3 sites")
        h[0, num_sites - 1] = hop
        h[num_sites - 1, 0] = np.conj(hop)
    return h


def kernel_from_hamiltonian(hamiltonian: np.ndarray, dt: float = 1.0) -> Kernel:
    """Kernel exp(-i*H*dt) in units with hbar = 1; unitary whenever H is
    Hermitian."""
    h = np.asarray(hamiltonian, dtype=complex)
    return Kernel(expm_series(-1j * dt * h))


def make_tight_binding_kernel(
    config: LatticeConfig,
    hop: complex,
    onsite: Sequence[float] | float = 0.0,
) -> Kernel:
    """Unitary one-step kernel for the nearest-neighbour ring of ``config``."""
    h = tight_binding_hamiltonian(config.num_sites, hop, onsite)
    kernel = kernel_from_hamiltonian(h, config.dt)
    defect = unitarity_defect(kernel)
    if not defect <= UNITARITY_TOL:  # a NaN defect is a refusal too
        raise RuntimeError(f"tight-binding kernel not unitary (defect {defect:g})")
    return kernel


def unitarity_defect(kernel: Kernel) -> float:
    """Largest modulus of (K^dagger K - I) V over a few probe columns V.

    Freivalds' check (1977): the entries of V are unit-modulus phases drawn
    from a fixed-seed ``random.Random``, so every call returns the same
    number (numpy's generators would load ``numpy.random``, several MB).  It
    costs two products with K, O(L^2) per probe, not the O(L^3) of forming
    K^dagger K, and shares no code with the band products of ``expm_series``.

    With E = K^dagger K - I, probe entry i is sum_j E[i, j] v_j.  Its modulus
    is at most the sum of |E[i, j]| over j, so at most L times the largest
    entry of E.  Over uniform random phases its mean square is the squared
    2-norm of row i, which is at least the square of the row's largest
    entry.  A wrong entry E[i, j] stands in rows i and j (E is Hermitian), so
    it is read by up to 2 x ``UNITARITY_PROBES`` probe entries, and every one
    of them reads below it only if the rest of its row cancels it.
    """
    k = kernel.step
    rng = random.Random(0)
    turns = [rng.random() for _ in range(kernel.num_sites * UNITARITY_PROBES)]
    v = np.exp(2j * np.pi * np.reshape(turns, (kernel.num_sites, UNITARITY_PROBES)))
    # (K v)^dagger K - v^dagger is (K^dagger K v - v)^dagger: the same moduli,
    # and K is never conjugated as a whole.  An overflow reads inf or NaN,
    # which the gate refuses, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs((k @ v).conj().T @ k - v.conj().T)))


def norm_sq(a: WaveFunction) -> float:
    return float(np.vdot(a.coeffs, a.coeffs).real)


def is_normalized(a: WaveFunction) -> bool:
    return abs(norm_sq(a) - 1.0) <= 1e-12


def _json_int(value) -> int:
    """``value`` if it is a JSON integer; a float, bool or string read
    where an integer belongs is a TypeError, never truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _write_pairs(values: np.ndarray) -> list:
    """``values`` in C order as the ``[re, im]`` pairs of kernel and
    wave-function files."""
    return np.stack((values.real, values.imag), axis=-1).reshape(-1, 2).tolist()


def _read_pairs(pairs, error: type[ValueError], noun: str) -> np.ndarray:
    """The complex values of a list of ``[re, im]`` pairs of JSON numbers;
    anything else, a boolean included, is an ``error`` naming ``noun``."""
    try:
        values = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        if bool in set(map(type, chain.from_iterable(pairs))):  # one C-level scan
            raise TypeError("got a boolean")
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"malformed {noun}, expected [re, im] pairs: {exc}") from exc
    return values


def kernel_from_dict(data: dict) -> Kernel:
    try:
        num_sites = _json_int(data["L"])
        entries = data["entries"]
        count = len(entries)
    except (KeyError, TypeError) as exc:
        raise KernelFormatError(f"malformed kernel object: {exc}") from exc
    if num_sites < 1:
        raise KernelFormatError("kernel L must be positive")
    if count != num_sites * num_sites:
        raise KernelFormatError(
            f"expected {num_sites * num_sites} entries, got {count}"
        )
    flat = _read_pairs(entries, KernelFormatError, "kernel entries")
    return Kernel(flat.reshape(num_sites, num_sites))


def save_kernel(kernel: Kernel, path: str | Path) -> None:
    data = {"L": kernel.num_sites, "entries": _write_pairs(kernel.step)}
    Path(path).write_text(json.dumps(data))


def load_kernel(path: str | Path) -> Kernel:
    return kernel_from_dict(json.loads(Path(path).read_text()))


def wavefunction_from_list(data: list) -> WaveFunction:
    return WaveFunction(_read_pairs(data, ValueError, "wave function"))


def load_wavefunction(path: str | Path) -> WaveFunction:
    return wavefunction_from_list(json.loads(Path(path).read_text()))
