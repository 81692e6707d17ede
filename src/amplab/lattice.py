"""Discrete lattice arena: kernels, wave functions, basic linear algebra.

The arena is a one-dimensional chain of ``num_sites`` positions evolving over
integer times ``0..num_steps``.  A :class:`Kernel` holds the one-step complex
transition matrix ``K[to, from]``; repeated application of this matrix,
optionally interleaved with hole masks (see :mod:`amplab.setups`), generates
every amplitude in the package.  Step matrices are arbitrary complex matrices;
unitarity is only guaranteed when a kernel is built from a Hermitian generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

BOUNDARIES = ("ring", "open")

UNITARITY_TOL = 1e-12


class KernelFormatError(ValueError):
    """A kernel file or step matrix failed validation."""


@dataclass(frozen=True)
class LatticeConfig:
    """Extent of the simulation arena.

    ``num_sites`` must be at least three: with fewer sites there is no room
    for the three pairwise-disjoint single-hole filters that the algebraic
    law tests require.  ``dt`` only matters when a kernel is generated from a
    Hamiltonian, in units with hbar = 1; all downstream identities are
    unit-agnostic.
    """

    num_sites: int
    num_steps: int
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.num_sites < 3:
            raise ValueError("num_sites must be at least 3")
        if self.num_steps < 1:
            raise ValueError("num_steps must be positive")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be a positive finite real")


@dataclass(frozen=True, order=True)
class Event:
    """A spacetime point: lattice site at an integer time."""

    site: int
    time: int


@dataclass(frozen=True, eq=False)
class Kernel:
    """One-step transition matrix on the lattice, indexed ``step[to, from]``."""

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
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm_series needs a square matrix")
    norm = float(np.linalg.norm(a, np.inf))
    if not np.isfinite(norm):
        raise ValueError("expm_series needs finite entries")
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    x = 1j * (a * 0.5**squarings)  # 2.0**squarings overflows past 1023
    if not x.imag.any():
        x = x.real
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=x.dtype)
    for k in range(1, 80):
        term = term @ x / k
        result = result + (1, -1j, -1, 1j)[k % 4] * term
        if np.linalg.norm(term, np.inf) <= 1e-16 * np.linalg.norm(result, np.inf):
            break
    else:
        raise RuntimeError("matrix exponential series failed to converge")
    for _ in range(squarings):
        result = result @ result
    return result


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
    for i in range(num_sites - 1):
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
    if defect > UNITARITY_TOL:
        raise RuntimeError(f"tight-binding kernel not unitary (defect {defect:g})")
    return kernel


def unitarity_defect(kernel: Kernel) -> float:
    """Max-norm distance of K^dagger K from the identity."""
    k = kernel.step
    return float(
        np.max(np.abs(k.conj().T @ k - np.eye(kernel.num_sites, dtype=complex)))
    )


def propagator(kernel: Kernel, t1: int, t2: int) -> np.ndarray:
    """Multi-step transition matrix K^(t2-t1); identity when t1 == t2."""
    if t1 < 0 or t2 < 0:
        raise ValueError("times must be non-negative")
    if t2 < t1:
        raise ValueError("reversed time order: t2 must not precede t1")
    return np.linalg.matrix_power(kernel.step, t2 - t1)


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


def norm_sq(a: WaveFunction) -> float:
    return float(np.vdot(a.coeffs, a.coeffs).real)


def is_normalized(a: WaveFunction) -> bool:
    return abs(norm_sq(a) - 1.0) <= 1e-12


def normalize(a: WaveFunction) -> WaveFunction:
    n = norm_sq(a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return WaveFunction(a.coeffs / np.sqrt(n))


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
    """The complex values of a list of ``[re, im]`` pairs; anything else is
    an ``error`` that names the file's ``noun``."""
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"malformed {noun}, expected [re, im] pairs: {exc}") from exc


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


def save_wavefunction(psi: WaveFunction, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_write_pairs(psi.coeffs)))


def load_wavefunction(path: str | Path) -> WaveFunction:
    return wavefunction_from_list(json.loads(Path(path).read_text()))
