"""Wave-function time evolution, its generator, and linearity diagnostics.

One evolution step multiplies the coefficient vector by the kernel's step
matrix, so the map taking a state at time t to the state at time t+n is
linear by construction for every kernel, unitary or not.  The routines here
quantify that: the residual of the discrete evolution equation
i*dPsi/dt = H Psi (units with hbar = 1), and a direct superposition check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Kernel, WaveFunction

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


def evolve(psi: WaveFunction, kernel: Kernel, steps: int) -> WaveFunction:
    """Apply the kernel ``steps`` times."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if psi.num_sites != kernel.num_sites:
        raise ValueError("wave function and kernel dimensions differ")
    coeffs = psi.coeffs
    for _ in range(steps):
        coeffs = kernel.step @ coeffs
    return WaveFunction(coeffs)


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
