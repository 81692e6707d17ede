"""Wave-function time evolution.

One evolution step multiplies the coefficient vector by the kernel's step
matrix (``Kernel.apply``, through its panels when it is banded), so the map
taking a state at time t to the state at time t+n is linear by construction
for every kernel, unitary or not.  The checks of that
linearity and of the discrete evolution equation i*dPsi/dt = H Psi are test
references in ``tests/genutil.py``; no subcommand runs them yet.
"""

from __future__ import annotations

import numpy as np

from .lattice import Kernel, WaveFunction


def evolve(psi: WaveFunction, kernel: Kernel, steps: int) -> WaveFunction:
    """Apply the kernel ``steps`` times."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if psi.num_sites != kernel.num_sites:
        raise ValueError("wave function and kernel dimensions differ")
    coeffs = psi.coeffs
    # a step that overflows leaves a non-finite coefficient, which
    # WaveFunction rejects: numpy's warning would only repeat that error
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            coeffs = kernel.apply(coeffs)
    return WaveFunction(coeffs)
