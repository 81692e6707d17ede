"""Composite setups for independent particles.

A composite experiment runs one setup per particle, each with its own kernel,
over a shared time interval.  For independent particles the amplitude of the
composite is the product of the part amplitudes, which makes the composite
amplitude additive in each part under or-composition and multiplicative under
and-composition.  ``product_state`` builds the N-particle tensor coefficients
used by the Born-rule concentration computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .amplitudes import amplitude
from .lattice import Kernel, WaveFunction, is_normalized
from .setups import Setup

TENSOR_GUARD = 10_000_000


@dataclass(frozen=True, eq=False)
class CompositeSetup:
    """Ordered (setup, kernel) pairs, one per independent particle."""

    parts: tuple[tuple[Setup, Kernel], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("composite setup needs at least one part")
        spans = {
            (setup.source.time, setup.detector.time) for setup, _ in self.parts
        }
        if len(spans) != 1:
            raise ValueError(
                f"parts must share a global time axis, got spans {sorted(spans)}"
            )


def composite_amplitude(composite: CompositeSetup) -> complex:
    """Product of the part amplitudes."""
    value = 1.0 + 0.0j
    for setup, kernel in composite.parts:
        value *= amplitude(setup, kernel)
    return value


def product_state(psis: Sequence[WaveFunction]) -> np.ndarray:
    """Tensor coefficients of independent particles: flat array of length
    prod(L_i), entry at configuration (x_1..x_N) equal to prod Psi_i(x_i),
    with the first particle on the most significant index."""
    if not psis:
        raise ValueError("product_state needs at least one wave function")
    total = math.prod(psi.num_sites for psi in psis)
    if total > TENSOR_GUARD:
        raise ValueError(f"tensor dimension {total} exceeds guard {TENSOR_GUARD}")
    for i, psi in enumerate(psis):
        if not is_normalized(psi):
            raise ValueError(f"wave function {i} is not normalized")
    return reduce(np.kron, (psi.coeffs for psi in psis))

