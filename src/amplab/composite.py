"""Composite setups for independent particles.

A composite experiment runs one setup per particle, each with its own kernel,
over a shared time interval.  For independent particles the amplitude of the
composite is the product of the part amplitudes, which makes the composite
amplitude additive in each part under or-composition and multiplicative under
and-composition.  ``product_state`` builds the N-particle tensor coefficients
used by the Born-rule concentration computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .amplitudes import amplitude
from .lattice import Kernel, WaveFunction, is_normalized, load_kernel
from .setups import Setup, setup_from_dict, setup_to_dict

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


def composite_to_dict(composite: CompositeSetup, kernel_refs: Sequence[str]) -> dict:
    if len(kernel_refs) != len(composite.parts):
        raise ValueError("need one kernel_ref per part")
    return {
        "parts": [
            {"setup": setup_to_dict(setup), "kernel_ref": str(ref)}
            for (setup, _), ref in zip(composite.parts, kernel_refs)
        ]
    }


def load_composite(path: str | Path) -> CompositeSetup:
    """Load a composite setup; kernel_ref paths resolve relative to the file."""
    path = Path(path)
    data = json.loads(path.read_text())
    try:
        raw_parts = [(entry["setup"], entry["kernel_ref"]) for entry in data["parts"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed composite object: {exc}") from exc
    parts = []
    for raw_setup, kernel_ref in raw_parts:
        setup = setup_from_dict(raw_setup)
        kernel = load_kernel(path.parent / kernel_ref)
        parts.append((setup, kernel))
    return CompositeSetup(tuple(parts))
