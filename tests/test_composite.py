import math

import numpy as np
import pytest

from amplab import (
    Event,
    FilterSpec,
    LatticeConfig,
    Setup,
    WaveFunction,
    amplitude,
    or_compose,
    relative_deviation,
)

from genutil import (
    CompositeSetup,
    and_compose,
    composite_amplitude,
    normalize,
    product_state,
    random_kernel,
    random_setup,
)


def _pair(seed):
    rng = np.random.default_rng(seed)
    config = LatticeConfig(4, 4)
    setup = random_setup(config, seed, 2)
    return setup, random_kernel(4, rng)


def test_single_part_is_plain_amplitude():
    setup, kernel = _pair(0)
    composite = CompositeSetup(((setup, kernel),))
    assert composite_amplitude(composite) == amplitude(setup, kernel)


def test_two_parts_multiply():
    part_a, part_b = _pair(1), _pair(2)
    composite = CompositeSetup((part_a, part_b))
    expected = amplitude(*part_a) * amplitude(*part_b)
    assert composite_amplitude(composite) == expected


def test_composite_requires_shared_time_axis():
    setup_a = Setup(Event(0, 0), Event(1, 3))
    setup_b = Setup(Event(0, 0), Event(1, 4))
    kernel = random_kernel(3, np.random.default_rng(3))
    with pytest.raises(ValueError):
        CompositeSetup(((setup_a, kernel), (setup_b, kernel)))
    with pytest.raises(ValueError):
        CompositeSetup(())


def test_or_composition_is_additive_per_part():
    kernel_a = random_kernel(4, np.random.default_rng(4))
    kernel_b = random_kernel(4, np.random.default_rng(5))
    a1 = Setup(Event(0, 0), Event(3, 4), (FilterSpec(2, (0,)),))
    a2 = Setup(Event(0, 0), Event(3, 4), (FilterSpec(2, (1, 2)),))
    b = Setup(Event(1, 0), Event(2, 4), (FilterSpec(1, (0, 3)),))
    merged = composite_amplitude(
        CompositeSetup(((or_compose(a1, a2), kernel_a), (b, kernel_b)))
    )
    split = composite_amplitude(
        CompositeSetup(((a1, kernel_a), (b, kernel_b)))
    ) + composite_amplitude(CompositeSetup(((a2, kernel_a), (b, kernel_b))))
    assert relative_deviation(merged, split) <= 1e-12


def test_and_composition_is_multiplicative_per_part():
    kernel_a = random_kernel(4, np.random.default_rng(6))
    kernel_b = random_kernel(4, np.random.default_rng(7))
    a1 = Setup(Event(0, 0), Event(2, 2))
    a2 = Setup(Event(2, 2), Event(1, 4))
    b1 = Setup(Event(3, 0), Event(0, 2))
    b2 = Setup(Event(0, 2), Event(3, 4))
    lhs = composite_amplitude(
        CompositeSetup(
            ((and_compose(a1, a2), kernel_a), (and_compose(b1, b2), kernel_b))
        )
    )
    rhs = composite_amplitude(
        CompositeSetup(((a1, kernel_a), (b1, kernel_b)))
    ) * composite_amplitude(CompositeSetup(((a2, kernel_a), (b2, kernel_b))))
    assert relative_deviation(lhs, rhs) <= 1e-12


def test_product_state_basics():
    psi = normalize(WaveFunction(np.array([0.6, 0.8])))
    assert np.array_equal(product_state([psi]), psi.coeffs)
    point = WaveFunction(np.array([1.0, 0.0]))
    two = product_state([point, point])
    assert two.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_product_state_norm():
    psi = normalize(WaveFunction(np.array([0.6, 0.8])))
    tensor = product_state([psi] * 3)
    # direct summation oracle for the tensor norm
    total = math.fsum(abs(z) ** 2 for z in tensor)
    assert abs(total - 1.0) <= 1e-12


def test_product_state_ordering_convention():
    a = normalize(WaveFunction(np.array([1.0, 0.0])))
    b = normalize(WaveFunction(np.array([0.0, 1.0])))
    tensor = product_state([a, b])
    # first particle indexes the most significant digit: (x1, x2) = (0, 1)
    assert tensor.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_product_state_guards():
    psi = normalize(WaveFunction(np.ones(10) / math.sqrt(10)))
    with pytest.raises(ValueError):
        product_state([psi] * 8)  # 10^8 exceeds the tensor guard
    with pytest.raises(ValueError):
        product_state([WaveFunction(np.array([1.0, 1.0]))])
    with pytest.raises(ValueError):
        product_state([])

