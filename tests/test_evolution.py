import math

import numpy as np
import pytest

from amplab import (
    Event,
    Kernel,
    LatticeConfig,
    Setup,
    WaveFunction,
    amplitude,
    evolve,
    kernel_from_hamiltonian,
    make_tight_binding_kernel,
    norm_sq,
    tight_binding_hamiltonian,
)

from genutil import (
    Hamiltonian,
    hermiticity_defect,
    linearity_check,
    masked_kernel,
    normalize,
    random_kernel,
    random_state,
    schrodinger_residual,
)

TWO_LEVEL = tight_binding_hamiltonian(2, hop=1.0, onsite=0.0, boundary="open")


def test_evolve_zero_steps_is_identity():
    rng = np.random.default_rng(0)
    kernel = random_kernel(4, rng)
    psi = random_state(4, rng)
    out = evolve(psi, kernel, 0)
    assert np.array_equal(out.coeffs, psi.coeffs)


def test_evolve_on_panels_matches_the_matrix_power():
    # 256 sites at dt 0.35 step through eight panels of 32 sites
    rng = np.random.default_rng(39)
    config = LatticeConfig(256, 1, dt=0.35)
    kernel = make_tight_binding_kernel(config, hop=1.0, onsite=rng.uniform(-0.5, 0.5, 256))
    assert kernel._panels is not None
    psi = random_state(256, rng)
    for steps in (1, 7, 200):
        expected = np.linalg.matrix_power(kernel.step, steps) @ psi.coeffs
        assert np.abs(evolve(psi, kernel, steps).coeffs - expected).max() <= 1e-14


def test_two_level_closed_form():
    t = 0.9
    kernel = kernel_from_hamiltonian(TWO_LEVEL, dt=t)
    psi = WaveFunction(np.array([1.0, 0.0]))
    out = evolve(psi, kernel, 1)
    expected = np.array([math.cos(t), -1j * math.sin(t)])
    assert np.max(np.abs(out.coeffs - expected)) <= 1e-12


def test_delta_state_evolution_reproduces_amplitudes():
    config = LatticeConfig(5, 4, dt=0.4)
    kernel = make_tight_binding_kernel(config, hop=1.0, onsite=np.linspace(0, 1, 5))
    start = 2
    psi = np.zeros(5, dtype=complex)
    psi[start] = 1.0
    out = evolve(WaveFunction(psi), kernel, 4)
    for site in range(5):
        setup = Setup(Event(start, 0), Event(site, 4))
        assert abs(out.coeffs[site] - amplitude(setup, kernel)) <= 1e-13


def test_hamiltonian_flag_validation():
    with pytest.raises(ValueError):
        Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert hermiticity_defect(TWO_LEVEL) == 0.0


def test_schrodinger_residual_zero_for_trivial_dynamics():
    kernel = Kernel(np.eye(3, dtype=complex))
    h = Hamiltonian(np.zeros((3, 3)))
    psi = WaveFunction(np.array([1.0, 0.0, 0.0]))
    assert schrodinger_residual(psi, h, kernel, dt=0.1) == 0.0


def test_schrodinger_residual_taylor_bound():
    rng = np.random.default_rng(3)
    n = 4
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h_mat = (raw + raw.conj().T) / 2
    dt = 1e-3
    kernel = kernel_from_hamiltonian(h_mat, dt=dt)
    h = Hamiltonian(h_mat)
    psi = random_state(n, rng)
    residual = schrodinger_residual(psi, h, kernel, dt=dt)
    h_norm = float(np.linalg.norm(h_mat, 2))
    assert residual <= h_norm**2 * dt


def test_schrodinger_residual_first_order_convergence():
    h = Hamiltonian(TWO_LEVEL)
    psi = normalize(WaveFunction(np.array([0.8, 0.6j])))
    for dt in (1e-1, 1e-2, 1e-3):
        r_full = schrodinger_residual(
            psi, h, kernel_from_hamiltonian(TWO_LEVEL, dt=dt), dt=dt
        )
        r_half = schrodinger_residual(
            psi, h, kernel_from_hamiltonian(TWO_LEVEL, dt=dt / 2), dt=dt / 2
        )
        assert 0.4 <= r_half / r_full <= 0.6


def test_linearity_trivial_combination():
    rng = np.random.default_rng(5)
    kernel = random_kernel(4, rng)
    psi1, psi2 = random_state(4, rng), random_state(4, rng)
    assert linearity_check(kernel, psi1, psi2, 1.0, 0.0) == 0.0


def test_linearity_random_draws():
    rng = np.random.default_rng(6)
    config = LatticeConfig(6, 2, dt=0.3)
    kernel = make_tight_binding_kernel(config, hop=1.0)
    for _ in range(50):
        psi1, psi2 = random_state(6, rng), random_state(6, rng)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        assert linearity_check(kernel, psi1, psi2, alpha, beta) <= 1e-12


def test_linearity_survives_projection():
    rng = np.random.default_rng(7)
    config = LatticeConfig(6, 2, dt=0.3)
    kernel = masked_kernel(make_tight_binding_kernel(config, hop=1.0), (0, 2, 5))
    for _ in range(50):
        psi1, psi2 = random_state(6, rng), random_state(6, rng)
        assert linearity_check(kernel, psi1, psi2, 2.0 - 1.0j, 0.5j) <= 1e-12


def test_semigroup_property():
    rng = np.random.default_rng(8)
    kernel = random_kernel(5, rng)
    psi = random_state(5, rng)
    once = evolve(psi, kernel, 5)
    twice = evolve(evolve(psi, kernel, 2), kernel, 3)
    assert np.max(np.abs(once.coeffs - twice.coeffs)) <= 1e-12


def test_norm_behaviour_under_masks():
    rng = np.random.default_rng(9)
    config = LatticeConfig(5, 2, dt=0.4)
    unitary = make_tight_binding_kernel(config, hop=1.0)
    projected = masked_kernel(unitary, (1, 3))
    psi = random_state(5, rng)
    assert abs(norm_sq(evolve(psi, unitary, 3)) - 1.0) <= 1e-12
    assert norm_sq(evolve(psi, projected, 3)) <= 1.0 + 1e-12


def test_dimension_mismatch_errors():
    rng = np.random.default_rng(10)
    kernel = random_kernel(3, rng)
    psi = random_state(4, rng)
    with pytest.raises(ValueError):
        evolve(psi, kernel, 1)
    with pytest.raises(ValueError):
        evolve(random_state(3, rng), kernel, -1)
