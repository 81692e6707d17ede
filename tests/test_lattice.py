import json
import math

import numpy as np
import pytest
import scipy.linalg

from amplab import (
    Event,
    Kernel,
    KernelFormatError,
    LatticeConfig,
    WaveFunction,
    expm_series,
    kernel_from_dict,
    kernel_from_hamiltonian,
    load_kernel,
    make_tight_binding_kernel,
    mask_vector,
    masked_kernel,
    norm_sq,
    normalize,
    propagator,
    save_kernel,
    tight_binding_hamiltonian,
    unitarity_defect,
)


def test_config_validation():
    LatticeConfig(3, 1)
    with pytest.raises(ValueError):
        LatticeConfig(2, 1)
    with pytest.raises(ValueError):
        LatticeConfig(3, 0)
    with pytest.raises(ValueError):
        LatticeConfig(3, 1, dt=0.0)


def test_wavefunction_rejects_nonfinite():
    with pytest.raises(ValueError):
        WaveFunction(np.array([1.0, np.nan]))


def test_kernel_rejects_nonsquare_and_nonfinite():
    with pytest.raises(KernelFormatError):
        Kernel(np.zeros((2, 3)))
    with pytest.raises(KernelFormatError):
        Kernel(np.array([[np.inf, 0], [0, 1]], dtype=complex))


def test_zero_hamiltonian_gives_identity():
    config = LatticeConfig(3, 2)
    kernel = make_tight_binding_kernel(config, hop=0.0, onsite=0.0)
    assert np.allclose(kernel.step, np.eye(3), atol=1e-15)


def test_two_site_kernel_closed_form():
    # exp(-i*t*X) on the two-level hopping matrix
    t = 0.7
    h = tight_binding_hamiltonian(2, hop=1.0, onsite=0.0, boundary="open")
    kernel = kernel_from_hamiltonian(h, dt=t)
    expected = np.array(
        [
            [math.cos(t), -1j * math.sin(t)],
            [-1j * math.sin(t), math.cos(t)],
        ]
    )
    assert np.max(np.abs(kernel.step - expected)) < 1e-14


def test_expm_series_matches_scipy():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.max(np.abs(expm_series(a) - scipy.linalg.expm(a))) < 1e-12


@pytest.mark.parametrize("n", [2, 7, 64])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_expm_series_hermitian_generator_matches_scipy(n, field):
    # -i dt H: a real symmetric H takes the real-product series, a complex
    # Hermitian one the complex series
    rng = np.random.default_rng(n)
    h = rng.normal(size=(n, n))
    if field == "complex":
        h = h + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    a = -1j * 0.3 * h
    assert np.max(np.abs(expm_series(a) - scipy.linalg.expm(a))) < 1e-12


def test_open_chain_kernel_keeps_exact_zeros():
    # the series reaches a site only through powers of the hopping matrix, so
    # entries far from the diagonal are exactly zero; an eigendecomposition
    # leaves rounding noise in every entry and fails this
    h = tight_binding_hamiltonian(64, 1.0, 0.0, boundary="open")
    kernel = kernel_from_hamiltonian(h, dt=0.35)
    assert kernel.step[63, 0] == 0
    assert np.count_nonzero(kernel.step == 0) == 1260


def test_tight_binding_unitarity():
    config = LatticeConfig(4, 2, dt=0.1)
    kernel = make_tight_binding_kernel(config, hop=0.7, onsite=[0.0, 0.5, 0.0, 0.5])
    assert unitarity_defect(kernel) <= 1e-12
    # direct multiply oracle
    k = kernel.step
    assert np.max(np.abs(k.conj().T @ k - np.eye(4))) <= 1e-12


def test_tight_binding_onsite_length_mismatch():
    config = LatticeConfig(4, 2)
    with pytest.raises(ValueError):
        make_tight_binding_kernel(config, hop=1.0, onsite=[0.0, 1.0])


def test_ring_wrap_needs_three_sites():
    with pytest.raises(ValueError):
        tight_binding_hamiltonian(2, hop=1.0, boundary="ring")


def test_propagator_trivial_cases():
    rng = np.random.default_rng(0)
    config = LatticeConfig(3, 5, dt=0.4)
    kernel = make_tight_binding_kernel(config, hop=1.0)
    assert np.array_equal(propagator(kernel, 2, 2), np.eye(3, dtype=complex))
    assert np.allclose(propagator(kernel, 1, 2), kernel.step, atol=0)
    # repeated-multiplication oracle over three steps
    k = kernel.step
    assert np.max(np.abs(propagator(kernel, 0, 3) - (k @ k) @ k)) < 1e-13
    with pytest.raises(ValueError):
        propagator(kernel, 3, 1)


def test_propagator_composition_property():
    config = LatticeConfig(5, 6, dt=0.3)
    kernel = make_tight_binding_kernel(config, hop=0.8, onsite=np.linspace(0, 1, 5))
    for t1, t2, t3 in [(0, 2, 5), (1, 1, 4), (0, 3, 3)]:
        lhs = propagator(kernel, t1, t3)
        rhs = propagator(kernel, t2, t3) @ propagator(kernel, t1, t2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_normalize():
    psi = normalize(WaveFunction(np.array([3.0, 4.0])))
    assert norm_sq(psi) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        normalize(WaveFunction(np.zeros(3)))


def test_unitary_kernel_preserves_norm():
    rng = np.random.default_rng(11)
    config = LatticeConfig(6, 2, dt=0.5)
    kernel = make_tight_binding_kernel(config, hop=1.0, onsite=rng.normal(size=6))
    psi = normalize(WaveFunction(rng.normal(size=6) + 1j * rng.normal(size=6)))
    out = WaveFunction(kernel.step @ psi.coeffs)
    assert abs(norm_sq(out) - 1.0) <= 1e-12


def test_mask_vector_and_masked_kernel():
    mask = mask_vector(4, (1, 3))
    assert mask.tolist() == [0.0, 1.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        mask_vector(4, (4,))
    config = LatticeConfig(4, 2)
    kernel = make_tight_binding_kernel(config, hop=1.0)
    masked = masked_kernel(kernel, (0,))
    assert np.array_equal(masked.step[1:], np.zeros((3, 4)))
    assert np.array_equal(masked.step[0], kernel.step[0])


def test_kernel_json_roundtrip(tmp_path):
    config = LatticeConfig(3, 2, dt=0.2)
    kernel = make_tight_binding_kernel(config, hop=0.5 + 0.1j, onsite=[0, 1, 2])
    path = tmp_path / "kernel.json"
    save_kernel(kernel, path)
    assert set(json.loads(path.read_text())) == {"L", "entries"}
    loaded = load_kernel(path)
    assert np.array_equal(loaded.step, kernel.step)
    # older kernel files carry a "label", which is ignored
    old = {**json.loads(path.read_text()), "label": "tight_binding(hop=1)"}
    assert np.array_equal(kernel_from_dict(old).step, kernel.step)


def test_kernel_json_validation(tmp_path):
    with pytest.raises(KernelFormatError):
        kernel_from_dict({"L": 2, "entries": [[1, 0]], "label": ""})
    with pytest.raises(KernelFormatError):
        kernel_from_dict({"entries": [], "label": ""})
    with pytest.raises(KernelFormatError):
        kernel_from_dict({"L": 1, "entries": [[math.inf, 0]], "label": ""})
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"L": 0, "entries": [], "label": ""}))
    with pytest.raises(KernelFormatError):
        load_kernel(path)


def test_event_ordering():
    assert Event(0, 1) != Event(0, 2)
    assert Event(1, 1) == Event(1, 1)
