import json
import math
import random

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
    load_wavefunction,
    make_tight_binding_kernel,
    norm_sq,
    save_kernel,
    tight_binding_hamiltonian,
    unitarity_defect,
)
from amplab import lattice
from amplab.cli import _fuzz_kernel
from amplab.lattice import UNITARITY_TOL, wavefunction_from_list

from genutil import (
    mask_vector,
    masked_kernel,
    normalize,
    random_banded_kernel,
    save_wavefunction,
)


def test_config_validation():
    LatticeConfig(3, 1)
    with pytest.raises(ValueError):
        LatticeConfig(2, 1)
    with pytest.raises(ValueError):
        LatticeConfig(3, 0)
    LatticeConfig(lattice.MAX_SITES, lattice.MAX_STEPS)
    with pytest.raises(ValueError, match="num_sites must lie in"):
        LatticeConfig(lattice.MAX_SITES + 1, 1)
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


@pytest.mark.parametrize("L", [8, 16, 64, 512])
def test_ring_kernel_matches_closed_form_propagator(L):
    # the uniform ring is diagonal in plane waves with energies 2 hop cos k,
    # so K[r, c] = g[(r - c) % L] with g the inverse DFT of the phases; no
    # series is involved, and a product that drops the ring's wrap fails it
    hop, dt = 0.7, 0.35
    kernel = make_tight_binding_kernel(LatticeConfig(L, 1, dt=dt), hop=hop)
    k = 2 * np.pi * np.arange(L) / L
    g = np.fft.ifft(np.exp(-1j * dt * 2 * hop * np.cos(k)))
    sites = np.arange(L)
    expected = g[(sites[:, None] - sites[None, :]) % L]
    assert np.max(np.abs(kernel.step - expected)) < 1e-12


def _flux_ring(L):
    # hop e^{0.5i} is a flux through the ring: H stays Hermitian but not real
    return tight_binding_hamiltonian(L, np.exp(0.5j), np.linspace(-1.0, 1.0, L))


def _long_bond(L):
    h = tight_binding_hamiltonian(L, 1.0, 0.0)
    h[0, L // 2] = h[L // 2, 0] = 0.3
    return h


@pytest.mark.parametrize(
    "h, dt, switch",
    [
        # the band of the series terms outgrows L=8 (and L=16) mid-series
        (tight_binding_hamiltonian(8, 1.0, 0.0), 0.35, "series"),
        (tight_binding_hamiltonian(16, 1.0, 0.0), 40.0, "series"),
        # the series fits; a later squaring's band outgrows the ring
        (tight_binding_hamiltonian(32, 1.0, 0.0), 40.0, "squarings"),
        (tight_binding_hamiltonian(64, 1.0, 0.0), 40.0, "squarings"),
        # complex band products, and the band fits to the end
        (_flux_ring(128), 0.35, "end"),
        # one bond across the ring: the generator's band never fits
        (_long_bond(16), 0.35, "dense"),
    ],
)
def test_expm_series_band_paths_match_scipy(h, dt, switch, monkeypatch):
    converted, products = [], []
    to_dense, band_product = lattice._band_to_dense, lattice._band_product

    def spy_dense(band):
        converted.append(band.shape[0])
        return to_dense(band)

    def spy_product(a, b):
        products.append(b.dtype)
        return band_product(a, b)

    monkeypatch.setattr(lattice, "_band_to_dense", spy_dense)
    monkeypatch.setattr(lattice, "_band_product", spy_product)
    a = -1j * dt * h
    out = expm_series(a)
    assert np.max(np.abs(out - scipy.linalg.expm(a))) < 1e-12
    L = h.shape[0]
    if products:  # a real H keeps the series products real
        assert products[0] == (complex if h.imag.any() else float)
    if switch == "series":  # the generator, term and running sum go dense together
        assert len(converted) == 3
    elif switch == "squarings":  # the sum alone, and the dense squarings widen it
        assert len(converted) == 1 and np.count_nonzero(out) > converted[0] * L
    elif switch == "end":
        assert len(converted) == 1 and np.count_nonzero(out) <= converted[0] * L
    else:
        assert converted == [] and products == []


def test_ring_kernel_keeps_exact_zeros():
    # 28 cyclic diagonals either side of the main one are nonzero, so
    # 512 * (512 - 57) = 232,960 entries are exactly zero; the count was
    # measured on the dense-product series before band storage, and the band
    # must keep every one of them
    kernel = make_tight_binding_kernel(LatticeConfig(512, 1, dt=0.35), hop=1.0)
    assert np.count_nonzero(kernel.step == 0) == 232960


def _rebuilt(kernel: Kernel) -> np.ndarray:
    """The dense matrix that the panels of ``kernel`` hold, zero elsewhere."""
    panels, columns = kernel._panels
    blocks, size, _ = panels.shape
    rows = np.arange(blocks * size).reshape(blocks, size)
    dense = np.zeros_like(kernel.step)
    dense[rows[:, :, None], columns[:, None, :]] = panels
    return dense


# (num_sites, width, panel shape): random banded kernels with nonzeros across
# the 0 / L-1 seam, at six blocks and 144 sites (the crossover), blocks as
# wide as the band where a narrower divisor exists (150 = 5 x 30), a block
# size above the width, one site per block, and the chain and double-slit
# shapes of the benchmark
PANEL_KERNELS = [
    (144, 24, (6, 24, 72)),
    (150, 6, (25, 6, 18)),
    (160, 16, (10, 16, 48)),
    (210, 28, (7, 30, 90)),
    (256, 1, (256, 1, 3)),
    (256, 28, (8, 32, 96)),
    (512, 28, (16, 32, 96)),
]


@pytest.mark.parametrize("num_sites, width, shape", PANEL_KERNELS)
def test_panels_rebuild_the_step_and_apply_it(num_sites, width, shape):
    rng = np.random.default_rng(num_sites + width)
    kernel = random_banded_kernel(num_sites, width, rng)
    assert np.abs(kernel.step - kernel.step.T).max() > 0.1
    assert kernel.step[0, -1] != 0 and kernel.step[-1, 0] != 0
    assert kernel._panels[0].shape == shape
    assert np.array_equal(_rebuilt(kernel), kernel.step)
    eps = np.finfo(float).eps
    for states in (
        rng.normal(size=num_sites) + 1j * rng.normal(size=num_sites),
        rng.normal(size=(num_sites, 7)) + 1j * rng.normal(size=(num_sites, 7)),
    ):
        stepped = kernel.apply(states)
        assert stepped.shape == states.shape
        # the same nonzero terms summed in another order: a few ulp of the
        # sum of their moduli
        scale = np.abs(kernel.step) @ np.abs(states)
        assert np.all(np.abs(stepped - kernel.step @ states) <= 4 * eps * scale)


def test_tight_binding_kernels_take_panels_at_large_sites():
    # double-slit's kernel at L=512 and dt 0.35 has 28 diagonals either side
    # of the main one: 16 blocks of 32 sites
    kernel = make_tight_binding_kernel(LatticeConfig(512, 1, dt=0.35), hop=1.0)
    assert kernel._panels[0].shape == (16, 32, 96)
    assert np.array_equal(_rebuilt(kernel), kernel.step)


@pytest.mark.parametrize(
    "name",
    ["fuzz L=8", "fuzz L=16", "prime L", "five blocks", "below 144 sites", "all zero",
     "double-slit L=16"],
)
def test_dense_step_where_panels_do_not_pay(name):
    rng = np.random.default_rng(7)
    kernel = {
        # the fuzz kernels fill their whole band
        "fuzz L=8": lambda: _fuzz_kernel(LatticeConfig(8, 1)),
        "fuzz L=16": lambda: _fuzz_kernel(LatticeConfig(16, 1)),
        # 151 is prime, so its one block of 151 sites is the whole ring
        "prime L": lambda: random_banded_kernel(151, 5, rng),
        # 160 sites at width 28: five blocks of 32
        "five blocks": lambda: random_banded_kernel(160, 28, rng),
        # 32 blocks of four, on 128 sites
        "below 144 sites": lambda: random_banded_kernel(128, 4, rng),
        "all zero": lambda: Kernel(np.zeros((512, 512))),
        "double-slit L=16": lambda: make_tight_binding_kernel(
            LatticeConfig(16, 1, dt=0.35), hop=1.0
        ),
    }[name]()
    assert kernel._panels is None
    n = kernel.num_sites
    for states in (rng.normal(size=n) + 0j, rng.normal(size=(n, 3)) + 0j):
        assert kernel.apply(states).tobytes() == (kernel.step @ states).tobytes()


def test_tight_binding_unitarity():
    config = LatticeConfig(4, 2, dt=0.1)
    kernel = make_tight_binding_kernel(config, hop=0.7, onsite=[0.0, 0.5, 0.0, 0.5])
    assert unitarity_defect(kernel) <= 1e-12
    # direct multiply oracle
    k = kernel.step
    assert np.max(np.abs(k.conj().T @ k - np.eye(4))) <= 1e-12


def _dense_defect(step: np.ndarray) -> float:
    """The dense oracle: the largest entry modulus of K^dagger K - I."""
    return float(np.max(np.abs(step.conj().T @ step - np.eye(len(step)))))


# (num_sites, dt, hop): the fuzz kernels (dt None) at both fuzz shapes, and
# double-slit kernels that the gate accepts and refuses today
ACCEPTED_KERNELS = [(8, None, None), (16, None, None), (512, 0.35, 1.0), (16, 40.0, 1.0)]
REFUSED_KERNELS = [(16, 1e4, 1.0), (16, 1e9, 1.0), (16, 1e308, 0.3)]


def _step(num_sites, dt, hop):
    if dt is None:
        return _fuzz_kernel(LatticeConfig(num_sites, 1)).step
    return kernel_from_hamiltonian(tight_binding_hamiltonian(num_sites, hop), dt).step


@pytest.mark.parametrize(
    "shape, accepted",
    [(s, True) for s in ACCEPTED_KERNELS] + [(s, False) for s in REFUSED_KERNELS],
)
def test_unitarity_probe_reads_near_the_dense_defect(shape, accepted):
    # a probe entry is at most a row sum of |K^dagger K - I|, so at most L
    # times the dense value.  With its fixed seed the probe read 1.08 to 2.4
    # times the dense value on these kernels; the accepted ones sit at the
    # rounding level, where the two products round differently, so the
    # stated factor is [1/2, 4]
    num_sites, dt, hop = shape
    step = _step(num_sites, dt, hop)
    probe, dense = unitarity_defect(Kernel(step)), _dense_defect(step)
    assert dense / 2 <= probe <= 4 * dense
    assert (probe <= UNITARITY_TOL) is accepted
    assert (dense <= UNITARITY_TOL) is accepted
    if dt is not None:
        config = LatticeConfig(num_sites, 1, dt=dt)
        if accepted:
            make_tight_binding_kernel(config, hop=hop)
        else:
            with pytest.raises(RuntimeError, match="not unitary"):
                make_tight_binding_kernel(config, hop=hop)


def _planted_defects(step: np.ndarray):
    """Names and copies of unitary ``step``, each with one defect of scale
    1e-9 planted."""
    n = len(step)
    rng = np.random.default_rng(29)
    interior = [tuple(rng.integers(1, n - 1, 2)) for _ in range(12)]
    for i, j in [(0, n - 1), (n - 1, 0)] + interior:  # wrap corners first
        for move in (1e-9, 1e-9j, -1e-9):
            planted = step.copy()
            planted[i, j] += move
            yield f"entry ({i}, {j}) moved by {move}", planted
    for j in (0, n // 2, n - 1):
        planted = step.copy()
        planted[:, j] *= 1 + 1e-9
        yield f"column {j} scaled", planted
    yield "whole kernel scaled", step * (1 + 1e-9)
    # K (I + 1e-9 x x^T) with x = e_0 - e_1: the defect 2e-9 x x^T has zero
    # row sums, so a probe of equal phases would read only rounding
    x = np.zeros(n)
    x[:2] = 1, -1
    yield "columns 0 and 1 mixed", step + 1e-9 * np.outer(step @ x, x)


@pytest.mark.parametrize("num_sites, dt", [(16, None), (512, 0.35)])
def test_unitarity_gate_refuses_planted_defects(monkeypatch, num_sites, dt):
    step = _step(num_sites, dt, 1.0)
    assert unitarity_defect(Kernel(step)) <= UNITARITY_TOL
    config = LatticeConfig(num_sites, 1, dt=dt or 1.0)
    for name, planted in _planted_defects(step):
        monkeypatch.setattr(lattice, "expm_series", lambda matrix: planted)
        with pytest.raises(RuntimeError, match="not unitary"):
            make_tight_binding_kernel(config, hop=1.0)
        # a defect of 1e-9 reads within a factor of ten of its size
        assert unitarity_defect(Kernel(planted)) >= 1e-10, name


def test_unitarity_probe_is_deterministic_and_keeps_the_global_random_state():
    kernel = _fuzz_kernel(LatticeConfig(16, 1))
    before, python_before = np.random.get_state(), random.getstate()
    first = unitarity_defect(kernel)
    after = np.random.get_state()
    assert first.hex() == unitarity_defect(kernel).hex()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert random.getstate() == python_before


def test_tight_binding_onsite_length_mismatch():
    config = LatticeConfig(4, 2)
    with pytest.raises(ValueError):
        make_tight_binding_kernel(config, hop=1.0, onsite=[0.0, 1.0])


def test_ring_wrap_needs_three_sites():
    with pytest.raises(ValueError):
        tight_binding_hamiltonian(2, hop=1.0, boundary="ring")


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
    psi = WaveFunction([0.6, -0.0, 0.8j, -1e-300 + 2.5j])
    save_wavefunction(psi, path)
    assert json.loads(path.read_text()) == [[0.6, 0], [-0.0, 0], [0, 0.8], [-1e-300, 2.5]]
    assert load_wavefunction(path).coeffs.tobytes() == psi.coeffs.tobytes()
    # a pair that is not two numbers names the file type
    pairs = r", expected \[re, im\] pairs: "
    with pytest.raises(KernelFormatError, match="^malformed kernel entries" + pairs):
        kernel_from_dict({"L": 1, "entries": [[1, 0, 0]]})
    with pytest.raises(ValueError, match="^malformed wave function" + pairs):
        wavefunction_from_list([[1, 0], ["1", 0]])
    # complex(True, 0) is 1, but a boolean is not a number of either file
    with pytest.raises(KernelFormatError, match="^malformed kernel entries" + pairs):
        kernel_from_dict({"L": 1, "entries": [[1, False]]})
    with pytest.raises(ValueError, match="^malformed wave function" + pairs + "got a boolean"):
        wavefunction_from_list([[True, 0], [0, 0]])


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
