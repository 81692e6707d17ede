import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from amplab import (
    BornExperiment,
    ProjectorWindow,
    WaveFunction,
    convergence_scan,
    normalize,
    overlap_exact,
    overlap_for_window,
    overlap_gaussian,
    product_state,
    small_N_direct,
)
import amplab.born as born
from amplab.born import _window_bounds

from genutil import random_state


def binomial_window_oracle(p: float, N: int, n_lo: int, n_hi: int) -> float:
    """Exact window mass at 50 decimal digits, term by term."""
    with mpmath.workdps(50):
        mp_p = mpmath.mpf(p)
        total = mpmath.mpf(0)
        for n in range(n_lo, n_hi + 1):
            total += (
                mpmath.binomial(N, n) * mp_p**n * (1 - mp_p) ** (N - n)
            )
        return float(total)


def test_experiment_validation():
    with pytest.raises(ValueError):
        BornExperiment(p=1.5, N=10, f=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        BornExperiment(p=0.5, N=0, f=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        BornExperiment(p=0.5, N=10, f=0.5, epsilon=0.0)
    with pytest.raises(ValueError):
        BornExperiment(p=0.5, N=10, f=1.5, epsilon=0.1)
    # past 2**53 replica counts are not exact floats
    assert overlap_for_window(0.5, 2**53, ProjectorWindow(0, 2**53)) == 1.0
    with pytest.raises(ValueError, match="2\\*\\*53"):
        BornExperiment(p=0.5, N=2**53 + 1, f=0.5, epsilon=0.1)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        overlap_for_window(0.5, 2**53 + 1, ProjectorWindow(0, 1))


def test_window_construction():
    with pytest.raises(ValueError):
        ProjectorWindow(3, 2)


def test_certain_detection():
    e = BornExperiment(p=1.0, N=100, f=1.0, epsilon=0.05)
    assert overlap_exact(e) == 1.0
    assert convergence_scan(1.0, 1.0, 0.05, [100])[0].deviation == 0.0


def test_hand_enumerable_binomial():
    full = BornExperiment(p=0.5, N=2, f=0.5, epsilon=0.5)
    assert overlap_exact(full) == pytest.approx(1.0, abs=1e-15)
    single = BornExperiment(p=0.5, N=2, f=0.5, epsilon=0.24)
    assert overlap_exact(single) == pytest.approx(0.5, abs=1e-14)


def test_overlap_against_high_precision_oracle():
    cases = [
        (0.36, 100, 0.36, 0.02),
        (0.36, 10_000, 0.36, 0.02),
        (0.36, 10_000, 0.40, 0.02),
        (0.07, 5_000, 0.07, 0.01),
        (0.93, 5_000, 0.95, 0.01),
        # window 4..6; a window wider than [0, 1] is clipped to 0..10
        (0.36, 10, 0.5, 0.1),
        (0.36, 10, 0.5, 2.0),
        # windows that cut the bulk at large N
        (0.36, 10**6, 0.3605, 0.0005),
        (0.36, 10**7, 0.3601, 0.0001),
    ]
    for p, N, f, eps in cases:
        e = BornExperiment(p=p, N=N, f=f, epsilon=eps)
        snap = 2.0**-48 * max(1, (abs(f) + eps) * N)
        n_lo = math.ceil((f - eps) * N - snap)
        n_hi = math.floor((f + eps) * N + snap)
        oracle = binomial_window_oracle(p, N, max(n_lo, 0), min(n_hi, N))
        assert abs(overlap_exact(e) - oracle) <= 1e-12


def test_window_edges_stay_inside_the_interval_at_large_N():
    # the real interval is [499984189.3, 500015810.7]: counts 499984190 and
    # 500015810 are its edges, however far out N puts them
    e = BornExperiment(p=0.5, N=10**9, f=0.5, epsilon=1.58107e-05)
    inner = overlap_for_window(0.5, 10**9, ProjectorWindow(499984190, 500015810))
    assert overlap_exact(e) == inner
    assert abs(inner - 0.68266230302) <= 1e-8


def test_window_edge_snap_stays_below_half_a_replica():
    # at N = 2**52 a snap of 2**-48 (|f| + eps) N would be 12 replicas and
    # take 12 counts past each edge 2**50 and 3 * 2**50
    assert _window_bounds(0.5, 0.25, 2**52) == (2**50, 3 * 2**50)
    # below (|f| + eps) N = 2**47 the cap never binds: every window is the
    # one of the uncapped snap
    rng = np.random.default_rng(47)
    cases = [(0.5, 0.5, 2**47 - 1), (0.36, 0.02, 10**7)]
    for _ in range(2000):
        f = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.0, 1.0 - f)) or 1e-3
        cases.append((f, eps, int(2.0 ** rng.uniform(0.0, 47.0))))
    for f, eps, N in cases:
        snap = 2.0**-48 * max(1, (abs(f) + eps) * N)
        lo = max(math.ceil(max((f - eps) * N - snap, -1.0)), 0)
        hi = min(math.floor(min((f + eps) * N + snap, N + 1.0)), N)
        assert _window_bounds(f, eps, N) == (lo, hi), (f, eps, N)


def test_concentration_at_target_fraction():
    values = [
        overlap_exact(BornExperiment(p=0.36, N=N, f=0.36, epsilon=0.02))
        for N in (100, 1000, 10_000)
    ]
    assert values[0] <= values[1] <= values[2]
    assert values[2] >= 0.9999


def test_displaced_window_has_no_mass():
    e = BornExperiment(p=0.36, N=10_000, f=0.46, epsilon=0.02)
    assert overlap_exact(e) <= 1e-12
    assert convergence_scan(0.36, 0.46, 0.02, [10_000])[0].deviation >= 1.0 - 1e-12


def test_deviation_decreases_with_replicas():
    rows = convergence_scan(0.36, 0.36, 0.02, [100, 1000, 10_000])
    assert rows[0].deviation > rows[1].deviation > rows[2].deviation


def test_large_replica_count_is_stable():
    e = BornExperiment(p=0.36, N=10_000_000, f=0.36, epsilon=0.02)
    assert overlap_exact(e) == pytest.approx(1.0, abs=1e-12)


def test_hoeffding_envelope():
    epsilon = 0.02
    for p in (0.2, 0.36, 0.7):
        for f_shift in (0.0, 0.005):
            for row in convergence_scan(p, p + f_shift, epsilon, [100, 1000, 10_000]):
                bound = 2.0 * math.exp(-2.0 * row.N * (epsilon - abs(f_shift)) ** 2)
                assert row.deviation <= bound


def test_window_monotonicity():
    p = 0.3
    for N in (7, 40):
        for lo in range(0, N + 1):
            for hi in range(lo, N + 1):
                inner = overlap_for_window(p, N, ProjectorWindow(lo, hi))
                if lo > 0:
                    outer = overlap_for_window(p, N, ProjectorWindow(lo - 1, hi))
                    assert outer >= inner - 1e-15
                if hi < N:
                    outer = overlap_for_window(p, N, ProjectorWindow(lo, hi + 1))
                    assert outer >= inner - 1e-15


def test_gaussian_limit_values():
    # the whole real line
    assert overlap_gaussian(
        BornExperiment(p=0.5, N=100, f=0.5, epsilon=1.0)
    ) == pytest.approx(1.0, abs=1e-12)
    # one-sigma window mass
    p, N = 0.36, 400
    sigma = math.sqrt(p * (1 - p) / N)
    got = overlap_gaussian(BornExperiment(p=p, N=N, f=p, epsilon=sigma))
    assert got == pytest.approx(0.6826894921370859, abs=1e-12)
    with pytest.raises(ValueError):
        overlap_gaussian(BornExperiment(p=0.0, N=10, f=0.5, epsilon=0.5))


def test_gaussian_agrees_with_exact_at_large_N():
    e = BornExperiment(p=0.36, N=10_000, f=0.36, epsilon=0.02)
    assert abs(overlap_gaussian(e) - overlap_exact(e)) <= 0.01


def test_small_N_direct_examples():
    psi = normalize(WaveFunction(np.array([0.6, 0.8])))
    # N=1 with the single-count window is the detection probability itself
    assert small_N_direct(psi, 0, ProjectorWindow(1, 1), 1) == pytest.approx(
        0.36, abs=1e-14
    )
    assert small_N_direct(psi, 0, ProjectorWindow(0, 3), 3) == pytest.approx(
        1.0, abs=1e-12
    )
    # three ways to put two of three replicas at site 0: 3 * 0.36^2 * 0.64
    assert small_N_direct(psi, 0, ProjectorWindow(2, 2), 3) == pytest.approx(
        0.248832, abs=1e-14
    )


def test_small_N_direct_validation():
    psi = normalize(WaveFunction(np.array([0.6, 0.8])))
    with pytest.raises(ValueError):
        small_N_direct(psi, 0, ProjectorWindow(0, 1), 13)
    with pytest.raises(ValueError):
        small_N_direct(psi, 2, ProjectorWindow(0, 1), 2)
    with pytest.raises(ValueError):
        small_N_direct(WaveFunction(np.array([1.0, 1.0])), 0, ProjectorWindow(0, 1), 2)


def test_small_N_direct_matches_binomial():
    rng = np.random.default_rng(21)
    for _ in range(8):
        num_sites = int(rng.integers(2, 5))
        psi = random_state(num_sites, rng)
        k_site = int(rng.integers(0, num_sites))
        p = min(float(abs(psi.coeffs[k_site]) ** 2), 1.0)
        for N in (1, 3, 5):
            for lo in range(N + 1):
                for hi in range(lo, N + 1):
                    w = ProjectorWindow(lo, hi)
                    direct = small_N_direct(psi, k_site, w, N)
                    assert abs(direct - overlap_for_window(p, N, w)) <= 1e-12


def small_N_digit_loop(psi, k_site, window, N):
    """Reference: replica counts from the base-L digits of each configuration
    index, the first replica most significant."""
    probs = np.abs(product_state([psi] * N)) ** 2
    num_sites = psi.num_sites
    indices = np.arange(num_sites**N, dtype=np.int64)
    counts = np.zeros(indices.shape, dtype=np.int64)
    for position in range(N):
        counts += (indices // num_sites ** (N - 1 - position)) % num_sites == k_site
    return float(probs[(counts >= window.n_min) & (counts <= window.n_max)].sum())


def test_small_N_direct_counts_match_digit_loop():
    # same configurations, same order, same pairwise sum: bit-identical
    rng = np.random.default_rng(23)
    for num_sites in (2, 3, 4):
        for N in (1, 2, 5, 8):
            psi = random_state(num_sites, rng)
            k_site = int(rng.integers(0, num_sites))
            lo = int(rng.integers(0, N + 1))
            w = ProjectorWindow(lo, int(rng.integers(lo, N + 1)))
            assert small_N_direct(psi, k_site, w, N) == small_N_digit_loop(
                psi, k_site, w, N
            )


@pytest.mark.parametrize("num_sites, N", [(3, 11), (4, 10), (5, 9), (3, 1)])
def test_small_N_direct_block_seams_match_digit_loop(num_sites, N):
    # several blocks of rows and a partial last one (one block at N=1)
    rng = np.random.default_rng(24 + N)
    psi = random_state(num_sites, rng)
    k_site = int(rng.integers(0, num_sites))
    for lo, hi in ((0, N), (N // 3, (2 * N) // 3)):
        w = ProjectorWindow(lo, hi)
        assert small_N_direct(psi, k_site, w, N) == small_N_digit_loop(
            psi, k_site, w, N
        )
    # a window that no configuration reaches
    assert small_N_direct(psi, k_site, ProjectorWindow(N + 1, N + 1), N) == 0.0


@pytest.mark.parametrize("num_sites, N", [(300, 2), (40, 3), (4, 11)])
def test_small_N_direct_lead_and_rest_match_digit_loop(num_sites, N):
    # (300, 2): a block holds 218 leading entries, the last block fewer;
    # (40, 3): one block holds the whole tensor; (4, 11): the 64-entry
    # leading tensor outgrows a block, which holds one leading entry
    rng = np.random.default_rng(26 + N)
    psi = random_state(num_sites, rng)
    k_site = int(rng.integers(0, num_sites))
    for lo, hi in ((0, N), (N // 2, N // 2), (N + 1, N + 1)):
        w = ProjectorWindow(lo, hi)
        assert small_N_direct(psi, k_site, w, N) == small_N_digit_loop(
            psi, k_site, w, N
        )


@pytest.mark.parametrize("block_entries", [64, 2000, 90000])
@pytest.mark.parametrize("num_sites, N", [(300, 2), (40, 3)])
def test_small_N_direct_block_size_keeps_the_bits(
    monkeypatch, block_entries, num_sites, N
):
    # the block size moves the split between leading and trailing replicas,
    # never a product or the order of the sum.  At 90000 a block's first
    # level holds exactly num_sites entries of several rows (300 rows of
    # 300 sites; 40 rows of 40 sites), the first size folded by one multiply
    # per site rather than by the outer product
    rng = np.random.default_rng(27 + N)
    psi = random_state(num_sites, rng)
    w = ProjectorWindow(1, N)
    expected = small_N_digit_loop(psi, 0, w, N)
    monkeypatch.setattr(born, "_BLOCK_ENTRIES", block_entries)
    assert small_N_direct(psi, 0, w, N) == expected


def test_small_N_direct_memory_peak():
    # the 4^11-entry tensor alone takes 64 MiB; only the in-window moduli,
    # 8 bytes each, and one block of about 2^16 coefficients are ever live
    psi = random_state(4, np.random.default_rng(25))
    in_window = sum(math.comb(11, c) * 3 ** (11 - c) for c in (2, 3))
    tracemalloc.start()
    try:
        small_N_direct(psi, 0, ProjectorWindow(2, 3), 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * in_window + 4 * 2**20


def test_small_N_direct_at_replica_limit():
    rng = np.random.default_rng(22)
    psi = random_state(2, rng)
    p = min(float(abs(psi.coeffs[0]) ** 2), 1.0)
    for lo, hi in ((0, 12), (4, 7), (12, 12)):
        w = ProjectorWindow(lo, hi)
        assert abs(
            small_N_direct(psi, 0, w, 12) - overlap_for_window(p, 12, w)
        ) <= 1e-12


def test_convergence_scan():
    rows = convergence_scan(0.36, 0.36, 0.02, [100, 1000, 10_000])
    assert [r.N for r in rows] == [100, 1000, 10_000]
    assert rows[0].overlap_exact <= rows[1].overlap_exact <= rows[2].overlap_exact
    assert rows[-1].deviation == pytest.approx(1.0 - rows[-1].overlap_exact)
    displaced = convergence_scan(0.36, 0.46, 0.02, [100, 1000, 10_000])
    assert displaced[-1].overlap_exact <= 1e-12
    # a near-zero-width window at f=p passes a vanishing fraction of the mass
    strict = convergence_scan(0.5, 0.5, 1e-12, [100, 1000, 10_000])
    assert strict[0].overlap_exact > strict[1].overlap_exact > strict[2].overlap_exact
    with pytest.raises(ValueError):
        convergence_scan(0.5, 0.5, 0.1, [100, 10])
    # p = 0 or 1: the exact overlap is defined, the Gaussian limit is not
    for p, f in ((0.0, 0.01), (1.0, 0.99)):
        rows = convergence_scan(p, f, 0.02, [100, 1000])
        assert [(r.overlap_exact, r.overlap_gaussian) for r in rows] == [(1.0, None)] * 2
