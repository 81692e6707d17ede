"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import random

import numpy as np

from amplab import (
    BinaryOpSampler,
    BornExperiment,
    BruteForcePaths,
    LatticeConfig,
    NonAssociativeError,
    ProjectorWindow,
    RecursiveDecompose,
    SigmaInsert,
    TransferMatrix,
    additivity_residual,
    amplitude,
    associativity_residual,
    catalog_op,
    consistency_check,
    kernel_from_hamiltonian,
    make_tight_binding_kernel,
    or_compose,
    overlap_exact,
    overlap_for_window,
    overlap_gaussian,
    product_rule_residual,
    recover_regrade,
    relative_deviation,
    setup_block,
    small_N_direct,
    tight_binding_hamiltonian,
)

from genutil import (
    CompositeSetup,
    Hamiltonian,
    affine_fit_deviation,
    and_compose,
    composite_amplitude,
    increasing_inverse,
    insert_sigma,
    linearity_check,
    masked_kernel,
    random_and_pair,
    random_kernel,
    random_or_pair,
    random_setup,
    random_state,
    schrodinger_residual,
)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def fuzz_kernel(num_sites: int, num_steps: int):
    config = LatticeConfig(num_sites, num_steps, dt=0.35)
    onsite = 0.5 * np.sin(2.0 * np.pi * np.arange(num_sites) / num_sites)
    return make_tight_binding_kernel(config, hop=1.0, onsite=onsite)


def test_criterion_01_consistency_fuzz():
    config = LatticeConfig(8, 6)
    kernel = fuzz_kernel(8, 6)
    strategies = (
        TransferMatrix(),
        RecursiveDecompose(),
        SigmaInsert(),
        BruteForcePaths(),
    )
    # one block: its max_deviation is NaN if any deviation is
    setups = [random_setup(config, 7 + i, 3) for i in range(1000)]
    worst = consistency_check(setup_block(setups, 8), kernel, strategies).max_deviation
    check(
        "criterion 1 consistency fuzz",
        worst <= 1e-10,
        f"1000 setups L=8 T=6 seed 7, max pairwise deviation {worst:.3e} (tol 1e-10)",
    )


def test_criterion_02_sum_and_product_rules():
    config = LatticeConfig(8, 6)
    kernel = random_kernel(8, np.random.default_rng(7))
    rng = random.Random(7)
    worst_sum = 0.0
    for _ in range(500):
        a, b = random_or_pair(config, rng)
        dev = relative_deviation(
            amplitude(or_compose(a, b), kernel),
            amplitude(a, kernel) + amplitude(b, kernel),
        )
        worst_sum = max(worst_sum, dev)
    worst_prod = 0.0
    for _ in range(500):
        earlier, later = random_and_pair(config, rng)
        dev = relative_deviation(
            amplitude(and_compose(earlier, later), kernel),
            amplitude(earlier, kernel) * amplitude(later, kernel),
        )
        worst_prod = max(worst_prod, dev)
    check(
        "criterion 2 sum and product rules",
        worst_sum <= 1e-12 and worst_prod <= 1e-12,
        f"500 or-pairs max {worst_sum:.3e}, 500 and-pairs max {worst_prod:.3e} "
        "(tol 1e-12)",
    )


def test_criterion_03_sigma_invariance():
    config = LatticeConfig(8, 6)
    kernel = fuzz_kernel(8, 6)
    worst = 0.0
    for seed in range(200):
        setup = random_setup(config, 1000 + seed, 3)
        base = amplitude(setup, kernel)
        widened = setup
        occupied = set(setup.filter_times)
        for t in range(1, config.num_steps):
            if t not in occupied:
                widened = insert_sigma(widened, t, config.num_sites)
        worst = max(worst, relative_deviation(amplitude(widened, kernel), base))
    check(
        "criterion 3 sigma invariance",
        worst <= 1e-12,
        f"200 setups, all admissible sigma insertions, max deviation {worst:.3e} "
        "(tol 1e-12)",
    )


def test_criterion_04_linearity_and_schrodinger_order():
    num_sites = 16
    config = LatticeConfig(num_sites, 4, dt=0.3)
    unitary = make_tight_binding_kernel(
        config, hop=1.0, onsite=np.cos(np.arange(num_sites))
    )
    rng = np.random.default_rng(16)
    struct = random.Random(16)
    worst_lin = 0.0
    for draw in range(1000):
        kernel = unitary
        if draw % 2 == 1:
            holes = tuple(
                struct.sample(range(num_sites), struct.randint(1, num_sites))
            )
            kernel = masked_kernel(unitary, holes)
        psi1, psi2 = random_state(num_sites, rng), random_state(num_sites, rng)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        worst_lin = max(worst_lin, linearity_check(kernel, psi1, psi2, alpha, beta))
    h_matrix = tight_binding_hamiltonian(num_sites, hop=1.0, onsite=0.0)
    hamiltonian = Hamiltonian(h_matrix)
    psi = random_state(num_sites, np.random.default_rng(3))
    ratios = []
    for dt in (1e-1, 1e-2, 1e-3):
        r_full = schrodinger_residual(
            psi, hamiltonian, kernel_from_hamiltonian(h_matrix, dt=dt), dt=dt
        )
        r_half = schrodinger_residual(
            psi, hamiltonian, kernel_from_hamiltonian(h_matrix, dt=dt / 2), dt=dt / 2
        )
        ratios.append(r_half / r_full)
    order_ok = all(0.4 <= r <= 0.6 for r in ratios)
    check(
        "criterion 4 linearity and first-order generator",
        worst_lin <= 1e-12 and order_ok,
        f"1000 draws L=16 (masked included) max {worst_lin:.3e} (tol 1e-12); "
        f"half-step residual ratios {[f'{r:.3f}' for r in ratios]} in [0.4, 0.6]",
    )


def test_criterion_05_born_concentration():
    inside = [
        overlap_exact(BornExperiment(p=0.36, N=N, f=0.36, epsilon=0.02))
        for N in (100, 1000, 10_000)
    ]
    monotone = inside[0] <= inside[1] <= inside[2]
    concentrated = inside[2] >= 0.9999
    displaced = overlap_exact(BornExperiment(p=0.36, N=10_000, f=0.46, epsilon=0.02))
    e_large = BornExperiment(p=0.36, N=10_000, f=0.36, epsilon=0.02)
    gauss_gap = abs(overlap_gaussian(e_large) - overlap_exact(e_large))
    check(
        "criterion 5 Born concentration",
        monotone and concentrated and displaced <= 1e-12 and gauss_gap <= 0.01,
        f"overlaps {[f'{v:.6f}' for v in inside]} ascending, last >= 0.9999; "
        f"displaced window {displaced:.3e} <= 1e-12; Gaussian gap {gauss_gap:.3e} "
        "<= 0.01",
    )


def test_criterion_06_small_N_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        num_sites = int(rng.integers(2, 5))
        psi = random_state(num_sites, rng)
        k_site = int(rng.integers(0, num_sites))
        p = min(float(abs(psi.coeffs[k_site]) ** 2), 1.0)
        for N in range(1, 9):
            for lo in range(N + 1):
                for hi in range(lo, N + 1):
                    window = ProjectorWindow(lo, hi)
                    gap = abs(
                        small_N_direct(psi, k_site, window, N)
                        - overlap_for_window(p, N, window)
                    )
                    worst = max(worst, gap)
    check(
        "criterion 6 small-N tensor oracle",
        worst <= 1e-12,
        f"50 states L<=4, N<=8, all windows: max |direct - binomial| {worst:.3e} "
        "(tol 1e-12)",
    )


def test_criterion_07_single_replica_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        num_sites = int(rng.integers(2, 9))
        psi = random_state(num_sites, rng)
        k_site = int(rng.integers(0, num_sites))
        p = float(abs(psi.coeffs[k_site]) ** 2)
        got = small_N_direct(psi, k_site, ProjectorWindow(1, 1), 1)
        worst = max(worst, abs(got - p))
    check(
        "criterion 7 single-replica detection probability",
        worst <= 1e-14,
        f"50 states: max ||A_k|^2 - overlap| {worst:.3e} (tol 1e-14)",
    )


def eta_round_trip_deviation(seed: int) -> float:
    rng = random.Random(seed)
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.0, 1.0)
    g = rng.uniform(0.0, 1.0)

    def eta(u):
        return a * u + b * u * u + g * u**3

    def fn(u, v):
        return increasing_inverse(eta, eta(u) + eta(v), 0.0, 16.0)

    sampler = BinaryOpSampler(fn=fn, domain=(0.4, 1.4), grid_n=128)
    result = recover_regrade(sampler)
    n = len(result.u_grid)
    interior = slice(n // 10, n - n // 10)
    return affine_fit_deviation(
        eta(result.u_grid[interior]), result.xi_values[interior]
    )


def test_criterion_08_regrade_recovery():
    add = catalog_op("add")
    add_result = recover_regrade(add)
    add_assoc = associativity_residual(add)
    add_res = additivity_residual(add_result, add)
    # "exactly zero" is realized at double-precision rounding: addition of
    # grid floats is not bitwise associative
    add_ok = add_assoc <= 1e-15 and add_res <= 1e-15

    cubic = catalog_op("cubic-mean")
    cubic_result = recover_regrade(cubic)
    cubic_ok = (
        associativity_residual(cubic) <= 1e-12
        and additivity_residual(cubic_result, cubic) <= 1e-6
        and affine_fit_deviation(cubic_result.u_grid**3, cubic_result.xi_values)
        <= 1e-6
    )

    shift = catalog_op("uv-shift")
    shift_result = recover_regrade(shift)
    shift_ok = (
        associativity_residual(shift) <= 1e-12
        and additivity_residual(shift_result, shift) <= 1e-6
        and affine_fit_deviation(
            np.log1p(shift_result.u_grid), shift_result.xi_values
        )
        <= 1e-6
    )

    round_trip = max(eta_round_trip_deviation(seed) for seed in range(20))
    rejected = False
    try:
        recover_regrade(catalog_op("broken-assoc"))
    except NonAssociativeError:
        rejected = True

    check(
        "criterion 8 regrade recovery",
        add_ok and cubic_ok and shift_ok and round_trip <= 1e-5 and rejected,
        f"add residuals ({add_assoc:.2e}, {add_res:.2e}) at machine zero; "
        f"cubic-mean and uv-shift within 1e-6 of analytic regrades; "
        f"20 round-trips max affine deviation {round_trip:.3e} (tol 1e-5); "
        f"non-associative input rejected: {rejected}",
    )


def test_criterion_09_product_rule_uniqueness():
    product = product_rule_residual(catalog_op("product"))
    product_ok = (
        product.passes(1e-12)
        and abs(product.c_fit - 1.0) <= 1e-12
        and product.fit_residual <= 1e-8
    )
    addition = product_rule_residual(
        BinaryOpSampler(
            fn=lambda u, v: u + v, domain=(0.0, 2.0)
        )
    )
    shifted = product_rule_residual(
        BinaryOpSampler(
            fn=lambda u, v: u * v + 0.1, domain=(0.0, 1.0)
        )
    )
    addition_fails = (
        max(
            addition.left_distributivity,
            addition.right_distributivity,
            addition.associativity,
        )
        >= 0.05
    )
    shifted_fails = (
        max(
            shifted.left_distributivity,
            shifted.right_distributivity,
            shifted.associativity,
        )
        >= 0.05
    )
    check(
        "criterion 9 product-rule uniqueness",
        product_ok and addition_fails and shifted_fails,
        f"u*v residuals at zero with C={product.c_fit:.12f}; u+v worst residual "
        f"{addition.left_distributivity:.3f} >= 0.05; u*v+0.1 worst residual "
        f"{max(shifted.left_distributivity, shifted.right_distributivity):.3f} "
        ">= 0.05",
    )


def test_criterion_10_composite_systems():
    config = LatticeConfig(5, 4)
    rng_mat = np.random.default_rng(10)
    rng = random.Random(10)
    worst_product = 0.0
    for i in range(200):
        setup_a = random_setup(config, rng, 2)
        setup_b = random_setup(config, rng, 2)
        kernel_a = random_kernel(5, rng_mat)
        kernel_b = random_kernel(5, rng_mat)
        combined = composite_amplitude(
            CompositeSetup(((setup_a, kernel_a), (setup_b, kernel_b)))
        )
        parts = amplitude(setup_a, kernel_a) * amplitude(setup_b, kernel_b)
        worst_product = max(worst_product, relative_deviation(combined, parts))
    worst_bilinear = 0.0
    for i in range(200):
        a1, a2 = random_or_pair(config, rng)
        setup_b = random_setup(config, rng, 2)
        kernel_a = random_kernel(5, rng_mat)
        kernel_b = random_kernel(5, rng_mat)
        merged = composite_amplitude(
            CompositeSetup(((or_compose(a1, a2), kernel_a), (setup_b, kernel_b)))
        )
        split = composite_amplitude(
            CompositeSetup(((a1, kernel_a), (setup_b, kernel_b)))
        ) + composite_amplitude(CompositeSetup(((a2, kernel_a), (setup_b, kernel_b))))
        worst_bilinear = max(worst_bilinear, relative_deviation(merged, split))
    check(
        "criterion 10 composite systems",
        worst_product <= 1e-12 and worst_bilinear <= 1e-12,
        f"200 composites: product gap {worst_product:.3e}, or-bilinearity gap "
        f"{worst_bilinear:.3e} (tol 1e-12)",
    )
