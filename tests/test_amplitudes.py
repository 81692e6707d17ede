import csv
import importlib.util
import itertools
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

import amplab.amplitudes as amplitudes
import amplab.cli as cli
from amplab import (
    BruteForcePaths,
    EvalStrategy,
    Event,
    FilterSpec,
    Kernel,
    LatticeConfig,
    PathExplosionError,
    RecursiveDecompose,
    Setup,
    SetupError,
    SigmaInsert,
    TransferMatrix,
    amplitude,
    amplitude_bruteforce,
    and_compose,
    block_vectors,
    consistency_check,
    evaluate,
    make_tight_binding_kernel,
    or_compose,
    propagator,
    random_block,
    relative_deviation,
    save_kernel,
    save_setup,
    setup_block,
)
from amplab.amplitudes import NEAR_ZERO, _deviations
from amplab.cli import _fuzz_kernel, main
from amplab.setups import SIGMA_ROW

from genutil import (
    decompose_at,
    insert_sigma,
    random_and_pair,
    random_kernel,
    random_or_pair,
    random_setup,
    reject_constant,
)
from mutants import MUTANTS, TARGETS, Blind, breaches, column


def test_single_site_unit_kernel():
    kernel = Kernel(np.array([[1.0]], dtype=complex))
    setup = Setup(Event(0, 0), Event(0, 5))
    assert amplitude(setup, kernel) == 1.0
    assert amplitude_bruteforce(setup, kernel) == 1.0


def test_one_filter_path_product():
    config = LatticeConfig(3, 2, dt=0.3)
    kernel = make_tight_binding_kernel(config, hop=1.0)
    setup = Setup(Event(0, 0), Event(0, 2), (FilterSpec(1, (1,)),))
    expected = kernel.step[0, 1] * kernel.step[1, 0]
    assert amplitude(setup, kernel) == pytest.approx(expected, abs=1e-15)
    assert amplitude_bruteforce(setup, kernel) == pytest.approx(expected, abs=1e-15)


def test_sum_rule_for_arbitrary_kernel():
    rng = np.random.default_rng(2)
    kernel = random_kernel(5, rng)
    a = Setup(Event(0, 0), Event(4, 3), (FilterSpec(1, (1,)),))
    b = Setup(Event(0, 0), Event(4, 3), (FilterSpec(1, (3,)),))
    merged = or_compose(a, b)
    lhs = amplitude(merged, kernel)
    rhs = amplitude(a, kernel) + amplitude(b, kernel)
    assert relative_deviation(lhs, rhs) <= 1e-12


def test_block_vectors_hold_every_detector_site():
    rng = np.random.default_rng(6)
    config = LatticeConfig(num_sites=5, num_steps=4)
    kernel = random_kernel(config.num_sites, rng)
    # a filter at every interior time
    filters = (FilterSpec(1, (3, 4)), FilterSpec(2, (0, 1, 2)), FilterSpec(3, (0, 1, 2, 3)))
    setup = Setup(Event(4, 0), Event(0, 4), filters)
    vector = block_vectors(setup_block([setup], config.num_sites), kernel)
    assert vector.shape == (config.num_sites, 1)
    for x in range(config.num_sites):
        moved = Setup(setup.source, Event(x, setup.detector.time), setup.filters)
        # amplitude() is the block core's entry, bit for bit
        assert np.complex128(amplitude(moved, kernel)).tobytes() == vector[x, 0].tobytes()
        assert relative_deviation(vector[x, 0], amplitude_bruteforce(moved, kernel)) <= 1e-12


def test_blocking_filter_gives_zero():
    rng = np.random.default_rng(4)
    kernel = random_kernel(4, rng)
    setup = Setup(Event(0, 0), Event(1, 3), (FilterSpec(1, ()),))
    assert amplitude(setup, kernel) == 0
    assert amplitude_bruteforce(setup, kernel) == 0


def test_bare_setup_equals_propagator_element():
    rng = np.random.default_rng(5)
    kernel = random_kernel(4, rng)
    setup = Setup(Event(2, 0), Event(1, 4))
    matrix_power = propagator(kernel, 0, 4)[1, 2]
    assert relative_deviation(amplitude_bruteforce(setup, kernel), matrix_power) <= 1e-12


def test_bruteforce_crossvalidates_transfer_matrix():
    rng_struct = random.Random(17)
    rng_mat = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        num_sites = rng_struct.randint(2, 5)
        num_steps = rng_struct.randint(1, 5)
        kernel = random_kernel(num_sites, rng_mat)
        source = Event(rng_struct.randrange(num_sites), 0)
        detector = Event(rng_struct.randrange(num_sites), num_steps)
        filters = []
        for t in range(1, num_steps):
            if rng_struct.random() < 0.5:
                k = rng_struct.randint(1, num_sites)
                filters.append(
                    FilterSpec(t, tuple(rng_struct.sample(range(num_sites), k)))
                )
        setup = Setup(source, detector, tuple(filters))
        worst = max(
            worst,
            relative_deviation(
                amplitude(setup, kernel), amplitude_bruteforce(setup, kernel)
            ),
        )
    assert worst <= 1e-10


def test_path_guard():
    rng = np.random.default_rng(6)
    kernel = random_kernel(4, rng)
    setup = Setup(Event(0, 0), Event(0, 9))
    with pytest.raises(PathExplosionError):
        amplitude_bruteforce(setup, kernel, max_paths=1000)


def test_lattice_mismatch_rejected():
    rng = np.random.default_rng(7)
    kernel = random_kernel(3, rng)
    with pytest.raises(SetupError):
        amplitude(Setup(Event(5, 0), Event(0, 2)), kernel)
    with pytest.raises(SetupError):
        amplitude(
            Setup(Event(0, 0), Event(0, 2), (FilterSpec(1, (3,)),)), kernel
        )


def test_sigma_insertion_preserves_amplitude():
    rng = np.random.default_rng(8)
    kernel = random_kernel(4, rng)
    setup = Setup(Event(0, 0), Event(2, 4), (FilterSpec(2, (1, 2)),))
    base = amplitude(setup, kernel)
    widened = insert_sigma(setup, 1, kernel.num_sites)
    assert relative_deviation(amplitude(widened, kernel), base) <= 1e-12


def test_product_rule_via_decomposition():
    rng = np.random.default_rng(9)
    kernel = random_kernel(4, rng)
    setup = Setup(
        Event(0, 0), Event(2, 5), (FilterSpec(2, (3,)), FilterSpec(4, (0, 1)))
    )
    earlier, later = decompose_at(setup, 2)
    product = amplitude(earlier, kernel) * amplitude(later, kernel)
    assert relative_deviation(amplitude(setup, kernel), product) <= 1e-12


def test_sum_rule_on_random_pairs():
    config = LatticeConfig(6, 5)
    rng_struct = random.Random(23)
    kernel = random_kernel(6, np.random.default_rng(23))
    for _ in range(100):
        a, b = random_or_pair(config, rng_struct)
        lhs = amplitude(or_compose(a, b), kernel)
        rhs = amplitude(a, kernel) + amplitude(b, kernel)
        assert relative_deviation(lhs, rhs) <= 1e-12


def test_product_rule_on_random_pairs():
    config = LatticeConfig(6, 5)
    rng_struct = random.Random(27)
    kernel = random_kernel(6, np.random.default_rng(27))
    for _ in range(100):
        earlier, later = random_and_pair(config, rng_struct)
        lhs = amplitude(and_compose(earlier, later), kernel)
        rhs = amplitude(earlier, kernel) * amplitude(later, kernel)
        assert relative_deviation(lhs, rhs) <= 1e-12


def test_distributivity_of_amplitudes():
    rng = np.random.default_rng(31)
    kernel = random_kernel(4, rng)
    junction = Event(2, 2)
    b = Setup(Event(0, 0), junction, (FilterSpec(1, (0,)),))
    c = Setup(Event(0, 0), junction, (FilterSpec(1, (1,)),))
    a = Setup(junction, Event(3, 4))
    lhs = amplitude(and_compose(or_compose(b, c), a), kernel)
    rhs = amplitude(
        or_compose(and_compose(b, a), and_compose(c, a)), kernel
    )
    assert relative_deviation(lhs, rhs) <= 1e-12


def test_relative_deviation_metric():
    assert relative_deviation(1.0, 1.0) == 0.0
    assert relative_deviation(2.0, 1.0) == 0.5
    # interference-cancelled values compare absolutely
    assert relative_deviation(1e-16, 0.0) == pytest.approx(1e-16)
    assert relative_deviation(1e-13, 2e-13) == pytest.approx(0.5)
    # |1.5e308 (1 + i)| is past the float range, so abs() of it raises
    big = complex(1.5e308, 1.5e308)
    assert relative_deviation(big, big) == 0.0
    # a real difference at that size is measured, not hidden by an inf modulus
    other = complex(1.0e308, 1.5e308)
    expected = abs(0.5e308 / 4) / abs(big / 4)
    assert relative_deviation(big, other) == pytest.approx(expected, rel=1e-15)
    assert relative_deviation(other, big) == pytest.approx(expected, rel=1e-15)
    # opposite values: their difference overflows at full size
    assert relative_deviation(big, -big) == pytest.approx(2.0, rel=1e-15)


def scalar_relative_deviation(z1: complex, z2: complex) -> float:
    """The scalar rule that ``_deviations`` replaced, kept as its reference:
    Python complex ``abs``, retried at a quarter of the size on an
    ``OverflowError``.  ``abs`` of a value with a NaN part leaves errno as
    it was, so after an overflow it raises again at every size: NaN first
    and an overflowing modulus second recurse without end."""
    try:
        m = max(abs(z1), abs(z2))
        if m <= NEAR_ZERO:
            return abs(z1 - z2)
        return abs(z1 - z2) / m
    except OverflowError:
        return scalar_relative_deviation(
            complex(z1.real / 4, z1.imag / 4), complex(z2.real / 4, z2.imag / 4)
        )


def same_float(a: float, b: float) -> bool:
    """Equal bit for bit, or both NaN: a NaN's sign bit is written nowhere."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_nan_against_an_overflowing_modulus_is_nan():
    big = complex(1.5e308, 1.5e308)
    assert math.isnan(relative_deviation(complex(math.nan, 0.0), big))
    assert math.isnan(relative_deviation(big, complex(math.nan, 0.0)))

    class NanValue(EvalStrategy):
        label = "nan"

        def values(self, block, kernel):
            return np.full(len(block), complex(math.nan, 0.0))

    class BigValue(EvalStrategy):
        label = "big"

        def values(self, block, kernel):
            return np.full(len(block), big)

    kernel = random_kernel(3, np.random.default_rng(79))
    setups = [Setup(Event(0, 0), Event(x, 4)) for x in range(3)]
    for strategies, pair in [((TransferMatrix(), NanValue(), BigValue()), 2),
                             ((BigValue(), NanValue(), TransferMatrix()), 0)]:
        report = consistency_check(setup_block(setups, 3), kernel, strategies)
        assert math.isnan(report.max_deviation)
        assert np.isnan(report.deviations[:, pair]).all()  # on every setup


def test_array_rule_equals_the_scalar_rule():
    # every pair of edge values, both orders, but those on which the scalar
    # rule recurses: there the array rule gives NaN
    big, inf, nan = 1.5e308, math.inf, math.nan
    edge = [
        0j, complex(-0.0, -0.0), complex(0.0, -0.0), 1e-15 + 0j, complex(3e-15, -4e-15),
        5e-324 + 0j, complex(0.0, 5e-324), 1 + 0j, complex(0.5, -2.0), complex(big, big),
        complex(-big, -big), complex(big, -big), complex(inf, 0.0), complex(-inf, 1.0),
        complex(nan, 0.0), complex(0.0, nan), complex(inf, nan),
    ]
    z1, z2 = map(np.array, zip(*itertools.product(edge, repeat=2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0 / 0, inf - inf and overflow are silent
        got = _deviations(z1, z2).tolist()
    recursing = 0
    for a, b, dev in zip(z1.tolist(), z2.tolist(), got):
        abs(1j)  # clears the errno that an earlier overflow left
        try:
            expected = scalar_relative_deviation(a, b)
        except RecursionError:
            recursing += 1
            assert math.isnan(dev), (a, b)
            continue
        assert same_float(dev, expected), (a, b, dev, expected)
    assert recursing == 6  # two NaN values against three overflowing moduli
    # random pairs over the whole float range, most of them close together
    rng = np.random.default_rng(83)
    n = 20_000
    with np.errstate(all="ignore"):  # values past the float range are inf or NaN
        z1 = 10.0 ** rng.uniform(-320, 308, n) * np.exp(2j * np.pi * rng.random(n))
        parts = rng.uniform(1.2e308, 1.79e308, (2, n // 10)) * rng.choice([-1, 1], (2, n // 10))
        z1[::10] = parts[0] + 1j * parts[1]  # moduli past the float range
        z2 = z1 * (1 + 10.0 ** rng.uniform(-17, 0, n) * np.exp(2j * np.pi * rng.random(n)))
        z2[::7] *= 10.0 ** rng.uniform(-5, 5, len(z2[::7]))
    got = _deviations(z1, z2).tolist()
    for a, b, dev in zip(z1.tolist(), z2.tolist(), got):
        assert same_float(dev, scalar_relative_deviation(a, b)), (a, b)


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "7", "--count", "1000"],
        ["--L", "16", "--T", "24", "--max-filters", "8", "--seed", "5000000", "--count", "3000"],
    ],
    ids=["default", "long"],
)
def test_fuzz_rows_follow_the_scalar_rule(argv, tmp_path, monkeypatch):
    # every CSV row is the scalar rule on the values of its setup's pair,
    # in setup order and then combinations order of the strategies that ran,
    # and no numpy warning is raised
    checked = []
    original = cli.consistency_check
    monkeypatch.setattr(
        cli, "consistency_check", lambda *args: checked.append(original(*args)) or checked[-1]
    )
    out = tmp_path / "fz"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fuzz", *argv, "--out", str(out)]) == 0
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = []
    seed = int(argv[argv.index("--seed") + 1])
    for report in checked:
        for b, values in enumerate(report.values.tolist()):
            ran = [(label, z) for label, z in zip(report.labels, values)
                   if b not in report.skipped[label]]
            for (a, za), (c, zc) in itertools.combinations(ran, 2):
                expected.append([str(seed), f"{a}|{c}", scalar_relative_deviation(za, zc)])
            seed += 1
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    assert all(same_float(float(row[2]), dev) for row, (_, _, dev) in zip(rows, expected))
    assert any(dev > 0 for _, _, dev in expected)


def test_evaluate_dispatch_and_labels():
    rng = np.random.default_rng(12)
    kernel = random_kernel(3, rng)
    setup = Setup(Event(0, 0), Event(2, 3), (FilterSpec(1, (1,)),))
    reference = amplitude(setup, kernel)
    strategies = (TransferMatrix(), BruteForcePaths(), RecursiveDecompose(), SigmaInsert())
    for strategy in strategies:
        values = evaluate(setup_block([setup, setup], 3), kernel, strategy)
        assert values.shape == (2,)
        assert all(relative_deviation(v, reference) <= 1e-12 for v in values)
    with pytest.raises(TypeError):
        evaluate(setup_block([setup], 3), kernel, "transfer")  # type: ignore[arg-type]
    # the benchmark tracer attributes time to a strategy by its label
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert sorted(s.label for s in strategies) == sorted(spans.STRATEGIES)


def test_consistency_check_fuzz():
    config = LatticeConfig(8, 6)
    kernel = make_tight_binding_kernel(
        LatticeConfig(8, 6, dt=0.35),
        hop=1.0,
        onsite=0.5 * np.sin(2 * np.pi * np.arange(8) / 8),
    )
    strategies = (
        TransferMatrix(),
        RecursiveDecompose(),
        SigmaInsert(),
        BruteForcePaths(),
    )
    # one setup a call; np.max keeps a NaN, where max() would drop it
    worst = np.max([
        consistency_check(random_block(config, (seed,), 3), kernel, strategies).max_deviation
        for seed in range(100)
    ])
    assert worst <= 1e-10


def test_consistency_check_needs_two_strategies():
    rng = np.random.default_rng(13)
    kernel = random_kernel(3, rng)
    block = setup_block([Setup(Event(0, 0), Event(2, 2))], 3)
    with pytest.raises(ValueError):
        consistency_check(block, kernel, (TransferMatrix(),))


def test_block_report_labels_pairs_and_values():
    rng = np.random.default_rng(14)
    kernel = random_kernel(3, rng)
    setup = Setup(Event(0, 0), Event(2, 2))
    strategies = (TransferMatrix(), BruteForcePaths())
    checked = consistency_check(setup_block([setup], 3), kernel, strategies)
    assert checked.labels == ("transfer_matrix", "brute_force")
    assert checked.pairs == [("transfer_matrix", "brute_force")]
    assert checked.values[0, checked.labels.index("transfer_matrix")] == amplitude(setup, kernel)


def bruteforce_reference(setup, kernel):
    """The path sum built from an array of every path, in
    ``itertools.product`` order: one product of step entries per path,
    summed once.  The reference for the layered path sum in
    ``amplitude_bruteforce``."""
    allowed = []
    for t in range(setup.source.time + 1, setup.detector.time):
        f = setup.filter_at(t)
        allowed.append(f.holes if f is not None else tuple(range(kernel.num_sites)))
    sizes = [len(sites) for sites in allowed]
    if 0 in sizes:
        return 0j  # a blocking filter kills every path
    # the C order of np.indices is itertools.product order: path i takes
    # site index[j, i] of layer j
    index = np.indices(sizes).reshape(len(sizes), math.prod(sizes))
    paths = np.array(
        [np.array(sites, dtype=np.intp)[i] for sites, i in zip(allowed, index)],
        dtype=np.intp,
    ).reshape(len(allowed), math.prod(sizes)).T
    step = kernel.step
    amps = np.ones(len(paths), dtype=complex)
    prev = np.full(len(paths), setup.source.site, dtype=np.intp)
    for col in range(paths.shape[1]):
        amps *= step[paths[:, col], prev]
        prev = paths[:, col]
    amps *= step[setup.detector.site, prev]
    return complex(amps.sum())


def test_path_sum_matches_reference_on_default_fuzz_setups():
    # the 1000 setups of ``amplab fuzz`` at its defaults
    config = LatticeConfig(8, 6)
    kernel = _fuzz_kernel(config)
    worst = 0.0
    for seed in range(1000):
        setup = random_setup(config, seed, max_filters=3)
        worst = max(
            worst,
            relative_deviation(
                amplitude_bruteforce(setup, kernel), bruteforce_reference(setup, kernel)
            ),
        )
    assert worst <= 1e-13


def test_path_sum_matches_reference_on_non_symmetric_kernels():
    # the fuzz kernel is symmetric, so only a non-symmetric kernel tells
    # step[site, prev] from step[prev, site]
    rng_struct = random.Random(41)
    rng_mat = np.random.default_rng(41)
    worst = 0.0
    worst_transposed = 0.0
    for _ in range(300):
        num_sites = rng_struct.randint(3, 6)
        num_steps = rng_struct.randint(2, 6)
        kernel = random_kernel(num_sites, rng_mat)
        setup = random_setup(
            LatticeConfig(num_sites, num_steps), rng_struct, max_filters=num_steps - 1
        )
        expected = bruteforce_reference(setup, kernel)
        worst = max(worst, relative_deviation(amplitude_bruteforce(setup, kernel), expected))
        transposed = amplitude_bruteforce(setup, Kernel(kernel.step.T))
        worst_transposed = max(worst_transposed, relative_deviation(transposed, expected))
    assert worst <= 1e-13
    assert worst_transposed > 1e-3


def test_path_sum_edge_cases():
    kernel = random_kernel(4, np.random.default_rng(43))
    # no intermediate time: the single path is one step entry
    assert amplitude_bruteforce(Setup(Event(1, 0), Event(3, 1)), kernel) == kernel.step[3, 1]
    # a blocking filter between open layers
    blocked = Setup(Event(0, 0), Event(2, 4), (FilterSpec(2, ()),))
    assert amplitude_bruteforce(blocked, kernel) == 0
    # the guard admits exactly max_paths paths: 4 ** 3 here
    bare = Setup(Event(0, 0), Event(2, 4))
    value = amplitude_bruteforce(bare, kernel, max_paths=64)
    assert relative_deviation(value, bruteforce_reference(bare, kernel)) <= 1e-13
    with pytest.raises(PathExplosionError):
        amplitude_bruteforce(bare, kernel, max_paths=63)


def test_path_sum_join_matches_reference(monkeypatch):
    # long setups on non-symmetric kernels: the join lands on an interior
    # layer, and both the head and the tail grow through several layers
    grown = []
    original = amplitudes._grow_paths
    monkeypatch.setattr(
        amplitudes,
        "_grow_paths",
        lambda step, start, layers: grown.append(len(layers))
        or original(step, start, layers),
    )
    rng_struct = random.Random(53)
    rng_mat = np.random.default_rng(53)
    worst = 0.0
    interior_joins = 0
    for num_sites, max_steps in ((3, 10), (4, 8)):
        for num_steps in range(3, max_steps + 1):
            for _ in range(6):
                kernel = random_kernel(num_sites, rng_mat)
                setup = random_setup(
                    LatticeConfig(num_sites, num_steps),
                    rng_struct,
                    max_filters=num_steps - 1,
                )
                grown.clear()
                value = amplitude_bruteforce(setup, kernel)
                expected = bruteforce_reference(setup, kernel)
                worst = max(worst, relative_deviation(value, expected))
                interior_joins += len(grown) == 2 and min(grown) >= 2
    assert worst <= 1e-13
    assert interior_joins >= 20


def test_path_sum_join_edge_cases():
    kernel = random_kernel(4, np.random.default_rng(59))
    # the cheapest join is a one-hole filter: 4 * 4 * 1 head and 1 * 4 * 4
    # tail paths
    narrow = Setup(Event(0, 0), Event(2, 6), (FilterSpec(3, (2,)),))
    expected = bruteforce_reference(narrow, kernel)
    assert relative_deviation(amplitude_bruteforce(narrow, kernel), expected) <= 1e-13
    # a blocking filter in the head or in the tail kills every path
    for t in (1, 5):
        blocked = Setup(Event(0, 0), Event(2, 6), (FilterSpec(t, ()),))
        assert amplitude_bruteforce(blocked, kernel) == 0
        assert bruteforce_reference(blocked, kernel) == 0
    # the detector one step after the source: one step entry, no join
    one_step = Setup(Event(2, 3), Event(0, 4))
    assert amplitude_bruteforce(one_step, kernel) == kernel.step[0, 2]
    # one and two intermediate layers, the last the smallest join
    for detector_time in (2, 3):
        short = Setup(Event(1, 0), Event(3, detector_time), (FilterSpec(1, (0, 2)),))
        expected = bruteforce_reference(short, kernel)
        assert relative_deviation(amplitude_bruteforce(short, kernel), expected) <= 1e-13


def test_consistency_check_records_skipped_oracle(monkeypatch):
    kernel = random_kernel(4, np.random.default_rng(47))
    block = setup_block([Setup(Event(0, 0), Event(3, 9))], 4)  # 4 ** 8 paths
    calls = []
    original = amplitudes.block_vectors
    monkeypatch.setattr(
        amplitudes, "block_vectors", lambda *args: calls.append(1) or original(*args)
    )
    strategies = (
        TransferMatrix(),
        RecursiveDecompose(),
        SigmaInsert(),
        BruteForcePaths(max_paths=100),
    )
    checked = consistency_check(block, kernel, strategies)
    assert checked.skipped == {
        "transfer_matrix": {},
        "decompose_all": {},
        "sigma_all": {},
        "brute_force": {0: "path count exceeds guard of 100 paths"},
    }
    # the three pairs of the strategies that ran
    assert [pair for pair, ran in zip(checked.pairs, checked.compared[0]) if ran] == [
        ("transfer_matrix", "decompose_all"),
        ("transfer_matrix", "sigma_all"),
        ("decompose_all", "sigma_all"),
    ]
    # no filter to split at and no retry: one core call per strategy that
    # uses the core; the path sum never calls it
    assert len(calls) == 3
    with pytest.raises(ValueError):
        consistency_check(block, kernel, (TransferMatrix(), BruteForcePaths(max_paths=100)))


@pytest.fixture(scope="module")
def alarm_argv(tmp_path_factory):
    """The argv of each target of the mutant catalogue; the amplitude setup
    and the default fuzz kernel are written once."""
    path = tmp_path_factory.mktemp("alarm")
    save_kernel(_fuzz_kernel(LatticeConfig(8, 6)), path / "kernel.json")
    setup = Setup(Event(2, 0), Event(5, 6), (FilterSpec(2, (1, 4, 6)), FilterSpec(4, (0, 3, 5))))
    save_setup(setup, path / "setup.json")
    return {
        "fuzz-default": ["fuzz", "--count", "50"],
        "fuzz-long": ["fuzz", "--count", "50", "--L", "16", "--T", "24", "--max-filters", "8",
                      "--seed", "5000000"],
        "amplitude": ["amplitude", "--setup", str(path / "setup.json"),
                      "--kernel", str(path / "kernel.json")],
    }


def _alarm(argv, out):
    """The exit code of one run, its pairs over 1e-10 and its worst pair."""
    code = main(argv + ["--out", str(out)])
    if argv[0] == "amplitude":
        rows = json.loads(Path(f"{out}.json").read_text())["pair_deviations"].items()
        worst = max(rows, key=lambda row: row[1])[0]
    else:
        with open(f"{out}.csv", newline="") as fh:
            rows = [(pair, float(dev)) for _, pair, dev in list(csv.reader(fh))[1:]]
        worst = json.loads(Path(f"{out}.manifest.json").read_text())["worst_pair"]
    return code, {pair for pair, dev in rows if dev > 1e-10}, worst


def test_every_target_passes_unmutated(alarm_argv, tmp_path):
    for target, argv in alarm_argv.items():
        assert _alarm(argv, tmp_path / target)[:2] == (0, set()), target


_CELLS = [
    pytest.param(name, target, id=f"{name}-{target}", marks=pytest.mark.xfail(
        strict=True, reason=cell, raises=AssertionError) if isinstance(cell, Blind) else ())
    for name, (_, *cells) in MUTANTS.items()
    for target, cell in zip(TARGETS, cells)
]


@pytest.mark.parametrize("name, target", _CELLS)
def test_alarm_coverage(name, target, alarm_argv, tmp_path, monkeypatch, capsys):
    # a firing cell exits 2 with exactly its pairs over 1e-10, the worst among
    # them; a blind cell fails here until a new check sees its defect, then
    # passes as a strict XPASS and is written as a firing cell
    patch, *cells = MUTANTS[name]
    cell = cells[TARGETS.index(target)]
    monkeypatch.setattr(*patch)
    code, pairs, worst = _alarm(alarm_argv[target], tmp_path / "out")
    assert code == 2 and "consistency violation" in capsys.readouterr().err
    assert pairs == (pairs if isinstance(cell, Blind) else breaches(cell))
    assert worst in pairs
    # the manifest's one check failed, and a fuzz check names the worst pair
    [check] = json.loads((tmp_path / "out.manifest.json").read_text())["checks"]
    assert (check["name"], check["passed"]) == ("consistency", False)
    assert check.get("pair", worst) == worst


def test_every_mutant_moves_a_value(monkeypatch):
    # a blind cell misses a real defect, never a patch that changes nothing:
    # on a kernel that is not its own transpose and a batch of mixed spans
    # with single- and multi-hole filters, built under the patch, each mutant
    # moves some strategy's value
    kernel = random_kernel(8, np.random.default_rng(61))
    strategies = (TransferMatrix(), RecursiveDecompose(), SigmaInsert(), BruteForcePaths())

    def values():
        batch = [
            Setup(Event(1, 0), Event(6, 5), (FilterSpec(2, (0, 3, 5)), FilterSpec(3, (4,)))),
            Setup(Event(3, 1), Event(2, 4), (FilterSpec(2, (1, 2, 6, 7)),)),
            Setup(Event(0, 2), Event(5, 7), (FilterSpec(4, (2,)), FilterSpec(5, (1, 3)))),
        ]
        return consistency_check(setup_block(batch, 8), kernel, strategies).values.ravel().tolist()

    clean = values()
    for name, (patch, *_) in MUTANTS.items():
        with monkeypatch.context() as m:
            m.setattr(*patch)
            moved = max(map(relative_deviation, values(), clean))
        assert moved > 1e-10, name


def test_each_column_equals_its_batch_of_one():
    kernel = _fuzz_kernel(LatticeConfig(5, 9))
    everywhere = tuple(range(5))
    batch = [
        Setup(Event(0, 0), Event(3, 6), (FilterSpec(2, (1, 4)), FilterSpec(4, (2,)))),
        Setup(Event(4, 2), Event(1, 5), (FilterSpec(3, everywhere),)),
        Setup(Event(2, 1), Event(2, 7), (FilterSpec(4, ()),)),  # blocking
        Setup(Event(3, 4), Event(0, 5)),  # one step
        Setup(Event(1, 3), Event(4, 9), (FilterSpec(5, (0, 2, 3)), FilterSpec(8, everywhere))),
    ]
    vectors = block_vectors(setup_block(batch, 5), kernel)
    assert vectors.shape == (5, len(batch))
    assert not vectors[:, 2].any()
    for b, setup in enumerate(batch):
        alone = block_vectors(setup_block([setup], 5), kernel)[:, 0]
        assert np.linalg.norm(vectors[:, b] - alone) <= 1e-15 * np.linalg.norm(alone)
        # the batch of one is the loop reference, all-holes filters skipped
        inert = [f for f in setup.filters if len(f.holes) < 5]
        reference = column(kernel, setup.source.site, setup.source.time, setup.detector.time, inert)
        assert alone.tobytes() == reference.tobytes()


@pytest.mark.parametrize("num_sites", [5, 8, 16, 64])
def test_a_column_does_not_depend_on_the_spans_of_its_batch(num_sites):
    # every step multiplies every column, so a column's bits depend only on
    # the width of its batch, never on when its neighbour starts or stops
    kernel = _fuzz_kernel(LatticeConfig(num_sites, 12))
    a = Setup(Event(1, 0), Event(3, 12), (FilterSpec(4, (0, 2, 3)), FilterSpec(9, (1,))))
    b = Setup(Event(2, 0), Event(0, 12), (FilterSpec(6, (1, 4)),))
    neighbours = {
        "shorter": Setup(Event(2, 0), Event(0, 7), (FilterSpec(3, (1, 4)),)),
        "later": Setup(Event(2, 5), Event(0, 12), (FilterSpec(6, (1, 4)),)),
        "same span": Setup(Event(4, 0), Event(1, 12), (FilterSpec(2, (0, 3)),)),
    }
    column = block_vectors(setup_block([a, b], num_sites), kernel)[:, 0].tobytes()
    for name, c in neighbours.items():
        vectors = block_vectors(setup_block([a, c], num_sites), kernel)
        assert vectors[:, 0].tobytes() == column, name


@pytest.mark.parametrize("num_sites, num_steps, max_filters", [(8, 6, 3), (16, 24, 8)])
def test_explicit_all_holes_filters_leave_detector_vector_unchanged(
    num_sites, num_steps, max_filters
):
    # the two fuzz shapes; an all-holes filter is inert, so adding one at
    # every free time leaves every byte of the detector vector as it was
    config = LatticeConfig(num_sites, num_steps)
    kernel = _fuzz_kernel(config)
    everywhere = tuple(range(num_sites))
    setups, widened = [], []
    for seed in range(100):
        setup = random_setup(config, seed, max_filters)
        free = set(range(1, num_steps)) - set(setup.filter_times)
        sigmas = tuple(FilterSpec(t, everywhere) for t in sorted(free))
        setups.append(setup)
        widened.append(Setup(setup.source, setup.detector, setup.filters + sigmas))
        assert len(widened[-1].filters) == num_steps - 1
    # as one batch, as the fuzz evaluates them, and as a batch of one
    for batch in (slice(None), slice(7, 8)):
        assert (
            block_vectors(setup_block(widened[batch], num_sites), kernel).tobytes()
            == block_vectors(setup_block(setups[batch], num_sites), kernel).tobytes()
        )


def test_sigma_filters_open_every_site_and_share_the_sigma_row():
    # insert_sigma opens every site at each time it is given
    config = LatticeConfig(16, 24)
    setup = Setup(Event(3, 0), Event(5, 24), (FilterSpec(4, (1, 2)),))
    widened = insert_sigma(setup, [2, 7, 23], 16)
    for t in (2, 7, 23):
        assert widened.filter_at(t) == FilterSpec(t, tuple(range(16)))
    # the block that sigma_all evaluates: every sigma filter of every column
    # points at the one all-holes row, and the table gains no row
    block = random_block(config, range(300), 8)
    wide = block.widened()
    assert wide.masks is block.masks
    assert (block.masks[SIGMA_ROW] == 1).all() and SIGMA_ROW not in block.row
    sigma = wide.row == SIGMA_ROW
    assert sigma.sum() == 300 * 23 - len(block.row)
    assert np.array_equal(np.bincount(wide.column, minlength=300), np.full(300, 23))
    assert np.array_equal(wide.row[~sigma], block.row)
    assert (np.diff(wide.time * 300 + wide.column) > 0).all()  # by time, then column
    # and each widened column is its setup with insert_sigma at every free time
    for drawn, drawn_wide in zip(block.setups(), wide.setups(), strict=True):
        free = sorted(set(range(1, 24)) - set(drawn.filter_times))
        assert drawn_wide == insert_sigma(drawn, free, 16)


def test_fuzz_keeps_a_nan_deviation_as_its_worst(tmp_path, monkeypatch, capsys):
    # NaN from the production core on every column that starts at the site
    # where setup 10 starts, so a NaN falls at or before the middle of the
    # run; the finite deviations of later setups must not replace it as the
    # worst
    setups = random_block(LatticeConfig(8, 6), range(20), 3).setups()
    site = setups[10].source.site
    original = amplitudes.block_vectors

    def nan_at_site(block, kernel):
        psi = original(block, kernel)
        psi[:, block.src == site] *= np.nan
        return psi

    def starts_a_column_at_site(setup):
        # transfer_matrix and sigma_all start their column at the source, and
        # decompose_all starts one more part at each single-hole filter
        return setup.source.site == site or any(f.holes == (site,) for f in setup.filters)

    monkeypatch.setattr(amplitudes, "block_vectors", nan_at_site)
    out = tmp_path / "fz"
    assert main(["fuzz", "--count", "20", "--out", str(out)]) == 2
    assert "max deviation nan" in capsys.readouterr().out
    nan_seeds = [seed for seed, setup in enumerate(setups) if starts_a_column_at_site(setup)]
    first_nan = nan_seeds[0]
    assert first_nan <= 10 and len(nan_seeds) < 20 - first_nan  # finite setups follow it
    manifest = json.loads(
        Path(f"{out}.manifest.json").read_text(), parse_constant=reject_constant
    )
    assert manifest["worst_deviation"] is None  # strict JSON: NaN is null
    assert manifest["worst_seed"] == first_nan


def test_a_setup_far_in_time_is_its_shift_to_time_zero():
    # a block counts every time from its setup's source: nothing is indexed
    # by absolute time, so a setup at time 1e9 evaluates bit for bit as the
    # same setup at time 0
    kernel = random_kernel(6, np.random.default_rng(67))

    def at(t0):
        filters = (FilterSpec(t0 + 2, (1, 3)), FilterSpec(t0 + 4, (5,)),
                   FilterSpec(t0 + 5, tuple(range(6))))
        return Setup(Event(2, t0), Event(4, t0 + 7), filters)

    far, near = at(10**9), at(0)
    assert np.complex128(amplitude(far, kernel)).tobytes() == np.complex128(
        amplitude(near, kernel)
    ).tobytes()
    blocks = [setup_block([setup], 6) for setup in (far, near)]
    assert blocks[0].stop.tolist() == [7] and blocks[0].time.tolist() == [2, 4, 5]
    vectors = [block_vectors(block, kernel).tobytes() for block in blocks]
    assert vectors[0] == vectors[1]
    strategies = (TransferMatrix(), RecursiveDecompose(), SigmaInsert(), BruteForcePaths())
    values = [consistency_check(block, kernel, strategies).values[0] for block in blocks]
    assert values[0].shape == (4,) and values[0].tobytes() == values[1].tobytes()


@pytest.mark.parametrize(
    "num_sites, num_steps, max_paths", [(4, 9, 1024), (6, 7, 6**5), (6, 7, 6**5 - 1), (3, 12, 1000)]
)
def test_the_path_guard_skips_exactly_where_the_path_sum_raises(
    monkeypatch, num_sites, num_steps, max_paths
):
    # a block on both sides of the guard, some setups exactly at it and some
    # with a blocking filter after the count has passed it: the skipped
    # setups are those for which amplitude_bruteforce raises, with its text,
    # and the path sum runs on each of the others and raises on none
    kernel = random_kernel(num_sites, np.random.default_rng(num_sites))
    config = LatticeConfig(num_sites, num_steps)
    bare = Setup(Event(0, 0), Event(1, num_steps))
    late_block = Setup(Event(0, 0), Event(1, num_steps), (FilterSpec(num_steps - 1, ()),))
    first_block = Setup(Event(0, 0), Event(1, num_steps), (FilterSpec(1, ()),))
    setups = [
        bare, late_block, first_block,
        *random_block(config, range(300), num_steps - 1).setups(),
    ]
    expected = {}
    for b, setup in enumerate(setups):
        try:
            amplitude_bruteforce(setup, kernel, max_paths)
        except PathExplosionError as exc:
            expected[b] = str(exc)
    assert (1 in expected) == (num_sites ** (num_steps - 2) > max_paths) and 2 not in expected
    assert 0 < len(expected) < len(setups) - 10
    calls = []
    original = amplitudes.amplitude_bruteforce
    monkeypatch.setattr(
        amplitudes, "amplitude_bruteforce", lambda s, *rest: calls.append(s) or original(s, *rest)
    )
    strategies = (TransferMatrix(), SigmaInsert(), BruteForcePaths(max_paths=max_paths))
    checked = consistency_check(setup_block(setups, num_sites), kernel, strategies)
    assert checked.skipped["brute_force"] == expected
    assert calls == [s for b, s in enumerate(setups) if b not in expected]


def test_fuzz_takes_a_path_guard_past_int64(tmp_path, capsys):
    # the guard is a Python int of any size: 2**64 admits every default
    # setup, and no int64 overflows on the way
    out = tmp_path / "fz"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fuzz", "--count", "20", "--max-paths", str(2**64), "--out", str(out)])
    assert code == 0
    assert "brute_force ran on 20/20 setups\n" in capsys.readouterr().out
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["brute_force_ran"] == 20 and manifest["skipped_reasons"] == {}


@pytest.mark.parametrize(
    "num_sites, stop, filters",
    [(3, 32, ()), (16, 24, ()), (5, 40, (FilterSpec(11, tuple(range(5))),))],
    ids=["3-32", "16-24", "5-40-all-holes"],
)
def test_the_path_guard_counts_paths_exactly(num_sites, stop, filters):
    # a setup with no filter that closes a site has num_sites ** (stop - 1)
    # paths: a sum of log2 hole counts does not tell 3**31 from a guard of
    # 3**31 - 1; 16**23 = 2**92 is past int64, and a float count does not
    # tell it from 2**92 - 1; nor does a float hole count tell 5**39 from
    # 5**39 - 1
    paths = num_sites ** (stop - 1)
    setup = Setup(Event(0, 0), Event(1, stop), filters)
    block = setup_block([setup], num_sites)
    reason = f"path count exceeds guard of {paths - 1} paths"
    kernel = random_kernel(num_sites, np.random.default_rng(73))
    with pytest.raises(PathExplosionError, match=reason):
        amplitude_bruteforce(setup, kernel, paths - 1)
    assert BruteForcePaths(max_paths=paths - 1).skipped(block) == {0: reason}
    assert BruteForcePaths(max_paths=paths).skipped(block) == {}


@pytest.mark.parametrize("max_paths", [0, -1])
def test_a_guard_below_one_path_skips_as_the_path_sum_raises(max_paths):
    # the path sum counts nothing without a layer, and 0 paths after a
    # blocking first layer, which only a negative guard refuses
    kernel = random_kernel(4, np.random.default_rng(79))
    setups = [
        Setup(Event(0, 0), Event(1, 1)),
        Setup(Event(0, 0), Event(1, 4), (FilterSpec(1, ()),)),
        Setup(Event(0, 0), Event(1, 4), (FilterSpec(3, ()),)),
        Setup(Event(0, 0), Event(1, 4), (FilterSpec(2, (1,)),)),
    ]
    expected = {}
    for b, setup in enumerate(setups):
        try:
            amplitude_bruteforce(setup, kernel, max_paths)
        except PathExplosionError as exc:
            expected[b] = str(exc)
    assert sorted(expected) == ([1, 2, 3] if max_paths < 0 else [2, 3])
    assert BruteForcePaths(max_paths=max_paths).skipped(setup_block(setups, 4)) == expected
