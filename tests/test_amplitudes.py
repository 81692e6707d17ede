import csv
import importlib.util
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import amplab.amplitudes as amplitudes
from amplab import (
    BruteForcePaths,
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
    consistency_check,
    decompose_at,
    detector_vector,
    evaluate,
    insert_sigma,
    make_tight_binding_kernel,
    or_compose,
    propagator,
    random_setup,
    relative_deviation,
    save_kernel,
    save_setup,
)
from amplab.cli import _fuzz_kernel, main
from amplab.setups import _sigma_filter

from genutil import random_and_pair, random_kernel, random_or_pair, reject_constant
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


def test_detector_vector_holds_every_detector_site():
    rng = np.random.default_rng(6)
    config = LatticeConfig(num_sites=5, num_steps=4)
    kernel = random_kernel(config.num_sites, rng)
    setup = random_setup(config, 6, max_filters=3)
    assert len(setup.filters) == 3
    vector = detector_vector([setup], kernel)
    assert vector.shape == (config.num_sites, 1)
    for x in range(config.num_sites):
        moved = Setup(setup.source, Event(x, setup.detector.time), setup.filters)
        assert vector[x, 0] == amplitude(moved, kernel)
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


def test_evaluate_dispatch_and_labels():
    rng = np.random.default_rng(12)
    kernel = random_kernel(3, rng)
    setup = Setup(Event(0, 0), Event(2, 3), (FilterSpec(1, (1,)),))
    reference = amplitude(setup, kernel)
    strategies = (TransferMatrix(), BruteForcePaths(), RecursiveDecompose(), SigmaInsert())
    for strategy in strategies:
        values = evaluate([setup, setup], kernel, strategy)
        assert values.shape == (2,)
        assert all(relative_deviation(v, reference) <= 1e-12 for v in values)
    with pytest.raises(TypeError):
        evaluate([setup], kernel, "transfer")  # type: ignore[arg-type]
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
    worst = 0.0
    for seed in range(100):
        setup = random_setup(config, seed, 3)
        report = consistency_check(setup, kernel, strategies)
        worst = max(worst, report.max_deviation)
    assert worst <= 1e-10


def test_consistency_check_needs_two_strategies():
    rng = np.random.default_rng(13)
    kernel = random_kernel(3, rng)
    setup = Setup(Event(0, 0), Event(2, 2))
    with pytest.raises(ValueError):
        consistency_check(setup, kernel, (TransferMatrix(),))


def test_one_setup_is_a_block_of_one():
    kernel = random_kernel(4, np.random.default_rng(15))
    setup = Setup(
        Event(1, 0), Event(2, 5), (FilterSpec(2, (3,)), FilterSpec(3, (0, 1, 2)))
    )
    strategies = (TransferMatrix(), RecursiveDecompose(), SigmaInsert(), BruteForcePaths())
    single = consistency_check(setup, kernel, strategies)
    block = consistency_check([setup], kernel, strategies)
    assert single.reports == block.reports
    assert single.max_deviation == block.max_deviation
    assert list(single.reports[0].values) == [s.label for s in strategies]


def test_consistency_report_value_lookup():
    rng = np.random.default_rng(14)
    kernel = random_kernel(3, rng)
    setup = Setup(Event(0, 0), Event(2, 2))
    strategies = (TransferMatrix(), BruteForcePaths())
    (report,) = consistency_check(setup, kernel, strategies).reports
    assert report.values["transfer_matrix"] == amplitude(setup, kernel)
    with pytest.raises(KeyError):
        report.values["unknown"]


def bruteforce_reference(setup, kernel):
    """The path sum built from an ``itertools.product`` list of every path:
    one product of step entries per path, summed once.  The reference for
    the layered path sum in ``amplitude_bruteforce``."""
    allowed = []
    for t in range(setup.source.time + 1, setup.detector.time):
        f = setup.filter_at(t)
        allowed.append(f.holes if f is not None else tuple(range(kernel.num_sites)))
    paths = list(itertools.product(*allowed))
    if not paths:
        return 0j  # a blocking filter kills every path
    paths = np.array(paths, dtype=np.intp).reshape(len(paths), len(allowed))
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
    setup = Setup(Event(0, 0), Event(3, 9))  # 4 ** 8 paths
    calls = []
    original = amplitudes.detector_vector
    monkeypatch.setattr(
        amplitudes, "detector_vector", lambda *args: calls.append(1) or original(*args)
    )
    strategies = (
        TransferMatrix(),
        RecursiveDecompose(),
        SigmaInsert(),
        BruteForcePaths(max_paths=100),
    )
    (report,) = consistency_check(setup, kernel, strategies).reports
    assert report.skipped == {"brute_force": "path count exceeds guard of 100 paths"}
    assert list(report.values) == [
        "transfer_matrix",
        "decompose_all",
        "sigma_all",
    ]
    assert len(report.pair_deviations) == 3
    # no filter to split at and no retry: one core call per strategy that
    # uses the core; the path sum never calls it
    assert len(calls) == 3
    with pytest.raises(ValueError):
        consistency_check(setup, kernel, (TransferMatrix(), BruteForcePaths(max_paths=100)))


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
        reports = consistency_check(batch, kernel, strategies).reports
        return [value for report in reports for value in report.values.values()]

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
    vectors = detector_vector(batch, kernel)
    assert vectors.shape == (5, len(batch))
    assert not vectors[:, 2].any()
    for b, setup in enumerate(batch):
        alone = detector_vector([setup], kernel)[:, 0]
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
    column = detector_vector([a, b], kernel)[:, 0].tobytes()
    for name, c in neighbours.items():
        assert detector_vector([a, c], kernel)[:, 0].tobytes() == column, name


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
            detector_vector(widened[batch], kernel).tobytes()
            == detector_vector(setups[batch], kernel).tobytes()
        )


def test_sigma_filters_are_built_once_per_time_and_lattice_size(tmp_path):
    # the memo's keys are the interior times 1..23 of T = 24 at L = 16,
    # however many setups the fuzz widens
    _sigma_filter.cache_clear()
    sizes = []
    for count in ("10", "300"):
        out = tmp_path / f"fz{count}"
        argv = ["fuzz", "--L", "16", "--T", "24", "--max-filters", "8"]
        assert main(argv + ["--count", count, "--out", str(out)]) == 0
        sizes.append(_sigma_filter.cache_info().currsize)
    assert 0 < sizes[0] <= sizes[1] <= 23
    setup = Setup(Event(3, 0), Event(5, 24), (FilterSpec(4, (1, 2)),))
    widened = insert_sigma(setup, [2, 7, 23], 16)
    for t in (2, 7, 23):
        assert widened.filter_at(t) == FilterSpec(t, tuple(range(16)))
    assert insert_sigma(setup, 7, 16).filter_at(7) is widened.filter_at(7)


def test_fuzz_keeps_a_nan_deviation_as_its_worst(tmp_path, monkeypatch, capsys):
    # NaN from the production core on setups with the source at site 0; the
    # finite deviations of later setups must not replace it as the worst
    original = amplitudes.detector_vector

    def nan_at_site_0(setups, kernel):
        psi = original(setups, kernel)
        at_0 = [b for b, setup in enumerate(setups) if setup.source.site == 0]
        psi[:, at_0] *= np.nan
        return psi

    monkeypatch.setattr(amplitudes, "detector_vector", nan_at_site_0)
    out = tmp_path / "fz"
    assert main(["fuzz", "--count", "20", "--out", str(out)]) == 2
    assert "max deviation nan" in capsys.readouterr().out
    first_nan = next(
        seed for seed in range(20) if random_setup(LatticeConfig(8, 6), seed, 3).source.site == 0
    )
    assert first_nan < 19  # finite setups follow it
    manifest = json.loads(
        Path(f"{out}.manifest.json").read_text(), parse_constant=reject_constant
    )
    assert manifest["worst_deviation"] is None  # strict JSON: NaN is null
    assert manifest["worst_seed"] == first_nan
