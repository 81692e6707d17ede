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
from amplab.lattice import mask_vector

from genutil import random_and_pair, random_kernel, random_or_pair, reject_constant


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


def test_fuzz_exits_2_on_conjugated_path_sum(tmp_path, monkeypatch, capsys):
    # a path sum on the conjugated (time-reversed) kernel must trip the alarm
    original = amplitudes.amplitude_bruteforce
    monkeypatch.setattr(
        amplitudes,
        "amplitude_bruteforce",
        lambda setup, kernel, *rest: original(setup, Kernel(kernel.step.conj()), *rest),
    )
    out = tmp_path / "fz"
    assert main(["fuzz", "--count", "10", "--out", str(out)]) == 2
    assert "consistency violation" in capsys.readouterr().err
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    breaches = {pair for _, pair, dev in rows if float(dev) > 1e-10}
    assert breaches
    assert all("brute_force" in pair.split("|") for pair in breaches)
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert "brute_force" in manifest["worst_pair"].split("|")


def _by_column(column_vector):
    """A batched ``detector_vector`` that computes each column on its own by
    ``column_vector(setup, kernel)``: the loop reference of the batch axis."""

    def batched(setups, kernel):
        return np.column_stack([column_vector(setup, kernel) for setup in setups])

    return batched


def _column(source, start, stop, filters, kernel, state_map=lambda psi: psi):
    """One column of the transfer core, stepped from ``start`` to ``stop``,
    with each filter of ``filters`` at its time, all-holes ones included."""
    by_time = {f.time: f for f in filters}
    psi = np.zeros(kernel.num_sites, dtype=complex)
    psi[source] = 1.0
    for t in range(start + 1, stop + 1):
        psi = state_map(kernel.step @ psi)
        f = by_time.get(t)
        if f is not None:
            psi = psi * mask_vector(kernel.num_sites, f.holes)
    return psi


def _mutant_detector_vector(defect):
    """``detector_vector`` with one planted defect, applied column by column:
    the mask applied before the step, each filter applied one step late, or
    the first hole of each filter dropped."""

    @_by_column
    def mutant(setup, kernel):
        num_sites = kernel.num_sites
        by_time = {f.time: f for f in setup.filters}
        psi = np.zeros(num_sites, dtype=complex)
        psi[setup.source.site] = 1.0
        for t in range(setup.source.time + 1, setup.detector.time + 1):
            f = by_time.get(t - 1 if defect == "late" else t)
            holes = () if f is None else f.holes[1:] if defect == "drop" else f.holes
            mask = mask_vector(num_sites, holes) if f is not None else 1.0
            if defect == "before":
                psi = kernel.step @ (psi * mask)
            else:
                psi = (kernel.step @ psi) * mask
        return psi

    return mutant


@pytest.mark.parametrize("defect", ["before", "late", "drop"])
def test_fuzz_exits_2_on_production_core_mutants(defect, tmp_path, monkeypatch, capsys):
    # amplitude(), the decomposition and the sigma insertion all run through
    # the mutant; only the path sum, which never calls it, can see it
    monkeypatch.setattr(amplitudes, "detector_vector", _mutant_detector_vector(defect))
    out = tmp_path / "fz"
    assert main(["fuzz", "--count", "50", "--out", str(out)]) == 2
    assert "consistency violation" in capsys.readouterr().err
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    breaches = {pair for _, pair, dev in rows if float(dev) > 1e-10}
    assert "transfer_matrix|brute_force" in breaches


@pytest.mark.parametrize("defect", ["before", "late", "drop"])
def test_amplitude_exits_2_on_production_core_mutants(defect, tmp_path, monkeypatch, capsys):
    kernel_path, setup_path = tmp_path / "kernel.json", tmp_path / "setup.json"
    save_kernel(_fuzz_kernel(LatticeConfig(8, 6)), kernel_path)
    setup = Setup(Event(2, 0), Event(5, 6), (FilterSpec(2, (1, 4, 6)), FilterSpec(4, (0, 3, 5))))
    save_setup(setup, setup_path)
    argv = ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)]
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(amplitudes, "detector_vector", _mutant_detector_vector(defect))
    assert main(argv + ["--out", str(tmp_path / "amp")]) == 2
    assert "consistency violation" in capsys.readouterr().err
    payload = json.loads((tmp_path / "amp.json").read_text())
    assert payload["skipped"] == {}
    assert payload["pair_deviations"]["transfer_matrix|brute_force"] > 1e-10


_NONLINEAR_MAPS = {
    "kerr": lambda psi: psi * np.exp(-0.01j * np.abs(psi) ** 2),
    "norm": lambda psi: psi / np.linalg.norm(psi),
    "cubic": lambda psi: psi + 0.01 * psi * np.abs(psi) ** 2,
}

_FUZZ_SHAPES = {
    "default": [],
    "long": ["--L", "16", "--T", "24", "--max-filters", "8", "--seed", "5000000"],
}


@pytest.mark.parametrize("shape", sorted(_FUZZ_SHAPES))
@pytest.mark.parametrize("nonlinear", sorted(_NONLINEAR_MAPS))
def test_fuzz_exits_2_on_nonlinear_evolution(nonlinear, shape, tmp_path, monkeypatch, capsys):
    # the paper's consequence that nonlinear variants of quantum mechanics are
    # inconsistent: a step followed by a nonlinear map breaks the product rule,
    # so splitting at a single-hole filter no longer reproduces the amplitude
    state_map = _NONLINEAR_MAPS[nonlinear]

    @_by_column
    def nonlinear_detector_vector(setup, kernel):
        return _column(
            setup.source.site, setup.source.time, setup.detector.time,
            setup.filters, kernel, state_map,
        )

    monkeypatch.setattr(amplitudes, "detector_vector", nonlinear_detector_vector)
    out = tmp_path / "fz"
    argv = ["fuzz", "--count", "50", *_FUZZ_SHAPES[shape], "--out", str(out)]
    assert main(argv) == 2
    assert "consistency violation" in capsys.readouterr().err
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    breaches = {pair for _, pair, dev in rows if float(dev) > 1e-10}
    assert "transfer_matrix|decompose_all" in breaches


def _batching_mutant(defect):
    """A batched ``detector_vector`` with one batching defect, computed column
    by column: every column started at the block's earliest source time,
    every column read at the block's latest detector time, or each column
    masked by the filters of its neighbouring column."""

    def mutant(setups, kernel):
        start = min(setup.source.time for setup in setups)
        stop = max(setup.detector.time for setup in setups)
        columns = []
        for b, setup in enumerate(setups):
            neighbour = setups[(b + 1) % len(setups)]
            columns.append(
                _column(
                    setup.source.site,
                    start if defect == "start" else setup.source.time,
                    stop if defect == "read" else setup.detector.time,
                    neighbour.filters if defect == "neighbour" else setup.filters,
                    kernel,
                )
            )
        return np.column_stack(columns)

    return mutant


@pytest.mark.parametrize("shape", sorted(_FUZZ_SHAPES))
@pytest.mark.parametrize("defect", ["start", "read", "neighbour"])
def test_fuzz_exits_2_on_batching_mutants(defect, shape, tmp_path, monkeypatch, capsys):
    # the transfer and sigma batches hold setups of one span, so a wrong
    # start or read time shows only in the decomposition, whose parts each
    # have their own span; a mask on the wrong column breaks every batch
    monkeypatch.setattr(amplitudes, "detector_vector", _batching_mutant(defect))
    out = tmp_path / "fz"
    argv = ["fuzz", "--count", "50", *_FUZZ_SHAPES[shape], "--out", str(out)]
    assert main(argv) == 2
    assert "consistency violation" in capsys.readouterr().err
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    breaches = {pair for _, pair, dev in rows if float(dev) > 1e-10}
    if defect == "neighbour":
        assert breaches
    else:
        assert breaches == {pair for _, pair, _ in rows if "decompose_all" in pair}


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
        reference = _column(setup.source.site, setup.source.time, setup.detector.time, inert, kernel)
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


@pytest.mark.parametrize("shape", sorted(_FUZZ_SHAPES))
def test_fuzz_exits_2_on_sigma_filter_missing_a_hole(shape, tmp_path, monkeypatch, capsys):
    # an inserted sigma filter without site 0 is no longer inert, so its mask
    # is applied; only the sigma_all strategy runs through it.  At the long
    # shape brute force is skipped, and sigma_all alone sees the dropped hole
    def insert_sigma_dropping_a_hole(setup, times, num_sites):
        widened = insert_sigma(setup, times, num_sites)
        filters = tuple(
            f if f in setup.filters else FilterSpec(f.time, f.holes[1:])
            for f in widened.filters
        )
        return Setup(setup.source, setup.detector, filters)

    monkeypatch.setattr(amplitudes, "insert_sigma", insert_sigma_dropping_a_hole)
    out = tmp_path / "fz"
    argv = ["fuzz", "--count", "50", *_FUZZ_SHAPES[shape], "--out", str(out)]
    assert main(argv) == 2
    assert "consistency violation" in capsys.readouterr().err
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    breaches = {pair for _, pair, dev in rows if float(dev) > 1e-10}
    expected = {"transfer_matrix|sigma_all", "decompose_all|sigma_all"}
    if shape == "default":
        expected.add("sigma_all|brute_force")
    assert breaches == expected
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert "sigma_all" in manifest["worst_pair"].split("|")


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
