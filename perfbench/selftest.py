"""Self-test of the benchmark, on shrunken workloads.

    python3 -m pytest -q perfbench/selftest.py

It shows that the correctness gate fails a planted defect, that the oracle
coverage figure sees a skipped brute-force oracle, that traced self times add
up to the traced wall time, and that seeds give reproducible, disjoint inputs.
The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run.import_program()

import amplab.amplitudes as amplitudes  # noqa: E402
import amplab.cli as cli  # noqa: E402
import amplab.lattice as lattice  # noqa: E402
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
from amplab.lattice import Kernel  # noqa: E402
from reference import MIXES  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    chain,
    fuzz_long,
    fuzz_oracle,
    replica,
    ring_propagator_column,
)

SMALL = {
    "fuzz-oracle": lambda seed, work: fuzz_oracle(seed, work, setups=30, chunk=15),
    "fuzz-long": lambda seed, work: fuzz_long(seed, work, setups=60, chunk=30),
    "replica": lambda seed, work: replica(seed, work, born_scans=1),
    "chain": lambda seed, work: chain(seed, work, grid_n=512),
}


@pytest.fixture
def work():
    path = run.OUT / "selftest-work"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _fail_frac(runner: run.Runner) -> float:
    return len(runner.failures) / runner.attempted


def _one_pass(runner: run.Runner) -> None:
    for op in runner.ops:
        runner.run(op, [])


def test_clean_fuzz_oracle_passes_with_full_coverage(work):
    runner = run.Runner(SMALL["fuzz-oracle"](1, work), MIXES["fuzz-oracle"])
    _one_pass(runner)
    assert _fail_frac(runner) == 0.0
    assert runner.stats["oracle_coverage"] == [1.0, 1.0]


@pytest.mark.parametrize(
    "mutant",
    [
        # time-reversed kernel in the path sum: the fuzz kernel is symmetric,
        # so a transposed step[prev, cur] would equal the original; its
        # conjugate does not
        lambda original: lambda setup, kernel, *rest: original(
            setup, Kernel(kernel.step.conj()), *rest
        ),
        # path sum that drops the first hole of every filter
        lambda original: lambda setup, kernel, *rest: original(
            setup.__class__(
                setup.source,
                setup.detector,
                tuple(f.__class__(f.time, f.holes[1:] or f.holes) for f in setup.filters),
            ),
            kernel,
            *rest,
        ),
    ],
    ids=["conjugated-kernel", "dropped-hole"],
)
def test_planted_path_sum_defect_raises_fail_frac(work, monkeypatch, mutant):
    monkeypatch.setattr(
        amplitudes, "amplitude_bruteforce", mutant(amplitudes.amplitude_bruteforce)
    )
    runner = run.Runner(SMALL["fuzz-oracle"](1, work), MIXES["fuzz-oracle"])
    _one_pass(runner)
    assert _fail_frac(runner) == 1.0
    assert "exit code 2" in runner.failures[0]


@pytest.mark.parametrize("workload", ["fuzz-oracle", "fuzz-long"])
@pytest.mark.parametrize("dropped", ["decompose_all", "sigma_all"])
def test_dropped_strategy_fails_the_gate(work, monkeypatch, workload, dropped):
    # fewer strategies still agree with each other; the gate must see the gap
    original = cli.consistency_check
    monkeypatch.setattr(
        cli,
        "consistency_check",
        lambda setup, kernel, strategies: original(
            setup, kernel, [s for s in strategies if s.label != dropped]
        ),
    )
    runner = run.Runner(SMALL[workload](1, work), MIXES[workload])
    _one_pass(runner)
    assert _fail_frac(runner) == 1.0
    assert "are not every pair" in runner.failures[0]


def test_ring_propagator_matches_scipy_expm():
    L, tau = 16, 2.1
    h = np.roll(np.eye(L), 1, axis=0) + np.roll(np.eye(L), -1, axis=0)
    exact = scipy.linalg.expm(-1j * tau * h)
    column = ring_propagator_column(L, tau)
    built = np.array([[column[(x - y) % L] for y in range(L)] for x in range(L)])
    assert np.max(np.abs(built - exact)) < 1e-13


def test_conjugated_kernel_fails_double_slit(work, monkeypatch):
    ops = SMALL["chain"](1, work)
    original = lattice.expm_series
    monkeypatch.setattr(lattice, "expm_series", lambda matrix: original(matrix).conj())
    runner = run.Runner(ops, MIXES["chain"])
    _one_pass(runner)
    assert len(runner.failures) == 1
    assert "off the exact propagator" in runner.failures[0]


def test_forced_path_explosion_drops_oracle_coverage(work, monkeypatch):
    def explode(*args, **kwargs):
        raise amplitudes.PathExplosionError("forced")

    monkeypatch.setattr(amplitudes, "amplitude_bruteforce", explode)
    runner = run.Runner(SMALL["fuzz-oracle"](1, work), MIXES["fuzz-oracle"])
    _one_pass(runner)
    assert runner.stats["oracle_coverage"] == [0.0, 0.0]
    assert _fail_frac(runner) == 1.0
    assert "oracle ran on 0 of 15" in runner.failures[0]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_span_self_times_add_up_to_traced_wall(work, workload):
    runner = run.Runner(SMALL[workload](2, work), MIXES[workload])
    measured = run.measure_traced(runner, seconds=0.0)
    layers = measured["layers"]
    assert runner.failures == []
    assert sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS) == pytest.approx(
        layers["traced.span_self_s"], rel=1e-9
    )
    gap = layers["traced.wall_s"] - layers["traced.span_self_s"]
    assert 0.0 <= gap <= max(layers["tracing_overhead_s"], 0.01 * layers["traced.wall_s"])


def test_seeds_give_reproducible_disjoint_inputs(work):
    def setup_seeds(seed):
        seeds = set()
        for op in fuzz_oracle(seed, work):
            first = int(op.argv[op.argv.index("--seed") + 1])
            seeds.update(range(first, first + int(op.argv[op.argv.index("--count") + 1])))
        return seeds

    assert len(setup_seeds(1)) == 1000
    assert setup_seeds(1) == setup_seeds(1)
    assert not setup_seeds(1) & setup_seeds(2)

    def inputs(seed):
        ops = replica(seed, work, born_scans=2)
        return (work / "psi4.json").read_text(), [op.argv for op in ops]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
