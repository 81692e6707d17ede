"""The benchmark's workloads: input generation and the correctness gate.

A workload is a list of ``Op`` -- amplab command lines, each with a check of
its exit code and output files.
One pass runs every op once.  Inputs come only from the workload seed: CLI
seeds are spaced ``SEED_SPACING`` apart, so two workload seeds never share a
fuzz setup, and wave functions, kernels and parameters are drawn from a numpy
generator on the same seed.

``PROBES`` are inputs with a documented correct outcome that the program
does not meet at every commit; they run outside the timed passes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# larger than any fuzz --count used here, so fuzz seed ranges never overlap
SEED_SPACING = 1_000_000

# every fuzz setup is evaluated by these strategies, and by the brute-force
# path sum unless the path guard skips it; rows are every pair of them
STRATEGIES = ("transfer_matrix", "decompose_all", "sigma_all")
BRUTE_FORCE = "brute_force"

FUZZ_TOL = 1e-10
BORN_DIRECT_TOL = 1e-12
SUM_CHECK_TOL = 1e-12
NORM_TOL = 1e-10
KERNEL_TOL = 1e-10


class GateError(Exception):
    """An operation's exit code or output failed its check; ``stats`` holds
    what the check observed before it failed."""

    def __init__(self, reason: str, stats: dict | None = None) -> None:
        super().__init__(reason)
        self.stats = stats or {}


@dataclass
class Op:
    argv: list[str]
    out: Path  # the --out prefix
    check: Callable[[int], dict]  # exit code -> observed stats; raises GateError
    setups: int = 0  # fuzz setups evaluated per run


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise GateError(reason)


def _csv_rows(path: Path, width: int):
    """Yield the rows of a CSV file after its header, one at a time, so that
    a check holds no more than a row of a large output in memory."""
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in rows:
            _require(len(row) == width, f"{path.name}: row of {len(row)} fields, expected {width}")
            yield row


def _all_pairs(names) -> set[frozenset[str]]:
    return {frozenset(pair) for pair in itertools.combinations(names, 2)}


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def _save_psi(path: Path, coeffs: np.ndarray) -> None:
    path.write_text(json.dumps([[float(z.real), float(z.imag)] for z in coeffs]))


# -- fuzz -------------------------------------------------------------------


def _fuzz_op(
    first: int, out: Path, count: int, shape: list[str], oracle_required: bool
) -> Op:
    argv = ["fuzz", "--seed", str(first), "--count", str(count), *shape]
    argv += ["--out", str(out)]

    def check(rc: int) -> dict:
        _require(rc == 0, f"fuzz exit code {rc}")
        pairs: dict[int, set[frozenset[str]]] = {}
        worst = 0.0
        for seed, pair, deviation in _csv_rows(Path(f"{out}.csv"), 3):
            dev = float(deviation)
            _require(math.isfinite(dev), f"non-finite deviation at seed {seed}")
            worst = max(worst, dev)
            found = pairs.setdefault(int(seed), set())
            names = frozenset(pair.split("|"))
            _require(len(names) == 2 and names not in found,
                     f"setup {seed}: pair {pair} repeated or malformed")
            found.add(names)
        _require(
            sorted(pairs) == list(range(first, first + count)),
            "fuzz rows do not cover exactly the requested setup seeds",
        )
        covered = 0
        for setup_seed, found in pairs.items():
            has_oracle = any(BRUTE_FORCE in pair for pair in found)
            expected = _all_pairs(STRATEGIES + (BRUTE_FORCE,) * has_oracle)
            _require(
                found == expected,
                f"setup {setup_seed}: rows {sorted(map(sorted, found))} are not every "
                f"pair of {sorted({n for pair in expected for n in pair})}",
            )
            covered += has_oracle
        _require(worst <= FUZZ_TOL, f"fuzz deviation {worst:.3e} > {FUZZ_TOL:g}")
        stats = {"oracle_coverage": covered / count}
        if oracle_required and covered < count:
            raise GateError(f"brute-force oracle ran on {covered} of {count} setups", stats)
        return stats

    return Op(argv, out, check, setups=count)


def _fuzz_chunks(
    seed: int, work: Path, setups: int, chunk: int, shape: list[str], oracle_required: bool
) -> list[Op]:
    # the setups of one pass are split over several fuzz calls so that each
    # call is short and is timed many times within a run
    first = seed * SEED_SPACING
    return [
        _fuzz_op(first + start, work / f"fuzz-{start:06d}", min(chunk, setups - start),
                 shape, oracle_required)
        for start in range(0, setups, chunk)
    ]


def fuzz_oracle(seed: int, work: Path, setups: int = 1000, chunk: int = 20) -> list[Op]:
    shape = ["--L", "8", "--T", "6", "--max-filters", "3", "--max-paths", "10000000"]
    return _fuzz_chunks(seed, work, setups, chunk, shape, oracle_required=True)


def fuzz_long(seed: int, work: Path, setups: int = 3000, chunk: int = 100) -> list[Op]:
    shape = ["--L", "16", "--T", "24", "--max-filters", "8", "--max-paths", "10000000"]
    return _fuzz_chunks(seed, work, setups, chunk, shape, oracle_required=False)


# -- replica ----------------------------------------------------------------


def _binomial_mass(p: float, N: int, lo: int, hi: int) -> float:
    return math.fsum(
        math.comb(N, n) * p**n * (1.0 - p) ** (N - n) for n in range(lo, hi + 1)
    )


def _born_direct_op(psi_path: Path, p: float, N: int, lo: int, hi: int, out: Path) -> Op:
    argv = ["born-direct", "--psi", str(psi_path), "--site", "0", "--N", str(N)]
    argv += ["--n-min", str(lo), "--n-max", str(hi), "--out", str(out)]

    def check(rc: int) -> dict:
        _require(rc == 0, f"born-direct N={N} exit code {rc}")
        report = json.loads(Path(f"{out}.json").read_text())
        gap = report["abs_difference"]
        _require(gap <= BORN_DIRECT_TOL, f"born-direct N={N} gap {gap:.3e}")
        # independent of the program: exact binomial sum in plain floats
        oracle = _binomial_mass(p, N, lo, hi)
        miss = abs(report["overlap_direct"] - oracle)
        _require(miss <= BORN_DIRECT_TOL, f"born-direct N={N} off binomial by {miss:.3e}")
        return {}

    return Op(argv, out, check)


def _born_scan_op(p: float, f: float, eps: float, n_list: list[int], out: Path) -> Op:
    argv = ["born", "--p", repr(p), "--f", repr(f), "--eps", repr(eps)]
    argv += ["--N-list", ",".join(map(str, n_list)), "--out", str(out)]

    def check(rc: int) -> dict:
        _require(rc == 0, f"born p={p:.4f} exit code {rc}")
        rows = list(_csv_rows(Path(f"{out}.csv"), 4))
        _require([int(r[0]) for r in rows] == n_list, "born rows do not match --N-list")
        for N, exact, _, dev in rows:
            exact, dev = float(exact), float(dev)
            _require(0.0 <= exact <= 1.0, f"born N={N}: overlap {exact} outside [0, 1]")
            _require(abs(dev - (1.0 - exact)) <= 1e-15, f"born N={N}: deviation != 1 - overlap")
        # the window holds p by more than 100 standard deviations at the largest N
        last = float(rows[-1][1])
        _require(last >= 1.0 - 1e-12, f"born: no concentration at N={n_list[-1]} ({last})")
        return {}

    return Op(argv, out, check)


def replica(seed: int, work: Path, born_scans: int = 3) -> list[Op]:
    rng = np.random.default_rng(seed)
    psi = _unit_vector(rng, 4)
    psi_path = work / "psi4.json"
    _save_psi(psi_path, psi)
    # the CLI reads p back from the saved file, so take it from the same text
    saved = json.loads(psi_path.read_text())[0]
    p = saved[0] ** 2 + saved[1] ** 2
    ops = []
    for N in (8, 9, 10, 11):
        lo = min(int(p * N), N - 1)
        ops.append(_born_direct_op(psi_path, p, N, lo, lo + 1, work / f"direct{N}"))
    n_list = [round(10 ** (k / 2)) for k in range(4, 15)]  # 100 .. 1e7
    for i in range(born_scans):
        p_scan = float(rng.uniform(0.3, 0.7))
        f = p_scan + float(rng.uniform(-0.005, 0.005))
        ops.append(_born_scan_op(p_scan, f, 0.02, n_list, work / f"born{i}"))
    return ops


# -- chain ------------------------------------------------------------------


def ring_propagator_column(L: int, tau: float, hop: float = 1.0) -> np.ndarray:
    """Column g of exp(-i tau H) for the uniform tight-binding ring H, with
    exp(-i tau H)[x, y] = g[(x - y) mod L].

    The ring is diagonal in plane waves, with energies 2 hop cos(k), so the
    propagator is one inverse FFT.  It shares no code with amplab's kernel
    construction (``expm_series``), which it checks."""
    k = 2.0 * np.pi * np.arange(L) / L
    return np.fft.ifft(np.exp(-1j * tau * 2.0 * hop * np.cos(k)))


def _double_slit_op(L: int, steps: int, holes: tuple[int, int], out: Path,
                    dt: float = 0.35) -> Op:
    argv = ["double-slit", "--L", str(L), "--steps", str(steps)]
    argv += ["--holes", f"{holes[0]},{holes[1]}", "--dt", repr(dt), "--out", str(out)]
    # the one-hole amplitudes: source at L // 2, the filter at steps // 2
    first = ring_propagator_column(L, dt * (steps // 2))
    second = ring_propagator_column(L, dt * (steps - steps // 2))
    sites = np.arange(L)
    amp_a, amp_b = (second[(sites - h) % L] * first[(h - L // 2) % L] for h in holes)

    def check(rc: int) -> dict:
        _require(rc == 0, f"double-slit exit code {rc}")
        n = 0
        for row in _csv_rows(Path(f"{out}.csv"), 8):
            site = int(row[0])
            re_a, im_a, re_b, im_b, re_both, im_both, sum_check = map(float, row[1:])
            _require(site == n, f"double-slit row {n} is site {site}")
            a, b, both = complex(re_a, im_a), complex(re_b, im_b), complex(re_both, im_both)
            gap = abs(both - a - b)
            _require(gap <= SUM_CHECK_TOL, f"double-slit site {site}: sum rule off by {gap:.3e}")
            _require(sum_check <= SUM_CHECK_TOL, "double-slit sum_check above tolerance")
            miss = max(abs(a - amp_a[site]), abs(b - amp_b[site]))
            _require(miss <= KERNEL_TOL, f"double-slit site {site}: off the exact propagator by {miss:.3e}")
            n += 1
        _require(n == L, f"double-slit wrote {n} rows, expected {L}")
        return {}

    return Op(argv, out, check)


def _evolve_op(kernel: np.ndarray, kernel_path: Path, psi: np.ndarray, psi_path: Path,
               steps: int, out: Path) -> Op:
    argv = ["evolve", "--kernel", str(kernel_path), "--psi", str(psi_path)]
    argv += ["--steps", str(steps), "--out", str(out)]
    L = len(psi)
    final = psi
    for _ in range(steps):
        final = kernel @ final

    def check(rc: int) -> dict:
        _require(rc == 0, f"evolve exit code {rc}")
        norms = np.zeros(steps + 1)
        last = np.zeros(L, dtype=complex)
        n = 0
        for step, site, re, im, prob in _csv_rows(Path(f"{out}.csv"), 5):
            step, site = int(step), int(site)
            _require((step, site) == divmod(n, L), f"evolve row {n} is step {step} site {site}")
            norms[step] += float(prob)
            if step == steps:
                last[site] = complex(float(re), float(im))
            n += 1
        _require(n == (steps + 1) * L, f"evolve wrote {n} rows")
        drift = float(np.max(np.abs(norms - 1.0)))
        _require(drift <= NORM_TOL, f"evolve norm drift {drift:.3e}")
        miss = float(np.max(np.abs(last - final)))
        _require(miss <= NORM_TOL, f"evolve final state off by {miss:.3e}")
        return {}

    return Op(argv, out, check)


def _regrade_op(argv: list[str], out: Path) -> Op:
    argv = ["regrade", *argv, "--out", str(out)]

    def check(rc: int) -> dict:
        _require(rc == 0, f"{' '.join(argv[:3])}: exit code {rc}")
        report = json.loads(Path(f"{out}.json").read_text())
        _require(report["associative"] is True, f"{report['op']}: not associative")
        for key in ("assoc_residual", "additivity_residual", "additivity_mean"):
            _require(math.isfinite(report[key]), f"{report['op']}: {key} not finite")
        rule = report.get("product_rule")
        if rule is not None:
            _require(rule["passes"] is True, f"{report['op']}: product rule fails")
        previous = -math.inf
        for _, xi in _csv_rows(Path(report["xi_table"]), 2):
            _require(float(xi) > previous, f"{report['op']}: xi not increasing")
            previous = float(xi)
        return {}

    return Op(argv, out, check)


def chain(seed: int, work: Path, grid_n: int = 16384) -> list[Op]:
    from amplab.lattice import (
        LatticeConfig,
        load_kernel,
        load_wavefunction,
        make_tight_binding_kernel,
        save_kernel,
    )

    rng = np.random.default_rng(seed)
    L = 256
    onsite = rng.uniform(-0.5, 0.5, size=L)
    kernel = make_tight_binding_kernel(
        LatticeConfig(num_sites=L, num_steps=1, dt=0.35), hop=1.0, onsite=onsite
    )
    kernel_path, psi_path = work / "kernel256.json", work / "psi256.json"
    save_kernel(kernel, kernel_path)
    psi = _unit_vector(rng, L)
    _save_psi(psi_path, psi)
    # evolve reads the files, so check against what was written
    step = load_kernel(kernel_path).step
    psi = load_wavefunction(psi_path).coeffs
    centre = 256  # double-slit puts its source at L // 2
    holes = (centre - int(rng.integers(4, 25)), centre + int(rng.integers(4, 25)))
    cubic_p = f"{rng.uniform(2.0, 4.0):.6f}"
    shift_c = f"{rng.uniform(0.5, 1.5):.6f}"
    ops = [
        _double_slit_op(512, 64, holes, work / "slit"),
        _evolve_op(step, kernel_path, psi, psi_path, 200, work / "evolve"),
        _regrade_op(["--op", "product", "--check-product-rule"], work / "rule"),
    ]
    for op, param in (("add", None), ("cubic-mean", cubic_p), ("uv-shift", shift_c), ("product", None)):
        argv = ["--op", op, "--grid-n", str(grid_n)]
        if param is not None:
            argv += ["--param", param]
        ops.append(_regrade_op(argv, work / f"regrade-{op}"))
    return ops


# -- known-defect probes ------------------------------------------------------


def _probe_born_degenerate(seed: int, work: Path) -> Op:
    out = work / "probe-born-p1"
    n_list = [100, 1000]
    argv = ["born", "--p", "1", "--f", "0.99", "--eps", "0.02"]
    argv += ["--N-list", ",".join(map(str, n_list)), "--out", str(out)]

    def check(rc: int) -> dict:
        # p = 1 puts every replica at the site; only the Gaussian limit is undefined
        _require(rc == 0, f"born --p 1 exit code {rc}, expected 0")
        rows = list(_csv_rows(Path(f"{out}.csv"), 4))
        _require([float(r[1]) for r in rows] == [1.0] * len(n_list),
                 "born --p 1: exact overlap column is not all 1")
        return {}

    return Op(argv, out, check)


def _probe_double_slit_same_hole(seed: int, work: Path) -> Op:
    hole = int(np.random.default_rng(seed).integers(0, 16))
    out = work / "probe-slit"
    argv = ["double-slit", "--L", "16", "--holes", f"{hole},{hole}", "--out", str(out)]

    def check(rc: int) -> dict:
        # one hole given twice is invalid input, not a consistency breach
        _require(rc == 1, f"double-slit --holes {hole},{hole} exit code {rc}, expected 1")
        return {}

    return Op(argv, out, check)


WORKLOADS = {
    "fuzz-oracle": fuzz_oracle,
    "fuzz-long": fuzz_long,
    "replica": replica,
    "chain": chain,
}

PROBES = {
    "replica": [_probe_born_degenerate],
    "chain": [_probe_double_slit_same_hole],
}
