"""Command-line entry point: every experiment as a reproducible subcommand.

Each run writes its results and a ``<prefix>.manifest.json`` of its
subcommand, flags, seed (fuzz), version, outputs, wall-clock time and
``checks``.  JSON is strict: a non-finite value is null.  Exit codes: 0
success, 1 invalid flags or input files, 2 exactly when a recorded check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from collections import Counter
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .amplitudes import (
    DEFAULT_PATH_GUARD,
    BruteForcePaths,
    RecursiveDecompose,
    SigmaInsert,
    TransferMatrix,
    block_vectors,
    consistency_check,
)
from .born import (
    ProjectorWindow,
    convergence_scan,
    overlap_for_window,
    small_N_direct,
)
from .evolution import evolve
from .lattice import (
    Event,
    LatticeConfig,
    load_kernel,
    load_wavefunction,
    make_tight_binding_kernel,
)
from .regrade import (
    CATALOG_NAMES,
    NonAssociativeError,
    RegradeError,
    catalog_op,
    product_rule_residual,
    recover_regrade,
)
from .setups import (
    FilterSpec,
    Setup,
    SetupError,
    check_seed_range,
    load_setup,
    or_compose,
    random_block,
    setup_block,
    setup_to_dict,
)

CONSISTENCY_TOL = 1e-10

SUM_CHECK_TOL = 1e-12

CROSS_CHECK_TOL = 1e-12

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TOLERANCE = 2

# fuzz setups drawn and evaluated together, one block_vectors column each:
# memory per block stays fixed whatever --count is
FUZZ_BLOCK = 256


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 1, keeping 2 free
    for tolerance breaches, and reads a dash followed by a digit (``-1,3``,
    ``-1e5``) as a value, never an option: no amplab flag starts with a
    digit.  Subparsers are built as ``_Parser`` too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _finite(x):
    """``x`` with every non-finite float, however deeply nested, as None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def _dumps(payload, **kwargs) -> str:
    """Strict JSON: a NaN or infinity is written as null, never as the bare
    ``NaN`` token that strict readers reject."""
    return json.dumps(_finite(payload), allow_nan=False, **kwargs)


class _Run:
    """Collects one invocation's outputs and checks; writes the manifest."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.prefix = Path(args.out)
        self.outputs: list[str] = []
        self.checks: list[dict] = []
        self.started = time.monotonic()

    def _register(self, suffix: str) -> Path:
        p = Path(str(self.prefix) + suffix)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(str(p))
        return p

    def write_table(self, stem: str, columns: dict) -> Path:
        """Write ``columns`` (header -> array or sequence) as CSV, or as JSON
        rows of the same cells when --format json.  A float column is written
        ``%.17g``, any other with ``str`` and None blank; no cell holds a comma,
        quote or line break.  A numeric array's dtype decides its rule; a
        sequence or an object array is float when every cell is.  One ``%``
        formats a row; CSV rows stream to file."""
        rules, values = [], []
        for column in columns.values():
            kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
            if kind != "O":  # a numeric array holds no None
                rules.append("%.17g" if kind == "f" else "%s")
                values.append(column.tolist())
            elif all(isinstance(x, float) for x in column):
                rules.append("%.17g")
                values.append(column)
            else:
                rules.append("%s")
                values.append("" if x is None else x for x in column)
        rows = zip(*values)
        line = ",".join(rules)
        if getattr(self.args, "format", "csv") == "json":
            p = self._register(f"{stem}.json")
            payload = {
                "columns": list(columns),
                "rows": [(line % row).split(",") for row in rows],
            }
            p.write_text(_dumps(payload, indent=2) + "\n")
            return p
        p = self._register(f"{stem}.csv")
        line += "\r\n"
        with p.open("w", newline="") as fh:
            fh.write(",".join(columns) + "\r\n")
            fh.writelines(line % row for row in rows)
        return p

    def write_report(self, payload: dict) -> Path:
        p = self._register(".json")
        p.write_text(_dumps(payload, indent=2, sort_keys=True) + "\n")
        return p

    def check(self, name: str, worst: float, tol: float, **where) -> None:
        """Record a check of worst deviation ``worst`` at ``where``.  Unless
        ``worst <= tol`` (never for a NaN) it fails, and says so on stderr."""
        passed = bool(worst <= tol)
        self.checks.append(dict(where, name=name, worst=worst, tol=tol, passed=passed))
        if not passed:
            print(f"{name} violation: {worst:.3e}", file=sys.stderr)

    def finish(self, **summary) -> int:
        """Write the manifest, ``summary`` added; return 2 if a check failed, else 0."""
        flags = {
            k: v
            for k, v in sorted(vars(self.args).items())
            if k != "func" and isinstance(v, (str, int, float, bool, type(None)))
        }
        manifest = {
            "subcommand": self.args.subcommand,
            "flags": flags,
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "outputs": self.outputs,
            "wall_clock_s": time.monotonic() - self.started,
            "checks": self.checks,
            **summary,
        }
        path = Path(str(self.prefix) + ".manifest.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_dumps(manifest, indent=2, sort_keys=True) + "\n")
        return EXIT_OK if all(c["passed"] for c in self.checks) else EXIT_TOLERANCE


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list: {text!r}")


@functools.lru_cache(maxsize=4)
def _fuzz_kernel(config: LatticeConfig):
    # fixed non-uniform onsite profile: breaks translation symmetry so the
    # fuzz covers structurally distinct amplitudes while staying reproducible.
    # Built once per shape and shared, as a Kernel is read-only; the cache
    # keeps the last four shapes, and a build that raises is not kept
    onsite = 0.5 * np.sin(
        2.0 * np.pi * np.arange(config.num_sites) / config.num_sites
    )
    return make_tight_binding_kernel(config, hop=1.0, onsite=onsite)


def _all_strategies(max_paths: int) -> list:
    # consistency_check skips the brute-force path sum when its guard trips
    # and records it in the report's ``skipped``; a guard below one path
    # would skip it on every setup
    if max_paths < 1:
        raise ValueError(f"--max-paths must be at least 1, got {max_paths}")
    return [
        TransferMatrix(),
        RecursiveDecompose(),
        SigmaInsert(),
        BruteForcePaths(max_paths=max_paths),
    ]


def _cmd_amplitude(args: argparse.Namespace) -> int:
    strategies = _all_strategies(args.max_paths)
    run = _Run(args)
    setup = load_setup(args.setup)
    kernel = load_kernel(args.kernel)
    block = setup_block((setup,), kernel.num_sites)
    checked = consistency_check(block, kernel, strategies)
    skipped = {label: r[0] for label, r in checked.skipped.items() if 0 in r}
    values = {
        label: [z.real, z.imag]
        for label, z in zip(checked.labels, checked.values[0].tolist())
        if label not in skipped
    }
    deviations = zip(checked.pairs, checked.deviations[0].tolist(), checked.compared[0])
    payload = {
        "setup": setup_to_dict(setup),  # normalized: filters and holes sorted
        "amplitude": values["transfer_matrix"],
        "strategies": values,
        "pair_deviations": {f"{a}|{b}": dev for (a, b), dev, ran in deviations if ran},
        "max_deviation": checked.max_deviation,
        "skipped": skipped,
        "tolerance": CONSISTENCY_TOL,
    }
    run.write_report(payload)
    run.check("consistency", checked.max_deviation, CONSISTENCY_TOL)
    print(_dumps(payload))
    return run.finish()


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    check_seed_range(args.seed, args.seed + args.count)
    strategies = _all_strategies(args.max_paths)
    run = _Run(args)
    config = LatticeConfig(num_sites=args.L, num_steps=args.T)
    max_filters = min(args.max_filters, args.T - 1)
    seeds, pairs, devs = [], [], []
    oracle_ran = independent = 0
    draw_s = 0.0
    skipped_reasons, strategy_s, core_columns = Counter(), Counter(), Counter()
    end = args.seed + args.count
    for first in range(args.seed, end, FUZZ_BLOCK):
        block_seeds = range(first, min(first + FUZZ_BLOCK, end))
        started = time.perf_counter()
        block = random_block(config, block_seeds, max_filters)
        draw_s += time.perf_counter() - started
        # the kernel is built once the first block is drawn, so a shape that
        # random_block refuses builds none
        checked = consistency_check(block, _fuzz_kernel(config), strategies)
        strategy_s.update(checked.strategy_s)
        core_columns.update(checked.core_columns)
        independent += checked.independent_setups
        oracle_ran += len(block) - len(checked.skipped["brute_force"])
        for reasons in checked.skipped.values():
            skipped_reasons.update(reasons.values())
        # a row per compared pair, by setup then pair; a seed fits uint64
        rows, cols = np.nonzero(checked.compared)
        seeds.append(np.uint64(first) + rows.astype(np.uint64))
        pairs.append(cols)
        devs.append(checked.deviations[rows, cols])
    names = np.array([f"{a}|{b}" for a, b in checked.pairs])
    seeds, devs = np.concatenate(seeds), np.concatenate(devs)
    pairs = names[np.concatenate(pairs)]
    # the first pair at the max deviation, a NaN before every number
    i = int(np.argmax(devs))
    worst, worst_seed, worst_pair = float(devs[i]), int(seeds[i]), str(pairs[i])
    run.write_table("", {"seed": seeds, "strategy_pair": pairs, "deviation": devs})
    run.check("consistency", worst, CONSISTENCY_TOL, seed=worst_seed, pair=worst_pair)
    print(f"fuzz: {args.count} setups, max deviation {worst:.3e}")
    guard = " (path guard)" if oracle_ran < args.count else ""
    print(f"brute_force ran on {oracle_ran}/{args.count} setups{guard}")
    print(f"worst: seed {worst_seed}, pair {worst_pair}, deviation {worst:.3e}")
    return run.finish(
        brute_force_ran=oracle_ran,
        skipped_reasons=skipped_reasons,
        draw_s=draw_s,
        strategy_s=strategy_s,
        core_columns=core_columns,
        independent_setups=independent,
        worst_deviation=worst,
        worst_seed=worst_seed,
        worst_pair=worst_pair,
    )


def _cmd_evolve(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise ValueError(f"--steps must be non-negative, got {args.steps}")
    run = _Run(args)
    kernel = load_kernel(args.kernel)
    # evolve checks the dimensions, so a mismatch fails at --steps 0 too
    states = [evolve(load_wavefunction(args.psi), kernel, 0)]
    for _ in range(args.steps):
        states.append(evolve(states[-1], kernel, 1))
    amps = np.concatenate([state.coeffs for state in states])
    step, site = np.divmod(np.arange(amps.size), kernel.num_sites)
    # scalar abs: the array np.abs may differ in the last bit
    try:
        prob = [abs(z) ** 2 for z in amps.tolist()]
    except OverflowError as exc:
        raise ValueError("an amplitude's squared modulus overflows a float") from exc
    run.write_table(
        "", {"step": step, "site": site, "re": amps.real, "im": amps.imag, "prob": prob}
    )
    print(f"evolved {args.steps} steps on {kernel.num_sites} sites")
    return run.finish()


def _cmd_born(args: argparse.Namespace) -> int:
    run = _Run(args)
    n_list = _parse_int_list(args.N_list)
    scan = convergence_scan(args.p, args.f, args.eps, n_list)
    N, exact, gauss, dev = zip(*map(astuple, scan))
    run.write_table(
        "", {"N": N, "overlap_exact": exact, "overlap_gauss": gauss, "deviation": dev}
    )
    for n, overlap, deviation in zip(N, exact, dev):
        print(f"N={n}: overlap={overlap:.12f} deviation={deviation:.3e}")
    return run.finish()


def _cmd_born_direct(args: argparse.Namespace) -> int:
    run = _Run(args)
    psi = load_wavefunction(args.psi)
    window = ProjectorWindow(args.n_min, args.n_max)
    direct = small_N_direct(psi, args.site, window, args.N)
    p = float(abs(psi.coeffs[args.site]) ** 2)
    exact = overlap_for_window(min(p, 1.0), args.N, window)
    gap = abs(direct - exact)
    payload = {
        "p": p,
        "N": args.N,
        "window": [window.n_min, window.n_max],
        "overlap_direct": direct,
        "overlap_exact": exact,
        "abs_difference": gap,
        "tolerance": CROSS_CHECK_TOL,
    }
    run.write_report(payload)
    run.check("binomial cross-check", gap, CROSS_CHECK_TOL, N=args.N)
    print(_dumps(payload))
    return run.finish()


def _cmd_regrade(args: argparse.Namespace) -> int:
    run = _Run(args)
    sampler = catalog_op(args.op, param=args.param, grid_n=args.grid_n)
    try:
        result = recover_regrade(sampler)
        refusal, assoc = None, result.assoc_residual
    except NonAssociativeError as exc:
        result, refusal, assoc = None, exc, exc.residual
    except RegradeError as exc:
        # any other refusal is recorded too, then reported by main as an error
        run.write_report({"op": sampler.name, "refusal": str(exc)})
        run.finish()
        raise
    payload = {
        "op": sampler.name,
        "assoc_residual": assoc,
        "associative": refusal is None,
    }
    if refusal is not None:
        payload["refusal"] = str(refusal)
    if args.check_product_rule:
        report = product_rule_residual(sampler)
        payload["product_rule"] = {**asdict(report), "passes": report.passes()}
    if refusal is None:
        table = run.write_table("_xi", {"u": result.u_grid, "xi": result.xi_values})
        payload.update(
            additivity_residual=result.additivity_max,
            additivity_mean=result.additivity_mean,
            c_constant=result.c_constant,
            c_diagnostic=result.c_diagnostic,
            xi_table=str(table),
        )
    run.write_report(payload)
    print(_dumps({k: v for k, v in payload.items() if k != "xi_table"}))
    if refusal is None:
        return run.finish()
    run.finish()
    print(refusal, file=sys.stderr)
    return EXIT_INVALID


def _cmd_double_slit(args: argparse.Namespace) -> int:
    run = _Run(args)
    holes = _parse_int_list(args.holes)
    if len(holes) != 2:
        raise SetupError("--holes needs exactly two comma-separated sites")
    if holes[0] == holes[1]:
        raise SetupError(f"--holes names site {holes[0]} twice; need two sites")
    config = LatticeConfig(num_sites=args.L, num_steps=args.steps, dt=args.dt)
    kernel = make_tight_binding_kernel(config, hop=args.hop)
    source = Event(args.source if args.source is not None else args.L // 2, 0)
    t_filter = (
        args.filter_time if args.filter_time is not None else args.steps // 2
    )
    # one slit per hole, merged by the sum rule's or; the detector site is
    # immaterial, as block_vectors returns every site at the detector time.
    # Setup, FilterSpec and setup_block reject out-of-range input.  Three
    # blocks of one keep each step a matrix-vector product: one product of
    # three columns is no faster at large L and rounds differently
    detector = Event(source.site, args.steps)
    slit_a, slit_b = (
        Setup(source, detector, (FilterSpec(t_filter, (hole,)),)) for hole in holes
    )
    amp_a, amp_b, amp_both = (
        block_vectors(setup_block((s,), kernel.num_sites), kernel)[:, 0]
        for s in (slit_a, slit_b, or_compose(slit_a, slit_b))
    )
    # scalar abs: the array np.abs may differ in the last bit
    gaps = [abs(both - a - b) for a, b, both in zip(amp_a, amp_b, amp_both)]
    site = int(np.argmax(gaps))  # a NaN before every number
    run.write_table(
        "",
        {
            "site": range(args.L),
            "re_a": amp_a.real,
            "im_a": amp_a.imag,
            "re_b": amp_b.real,
            "im_b": amp_b.imag,
            "re_both": amp_both.real,
            "im_both": amp_both.imag,
            "sum_check": gaps,
        },
    )
    run.check("sum-rule", gaps[site], SUM_CHECK_TOL, site=site)
    print(f"double slit: max |psi_both - psi_a - psi_b| = {gaps[site]:.3e}")
    return run.finish()


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first call and shared by every later
    one: parsing never changes it, and each parse returns a fresh Namespace.
    Nothing is built at import."""
    parser = _Parser(
        prog="amplab",
        description="Lattice amplitude simulator and consistency checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, out: str, tables: bool = True) -> None:
        p.add_argument("--out", default=out, help="output path prefix")
        if tables:
            p.add_argument(
                "--format",
                choices=("csv", "json"),
                default="csv",
                help="tabular output format (reports and manifest are always JSON)",
            )

    p = sub.add_parser("amplitude", help="evaluate one setup by all strategies")
    p.add_argument("--setup", required=True, help="setup JSON file")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--max-paths", type=int, default=DEFAULT_PATH_GUARD)
    common(p, "amplitude_out", tables=False)
    p.set_defaults(func=_cmd_amplitude)

    p = sub.add_parser("fuzz", help="randomized consistency sweep")
    p.add_argument("--seed", type=int, default=0, help="seed of the first setup")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--T", type=int, default=6)
    p.add_argument("--max-filters", type=int, default=3)
    p.add_argument("--max-paths", type=int, default=DEFAULT_PATH_GUARD)
    common(p, "fuzz_out")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("evolve", help="time-evolve a wave function")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--psi", required=True, help="wave function JSON ([[re,im],...])")
    p.add_argument("--steps", type=int, required=True)
    common(p, "evolve_out")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("born", help="binomial/Gaussian concentration scan")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--N-list", required=True, help="comma-separated replica counts")
    common(p, "born_out")
    p.set_defaults(func=_cmd_born)

    p = sub.add_parser("born-direct", help="small-N tensor cross-check")
    p.add_argument("--psi", required=True, help="wave function JSON")
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    common(p, "born_direct_out", tables=False)
    p.set_defaults(func=_cmd_born_direct)

    p = sub.add_parser(
        "regrade", help="recover the additive regrade of an operation"
    )
    p.add_argument("--op", required=True, choices=CATALOG_NAMES)
    p.add_argument("--param", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--check-product-rule", action="store_true")
    common(p, "regrade_out")
    p.set_defaults(func=_cmd_regrade)

    p = sub.add_parser("double-slit", help="two-hole interference demo")
    p.add_argument("--L", type=int, default=16)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--holes", required=True, help="two sites, e.g. 5,10")
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--filter-time", type=int, default=None)
    p.add_argument("--hop", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=0.35)
    common(p, "double_slit_out")
    p.set_defaults(func=_cmd_double_slit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
