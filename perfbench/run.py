"""amplab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload fuzz-oracle --seed 1 --seconds 18 --trace 0

The program under test is the amplab package in ``src/`` of this checkout,
driven in-process through ``amplab.cli.main``.  Set-up (imports in fresh
interpreters, input generation) is timed on its own.  The run then repeats the
workload's ops round-robin until ``--seconds`` have elapsed, and checks every
op's exit code and output against the gate in ``workloads.py``.  Times are
scaled to a reference speed (see ``Clock``) and a pass is the sum of each op's
median time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced ones
(see ``spans.py``); the difference of the two raw pass times is the tracing
overhead.  Metric names and units are those of ``BENCHMARK.json``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result -- environment block, set-up
times, known-defect probes -- goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one BLAS thread: the workloads' matrices are small, and a second thread
# mostly adds contention noise on a shared 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (after the BLAS setting: it loads numpy)

# set-up is repeated and its median reported: one scaled import in a fresh
# interpreter varies by 10-15% (quartile distance over median), so a median
# of a few samples still moves by several per cent from run to run
SETUP_REPEATS = 11


# -- set-up -------------------------------------------------------------------


def import_program() -> None:
    """Import amplab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "amplab" / "cli.py").is_file():
        raise SystemExit(f"error: no amplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import amplab.cli

    if Path(amplab.cli.__file__).resolve().parent != SRC / "amplab":
        raise SystemExit(f"error: imported amplab from {amplab.cli.__file__}")


def child_import_seconds() -> float:
    """Scaled import time of amplab in a fresh interpreter, which gauges its
    own speed with the import mix right after the import."""
    code = (
        "import time; t = time.perf_counter(); import amplab.cli; "
        "t = time.perf_counter() - t; import reference; "
        "print(t * reference.speed(reference.IMPORT_MIX))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)])),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def set_up(workload: str, seed: int, work: Path) -> tuple[list, dict]:
    """Import amplab in fresh interpreters and generate the inputs, each
    ``SETUP_REPEATS`` times; return the ops and the median scaled times."""
    from workloads import WORKLOADS

    clock = Clock(reference.MIXES[workload])
    imports = [child_import_seconds() for _ in range(SETUP_REPEATS)]
    generations = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        scaled, _, ops = clock.time(lambda: WORKLOADS[workload](seed, work))
        generations.append(scaled)
    return ops, {
        "import_s": statistics.median(imports),
        "generate_s": statistics.median(generations),
        "import_samples": imports,
        "generate_samples": generations,
    }


# -- environment ----------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be found."""
    import ctypes
    import glob

    import numpy

    for lib_path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg: tuple[float, float, float]) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg),
    }


# -- measurement ------------------------------------------------------------------


class Clock:
    """Times calls and scales them to an idle core's speed, gauged by the
    workload's reference mix just before and just after each call."""

    def __init__(self, mix) -> None:
        self.mix = mix
        self._speed = reference.speed(mix)

    def time(self, fn):
        """Return (scaled seconds, raw seconds, fn's result)."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = reference.speed(self.mix)
        scaled = raw * math.sqrt(self._speed * after)
        self._speed = after
        return scaled, raw, result


class Runner:
    """Runs ops through the CLI in-process and keeps the gate's tally."""

    def __init__(self, ops: list, mix) -> None:
        from amplab import cli

        self.cli = cli
        self.ops = ops
        self.clock = Clock(mix)
        self.attempted = 0
        self.failures: list[str] = []
        self.stats: dict[str, list[float]] = {}

    def call(self, op) -> tuple[float, float, int | None, str]:
        """Run one op; return (scaled seconds, raw seconds, exit code or None,
        captured output)."""
        for stale in op.out.parent.glob(op.out.name + "*"):
            stale.unlink()  # a check must never read an earlier run's output
        sink = io.StringIO()

        def invoke():
            try:
                return self.cli.main(op.argv)
            except Exception as exc:  # a traceback is a failed operation
                print(f"uncaught {type(exc).__name__}: {exc}", file=sink)
                return None

        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            scaled, raw, rc = self.clock.time(invoke)
        return scaled, raw, rc, sink.getvalue()

    def check(self, op, rc: int | None, output: str) -> None:
        from workloads import GateError

        self.attempted += 1
        try:
            if rc is None:
                raise GateError(output.strip().splitlines()[-1])
            stats = op.check(rc)
        except GateError as exc:
            stats = exc.stats
            self.failures.append(f"{op.argv[0]}: {exc}")
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
            stats = {}
            self.failures.append(f"{op.argv[0]}: {type(exc).__name__}: {exc}")
        for key, value in stats.items():
            self.stats.setdefault(key, []).append(value)

    def run(self, op, samples: list, after=None) -> None:
        """Run and check one op, appending (scaled, raw) seconds to ``samples``."""
        scaled, raw, rc, output = self.call(op)
        samples.append((scaled, raw))
        if after is not None:
            after(op)
        self.check(op, rc, output)


def pass_seconds(samples: list[list[tuple[float, float]]], raw: bool = False) -> float:
    """One pass: the sum over ops of each op's median time."""
    return sum(statistics.median([s[raw] for s in op_samples]) for op_samples in samples)


def measure(runner: Runner, seconds: float) -> list[list[tuple[float, float]]]:
    """Run the ops round-robin until ``seconds`` have passed and each op has
    run at least once; return every op's (scaled, raw) samples."""
    samples = [[] for _ in runner.ops]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(runner.ops) or time.perf_counter() < deadline:
        runner.run(runner.ops[i % len(runner.ops)], samples[i % len(runner.ops)])
        i += 1
    return samples


def output_bytes(op) -> int:
    """Bytes of the files an op wrote, as listed in its manifest."""
    manifest = Path(f"{op.out}.manifest.json")
    if not manifest.is_file():
        return 0
    outputs = [Path(p) for p in json.loads(manifest.read_text())["outputs"]]
    return manifest.stat().st_size + sum(p.stat().st_size for p in outputs if p.is_file())


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics
    are medians over the traced passes, in raw seconds."""
    from spans import Tracer, layer_metrics

    untraced = [[] for _ in runner.ops]
    traced = [[] for _ in runner.ops]
    per_pass = []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    pair_s = 0.0
    # start another pair of passes only if it would end near the deadline
    while not per_pass or time.perf_counter() + pair_s / 2 < deadline:
        pair_start = time.perf_counter()
        for op, op_samples in zip(runner.ops, untraced):
            runner.run(op, op_samples)
        tracer.reset()
        written = []
        tracer.install()
        try:
            for op, op_samples in zip(runner.ops, traced):
                runner.run(op, op_samples, after=lambda op: written.append(output_bytes(op)))
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer)
        layers["cli.out_bytes"] = float(sum(written))
        layers["traced.span_self_s"] = sum(tracer.self_times())
        layers["traced.wall_s"] = sum(op_samples[-1][1] for op_samples in traced)
        per_pass.append(layers)
        pair_s = time.perf_counter() - pair_start
    keys = set().union(*per_pass)
    metrics = {key: statistics.median([p.get(key, 0.0) for p in per_pass]) for key in keys}
    metrics["tracing_overhead_s"] = pass_seconds(traced, raw=True) - pass_seconds(untraced, raw=True)
    return {"untraced": untraced, "layers": metrics, "tracer": tracer}


def run_probes(workload: str, seed: int, work: Path) -> list[dict]:
    """Known-defect inputs: each passes only if the documented outcome holds."""
    from workloads import PROBES, GateError

    runner = Runner([], reference.MIXES[workload])
    outcomes = []
    for make in PROBES.get(workload, []):
        op = make(seed, work)
        _, _, rc, _ = runner.call(op)
        outcome = {"argv": op.argv, "exit_code": rc, "ok": True}
        try:
            op.check(-1 if rc is None else rc)
        except (GateError, OSError, KeyError, ValueError) as exc:
            outcome.update(ok=False, reason=str(exc))
        outcomes.append(outcome)
    return outcomes


def write_spans(tracer, path: Path) -> None:
    """Spans of the last traced pass as CSV: name, start, end, parent, item."""
    with path.open("w") as fh:
        fh.write("name,start,end,parent,item\n")
        for name, start, end, parent, item in tracer.span_table():
            fh.write(f"{name},{start:.9f},{end:.9f},{parent},{item}\n")


# -- one run --------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    loadavg = os.getloadavg()
    import_program()
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    work = OUT / f"work-{workload}"
    ops, setup = set_up(workload, seed, work)
    runner = Runner(ops, reference.MIXES[workload])
    if trace:
        measured = measure_traced(runner, seconds)
        samples = measured["untraced"]
    else:
        samples = measure(runner, seconds)
    probes = run_probes(workload, seed, work)
    shutil.rmtree(work, ignore_errors=True)

    probe_failed = sum(not p["ok"] for p in probes)
    coverage = runner.stats.get("oracle_coverage")
    wall_s = pass_seconds(samples)
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": setup["import_s"] + setup["generate_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # known-defect probes count here, but not in the gated attempted/failed
        "fail_frac": (len(runner.failures) + probe_failed) / (runner.attempted + len(probes)),
        "oracle_coverage": statistics.fmean(coverage) if coverage else None,
        # a constant times 1 / wall_s, so printed but not bounded
        "setups_per_s": sum(op.setups for op in ops) / wall_s if ops[0].setups else None,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(loadavg),
        "set_up": setup,
        "raw_wall_s": pass_seconds(samples, raw=True),
        "runs_per_op": [len(op_samples) for op_samples in samples],
        "op_samples": samples,
        "end_to_end": end_to_end,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "known_defect_probes": probes,
    }
    if trace:
        layers = measured["layers"]
        layers["fail_frac"] = end_to_end["fail_frac"]
        layers["oracle_coverage"] = end_to_end["oracle_coverage"] or 0.0
        layers["known_defects.failed"] = float(probe_failed)
        result["layers"] = layers
        result["environment"]["tracing_overhead_s"] = layers["tracing_overhead_s"]
        write_spans(measured["tracer"], OUT / f"spans-{workload}.csv")
    return result


def report(result: dict, spec: dict) -> dict:
    """The final line: every metric that ``BENCHMARK.json`` lists for the mode."""
    if result["trace"]:
        values, declared = result["layers"], spec["per_layer"]
    else:
        values, declared = result["end_to_end"], spec["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            # a layer metric that the workload never recorded reads 0
            m["name"]: {"value": values.get(m["name"], 0.0) if result["trace"] else values[m["name"]],
                        "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result, spec)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in line["metrics"].items():
        print(f"{name:48s} {metric['value']!s:>24} {metric['unit']}")
    if not args.trace:
        for name, unit in (("fail_frac", "fraction"), ("oracle_coverage", "fraction"),
                           ("setups_per_s", "1/s")):
            print(f"{name:48s} {result['end_to_end'][name]!s:>24} {unit}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for probe in result["known_defect_probes"]:
        state = "ok" if probe["ok"] else f"FAILED ({probe['reason']})"
        print(f"known-defect probe {' '.join(probe['argv'][:4])}: {state}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
