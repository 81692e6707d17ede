import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amplab
import amplab.amplitudes as amplitudes
import amplab.cli as cli
import amplab.lattice as lattice
import amplab.setups as setups
from amplab import (
    Event,
    FilterSpec,
    LatticeConfig,
    Setup,
    SetupError,
    WaveFunction,
    block_vectors,
    catalog_op,
    consistency_check,
    convergence_scan,
    evolve,
    load_kernel,
    load_wavefunction,
    make_tight_binding_kernel,
    or_compose,
    recover_regrade,
    save_kernel,
    setup_block,
)
from amplab.cli import _all_strategies, _fuzz_kernel, main
from amplab.regrade import CATALOG_NAMES
from genutil import (
    normalize,
    random_setup,
    reject_constant,
    save_setup,
    save_wavefunction,
)

HUGE_INT = "1" + "0" * 400


def write_inputs(tmp_path):
    config = LatticeConfig(4, 4, dt=0.3)
    kernel = make_tight_binding_kernel(config, hop=1.0, onsite=[0, 0.2, 0.4, 0.6])
    setup = Setup(Event(0, 0), Event(2, 4), (FilterSpec(2, (1, 3)),))
    kernel_path = tmp_path / "kernel.json"
    setup_path = tmp_path / "setup.json"
    save_kernel(kernel, kernel_path)
    save_setup(setup, setup_path)
    return kernel_path, setup_path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_checks(prefix):
    """The ``checks`` of the manifest a run with ``--out prefix`` wrote."""
    return json.loads(Path(f"{prefix}.manifest.json").read_text())["checks"]


def test_no_subcommand_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_unknown_flag_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--bogus"])
    assert excinfo.value.code == 1
    # only fuzz takes --seed; amplitude and born-direct write no table
    kernel_path, setup_path = write_inputs(tmp_path)
    for argv in (
        ["double-slit", "--holes", "5,10", "--seed", "3"],
        ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path),
         "--format", "json"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(tmp_path / "x")])
        assert excinfo.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_amplitude_subcommand(tmp_path, capsys):
    kernel_path, setup_path = write_inputs(tmp_path)
    out = tmp_path / "amp"
    code = main(
        [
            "amplitude",
            "--setup",
            str(setup_path),
            "--kernel",
            str(kernel_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "amp.json").read_text())
    assert payload["max_deviation"] <= 1e-10
    assert "transfer_matrix" in payload["strategies"]
    assert "brute_force" in payload["strategies"]
    assert payload["skipped"] == {}
    manifest = json.loads((tmp_path / "amp.manifest.json").read_text())
    assert manifest["subcommand"] == "amplitude"
    assert str(tmp_path / "amp.json") in manifest["outputs"]
    printed = json.loads(capsys.readouterr().out)
    assert printed["amplitude"] == payload["amplitude"]


def test_amplitude_missing_file_exits_1(tmp_path, capsys):
    kernel_path, _ = write_inputs(tmp_path)
    code = main(
        [
            "amplitude",
            "--setup",
            str(tmp_path / "nope.json"),
            "--kernel",
            str(kernel_path),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_amplitude_malformed_kernel_exits_1(tmp_path, capsys):
    _, setup_path = write_inputs(tmp_path)
    bad = tmp_path / "bad_kernel.json"
    bad.write_text('{"L": 2, "entries": [[0, 0]], "label": ""}')
    code = main(
        [
            "amplitude",
            "--setup",
            str(setup_path),
            "--kernel",
            str(bad),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_amplitude_nan_deviation_exits_2(tmp_path, capsys):
    # every amplitude overflows to NaN; NaN deviations are a breach, not agreement
    kernel_path, setup_path = tmp_path / "kernel.json", tmp_path / "setup.json"
    kernel_path.write_text(json.dumps({"L": 3, "entries": [[1e200, 0.0]] * 9}))
    save_setup(Setup(Event(0, 0), Event(1, 4)), setup_path)
    argv = ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)]
    assert main(argv + ["--out", str(tmp_path / "amp")]) == 2
    assert "consistency violation" in capsys.readouterr().err
    payload = json.loads((tmp_path / "amp.json").read_text(), parse_constant=reject_constant)
    assert payload["max_deviation"] is None  # strict JSON: NaN is null
    assert read_checks(tmp_path / "amp") == [
        {"name": "consistency", "worst": None, "tol": 1e-10, "passed": False}
    ]


def test_overflowing_amplitude_warns_nothing(tmp_path, capsys):
    # the NaN deviation is the whole signal: one stderr line, no RuntimeWarning
    kernel_path, setup_path = tmp_path / "kernel.json", tmp_path / "setup.json"
    kernel_path.write_text(json.dumps({"L": 3, "entries": [[1e200, 0.0]] * 9}))
    save_setup(Setup(Event(0, 0), Event(1, 4)), setup_path)
    argv = ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "amp")]) == 2
    assert capsys.readouterr().err.splitlines() == ["consistency violation: nan"]
    assert [c["passed"] for c in read_checks(tmp_path / "amp")] == [False]


def _write_huge_one_step(tmp_path):
    # |1.5e308 (1 + i)| is past the float range: abs() of the amplitude raises
    kernel_path, setup_path = tmp_path / "kernel.json", tmp_path / "setup.json"
    kernel_path.write_text(json.dumps({"L": 1, "entries": [[1.5e308, 1.5e308]]}))
    save_setup(Setup(Event(0, 0), Event(0, 1)), setup_path)
    return ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path),
            "--out", str(tmp_path / "amp")]


def test_amplitude_past_the_float_range_agrees(tmp_path, capsys):
    assert main(_write_huge_one_step(tmp_path)) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "amp.json").read_text(), parse_constant=reject_constant)
    assert payload["max_deviation"] == 0.0
    assert payload["amplitude"] == [1.5e308, 1.5e308]


def test_amplitude_past_the_float_range_differs_exits_2(tmp_path, monkeypatch, capsys):
    # a path sum off by a third of its real part at that size is a breach;
    # an infinite modulus in the denominator would hide it as 0.0
    monkeypatch.setattr(amplitudes, "_path_sum", lambda *a: complex(1.0e308, 1.5e308))
    assert main(_write_huge_one_step(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("consistency violation: ")
    payload = json.loads((tmp_path / "amp.json").read_text(), parse_constant=reject_constant)
    assert payload["max_deviation"] == pytest.approx(0.5 / abs(1.5 + 1.5j))
    [check] = read_checks(tmp_path / "amp")
    assert (check["name"], check["worst"], check["passed"]) == (
        "consistency", payload["max_deviation"], False)


@pytest.mark.parametrize(
    "subcommand, name, text",
    [
        ("amplitude", "setup.json",
         '{"source": {"site": 1e400, "time": 0}, "detector": {"site": 1, "time": 4}}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": 1e400}}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": 4}, '
         '"filters": [{"time": 2, "holes": [1e400]}]}'),
        ("amplitude", "kernel.json", '{"L": 1e400, "entries": []}'),
        ("evolve", "kernel.json", '{"L": 1e400, "entries": []}'),
        ("evolve", "kernel.json", '{"L": 1, "entries": [[%s, 0]]}' % HUGE_INT),
        ("evolve", "psi.json", "[[%s, 0], [0, 0], [0, 0], [0, 0]]" % HUGE_INT),
        # complex(True, 0) is 1: a boolean is refused in a pair as anywhere
        ("evolve", "kernel.json", '{"L": 1, "entries": [[1, false]]}'),
        ("evolve", "psi.json", "[[true, 0], [0, 0], [0, 0], [0, 0]]"),
        ("evolve", "kernel.json", '{"L": 2, "entries": null}'),
        ("evolve", "kernel.json", '{"L": 2, "entries": 5}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0.9, "time": 0}, "detector": {"site": 1, "time": 4}}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": "4"}}'),
        ("evolve", "kernel.json", json.dumps({"L": 4.9, "entries": [[1, 0]] * 16})),
        ("evolve", "kernel.json", '{"L": true, "entries": [[1, 0]]}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": 4}, '
         '"filters": [{"time": 2, "holes": "1"}]}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": 4}, '
         '"filters": [{"time": 2, "holes": ""}]}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": 4}, '
         '"filters": ""}'),
        ("amplitude", "setup.json",
         '{"source": {"site": 0, "time": 0}, "detector": {"site": 1, "time": 4}, '
         '"filters": {}}'),
    ],
    ids=[
        "source-site", "detector-time", "hole", "kernel-L", "evolve-kernel-L",
        "kernel-entry-huge-int", "psi-entry-huge-int", "kernel-entry-bool",
        "psi-entry-bool", "kernel-entries-null",
        "kernel-entries-number", "source-site-float", "detector-time-string",
        "kernel-L-float", "kernel-L-bool", "holes-string", "holes-empty-string",
        "filters-string", "filters-object",
    ],
)
def test_nonfinite_integer_field_exits_1(tmp_path, capsys, subcommand, name, text):
    # JSON reads 1e400 as infinity, which no integer holds, and a 400-digit
    # integer exactly, which no float holds.  An integer field takes a JSON
    # integer only, never truncating a float or parsing a string, and a hole
    # set or a filter list a JSON list only
    kernel_path, setup_path = write_inputs(tmp_path)
    psi_path = tmp_path / "psi.json"
    save_wavefunction(WaveFunction([1.0, 0.0, 0.0, 0.0]), psi_path)
    (tmp_path / name).write_text(text)
    inputs = {
        "amplitude": ["--setup", str(setup_path), "--kernel", str(kernel_path)],
        "evolve": ["--kernel", str(kernel_path), "--psi", str(psi_path), "--steps", "1"],
    }
    assert main([subcommand, *inputs[subcommand], "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "source_time, detector_time",
    [(-(10**30), 4), (0, 10**23), (0, 2**63), (0, 2**14 + 1), (0, 10**6), (0, 10**9)],
    ids=["source-time-1e30", "detector-time-1e23", "span-2**63", "bound+1", "1e6", "1e9"],
)
def test_setup_span_past_intp_exits_1(tmp_path, capsys, source_time, detector_time):
    # a block costs memory per column and step, so a span past MAX_STEPS is
    # refused as the setup is read, before any array is built; a span of
    # 1e9 steps once got the process killed
    assert lattice.MAX_STEPS == 2**14
    kernel_path, setup_path = write_inputs(tmp_path)
    setup_path.write_text(
        json.dumps(
            {
                "source": {"site": 0, "time": source_time},
                "detector": {"site": 1, "time": detector_time},
                "filters": [],
            }
        )
    )
    argv = ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    span = detector_time - source_time
    assert err == f"error: setup spans {span} steps; a span must be at most {2**14}\n"
    with pytest.raises(SetupError):
        Setup(Event(0, 0), Event(1, 2**14 + 1))
    far = Setup(Event(0, -(10**30)), Event(1, -(10**30) + 2**14))
    assert far.detector.time - far.source.time == 2**14


def test_setup_span_at_the_bound_runs(tmp_path, capsys):
    # the bound itself is admitted: every strategy runs but the path sum,
    # whose guard trips
    kernel_path, setup_path = write_inputs(tmp_path)
    save_setup(Setup(Event(0, 0), Event(1, 2**14)), setup_path)
    argv = ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o.json").read_text())
    assert list(report["skipped"]) == ["brute_force"]


@pytest.mark.parametrize(
    "argv",
    [["fuzz", "--count", "1", "--T", str(2**14 + 1)],
     ["double-slit", "--holes", "3,9", "--steps", str(2**14 + 1)],
     ["double-slit", "--holes", "3,9", "--steps", str(10**9)]],
    ids=["fuzz-T", "double-slit-steps", "double-slit-steps-1e9"],
)
def test_config_steps_past_the_bound_exit_1(tmp_path, capsys, argv):
    # fuzz --T and double-slit --steps pass LatticeConfig, which holds the
    # same bound as a setup's span
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    steps = argv[-1]
    assert capsys.readouterr().err == f"error: num_steps must lie in [1, {2**14}], got {steps}\n"
    assert not list(tmp_path.iterdir())


def _refusal_peak(argv) -> int:
    """Exit code 1 asserted; the traced peak of the refused call, in bytes."""
    tracemalloc.start()
    try:
        assert main(argv) == 1
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv",
    [["fuzz", "--count", "1", "--L", str(2**11 + 1)],
     ["fuzz", "--count", "1", "--L", str(10**9)],
     ["double-slit", "--holes", "3,9", "--L", str(2**11 + 1)],
     ["double-slit", "--holes", "3,9", "--L", str(10**9)]],
    ids=["fuzz-L", "fuzz-L-1e9", "double-slit-L", "double-slit-L-1e9"],
)
def test_config_sites_past_the_bound_exit_1(tmp_path, capsys, argv):
    # fuzz --L and double-slit --L pass LatticeConfig, which refuses more
    # sites than MAX_SITES before any L x L matrix (64 MiB at the bound)
    # is built
    assert lattice.MAX_SITES == 2**11
    assert _refusal_peak([*argv, "--out", str(tmp_path / "o")]) < 2**20
    sites = argv[-1]
    assert capsys.readouterr().err == f"error: num_sites must lie in [3, {2**11}], got {sites}\n"
    assert not list(tmp_path.iterdir())


def test_config_sites_at_the_bound_run(tmp_path):
    # the bound itself is admitted: CI's double-slit shape
    argv = ["double-slit", "--L", str(2**11), "--holes", "1014,1034"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "shape, draws",
    [(["--L", "3", "--T", "16383", "--max-filters", "4096"], 2**15 + 1),
     (["--L", "1000", "--T", "16384", "--max-filters", "16383"], 16415769)],
    ids=["bound+1", "L1000-T16384"],
)
def test_fuzz_draws_past_the_bound_exit_1(tmp_path, capsys, shape, draws):
    # a setup's draws are 3 + (T - 1) + max_filters (1 + L); past MAX_DRAWS
    # random_block refuses the block before any draw is made, and fuzz builds
    # its kernel only once a block is drawn.  L=1000 at 16383 filters would
    # ask 256 * 16415769 * 8 bytes, 34 GB, for one block's draws
    assert setups.MAX_DRAWS == 2**15
    argv = ["fuzz", "--count", "1000", *shape, "--out", str(tmp_path / "o")]
    assert _refusal_peak(argv) < 2**20
    sites, steps, filters = shape[1::2]
    assert capsys.readouterr().err == (
        f"error: a random setup of {sites} sites, {steps} steps and up to {filters} "
        f"filters takes {draws} draws; at most {2**15}\n"
    )
    assert not list(tmp_path.iterdir())


def test_fuzz_draws_at_the_bound_run(tmp_path):
    # 3 + 16381 + 4096 * 4 draws: the bound itself is admitted
    argv = ["fuzz", "--count", "1", "--L", "3", "--T", "16382", "--max-filters", "4096"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0


# one field of a valid input file, or one flag, changed: the exit-code
# contract must hold on every result.  A deleted key or list entry is one
# more change.  Flag values keep their argparse type, as argparse refuses
# the rest itself with exit 1.  --L stays small or past MAX_SITES, as a
# kernel near the bound takes a dense L x L build, and evolve's --steps
# small or past MAX_EVOLVE_ENTRIES, as a table near that bound takes
# seconds to write
_DELETE = object()
_FIELD_VALUES = [
    _DELETE, 0, -1, 1, 2, 3, 1.5, -0.0, 1e-320, 1e308, math.inf, math.nan, 10**30,
    2**63, int(HUGE_INT), True, False, None, "1", "", [], {}, [0, 0], [[1, 0]],
]
_INTS = [-(10**30), -1, 0, 1, 2, 3, 7, 8, 15, 2**14, 2**14 + 1, 10**9, 2**63, 10**30]
_SMALL_INTS = [-1, 0, 1, 2, 3, 4]
_FLOATS = ["0", "-1", "1e-300", "0.35", "40", "1e308", "inf", "-inf", "nan"]
_FLAG_VALUES = {
    "amplitude": {"--max-paths": _INTS},
    "evolve": {"--steps": [*_SMALL_INTS, 2**16, 10**9, 2**63]},
    "born-direct": {
        "--site": _INTS, "--N": _INTS, "--n-min": _INTS, "--n-max": _INTS,
    },
    "double-slit": {
        "--L": [*_SMALL_INTS, 5, 16, 40, 2**11 + 1, 10**9],
        "--steps": _INTS,
        "--holes": ["3,9", "3", "3,3", "-1,3", "3,99", "", "a,b", "1,2,3", "0,15"],
        "--source": _INTS,
        "--filter-time": _INTS,
        "--hop": _FLOATS,
        "--dt": _FLOATS,
    },
}


def _json_paths(value, path=()):
    """Every path into ``value``: the root, then each key and index."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _json_paths(item, (*path, key))


def _changed(document, path, value):
    if not path:
        return None if value is _DELETE else value
    *head, last = path
    parent = document
    for key in head:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return document


def test_one_changed_field_or_flag_keeps_the_exit_code_contract(tmp_path, capsys):
    kernel_path, setup_path = write_inputs(tmp_path)
    psi_path = tmp_path / "psi.json"
    save_wavefunction(normalize(WaveFunction([1.0, 0.5j, 0.0, -1.0])), psi_path)
    files = {p.name: json.loads(p.read_text()) for p in (kernel_path, setup_path, psi_path)}
    flags = {
        "amplitude": {"--setup": setup_path.name, "--kernel": kernel_path.name,
                      "--max-paths": "10000000"},
        "evolve": {"--kernel": kernel_path.name, "--psi": psi_path.name, "--steps": "2"},
        "born-direct": {"--psi": psi_path.name, "--site": "0", "--N": "3",
                        "--n-min": "1", "--n-max": "2"},
        "double-slit": {"--holes": "5,10"},
    }
    changed = tmp_path / "changed.json"

    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def keeps_the_contract(data):
        subcommand = data.draw(st.sampled_from(sorted(flags)))
        argv = dict(flags[subcommand])
        named = [flag for flag, name in argv.items() if name in files]
        target = data.draw(st.sampled_from(["flag", *named]))
        if target == "flag":
            flag = data.draw(st.sampled_from(sorted(_FLAG_VALUES[subcommand])))
            argv[flag] = str(data.draw(st.sampled_from(_FLAG_VALUES[subcommand][flag])))
        else:
            document = json.loads(json.dumps(files[argv[target]]))
            path = data.draw(st.sampled_from(list(_json_paths(document))))
            value = data.draw(st.sampled_from(_FIELD_VALUES))
            changed.write_text(json.dumps(_changed(document, path, value)))
            argv[target] = changed.name
        args = [subcommand]
        for flag, value in argv.items():
            value = str(tmp_path / value) if value in (*files, changed.name) else value
            args.append(f"{flag}={value}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*args, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (args, code)
        assert "Traceback" not in err, args
        assert not caught, (args, [str(w.message) for w in caught])  # stderr lines too
        lines = err.splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), (args, err)
        if code == 2:
            assert sum("violation" in line for line in lines) == 1, (args, err)

    keeps_the_contract()


@pytest.mark.parametrize("count", ["0", "-5"])
def test_fuzz_count_below_one_exits_1(tmp_path, capsys, count):
    assert main(["fuzz", "--count", count, "--out", str(tmp_path / "fz")]) == 1
    assert "error: --count must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "fz.csv").exists()


@pytest.mark.parametrize("seed, count", [("-1", "1"), ("-3", "7")])
def test_fuzz_negative_seed_exits_1(tmp_path, capsys, seed, count):
    out = tmp_path / "fz"
    assert main(["fuzz", "--seed", seed, "--count", count, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed must be non-negative, got {seed}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "seed, count", [(2**64, 1), (2**64 - 1, 2), (10**30, 1)], ids=["2**64", "crossing", "10**30"]
)
def test_fuzz_seed_past_the_key_range_exits_1(tmp_path, capsys, seed, count):
    # a seed is one 64-bit key: past the range it would wrap onto another
    # seed's setup
    out = tmp_path / "fz"
    argv = ["fuzz", "--seed", str(seed), "--count", str(count), "--out", str(out)]
    assert main(argv) == 1
    last = seed + count - 1
    assert capsys.readouterr().err == f"error: seeds must lie below 2**64, got {last}\n"
    assert not list(tmp_path.iterdir())
    argv = ["fuzz", "--seed", str(2**64 - 1), "--count", "1", "--out", str(out)]
    assert main(argv) == 0


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # one parser serves every main call in a process: no parse may leak into
    # a later one
    assert cli._build_parser() is cli._build_parser()
    argv = ["fuzz", "--seed", "9", "--count", "3", "--L", "5", "--T", "4", "--format", "json"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a.json").is_file()
    assert main(["fuzz", "--count", "2", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--bogus"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: amplab [-h] [--version]")
    assert err.endswith("amplab: error: unrecognized arguments: --bogus\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"{amplab.__version__}\n"
    assert main(["fuzz", "--count", "2", "--out", str(tmp_path / "c")]) == 0
    flags = []
    for prefix in ("b", "c"):
        manifest = json.loads((tmp_path / f"{prefix}.manifest.json").read_text())
        assert manifest["seed"] == 0
        flags.append({k: v for k, v in manifest["flags"].items() if k != "out"})
    assert flags[0] == flags[1]
    assert {k: flags[0][k] for k in ("seed", "count", "L", "T", "format")} == {
        "seed": 0, "count": 2, "L": 8, "T": 6, "format": "csv"
    }
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_fuzz_kernel_cache_keeps_outputs(tmp_path, capsys):
    # one kernel per shape is shared by every fuzz call in a process: a call
    # of another shape in between changes nothing, and a fresh process
    # writes the same table
    argv = ["fuzz", "--seed", "4", "--count", "6", "--L", "6", "--T", "5"]
    runs = [argv + ["--out", str(tmp_path / "a")],
            ["fuzz", "--count", "3", "--L", "7", "--T", "4", "--out", str(tmp_path / "b")],
            argv + ["--out", str(tmp_path / "c")]]
    printed = []
    for run in runs:
        assert main(run) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[2]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "amplab.cli", *argv, "--out", str(tmp_path / "d")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == printed[0]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def test_failed_fuzz_kernel_build_is_not_kept(tmp_path, monkeypatch, capsys):
    def diverge(matrix):
        raise RuntimeError("matrix exponential series failed to converge")

    cli._fuzz_kernel.cache_clear()
    argv = ["fuzz", "--count", "2", "--L", "9", "--T", "3", "--out", str(tmp_path / "fz")]
    monkeypatch.setattr(lattice, "expm_series", diverge)
    assert main(argv) == 1
    assert "error: matrix exponential series failed" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(argv) == 0
    assert (tmp_path / "fz.csv").is_file()


def test_fuzz_deterministic_output(tmp_path):
    args = ["fuzz", "--seed", "3", "--count", "25", "--L", "4", "--T", "4"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    rows = read_csv(tmp_path / "a.csv")
    assert rows[0] == ["seed", "strategy_pair", "deviation"]
    assert all(float(r[2]) <= 1e-10 for r in rows[1:])


def test_path_guard_skip_is_reported(tmp_path, capsys):
    kernel_path, setup_path = write_inputs(tmp_path)
    argv = ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)]
    assert main(argv + ["--max-paths", "1", "--out", str(tmp_path / "amp")]) == 0
    payload = json.loads((tmp_path / "amp.json").read_text())
    assert payload["skipped"] == {"brute_force": "path count exceeds guard of 1 paths"}
    assert sorted(payload["strategies"]) == ["decompose_all", "sigma_all", "transfer_matrix"]
    capsys.readouterr()
    # at most 3 filters on 4 interior times leave a layer of 4 open sites,
    # so every setup has more than 3 paths
    for max_paths, ran, note in (("3", 0, " (path guard)"), ("10000000", 3, "")):
        out = tmp_path / f"fz{ran}"
        argv = ["fuzz", "--count", "3", "--L", "4", "--T", "5", "--max-paths", max_paths]
        assert main(argv + ["--out", str(out)]) == 0
        assert f"brute_force ran on {ran}/3 setups{note}" in capsys.readouterr().out
        manifest = json.loads((tmp_path / f"fz{ran}.manifest.json").read_text())
        assert manifest["brute_force_ran"] == ran
        skipped = {} if ran else {"path count exceeds guard of 3 paths": 3}
        assert manifest["skipped_reasons"] == skipped


@pytest.mark.parametrize("max_paths", ["0", "-5"])
def test_path_guard_below_one_exits_1(tmp_path, capsys, max_paths):
    kernel_path, setup_path = write_inputs(tmp_path)
    out = tmp_path / "x"
    for argv in (
        ["amplitude", "--setup", str(setup_path), "--kernel", str(kernel_path)],
        ["fuzz", "--count", "3", "--L", "4", "--T", "5"],
    ):
        assert main(argv + ["--max-paths", max_paths, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --max-paths must be at least 1, got {max_paths}\n"
        assert not list(tmp_path.glob("x*"))


def test_fuzz_manifest_names_worst_case(tmp_path, capsys):
    out = tmp_path / "fz"
    argv = ["fuzz", "--seed", "5", "--count", "20", "--L", "4", "--T", "4"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = read_csv(f"{out}.csv")[1:]
    deviations = [float(dev) for _, _, dev in rows]
    seed, pair, dev = rows[deviations.index(max(deviations))]
    worst = float(dev)
    manifest = json.loads((tmp_path / "fz.manifest.json").read_text())
    assert manifest["worst_deviation"] == worst
    assert manifest["worst_seed"] == int(seed)
    assert manifest["worst_pair"] == pair
    assert capsys.readouterr().out.splitlines() == [
        f"fuzz: 20 setups, max deviation {worst:.3e}",
        "brute_force ran on 20/20 setups",
        f"worst: seed {seed}, pair {pair}, deviation {worst:.3e}",
    ]


@pytest.mark.parametrize(
    "shape, count, independent",
    [([], 20, 20), (["--L", "16", "--T", "24", "--max-filters", "8"], 100, 23)],
    ids=["default", "long"],
)
def test_fuzz_manifest_counts_independent_setups(tmp_path, shape, count, independent):
    # the path sum runs on every default setup; at the long shape the path
    # guard skips it, and only a setup with a single-hole filter, where
    # decompose_all splits, compares two different computations
    out = tmp_path / "fz"
    assert main(["fuzz", "--count", str(count), *shape, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "fz.manifest.json").read_text())
    assert manifest["independent_setups"] == independent
    if shape:
        assert manifest["brute_force_ran"] == 0
        config = LatticeConfig(16, 24)
        assert independent == sum(
            any(len(f.holes) == 1 for f in random_setup(config, seed, 8).filters)
            for seed in range(count)
        )


def test_fuzz_crosses_a_block_edge(tmp_path):
    # setups are evaluated in blocks of FUZZ_BLOCK; the rows and the
    # manifest's work counters run on across the edge
    count = cli.FUZZ_BLOCK + 3
    out = tmp_path / "fz"
    argv = ["fuzz", "--seed", "11", "--count", str(count), "--L", "4", "--T", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = read_csv(f"{out}.csv")[1:]
    # four strategies: six pairs per setup
    assert [int(seed) for seed, _, _ in rows] == [
        seed for seed in range(11, 11 + count) for _ in range(6)
    ]
    config = LatticeConfig(4, 3)
    parts = sum(
        1 + sum(len(f.holes) == 1 for f in random_setup(config, seed, 2).filters)
        for seed in range(11, 11 + count)
    )
    assert parts > count
    manifest = json.loads((tmp_path / "fz.manifest.json").read_text())
    assert manifest["core_columns"] == {
        "transfer_matrix": count,
        "decompose_all": parts,
        "sigma_all": count,
        "brute_force": 0,
    }
    assert sorted(manifest["strategy_s"]) == sorted(manifest["core_columns"])
    assert all(s > 0 for s in manifest["strategy_s"].values())
    # the wall seconds spent drawing the two blocks, beside the strategies'
    assert manifest["draw_s"] > 0


def test_fuzz_json_format(tmp_path):
    out = tmp_path / "fz"
    code = main(
        [
            "fuzz",
            "--seed",
            "1",
            "--count",
            "5",
            "--L",
            "4",
            "--T",
            "3",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "fz.json").read_text())
    assert payload["columns"] == ["seed", "strategy_pair", "deviation"]


def test_evolve_subcommand(tmp_path):
    kernel_path, _ = write_inputs(tmp_path)
    psi = normalize(WaveFunction(np.array([1.0, 1.0, 0.0, 0.0])))
    psi_path = tmp_path / "psi.json"
    save_wavefunction(psi, psi_path)
    out = tmp_path / "ev"
    code = main(
        [
            "evolve",
            "--kernel",
            str(kernel_path),
            "--psi",
            str(psi_path),
            "--steps",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "ev.csv")
    assert rows[0] == ["step", "site", "re", "im", "prob"]
    assert len(rows) == 1 + 4 * 4  # header + (steps+1) * L
    # a unitary kernel preserves total probability at every step
    for step in range(4):
        total = sum(
            float(r[4]) for r in rows[1:] if int(r[0]) == step
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_evolve_negative_steps_exits_1(tmp_path, capsys):
    kernel_path, _ = write_inputs(tmp_path)
    psi_path = tmp_path / "psi.json"
    save_wavefunction(normalize(WaveFunction(np.ones(4))), psi_path)
    argv = ["evolve", "--kernel", str(kernel_path), "--psi", str(psi_path)]
    assert main(argv + ["--steps", "-1", "--out", str(tmp_path / "ev")]) == 1
    assert "error: --steps must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "ev.csv").exists()


@pytest.mark.parametrize("steps", ["0", "1"])
def test_evolve_dimension_mismatch_exits_1(tmp_path, capsys, steps):
    # a 3-site wave function on a 4-site kernel, even when no step is taken
    kernel_path, _ = write_inputs(tmp_path)
    psi_path = tmp_path / "psi.json"
    save_wavefunction(normalize(WaveFunction(np.ones(3))), psi_path)
    argv = ["evolve", "--kernel", str(kernel_path), "--psi", str(psi_path)]
    assert main(argv + ["--steps", steps, "--out", str(tmp_path / "ev")]) == 1
    err = capsys.readouterr().err
    assert "error: wave function and kernel dimensions differ" in err
    assert not (tmp_path / "ev.csv").exists()


@pytest.mark.parametrize(
    "psi, steps",
    [
        ("[[1, 0], [0, 0], [0, 0]]", "1"),  # |3e200|^2 is past the float range
        ("[[1e300, 0], [1e300, 0], [1e300, 0]]", "0"),  # |1e300|^2 too
        ("[[1, 0], [0, 0], [0, 0]]", "2"),  # the amplitudes themselves overflow
    ],
    ids=["squared-modulus", "steps-0", "amplitude"],
)
@pytest.mark.filterwarnings("error")  # the error line is all that is said
def test_evolve_overflow_exits_1(tmp_path, capsys, psi, steps):
    kernel_path, psi_path = tmp_path / "kernel.json", tmp_path / "psi.json"
    kernel_path.write_text(json.dumps({"L": 3, "entries": [[1e200, 0.0]] * 9}))
    psi_path.write_text(psi)
    argv = ["evolve", "--kernel", str(kernel_path), "--psi", str(psi_path)]
    assert main(argv + ["--steps", steps, "--out", str(tmp_path / "ev")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "ev.csv").exists()


def _evolve_argv(tmp_path, num_sites, steps):
    """evolve of the identity kernel on ``num_sites`` sites, a unit state."""
    kernel_path, psi_path = tmp_path / "kernel.json", tmp_path / "psi.json"
    entries = np.eye(num_sites).ravel()
    kernel_path.write_text(json.dumps({"L": num_sites, "entries": [[x, 0.0] for x in entries]}))
    psi_path.write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * (num_sites - 1)))
    return ["evolve", "--kernel", str(kernel_path), "--psi", str(psi_path),
            "--steps", str(steps), "--out", str(tmp_path / "ev")]


@pytest.mark.parametrize(
    "num_sites, steps",
    [(1, 2**18), (4, 2**16), (4, 10**9), (4, 2**63)],
    ids=["bound+1", "L4-bound+4", "L4-1e9", "L4-2**63"],
)
def test_evolve_table_past_the_bound_exits_1(tmp_path, capsys, num_sites, steps):
    # evolve keeps every state, so (steps + 1) x sites past
    # MAX_EVOLVE_ENTRIES is refused once the kernel is read, before any
    # state is built
    assert cli.MAX_EVOLVE_ENTRIES == 2**18
    argv = _evolve_argv(tmp_path, num_sites, steps)
    assert _refusal_peak(argv) < 2**20
    entries = (steps + 1) * num_sites
    assert capsys.readouterr().err == (
        f"error: --steps {steps} on {num_sites} sites makes {entries} table entries; "
        f"at most {2**18}\n"
    )
    assert not (tmp_path / "ev.csv").exists()
    assert not (tmp_path / "ev.manifest.json").exists()


def test_evolve_table_at_the_bound_runs(tmp_path):
    # the bound itself is admitted; one site is its cheapest table
    assert main(_evolve_argv(tmp_path, 1, 2**18 - 1)) == 0
    table = (tmp_path / "ev.csv").read_bytes()
    assert table.count(b"\r\n") == 1 + 2**18
    assert table.endswith(b"\r\n262143,0,1,0,1\r\n")


def test_born_subcommand(tmp_path):
    out = tmp_path / "born"
    code = main(
        [
            "born",
            "--p",
            "0.36",
            "--f",
            "0.36",
            "--eps",
            "0.02",
            "--N-list",
            "100,1000,10000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "born.csv")
    assert rows[0] == ["N", "overlap_exact", "overlap_gauss", "deviation"]
    overlaps = [float(r[1]) for r in rows[1:]]
    assert overlaps[0] <= overlaps[1] <= overlaps[2]
    assert overlaps[2] >= 0.9999


def test_born_bad_n_list(tmp_path, capsys):
    # an empty list names no replica count: rejected by the scan itself
    for n_list in ("10,banana", "", ",,"):
        argv = ["born", "--p", "0.5", "--f", "0.5", "--eps", "0.1", "--N-list", n_list]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err
    # a negative list is the flag's value and reaches the scan's own check
    argv = ["born", "--p", "0.5", "--f", "0.5", "--eps", "0.1", "--N-list", "-5,10"]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert "N must be a positive integer" in capsys.readouterr().err


def test_born_direct_subcommand(tmp_path, capsys):
    psi = normalize(WaveFunction(np.array([0.6, 0.8])))
    psi_path = tmp_path / "psi.json"
    save_wavefunction(psi, psi_path)
    out = tmp_path / "bd"
    code = main(
        [
            "born-direct",
            "--psi",
            str(psi_path),
            "--site",
            "0",
            "--N",
            "3",
            "--n-min",
            "2",
            "--n-max",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "bd.json").read_text())
    assert payload["overlap_direct"] == pytest.approx(0.248832, abs=1e-12)
    assert payload["abs_difference"] <= 1e-12


def test_born_direct_mutant_exits_2(tmp_path, monkeypatch, capsys):
    # a tensor count off by 1e-9 breaches the 1e-12 binomial cross-check
    save_wavefunction(normalize(WaveFunction(np.array([0.6, 0.8]))), tmp_path / "psi.json")
    original = cli.small_N_direct
    monkeypatch.setattr(cli, "small_N_direct", lambda *a: original(*a) + 1e-9)
    argv = ["born-direct", "--psi", str(tmp_path / "psi.json"), "--site", "0",
            "--N", "3", "--n-min", "2", "--n-max", "2", "--out", str(tmp_path / "bd")]
    assert main(argv) == 2
    assert "binomial cross-check violation: 1.000e-09" in capsys.readouterr().err
    [check] = read_checks(tmp_path / "bd")
    assert check.pop("worst") == pytest.approx(1e-9)
    assert check == {"name": "binomial cross-check", "tol": 1e-12, "passed": False, "N": 3}


@pytest.mark.parametrize(
    "coeffs, N, err",
    [
        # the guard comes before any allocation: 4^12 entries
        ([[0.5, 0.0]] * 4, 12, "tensor dimension 16777216 exceeds guard 10000000"),
        # at N=1 no replica tensor is folded, so the check is explicit
        ([[1.0, 0.0], [1.0, 0.0]], 1, "wave function 0 is not normalized"),
    ],
)
def test_born_direct_invalid_input_exits_1(tmp_path, capsys, coeffs, N, err):
    (tmp_path / "psi.json").write_text(json.dumps(coeffs))
    argv = ["born-direct", "--psi", str(tmp_path / "psi.json"), "--site", "0",
            "--N", str(N), "--n-min", "0", "--n-max", "0", "--out", str(tmp_path / "bd")]
    assert main(argv) == 1
    assert f"error: {err}" in capsys.readouterr().err


def test_regrade_subcommand(tmp_path):
    out = tmp_path / "rg"
    code = main(["regrade", "--op", "uv-shift", "--out", str(out)])
    assert code == 0
    payload = json.loads((tmp_path / "rg.json").read_text())
    assert payload["associative"] is True
    assert payload["additivity_residual"] <= 1e-6
    assert payload["c_constant"] == 1.0
    rows = read_csv(tmp_path / "rg_xi.csv")
    assert rows[0] == ["u", "xi"]
    assert len(rows) == 1 + 256


def test_regrade_rejects_broken_op(tmp_path, capsys):
    out = tmp_path / "rg"
    code = main(["regrade", "--op", "broken-assoc", "--out", str(out)])
    assert code == 1
    payload = json.loads((tmp_path / "rg.json").read_text())
    assert payload["associative"] is False
    assert capsys.readouterr().err == (
        f"operation broken-assoc(k=2) is not associative "
        f"(residual {payload['assoc_residual']:.3e}); no regrade exists\n"
    ) == payload["refusal"] + "\n"
    # a negative parameter is a value, not an option, and reaches catalog_op
    argv = ["regrade", "--op", "cubic-mean", "--param", "-1e5"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "cubic-mean power must be positive" in capsys.readouterr().err


def test_regrade_without_a_monotone_regrade_exits_1(tmp_path, capsys):
    # S1 = 1 - 1.5 v vanishes at v = 2/3, inside the domain (0.1, 1.0)
    argv = ["regrade", "--op", "uv-shift", "--param", "-1.5"]
    assert main(argv + ["--out", str(tmp_path / "rg")]) == 1
    assert capsys.readouterr().err == "error: recovered regrade is not strictly monotone\n"
    assert not (tmp_path / "rg_xi.csv").exists()
    # the refusal is recorded in the report and the manifest lists it
    payload = json.loads((tmp_path / "rg.json").read_text())
    assert payload == {
        "op": "uv-shift(c=-1.5)",
        "refusal": "recovered regrade is not strictly monotone",
    }
    manifest = json.loads((tmp_path / "rg.manifest.json").read_text())
    assert manifest["outputs"] == [str(tmp_path / "rg.json")]


@pytest.mark.parametrize(
    "argv, code, names",
    [
        (["amplitude", "--setup", "setup.json", "--kernel", "kernel.json"], 0, ["consistency"]),
        (["fuzz", "--count", "20"], 0, ["consistency"]),
        (["evolve", "--kernel", "kernel.json", "--psi", "psi.json", "--steps", "2"], 0, []),
        (["born", "--p", "0.5", "--f", "0.5", "--eps", "0.1", "--N-list", "10,100"], 0, []),
        (["born-direct", "--psi", "psi.json", "--site", "1", "--N", "4", "--n-min", "1",
          "--n-max", "3"], 0, ["binomial cross-check"]),
        (["regrade", "--op", "product"], 0, []),
        # both kinds of refusal: exit 1, and no check recorded
        (["regrade", "--op", "broken-assoc"], 1, []),
        (["regrade", "--op", "uv-shift", "--param", "-1.5"], 1, []),
        (["double-slit", "--holes", "5,10"], 0, ["sum-rule"]),
    ],
    ids=["amplitude", "fuzz", "evolve", "born", "born-direct", "regrade",
         "regrade-nonassociative", "regrade-not-monotone", "double-slit"],
)
def test_every_manifest_lists_its_checks(tmp_path, monkeypatch, capsys, argv, code, names):
    # the exit code is that of the checks: 0 when all pass, and a run with no
    # alarm yet (born, evolve, regrade) records an empty list
    write_inputs(tmp_path)
    save_wavefunction(WaveFunction([0.6, 0.8j, 0.0, 0.0]), tmp_path / "psi.json")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o"]) == code
    checks = read_checks(tmp_path / "o")
    assert [c["name"] for c in checks] == names
    assert all(c["passed"] for c in checks)
    assert "violation" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "op, param, label",
    [
        ("cubic-mean", "1e300", "cubic-mean(p=1e+300)"),
        ("cubic-mean", "1e-300", "cubic-mean(p=1e-300)"),
        ("cubic-mean", "1e-5", "cubic-mean(p=1e-05)"),
        ("broken-assoc", "-1e300", "broken-assoc(k=-1e+300)"),
    ],
)
@pytest.mark.filterwarnings("error")  # the error line is all that is said
def test_regrade_operation_out_of_float_range_is_one_error_line(
    tmp_path, capsys, op, param, label
):
    argv = ["regrade", "--op", op, "--param", param]
    assert main(argv + ["--out", str(tmp_path / "rg")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: operation '{label}' cannot be evaluated on its domain: ")
    payload = json.loads((tmp_path / "rg.json").read_text())
    assert payload == {"op": label, "refusal": err.removeprefix("error: ").rstrip("\n")}
    manifest = json.loads((tmp_path / "rg.manifest.json").read_text())
    assert manifest["outputs"] == [str(tmp_path / "rg.json")]


@pytest.mark.parametrize("op", CATALOG_NAMES)
@pytest.mark.filterwarnings("error")
def test_regrade_catalog_defaults_say_nothing_on_stderr(tmp_path, capsys, op):
    code = main(["regrade", "--op", op, "--out", str(tmp_path / "rg")])
    err = capsys.readouterr().err
    if op == "broken-assoc":
        # k=2 is not associative: the refusal is the one stderr line
        payload = json.loads((tmp_path / "rg.json").read_text())
        assert (code, err) == (1, payload["refusal"] + "\n")
    else:
        assert (code, err) == (0, "")


def test_unallocatable_input_exits_1(tmp_path, capsys):
    # a grid of 1e17 points asks numpy for 711 PiB at once, more than any
    # address space, so the allocation fails before anything is written
    argv = ["regrade", "--op", "add", "--grid-n", "100000000000000000"]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and "allocate" in stderr


def test_regrade_product_rule_flag(tmp_path):
    out = tmp_path / "rg"
    code = main(
        ["regrade", "--op", "product", "--check-product-rule", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "rg.json").read_text())
    assert payload["product_rule"]["passes"] is True
    assert payload["product_rule"]["c_fit"] == pytest.approx(1.0, abs=1e-12)


def test_double_slit_subcommand(tmp_path):
    out = tmp_path / "ds"
    code = main(
        [
            "double-slit",
            "--L",
            "16",
            "--steps",
            "8",
            "--holes",
            "5,10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "ds.csv")
    assert rows[0][-1] == "sum_check"
    assert len(rows) == 17
    assert all(float(r[-1]) <= 1e-12 for r in rows[1:])


def test_double_slit_mutant_exits_2(tmp_path, monkeypatch, capsys):
    # an or that drops the second slit breaks the sum rule at its sites
    monkeypatch.setattr(cli, "or_compose", lambda a, b: a)
    argv = ["double-slit", "--holes", "5,10", "--out", str(tmp_path / "ds")]
    assert main(argv) == 2
    assert "sum-rule violation: " in capsys.readouterr().err
    rows = read_csv(tmp_path / "ds.csv")
    assert max(float(r[-1]) for r in rows[1:]) > 1e-3
    # the check names the site of the worst gap, the first on a tie
    gaps = [float(r[-1]) for r in rows[1:]]
    [check] = read_checks(tmp_path / "ds")
    assert check == {"name": "sum-rule", "worst": max(gaps), "tol": 1e-12,
                     "passed": False, "site": gaps.index(max(gaps))}


def test_double_slit_bad_holes(tmp_path, capsys):
    code = main(
        ["double-slit", "--holes", "1,2,3", "--out", str(tmp_path / "ds")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["double-slit", "--holes", "1,99", "--out", str(tmp_path / "ds")])
    assert code == 1
    # one hole named twice is invalid input, not a sum-rule violation
    code = main(["double-slit", "--holes", "5,5", "--out", str(tmp_path / "ds")])
    assert code == 1
    assert "twice" in capsys.readouterr().err
    # source site, filter time (default --steps 8) and hole range are
    # checked by Setup, FilterSpec and setup_block
    for bad in (
        ["--holes", "5,10", "--source", "99"],
        ["--holes", "5,10", "--filter-time", "8"],
        ["--holes=-1,3"],
    ):
        assert main(["double-slit", *bad, "--out", str(tmp_path / "ds")]) == 1
        assert "error:" in capsys.readouterr().err
    # a separate negative list reaches the setup algebra too, after the flag
    # itself or an abbreviation argparse accepts
    for flag in ("--holes", "--hol"):
        code = main(["double-slit", flag, "-1,3", "--out", str(tmp_path / "ds")])
        assert code == 1
        assert "hole sites must be non-negative" in capsys.readouterr().err
    # an abbreviation that names two flags stays a usage error
    with pytest.raises(SystemExit) as excinfo:
        main(["double-slit", "--ho", "-1,3", "--out", str(tmp_path / "ds")])
    assert excinfo.value.code == 1
    assert "ambiguous option" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["0", "1"])
def test_born_degenerate_p_leaves_gaussian_blank(tmp_path, p):
    out = tmp_path / "born"
    f = "0.01" if p == "0" else "0.99"
    argv = ["born", "--p", p, "--f", f, "--eps", "0.02", "--N-list", "100,1000"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = read_csv(tmp_path / "born.csv")
    assert rows[1:] == [["100", "1", "", "0"], ["1000", "1", "", "0"]]


_BORN = ["born", "--p", "0.36", "--f", "0.36", "--N-list", "10,1000"]


@pytest.mark.parametrize(
    "argv, err",
    [
        # a window as wide as every count: overlap 1 and Gaussian 1, at the
        # cost of a finite window even for N = 1e10
        (_BORN + ["--eps", "inf"], None),
        (_BORN + ["--eps", "1e308"], None),
        (["born", "--p", "0.36", "--f", "0.36", "--N-list", "10000000000",
          "--eps", "inf"], None),
        # a non-finite power, or one whose arithmetic overflows the operation
        (["regrade", "--op", "cubic-mean", "--param", "inf"], "param must be finite"),
        (["regrade", "--op", "cubic-mean", "--param", "nan"], "param must be finite"),
        (["regrade", "--op", "cubic-mean", "--param", "1e300"], "p=1e+300"),
        (["regrade", "--op", "cubic-mean", "--param", "1e-300"], "p=1e-300"),
        (["regrade", "--op", "broken-assoc", "--param", "-1e300"], "k=-1e+300"),
        # a parameter that the operation would ignore
        (["regrade", "--op", "add", "--param", "7"], "'add' takes no parameter"),
        (["regrade", "--op", "product", "--param", "7"], "'product' takes no parameter"),
        # a replica count past 2**53 is not an exact float: refused
        (["born", "--p", "0.5", "--f", "0.5", "--eps", "0.1",
          "--N-list", "1" + "0" * 400], "2**53"),
    ],
)
def test_wide_or_overflowing_parameters_exit_cleanly(tmp_path, capsys, argv, err):
    code = main(argv + ["--out", str(tmp_path / "x")])
    if err:
        assert code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ") and err in stderr
    else:
        assert code == 0
        rows = read_csv(tmp_path / "x.csv")
        n_list = argv[argv.index("--N-list") + 1].split(",")
        assert rows[1:] == [[n, "1", "1", "0"] for n in n_list]


def reference_table(header, rows):
    """The table format, built without amplab.cli: csv.writer with CRLF line
    ends, floats to 17 significant digits, any other cell by str and None as
    a blank cell."""

    def cell(x):
        if x is None:
            return ""
        return f"{x:.17g}" if isinstance(x, float) else str(x)

    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([cell(x) for x in row] for row in rows)
    return buf.getvalue().encode()


def _fuzz_table(tmp_path):
    config = LatticeConfig(num_sites=5, num_steps=4)
    kernel, strategies = _fuzz_kernel(config), _all_strategies(10_000_000)
    # the block-level call that fuzz makes: a column's bits depend on the
    # number of setups evaluated with it
    setups = [random_setup(config, seed, max_filters=3) for seed in range(3, 13)]
    block = consistency_check(setup_block(setups, 5), kernel, strategies)
    rows = []
    for seed, deviations, compared in zip(range(3, 13), block.deviations.tolist(), block.compared):
        pairs = zip(block.pairs, deviations, compared)
        rows += [[seed, f"{a}|{b}", dev] for (a, b), dev, ran in pairs if ran]
    argv = ["fuzz", "--seed", "3", "--count", "10", "--L", "5", "--T", "4"]
    return argv, "", ["seed", "strategy_pair", "deviation"], rows


def _evolve_table(tmp_path):
    kernel_path, _ = write_inputs(tmp_path)
    psi_path = tmp_path / "psi.json"
    save_wavefunction(normalize(WaveFunction(np.array([1.0, 0.5j, 0.0, -1.0]))), psi_path)
    kernel, states = load_kernel(kernel_path), [load_wavefunction(psi_path)]
    for _ in range(3):
        states.append(evolve(states[-1], kernel, 1))
    rows = [
        [step, site, float(z.real), float(z.imag), float(abs(z) ** 2)]
        for step, state in enumerate(states)
        for site, z in enumerate(state.coeffs)
    ]
    argv = ["evolve", "--kernel", str(kernel_path), "--psi", str(psi_path)]
    return argv + ["--steps", "3"], "", ["step", "site", "re", "im", "prob"], rows


def _born_table(p, f):
    def table(tmp_path):
        rows = [
            [row.N, row.overlap_exact, row.overlap_gaussian, row.deviation]
            for row in convergence_scan(p, f, 0.02, [100, 1000, 10_000])
        ]
        argv = ["born", "--p", str(p), "--f", str(f), "--eps", "0.02"]
        argv += ["--N-list", "100,1000,10000"]
        return argv, "", ["N", "overlap_exact", "overlap_gauss", "deviation"], rows

    return table


def _regrade_table(tmp_path):
    result = recover_regrade(catalog_op("product", grid_n=32))
    rows = [[float(u), float(x)] for u, x in zip(result.u_grid, result.xi_values)]
    return ["regrade", "--op", "product", "--grid-n", "32"], "_xi", ["u", "xi"], rows


def _double_slit_table(tmp_path):
    kernel = make_tight_binding_kernel(LatticeConfig(16, 8, dt=0.35), hop=1.0)
    slits = [Setup(Event(8, 0), Event(8, 8), (FilterSpec(4, (h,)),)) for h in (5, 10)]
    a, b, both = (
        block_vectors(setup_block([s], 16), kernel)[:, 0] for s in (*slits, or_compose(*slits))
    )
    rows = [
        [i, a[i].real, a[i].imag, b[i].real, b[i].imag, both[i].real,
         both[i].imag, abs(both[i] - a[i] - b[i])]
        for i in range(16)
    ]
    header = ["site", "re_a", "im_a", "re_b", "im_b", "re_both", "im_both", "sum_check"]
    return ["double-slit", "--holes", "5,10"], "", header, rows


@pytest.mark.parametrize(
    "table",
    [
        _fuzz_table,
        _evolve_table,
        _born_table(0.36, 0.36),
        _born_table(1.0, 0.99),  # blank Gaussian cells
        _regrade_table,
        _double_slit_table,
    ],
)
def test_table_bytes_match_the_reference_format(tmp_path, table):
    argv, stem, header, rows = table(tmp_path)
    expected = reference_table(header, rows)
    out = tmp_path / "t"
    assert main(argv + ["--out", str(out)]) == 0
    assert Path(f"{out}{stem}.csv").read_bytes() == expected
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    payload = json.loads(Path(f"{out}{stem}.json").read_text())
    cells = list(csv.reader(io.StringIO(expected.decode(), newline="")))
    assert payload == {"columns": cells[0], "rows": cells[1:]}


@pytest.mark.parametrize(
    "columns",
    [
        # an integral float keeps the float rule (2.0 -> "2"); ints go by str
        {"x": np.array([2.0, 0.1, -1e-300]), "n": np.array([3, -4, 5])},
        {"x": np.array([], dtype=float)},
    ],
)
def test_array_columns_match_the_reference_format(tmp_path, columns):
    header, rows = list(columns), list(zip(*(c.tolist() for c in columns.values())))
    expected = reference_table(header, rows)
    for fmt in ("csv", "json"):
        run = cli._Run(argparse.Namespace(out=str(tmp_path / "t"), format=fmt))
        path = run.write_table("", columns)
        if fmt == "csv":
            assert path.read_bytes() == expected
        else:
            cells = list(csv.reader(io.StringIO(expected.decode(), newline="")))
            assert json.loads(path.read_text()) == {"columns": cells[0], "rows": cells[1:]}


def test_run_exit_code_is_that_of_its_checks(tmp_path, capsys):
    # a deviation at its tolerance passes and says nothing; a NaN fails, and
    # once any check failed the run exits 2
    run = cli._Run(argparse.Namespace(subcommand="t", out=str(tmp_path / "t")))
    run.check("a", 1e-10, 1e-10)
    assert run.finish() == 0
    run.check("b", float("nan"), 1e-10, site=3)
    assert run.finish() == 2
    assert capsys.readouterr().err == "b violation: nan\n"
    assert read_checks(tmp_path / "t") == [
        {"name": "a", "worst": 1e-10, "tol": 1e-10, "passed": True},
        {"name": "b", "worst": None, "tol": 1e-10, "passed": False, "site": 3},
    ]


def test_out_under_a_file_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["born", "--p", "0.5", "--f", "0.5", "--eps", "0.1", "--N-list", "10",
                 "--out", str(blocker / "born")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_kernel_construction_failure_exits_1(tmp_path, monkeypatch, capsys):
    argv = ["double-slit", "--holes", "3,9", "--out", str(tmp_path / "ds")]
    # |dt H| near the float limit takes over 1023 squarings: not unitary
    assert main(argv + ["--dt", "1e308", "--hop", "0.3"]) == 1
    assert "not unitary" in capsys.readouterr().err

    def diverge(matrix):
        raise RuntimeError("matrix exponential series failed to converge")

    monkeypatch.setattr(lattice, "expm_series", diverge)
    assert main(argv) == 1
    assert "error: matrix exponential series failed" in capsys.readouterr().err


def test_nan_unitarity_defect_exits_1(tmp_path, monkeypatch, capsys):
    # finite entries around 1e160: K^dagger K overflows to inf - inf, so the
    # defect is NaN, which the gate must read as a refusal, not as a pass
    rng = np.random.default_rng(1)
    huge = 1e160 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    assert np.isnan(lattice.unitarity_defect(lattice.Kernel(huge)))
    monkeypatch.setattr(lattice, "expm_series", lambda matrix: huge)
    argv = ["double-slit", "--holes", "3,9", "--out", str(tmp_path / "ds")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is read, not warned about
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: tight-binding kernel not unitary (defect nan)\n"


_SCIPY_PROBE = """
import sys

import amplab
import amplab.cli

out, kernel, setup, psi = sys.argv[1:]
runs = [
    ["fuzz", "--count", "20"],
    ["amplitude", "--setup", setup, "--kernel", kernel],
    ["evolve", "--kernel", kernel, "--psi", psi, "--steps", "3"],
    ["double-slit", "--holes", "5,10"],
    # a window that cuts the bulk, so the binomial sum runs
    ["born", "--p", "0.5", "--f", "0.5", "--eps", "0.01", "--N-list", "10,1000"],
    ["born-direct", "--psi", psi, "--site", "0", "--N", "6",
     "--n-min", "2", "--n-max", "4"],
    ["regrade", "--op", "add"],
]
for argv in runs:
    assert amplab.cli.main(argv + ["--out", out]) == 0, argv
    loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, (argv, loaded)
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # a fresh interpreter: this test process has imported scipy already
    kernel_path, setup_path = write_inputs(tmp_path)
    psi_path = tmp_path / "psi.json"
    save_wavefunction(normalize(WaveFunction(np.array([1.0, 1.0, 0.0, 0.0]))), psi_path)
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "x"),
         str(kernel_path), str(setup_path), str(psi_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


_NO_SCIPY_IMPORTS = """
import importlib
import pkgutil
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
import amplab

modules = [m.name for m in pkgutil.iter_modules(amplab.__path__, "amplab.")]
for name in modules:
    importlib.import_module(name)
assert "amplab.regrade" in modules and "amplab.cli" in modules, modules
amplab.recover_regrade(amplab.catalog_op("product"))
"""


def test_every_module_imports_without_scipy():
    # numpy is amplab's one runtime dependency: a finder that refuses scipy
    # stands in for an environment without it
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_IMPORTS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
