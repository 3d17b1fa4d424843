"""CLI tests: exit codes, report shape, determinism, CSV export."""

import argparse
import json
import multiprocessing
import multiprocessing.pool
import os
import shlex
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import sympy as sp

import gassym
from gassym import catalog
from gassym.cli import _build_parser, _parse_params, main

TOP_KEYS = {
    "version",
    "seed",
    "algebra",
    "catalog",
    "classes",
    "solutions",
    "traces",
}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------
# exit codes


def test_verify_algebra_passes(capsys):
    code, out, _ = _run(capsys, ["verify-algebra"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == TOP_KEYS
    assert report["algebra"]["passed"]
    assert report["algebra"]["jacobi_failures"] == []
    assert report["algebra"]["realization_diff"] == []


def test_verify_invariants_single_entry(capsys):
    code, out, _ = _run(capsys, ["verify-invariants", "4.77"])
    assert code == 0
    report = json.loads(out)
    assert report["catalog"]["4.77"]["passed"]
    assert report["catalog"]["4.77"]["rank"] == 5


def test_unknown_entry_is_usage_error(capsys):
    code, out, err = _run(capsys, ["verify-invariants", "4.99"])
    assert code == 2
    assert "4.99" in err


def test_unknown_solution_kind_is_usage_error(capsys):
    code, out, err = _run(capsys, ["verify-solution", "bogus"])
    assert code == 2
    assert out == ""
    assert err == ("error: unknown solution kinds: ['bogus']; known solution kinds: "
                   "isochoric-general, isochoric-reduced, nonisochoric-general, "
                   "nonisochoric-reduced\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["trace", "isochoric-reduced", "--x0", "a,b,c"], "error: bad initial point 'a,b,c'\n"),
        # after "--" no word is an option, so none is attached to a number
        (["verify-solution", "--", "--t0", "1"],
         "error: unknown solution kinds: ['--t0', '1']; known solution kinds: isochoric-general, "
         "isochoric-reduced, nonisochoric-general, nonisochoric-reduced\n"),
    ],
    ids=["bad-initial-point", "words-after-double-dash"],
)
def test_refused_words_are_usage_errors(capsys, argv, err):
    assert _run(capsys, argv) == (2, "", err)


def test_params_need_single_entry(capsys):
    code, _, err = _run(capsys, ["verify-invariants", "4.3", "4.77", "--params", "a=1"])
    assert code == 2


def test_invariants_with_explicit_params(capsys):
    code, out, _ = _run(
        capsys, ["verify-invariants", "4.3", "--params", "a=1,b=-1/2"]
    )
    assert code == 0
    assert json.loads(out)["catalog"]["4.3"]["passed"]


def test_params_rank_reads_log_as_log_abs(capsys):
    # d*t + c < 0 on part of the sample box: log must read ln|.| there,
    # as on the parameter grid, or the Jacobian turns nan
    code, out, _ = _run(
        capsys,
        ["verify-invariants", "4.71.i", "--params", "c=-15/17,d=8/17,a=-1,b=1/4"],
    )
    assert code == 0
    item = json.loads(out)["catalog"]["4.71.i"]
    assert item["passed"]
    assert item["rank"] == 5


def test_bad_param_value_is_usage_error(capsys):
    code, _, _ = _run(capsys, ["verify-invariants", "4.3", "--params", "a"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-invariants", "4.3", "--params", "a=1/0,b=1"],
        ["verify-invariants", "4.3", "--params", "a=nan,b=1"],
        ["verify-invariants", "4.3", "--params", "a=1e400,b=1"],
        # refused before a 10**9-digit power of 10 is built
        ["verify-invariants", "4.3", "--params", "a=1e1000000000,b=1"],
        ["verify-invariants", "4.3", "--params", "a=1e-1000000000,b=1"],
        # x is a chart coordinate, not a number
        ["verify-invariants", "4.3", "--params", "a=x,b=1"],
        ["trace", "isochoric-reduced", "--params", "k0=abc"],
    ],
)
def test_non_finite_param_value_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parameter value")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-invariants", "4.38", "--params", "a=2,eps=5"],
        ["verify-invariants", "4.42", "--params", "a=3/5,b=4/5,eps=7"],
    ],
)
def test_unlisted_choice_value_is_usage_error(capsys, argv):
    # a choice parameter takes only its listed values
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: entry {argv[1]}: eps must be in {{0, 1}}\n"


@pytest.mark.parametrize(
    "text, value",
    [("3/5", (3, 5)), ("0.6", (3, 5)), ("-1", (-1, 1)), ("1e-3", (1, 1000))],
)
def test_param_values_are_exact_literals(text, value):
    assert _parse_params(f"a={text}") == {"a": sp.Rational(*value)}


@pytest.mark.parametrize(
    "value", ["1/0", "inf", "nan", "2**3", 'print("EVALUATED") or 1']
)
@pytest.mark.parametrize(
    "prefix", [["verify-invariants", "4.3"], ["trace", "isochoric-reduced"]],
    ids=["verify-invariants", "trace"],
)
def test_param_value_is_never_evaluated(capsys, prefix, value):
    name = "a" if prefix[0] == "verify-invariants" else "k0"
    code, out, err = _run(capsys, [*prefix, "--params", f"{name}={value},b=1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: parameter value") and err.count("\n") == 1
    assert "EVALUATED" not in err.replace(value, "")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["verify-invariants", "4.3", "--params", "a=1,a=2,b=1"], "a"),
        (["trace", "isochoric-reduced", "--params", "k0=1, k0=2"], "k0"),
    ],
    ids=["verify-invariants", "trace"],
)
def test_repeated_param_is_usage_error(capsys, argv, key):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: parameter {key!r} is given twice\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seed", "-1"),
        ("--seed", "1.5"),
        ("--seed", "x"),
    ],
)
def test_bad_seed_or_tolerance_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify-invariants", "4.77", flag, value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: {value!r} is not" in out.err


# every option that a subcommand accepts; adding one is a change to this table
OPTIONS = {
    "verify-algebra": {"--seed", "--format", "--out"},
    "verify-invariants": {"--params", "--seed", "--format", "--out"},
    "classify": {"--seed", "--format", "--out"},
    "verify-solution": {"--seed", "--format", "--out"},
    "trace": {"--x0", "--t0", "--t1", "--h", "--params", "--seed", "--format", "--out"},
}


def test_option_sets_are_pinned():
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert options == OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-algebra"],
        ["classify", "4.77"],
        ["verify-solution"],
        ["trace", "isochoric-reduced"],
        ["verify-invariants", "4.77"],
    ],
)
def test_tol_zero_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol-zero", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-zero" in capsys.readouterr().err


def test_classify_subset(capsys):
    code, out, _ = _run(capsys, ["classify", "4.1", "4.2", "4.77"])
    assert code == 0
    report = json.loads(out)["classes"]
    assert report["passed"]
    assert set(report["rows"]) == {"4.1", "4.2", "4.77"}
    assert report["label_consistency"]["A_{3,9}+A_1"]


def test_verify_solution_all(capsys):
    code, out, _ = _run(capsys, ["verify-solution"])
    assert code == 0
    sols = json.loads(out)["solutions"]
    assert set(sols) == {
        "isochoric-general",
        "isochoric-reduced",
        "nonisochoric-general",
        "nonisochoric-reduced",
    }
    assert all(e["passed"] for e in sols.values())
    assert sols["isochoric-reduced"]["jacobian_det"] == "1"
    assert sols["nonisochoric-reduced"]["jacobian_det"] == "t"


# --------------------------------------------------------------------------
# trace


def test_trace_writes_csv(capsys, tmp_path):
    out_csv = tmp_path / "tr.csv"
    code, out, _ = _run(
        capsys,
        [
            "trace", "isochoric-reduced",
            "--x0", "0.5,1,-0.3",
            "--t0", "0.5", "--t1", "1.0", "--h", "0.01",
            "--out", str(out_csv),
        ],
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 52  # 50 steps + endpoint + header
    report = json.loads(out)
    assert report["traces"][0]["samples"] == 51


def test_trace_x0_takes_a_negative_start_in_either_form(capsys):
    argv = ["trace", "isochoric-reduced", "--t1", "0.1", "--h", "1e-2"]
    spaced = _run(capsys, argv + ["--x0", "-1,0,1"])
    attached = _run(capsys, argv + ["--x0=-1,0,1"])
    assert spaced == attached
    assert spaced[0] == 0
    assert json.loads(spaced[1])["traces"][0]["initial"] == [-1.0, 0.0, 1.0]


def test_trace_times_take_a_negative_exponent_as_a_separate_word(capsys):
    # argparse's own negative-number pattern misses exponents
    code, out, _ = _run(capsys, ["trace", "isochoric-reduced", "--t0", "-1e-3", "--t1", "0.01"])
    assert code == 0
    trace = json.loads(out)["traces"][0]
    assert (trace["t0"], trace["t1"]) == (-0.001, 0.01)


def test_trace_negative_step_as_a_separate_word_is_usage_error(capsys):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--h", "-1e-3"])
    assert code == 2
    assert out == ""
    assert err == "error: step size must be positive, not -0.001\n"


def _readme_commands() -> list[list[str]]:
    """The argument lists of the ``gassym`` lines in README's CLI block,
    with continuation lines joined and comments dropped."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines if line.startswith("gassym ")]


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in _readme_commands()} == set(OPTIONS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, tmp_path, argv):
    # every documented command runs as written, its --out moved into tmp_path
    argv = [str(tmp_path / a) if prev == "--out" else a for prev, a in zip([""] + argv, argv)]
    assert main(argv) == 0
    capsys.readouterr()


def test_readme_trace_example_runs(capsys, tmp_path):
    # the README's Fig. 2 command, with --out moved into tmp_path
    out_csv = tmp_path / "fig2_u1.csv"
    code, out, _ = _run(
        capsys,
        [
            "trace", "nonisochoric-reduced", "--x0=-1.905,0.995,0.995",
            "--t0", "0.1", "--t1", "3", "--out", str(out_csv),
        ],
    )
    assert code == 0
    trace = json.loads(out)["traces"][0]
    assert trace["initial"] == [-1.905, 0.995, 0.995]
    assert len(out_csv.read_text().strip().split("\n")) == trace["samples"] + 1


def test_trace_empty_range_is_usage_error(capsys):
    code, _, err = _run(capsys, ["trace", "isochoric-reduced", "--t0", "1", "--t1", "1"])
    assert code == 2
    assert "time range" in err


# a value after its option as its own word is attached to it, "-inf" too
@pytest.mark.parametrize("flag", ["--t0=nan", "--t1=inf", "--t0 -inf", "--t1 -nan"])
def test_trace_non_finite_time_is_usage_error(capsys, flag):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", *flag.split()])
    assert code == 2
    assert out == ""
    assert err.startswith("error: times must be finite")


def test_trace_params_bind_the_family_constants(capsys):
    # y(t) = y0 - k0*t**2/(2*rho0): rho0 = 2 halves the drop of rho0 = 1
    code, out, _ = _run(
        capsys,
        ["trace", "isochoric-reduced", "--x0", "0,0,1", "--t0", "0", "--t1", "3",
         "--h", "1e-2", "--params", "rho0=2"],
    )
    assert code == 0
    assert json.loads(out)["traces"][0]["endpoint"][1] == pytest.approx(-2.25, abs=1e-9)


@pytest.mark.parametrize(
    "params, message",
    [
        ("zz=3", "error: unknown constant 'zz'"),
        ("rho0=0", "error: constant rho0 must be positive"),
        ("rho0=-1", "error: constant rho0 must be positive"),
    ],
)
def test_trace_bad_constant_is_usage_error(capsys, params, message):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--params", params])
    assert code == 2
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize(
    "params, names",
    [
        # k0**2 doubles the digits of k0
        ("k0=1e-4300", "k0"),
        ("k0=1e-4299", "k0"),
        ("k0=1.5e-4299", "k0"),
        # neither alone passes 4300 digits, (k0**2 + 1)/(2*rho0) does
        ("k0=1e-2100,rho0=1e200", "k0 and rho0"),
    ],
)
def test_trace_constant_too_long_to_print_is_usage_error(capsys, params, names):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--params", params, "--t1", "0.001"])
    assert code == 2
    assert out == ""
    assert err == f"error: the value of {names} makes a velocity coefficient longer than 4300 digits\n"


def test_trace_takes_a_constant_of_hundreds_of_digits(capsys):
    code, out, _ = _run(capsys, ["trace", "isochoric-reduced", "--params", "k0=1e-400", "--t1", "0.001"])
    assert code == 0
    assert json.loads(out)["traces"][0]["samples"] == 2


def test_trace_bad_point_is_usage_error(capsys):
    code, _, _ = _run(capsys, ["trace", "isochoric-reduced", "--x0", "1,2"])
    assert code == 2


@pytest.mark.parametrize("x0", ["nan,0,0", "inf,0,0", "0,-inf,0", "-inf,0,0", "-nan,0,0"])
def test_trace_non_finite_point_is_refused_before_integrating(capsys, monkeypatch, x0):
    def integrate(*args):
        raise AssertionError("integrated from a non-finite point")

    monkeypatch.setattr(gassym.numerics, "integrate", integrate)
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--x0", x0])
    assert code == 2
    assert out == ""
    assert err == f"error: initial point {x0!r} is not finite\n"


@pytest.mark.parametrize("h", ["0", "-1"])
def test_trace_nonpositive_step_is_usage_error(capsys, h):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", f"--h={h}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: step size must be positive")


def test_trace_infinite_step_is_usage_error(capsys, tmp_path):
    # an infinite step would be one step to t1 and an "h": Infinity report,
    # which is not JSON
    out_csv = tmp_path / "tr.csv"
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--h", "inf", "--out", str(out_csv)])
    assert code == 2
    assert out == ""
    assert err == "error: step size must be finite, not inf\n"
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        # 3e300 samples: the buffer size is refused before anything is allocated
        (["--h", "1e-300"], "error: cannot allocate samples for step size 1e-300"),
        # near 1e16 the time grid is 2 apart, so t + 0.5 == t
        (["--t0", "1e16", "--t1", "1.0000000000000064e16", "--h", "0.5"],
         "error: step size 0.5 is below the time resolution"),
    ],
    ids=["allocation", "time-resolution"],
)
def test_trace_step_too_small_is_usage_error(capsys, flags, message):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith(message)


def test_trace_huge_sample_count_prints_short(capsys):
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--h", "1e-300", "--t1", "1"])
    assert code == 2
    assert out == ""
    assert err == ("error: cannot allocate samples for step size 1e-300: "
                   f"1e+300 samples exceed MAX_SAMPLES = {gassym.numerics.MAX_SAMPLES}\n")


def test_trace_sample_count_is_bounded(capsys, monkeypatch):
    monkeypatch.setattr(gassym.numerics, "MAX_SAMPLES", 1_000)
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--h", "1e-3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot allocate samples for step size 0.001: 3002 samples")
    assert err.count("\n") == 1


def test_trace_integration_error_is_usage_error(capsys):
    # the non-isochoric velocity is singular at t = 0
    code, out, err = _run(
        capsys,
        ["trace", "nonisochoric-reduced", "--x0=1,0,0", "--t0", "0", "--t1", "1"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: velocity evaluation failed at t=0.0")


def test_nonisochoric_trace_cannot_start_before_time_zero(capsys, tmp_path):
    # the family holds only for t > 0: RK4 must not step across t = 0
    out_csv = tmp_path / "t.csv"
    code, out, err = _run(
        capsys,
        ["trace", "nonisochoric-reduced", "--t0", "-1", "--t1", "1", "--out", str(out_csv)],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: nonisochoric-reduced holds only for t > 0")
    assert err.count("\n") == 1
    assert not out_csv.exists()


def _count_forks(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["nonisochoric-reduced", "--x0=0.5,1,-0.3", "--t0", "0", "--t1", "1", "--h", "0.1"],
         "error: velocity evaluation failed at t=0.0: float division by zero\n"),
        (["isochoric-reduced", "--x0=0,1e308,1e308", "--t1", "1", "--h", "1e-3"],
         "error: non-finite state at t=0.001\n"),
        (["nonisochoric-reduced", "--x0=0,0,1", "--t0", "1e16", "--t1", "1.0000000000000064e16", "--h", "0.5"],
         "error: step size 0.5 is below the time resolution at t=1e+16\n"),
    ],
    ids=["velocity", "non-finite", "time-resolution"],
)
def test_failed_trace_leaves_no_file_and_no_process(capsys, monkeypatch, tmp_path, argv, message, cpus):
    # the CSV's formatter is forked only once the RK4 loop has succeeded
    monkeypatch.setattr(catalog, "_usable_cpus", lambda: cpus)
    made = _count_forks(monkeypatch)
    out_csv = tmp_path / "tr.csv"
    assert _run(capsys, ["trace", *argv, "--out", str(out_csv)]) == (2, "", message)
    assert not out_csv.exists()
    assert made == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "cpus, thread, out, forks",
    [(2, False, True, 1), (1, False, True, 0), (2, True, True, 0), (2, False, False, 0)],
    ids=["two-cpus", "one-cpu", "beside-a-thread", "no-out"],
)
def test_trace_forks_one_formatter_where_forking_is_allowed(capsys, monkeypatch, tmp_path, cpus, thread, out, forks):
    monkeypatch.setattr(catalog, "_usable_cpus", lambda: cpus)
    made = _count_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if thread:
        other.start()
    try:
        argv = ["trace", "isochoric-reduced", "--h", "1e-3", *(["--out", str(tmp_path / "tr.csv")] * out)]
        assert _run(capsys, argv)[0] == 0
    finally:
        release.set()
        if thread:
            other.join(timeout=10)
    assert not other.is_alive()
    assert len(made) == forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_unwritable_out_is_refused_before_any_fork(capsys, monkeypatch, tmp_path):
    # --out is opened before the formatter is forked
    monkeypatch.setattr(catalog, "_usable_cpus", lambda: 2)
    made = _count_forks(monkeypatch)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--out", str(path)])
    assert (code, out, made) == (2, "", [])
    assert err.startswith(f"error: cannot write {path}: ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_takes_no_sendfile_is_written_here(capsys, monkeypatch):
    # every write to /dev/full fails, the first half's and the appended
    # second half's alike: one error line, and the formatter is reaped
    monkeypatch.setattr(catalog, "_usable_cpus", lambda: 2)
    code, out, err = _run(capsys, ["trace", "isochoric-reduced", "--out", "/dev/full"])
    assert (code, out, err) == (2, "", "error: cannot write /dev/full: No space left on device\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --------------------------------------------------------------------------
# a bad data file


@pytest.mark.parametrize(
    "data, old, new, argv, message",
    [
        ("catalog.yaml", '"vartheta_S", "P - log(t)"]', '"vartheta_S", "P - log(t - t)"]', ["verify-invariants", "4.1"],
         "error: entry 4.1: cannot read 'P - log(t - t)': log of zero\n"),
        ("catalog.yaml", '"vartheta_S", "P - log(t)"]', '"vartheta_S", "P - log(t)*log(t)"]', ["verify-invariants", "4.1"],
         "error: entry 4.1: cannot read 'P - log(t)*log(t)': not a rational function plus constant multiples"
         " of logs in the chart's field\n"),
        ("classes.yaml", '["-E1", "E2", "E3", "E4 - E3"]', '["-E1", "E2", "E3", "E3"]', ["classify", "4.21"],
         "error: entry 4.21: singular change of basis at {}\n"),
    ],
    ids=["log-of-zero", "product-of-logs", "singular-basis-change"],
)
def test_bad_data_file_is_usage_error(tmp_path, data, old, new, argv, message):
    # a copy of the package with one string of a data file changed, run as
    # a fresh process: one error line, no traceback
    shutil.copytree(Path(gassym.__file__).parent, tmp_path / "gassym", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "gassym" / "data" / data
    text = path.read_text()
    entry = text.index(f'- id: "{argv[1]}"\n')
    path.write_text(text[:entry] + text[entry:].replace(old, new, 1))
    proc = subprocess.run([sys.executable, "-m", "gassym.cli", *argv], env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_programming_value_error_keeps_its_traceback(monkeypatch):
    def bug(ids):
        raise ValueError("a bug, not a data file")

    monkeypatch.setattr(catalog, "verify_entries", bug)
    with pytest.raises(ValueError, match="a bug"):
        main(["verify-invariants", "all"])


# --------------------------------------------------------------------------
# determinism and formatting


def test_reports_are_byte_identical(capsys):
    argv = ["verify-invariants", "4.77", "4.27", "--seed", "3"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_text_format(capsys):
    code, out, _ = _run(capsys, ["verify-invariants", "4.77", "--format", "text"])
    assert code == 0
    assert out.startswith("catalog:")


def test_text_format_algebra_prints_table(capsys):
    code, out, _ = _run(capsys, ["verify-algebra", "--format", "text"])
    assert code == 0
    assert "[X7, X8] = -X9" in out
    assert "[X10, X11] = X10" in out


def test_report_written_to_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["verify-invariants", "4.77", "--out", str(out_file)])
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["catalog"]["4.77"]["passed"]


@pytest.mark.parametrize(
    "argv, name", [(["verify-algebra"], "x.json"), (["trace", "isochoric-reduced"], "x.csv")]
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, name):
    path = tmp_path / "missing" / name
    code, out, err = _run(capsys, [*argv, "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify-solution"], ["trace", "isochoric-reduced"]], ids=["verify-solution", "trace"])
def test_empty_out_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    # an empty --out names no file: nothing is written, not even to stdout,
    # and both commands print the same line
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, [*argv, "--out", ""])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write : ")
    assert err.count("\n") == 1
    assert err == "error: cannot write : the --out path is empty\n"
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# verify-invariants over many ids: the chart families in forked workers


def test_verify_invariants_all_is_the_same_on_one_and_two_cpus(capsys, monkeypatch):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(catalog, "_usable_cpus", lambda: cpus)
        runs.append(_run(capsys, ["verify-invariants", "all"]))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_constraint_error_in_a_worker_is_usage_error(capsys, monkeypatch):
    def verify_entry(eid):
        if eid == "4.42":
            raise catalog.ConstraintError(f"entry {eid}: cannot decide")
        return catalog.VerificationReport(eid, True, {}, 5)

    monkeypatch.setattr(catalog, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(catalog, "verify_entry", verify_entry)
    code, out, err = _run(capsys, ["verify-invariants", "all"])
    assert (code, out, err) == (2, "", "error: entry 4.42: cannot decide\n")
    assert multiprocessing.active_children() == []


class _PoolMade(Exception):
    pass


def test_one_chart_family_or_params_run_in_process(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise _PoolMade

    monkeypatch.setattr(catalog, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    for argv in (["4.77"], ["4.1", "4.2"], ["4.42", "--params", "a=3/5,b=4/5,eps=1"]):
        assert _run(capsys, ["verify-invariants", *argv])[0] == 0
    with pytest.raises(_PoolMade):  # two chart families
        main(["verify-invariants", "4.1", "4.77"])


# --------------------------------------------------------------------------
# fresh interpreters


def _spawn(args, **kwargs):
    """Start ``python args...`` with ``gassym`` importable from this tree."""
    src = str(Path(gassym.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-algebra"],
        ["verify-invariants", "4.77"],
        ["classify", "4.77"],
        ["verify-solution", "isochoric-reduced"],
        ["trace", "isochoric-reduced", "--t1", "0.1", "--h", "1e-2", "--out", "{tmp}"],
    ],
)
def test_campaigns_do_not_import_numpy(tmp_path, argv):
    argv = [a.format(tmp=tmp_path / "tr.csv") for a in argv]
    code = (
        "import sys; from gassym.cli import main; rc = main(sys.argv[1:]); "
        "sys.exit(3 if 'numpy' in sys.modules else rc)"
    )
    proc = _spawn(["-c", code, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err or "numpy was imported"


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_stdout_exits_without_traceback(lines_read):
    # as `gassym verify-algebra --format text | head -1`: the reader
    # closes its end of the pipe after ``lines_read`` lines
    r, w = os.pipe()
    if not lines_read:
        os.close(r)
    cmd = ["-u", "-m", "gassym.cli", "verify-algebra", "--format", "text"]
    proc = _spawn(cmd, stdout=w, stderr=subprocess.PIPE, text=True)
    os.close(w)
    if lines_read:
        with os.fdopen(r) as reader:
            assert reader.readline().startswith("[")
    _, err = proc.communicate(timeout=120)
    assert err == ""
    # a reader gone before the first line always makes the write fail;
    # after one line the rest of the table may already sit in the pipe,
    # and then nothing fails
    assert proc.returncode in ((0, 1) if lines_read else (1,))


def test_import_leaves_multiprocessing_out():
    code = "import sys, gassym.cli; print('multiprocessing' in sys.modules)"
    proc = _spawn(["-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out.strip()) == (0, "False"), err


# --------------------------------------------------------------------------
# the cyclic collector around the import of gassym.cli


@pytest.mark.parametrize(
    "prelude, want",
    [
        # every import ran: the import-time heap is frozen, collection is on
        ("", "True True"),
        # an import failed: collection is on again and nothing was frozen
        ("import sys; sys.modules['gassym.numerics'] = None\n", "ImportError True False"),
    ],
)
def test_import_restores_the_collector(prelude, want):
    code = prelude + (
        "import gc\n"
        "try:\n"
        "    import gassym.cli\n"
        "except ImportError:\n"
        "    print('ImportError', gc.isenabled(), gc.get_freeze_count() > 0)\n"
        "else:\n"
        "    print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    proc = _spawn(["-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out.strip()) == (0, want), err
