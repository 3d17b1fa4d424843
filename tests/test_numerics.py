"""Numeric tests: RK4 accuracy, sphere transport, CSV export."""

import math
import os
from array import array

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gassym import numerics
from gassym.numerics import (
    IntegrationError,
    Trajectory,
    compare_to_closed_form,
    convergence_order,
    integrate,
    sphere_transport,
    velocity_function,
    write_csv,
)
from gassym.submodel import (
    Solution,
    flow_map,
    k0,
    m0,
    rho0,
    solution_family,
    t,
    u0,
    x,
    x0,
    y,
    y0,
    z,
    z0,
)

BINDING = {k0: 1, m0: 1, rho0: 1}
ISO_LABELS = {x0: sp.Rational(1, 2), y0: 1, z0: sp.Rational(-1, 3)}
NON_LABELS = {u0: sp.Rational(3, 4), y0: 1, z0: sp.Rational(-1, 3)}


def _iso_setup():
    s = solution_family("isochoric-reduced").subs(BINDING)
    fm = flow_map(solution_family("isochoric-reduced"))
    full = dict(BINDING)
    full.update(ISO_LABELS)
    start = [float(c.subs(full).subs(sp.Symbol("t"), 0.5)) for c in fm.components()]
    return s, fm, full, start


def _non_setup():
    s = solution_family("nonisochoric-reduced").subs(BINDING)
    fm = flow_map(solution_family("nonisochoric-reduced"))
    full = dict(BINDING)
    full.update(NON_LABELS)
    start = [float(c.subs(full).subs(sp.Symbol("t"), 0.5)) for c in fm.components()]
    return s, fm, full, start


# --------------------------------------------------------------------------
# RK4


def test_rk4_matches_isochoric_flow():
    s, fm, full, start = _iso_setup()
    tr = integrate(velocity_function(s), start, 0.5, 2.5, 1e-3)
    assert compare_to_closed_form(tr, fm, full) < 1e-6


def test_rk4_matches_nonisochoric_flow():
    s, fm, full, start = _non_setup()
    tr = integrate(velocity_function(s), start, 0.5, 2.5, 1e-3)
    assert compare_to_closed_form(tr, fm, full) < 1e-6


def test_rk4_zero_velocity_is_stationary():
    tr = integrate(lambda tv, p: np.zeros(3), [1.0, 2.0, 3.0], 0.0, 1.0, 0.1)
    assert np.allclose(tr.points, tr.points[0])
    assert tr.ts[0] == 0.0 and tr.ts[-1] == pytest.approx(1.0)


def test_rk4_halving_reduces_error():
    # ~16x per halving on a problem RK4 does not integrate exactly
    s, fm, full, start = _non_setup()
    vel = velocity_function(s)

    def endpoint_err(h):
        tr = integrate(vel, start, 0.5, 2.0, h)
        return compare_to_closed_form(tr, fm, full)

    e1, e2 = endpoint_err(4e-2), endpoint_err(2e-2)
    assert 10 < e1 / e2 < 22


def test_rk4_convergence_order():
    s, fm, full, start = _non_setup()
    fn = sp.lambdify(
        sp.Symbol("t"), [c.subs(full) for c in fm.components()], modules="numpy"
    )
    order = convergence_order(velocity_function(s), start, 0.5, 2.0, fn)
    assert 3.7 <= order <= 4.3


def _numpy_velocity(s):
    """Velocity on numpy 3-vectors, lambdified with numpy."""
    fn = sp.lambdify((t, x, y, z), [s.u, s.v, s.w], modules="numpy")
    return lambda tv, p: np.asarray(fn(tv, p[0], p[1], p[2]), dtype=float)


def _reference_rk4(velocity, p0, t0, t1, h):
    """RK4 on numpy 3-vectors with per-step lists: the reference loop."""
    ts = [t0]
    pts = [np.asarray(p0, dtype=float)]
    tv, p = t0, pts[0]
    while tv < t1 - 1e-15 * max(1.0, abs(t1)):
        step = min(h, t1 - tv)
        k1 = velocity(tv, p)
        k2 = velocity(tv + step / 2, p + step / 2 * k1)
        k3 = velocity(tv + step / 2, p + step / 2 * k2)
        k4 = velocity(tv + step, p + step * k3)
        p = p + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tv = tv + step
        ts.append(tv)
        pts.append(p)
    return np.array(ts), np.array(pts)


@pytest.mark.parametrize(
    "kind, t0, t1, h",
    [
        ("isochoric-reduced", 0.1, 2.9, 3e-3),
        ("nonisochoric-reduced", 0.7, 3.3, 7e-4),
    ],
)
def test_rk4_bit_identical_to_vector_reference(kind, t0, t1, h):
    # h does not divide t1 - t0, so the last step is a remainder step
    s = solution_family(kind).subs(BINDING)
    p0 = [0.3, -0.7, 1.1]
    tr = integrate(velocity_function(s), p0, t0, t1, h)
    ts, pts = _reference_rk4(_numpy_velocity(s), p0, t0, t1, h)
    assert len(tr.ts) == math.ceil((t1 - t0) / h) + 1
    assert tr.ts[-1] - tr.ts[-2] < h
    assert np.array_equal(tr.ts, ts)
    assert np.array_equal(tr.points, pts)


def test_rk4_accepts_numpy_velocity():
    vel = lambda tv, p: np.ones(3)
    tr = integrate(vel, [0.0, 0.0, 0.0], 0.0, 0.25, 0.1)
    ts, pts = _reference_rk4(vel, [0.0, 0.0, 0.0], 0.0, 0.25, 0.1)
    assert len(tr.ts) == 4
    assert np.array_equal(tr.ts, ts)
    assert np.array_equal(tr.points, pts)


def test_rk4_coarse_time_grid_outgrows_the_planned_steps():
    # near 1e15 the time grid is 0.125 apart, so tv + 0.3 advances by
    # 0.25: more steps than the ceil((t1 - t0)/h) + 2 samples allocated
    vel = lambda tv, p: np.ones(3)
    tr = integrate(vel, [0.0, 0.0, 0.0], 1e15, 1e15 + 30, 0.3)
    ts, pts = _reference_rk4(vel, [0.0, 0.0, 0.0], 1e15, 1e15 + 30, 0.3)
    assert len(tr.ts) > math.ceil(30 / 0.3) + 2
    assert np.array_equal(tr.ts, ts)
    assert np.array_equal(tr.points, pts)


def test_rk4_rejects_step_below_time_resolution():
    # near 1e16 the time grid is 2 apart, so tv + 0.5 == tv: the loop
    # would never end
    calls = []

    def vel(tv, p):
        calls.append(tv)
        if len(calls) > 10_000:
            raise RuntimeError("integration does not advance")
        return (0.0, 0.0, 0.0)

    with pytest.raises(ValueError, match="time resolution"):
        integrate(vel, [0.0, 0.0, 0.0], 1e16, 1e16 + 64, 0.5)


def test_rk4_overflow_is_integration_error():
    # mutant: dx/dt = x^2 from x = 1 blows up at t = 1; the math-module
    # velocity raises OverflowError there, which must not escape raw
    blowup = Solution("blowup", x**2, sp.S.Zero, sp.S.Zero, sp.S.One, sp.S.Zero)
    with pytest.raises(IntegrationError):
        integrate(velocity_function(blowup), [1.0, 0.0, 0.0], 0.0, 2.0, 1e-3)


def test_integrate_validates_arguments():
    # each bad time or step is named before any sample is allocated, so a
    # nan or inf is not an IntegrationError about allocation
    vel = lambda tv, p: np.zeros(3)
    for t0, t1, h, message in [
        (1.0, 1.0, 0.1, "empty time range: need t1 > t0"),
        (0.0, 1.0, -0.1, "step size must be positive, not -0.1"),
        (0.0, 1.0, math.nan, "step size must be positive, not nan"),
        (0.0, 1.0, math.inf, "step size must be finite, not inf"),
        (0.0, math.inf, 0.1, "times must be finite, not t0=0.0, t1=inf"),
        (math.nan, 1.0, 0.1, "times must be finite, not t0=nan, t1=1.0"),
    ]:
        with pytest.raises(ValueError) as exc:
            integrate(vel, [0, 0, 0], t0, t1, h)
        assert str(exc.value) == message


def test_integrate_flags_singular_start():
    # the non-isochoric velocity has a 1/t pole at t = 0
    s, _, _, _ = _non_setup()
    vel = velocity_function(s)
    with pytest.raises(IntegrationError):
        with np.errstate(all="raise"):
            integrate(vel, [0.5, 1.0, -0.3], 0.0, 1.0, 0.1)


def _outcome(velocity, p0, t0, t1, h):
    """The samples of a trace, or its error's type and text."""
    try:
        tr = integrate(velocity, p0, t0, t1, h)
    except (IntegrationError, ValueError) as exc:
        return type(exc), str(exc)
    return (list(tr.ts), *map(list, tr.columns()))


def _both_loops(kind, constants, p0, t0, t1, h):
    """One trace by the inlined velocity and one by a call per stage."""
    s = solution_family(kind).subs(dict(zip((k0, m0, rho0), constants)))
    vel = velocity_function(s)
    return _outcome(vel, p0, t0, t1, h), _outcome(lambda tv, p: vel(tv, p), p0, t0, t1, h)


_ratio = st.fractions(min_value=-3, max_value=3, max_denominator=9)
_coord = st.floats(-2.0, 2.0, allow_subnormal=False)


@seed(0)
@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["isochoric-reduced", "nonisochoric-reduced"]),
    constants=st.tuples(_ratio, _ratio, _ratio.filter(lambda r: r > 0)),
    p0=st.tuples(_coord, _coord, _coord),
    t0=st.floats(0.05, 2.0),
    span=st.floats(0.01, 1.0),
    steps=st.integers(2, 400),
    shortfall=st.floats(0.0, 0.9),
)
def test_inlined_velocity_agrees_with_called_velocity(kind, constants, p0, t0, span, steps, shortfall):
    # rational k0, m0 and rho0; unless shortfall is 0, h does not divide
    # the span and the last step is shortened to land on t1
    constants = [sp.Rational(r.numerator, r.denominator) for r in constants]
    h = span / (steps - shortfall)
    inlined, called = _both_loops(kind, constants, list(p0), t0, t0 + span, h)
    assert inlined == called


@pytest.mark.parametrize(
    "kind, p0, t0, t1, h, error",
    [
        ("nonisochoric-reduced", [0.5, 1.0, -0.3], 0.0, 1.0, 0.1,
         (IntegrationError, "velocity evaluation failed at t=0.0: float division by zero")),
        ("isochoric-reduced", [0.0, 1e308, 1e308], 0.0, 1.0, 1e-3,
         (IntegrationError, "non-finite state at t=0.001")),
        ("nonisochoric-reduced", [0.0, 0.0, 1.0], 1e16, 1e16 + 64, 0.5,
         (ValueError, "step size 0.5 is below the time resolution at t=1e+16")),
    ],
    ids=["velocity", "non-finite", "time-resolution"],
)
def test_inlined_and_called_velocity_fail_alike(kind, p0, t0, t1, h, error):
    assert _both_loops(kind, [1, 1, 1], p0, t0, t1, h) == (error, error)


def test_velocity_function_rejects_unbound_constants():
    s = solution_family("isochoric-reduced")
    with pytest.raises(ValueError):
        velocity_function(s)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([[0, 0, 0], [np.nan, 0, 0]]))


def test_integrate_checks_each_sample_once(monkeypatch):
    # the RK4 loop checks every state as it is made; only a hand-built
    # Trajectory walks its samples again
    calls = []
    check = numerics._check_samples
    monkeypatch.setattr(
        numerics, "_check_samples", lambda *a: calls.append(1) or check(*a)
    )
    tr = integrate(lambda tv, p: (1.0, 0.0, 0.0), [0.0, 0.0, 0.0], 0.0, 1.0, 0.01)
    assert calls == []
    Trajectory(tr.ts, tr.points)
    assert calls == [1]
    rows = [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0)]
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory([0.0, 1.0], rows)
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory([1.0, 1.0], rows[:1] * 2)


def test_integrate_refuses_more_than_max_samples(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_SAMPLES", 1_000)
    vel = lambda tv, p: (0.0, 0.0, 0.0)
    assert len(integrate(vel, [0.0, 0.0, 0.0], 0.0, 1.0, 0.002).ts) == 501
    with pytest.raises(IntegrationError, match="exceed MAX_SAMPLES"):
        integrate(vel, [0.0, 0.0, 0.0], 0.0, 1.0, 1e-3)


def test_buffer_growth_stops_at_max_samples(monkeypatch):
    # near 1e15, t + 0.3 advances by 0.25: 102 samples are allocated and
    # about 122 are needed, so the buffers grow, but not past 110
    monkeypatch.setattr(numerics, "MAX_SAMPLES", 110)
    with pytest.raises(IntegrationError, match="more than MAX_SAMPLES"):
        integrate(lambda tv, p: (0.0, 0.0, 0.0), [0.0, 0.0, 0.0], 1e15, 1e15 + 30, 0.3)


# --------------------------------------------------------------------------
# sphere transport


@pytest.mark.parametrize("tv", [0, 1.6, 2])
def test_sphere_transport_quadric(tv):
    fm = flow_map(solution_family("isochoric-reduced"))
    rep = sphere_transport(fm, 200, tv, BINDING, seed=0)
    assert rep.max_residual < 1e-10
    assert rep.volume == pytest.approx(4 / 3 * math.pi, abs=1e-12)
    assert rep.jacobian == pytest.approx(1.0)


def test_sphere_transport_at_zero_is_the_sphere():
    fm = flow_map(solution_family("isochoric-reduced"))
    rep = sphere_transport(fm, 50, 0, BINDING, seed=1)
    want = {"x**2": 1.0, "y**2": 1.0, "z**2": 1.0, "1": -1.0}
    got = {k: v for k, v in rep.quadric.items() if abs(v) > 1e-14}
    assert got == want


def test_sphere_transport_deterministic():
    fm = flow_map(solution_family("isochoric-reduced"))
    a = sphere_transport(fm, 30, 1.6, BINDING, seed=7)
    b = sphere_transport(fm, 30, 1.6, BINDING, seed=7)
    assert a == b


# --------------------------------------------------------------------------
# CSV export


def test_write_csv_format(tmp_path):
    tr = integrate(lambda tv, p: np.ones(3), [0.0, 0.0, 0.0], 0.0, 0.2, 0.1)
    out = tmp_path / "tr.csv"
    write_csv(tr, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,z"
    assert len(lines) == len(tr.ts) + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.2)
    assert last[1] == pytest.approx(0.2, abs=1e-15)
    # 17 significant digits survive a round trip
    assert float(lines[1].split(",")[0]) == tr.ts[0]


@pytest.mark.parametrize(
    "rows", [1, numerics.CSV_BLOCK - 1, numerics.CSV_BLOCK, numerics.CSV_BLOCK + 1, 75_002]
)
def test_write_csv_blocks_match_rows(tmp_path, rows):
    # a block of rows per % writes the bytes of one % per row
    ts = [0.1 * i - 3.0 for i in range(rows)]
    cols = [[(-1.0) ** i * 10.0 ** (i % 40 - 20) / 3 for i in range(k, rows + k)] for k in range(3)]
    tr = Trajectory(ts, list(zip(*cols)))
    out = tmp_path / "tr.csv"
    write_csv(tr, out)
    want = "".join("%.17g,%.17g,%.17g,%.17g\n" % r for r in zip(ts, *cols))
    assert out.read_bytes() == ("t,x,y,z\n" + want).encode()


def _reference_csv(tr: Trajectory) -> str:
    """The CSV as written row by row from numpy float64 values."""
    lines = ["t,x,y,z\n"]
    for tv, p in zip(np.asarray(tr.ts, dtype=np.float64), np.asarray(tr.points, dtype=np.float64)):
        lines.append(f"{tv:.17g},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")
    return "".join(lines)


def test_write_csv_bytes_match_numpy_reference(tmp_path):
    # the README command `trace isochoric-reduced --x0 0,0,1 --t0 0 --t1 3 --h 1e-3`
    s = solution_family("isochoric-reduced").subs(BINDING)
    readme = integrate(velocity_function(s), (0.0, 0.0, 1.0), 0.0, 3.0, 1e-3)
    edge = [-0.0, 5e-324, 1e300, 1 / 3]
    rows = [(edge * 2)[i : i + 3] for i in range(4)]
    hand = Trajectory([-1.0, -0.0, 5e-324, 1 / 3], rows)
    for tr in (readme, hand):
        out = tmp_path / "tr.csv"
        write_csv(tr, out)
        assert out.read_bytes() == _reference_csv(tr).encode()


def _count_forks(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _split_and_here(tmp_path, monkeypatch, tr: Trajectory) -> tuple:
    """The CSV of ``tr`` as written in two halves, one by a forked process,
    and as written in this process alone; the forked process is reaped."""
    made = _count_forks(monkeypatch)
    write_csv(tr, tmp_path / "split.csv", fork=True)
    assert made == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    write_csv(tr, tmp_path / "here.csv")
    return (tmp_path / "split.csv").read_bytes(), (tmp_path / "here.csv").read_bytes()


@pytest.mark.parametrize("rows", [2, 3, 4095, 4096, 4097])
def test_split_csv_matches_write_csv(tmp_path, monkeypatch, rows):
    # rows - 1 steps of RK4, the last one half a step; an odd count splits unevenly
    tr = integrate(lambda tv, p: (1.0, -p[2], p[1] / 3), [0.1, 0.2, 0.3], 0.0, (rows - 1.5) * 0.01, 0.01)
    assert len(tr.ts) == rows
    assert tr.ts[-1] - tr.ts[-2] < 0.006
    split, here = _split_and_here(tmp_path, monkeypatch, tr)
    assert split == here == _reference_csv(tr).encode()


def test_split_csv_of_one_row(tmp_path, monkeypatch):
    # the first half is empty: the forked process formats the one row
    columns = [array("d", [v]) for v in (-0.0, 5e-324, 1e300, 1 / 3)]
    tr = Trajectory(columns[0], list(zip(*columns[1:])))
    split, here = _split_and_here(tmp_path, monkeypatch, tr)
    assert split == here == _reference_csv(tr).encode()
    assert here == b"t,x,y,z\n-0,4.9406564584124654e-324,1.0000000000000001e+300,0.33333333333333331\n"


def test_out_that_refuses_sendfile_gets_the_rows_here(tmp_path, monkeypatch):
    # sendfile refused before its first byte: the second half is formatted here
    def refuse(*args):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sendfile", refuse)
    tr = integrate(lambda tv, p: (1.0, -p[2], p[1] / 3), [0.1, 0.2, 0.3], 0.0, 30.0, 0.01)
    split, here = _split_and_here(tmp_path, monkeypatch, tr)
    assert split == here == _reference_csv(tr).encode()


def test_failed_formatter_leaves_the_rows_to_write_csv(tmp_path, monkeypatch):
    # a forked formatter that exits at once: its half is formatted here
    parent, write_rows = os.getpid(), numerics._write_rows
    monkeypatch.setattr(numerics, "_write_rows",
                        lambda fh, *columns: write_rows(fh, *columns) if os.getpid() == parent else os._exit(1))
    tr = integrate(lambda tv, p: (1.0, 0.0, 0.0), [0.0, 0.0, 0.0], 0.0, 1.0, 1e-4)
    split, here = _split_and_here(tmp_path, monkeypatch, tr)
    assert split == here == _reference_csv(tr).encode()
