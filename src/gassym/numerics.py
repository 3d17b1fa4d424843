"""Floating-point support: trajectory integration and figure data.

Classical fixed-step RK4 for particle paths dx/dt = u(t, x), comparison
against the closed-form flow maps, and the unit-sphere transport behind
the ellipsoid figure.  All sampling uses a seeded PRNG and every routine
is deterministic.

RK4 runs on Python floats in one loop compiled per call, with the text of
a ``math``-lambdified velocity in place; samples go into flat ``array('d')``
columns (see ``integrate``), each state checked finite as it is made, so a
trace holds no Python object per sample, never imports numpy, and is
written a block of rows per ``%``.  A ``Trajectory`` is what ``integrate``
returns: its times and its rows over those columns.  Once the loop ends,
``write_csv`` may fork a process that formats the second half of the rows
while this one formats the first, and appends its file with
``shutil.copyfileobj``.  numpy is imported only inside the float helpers
``compare_to_closed_form``, ``convergence_order`` and ``sphere_transport``.
"""

from __future__ import annotations

import ast
import linecache
import math
import os
import threading
from array import array
from dataclasses import dataclass
from itertools import chain, islice

import sympy as sp

from .exprs import exact_number
from .submodel import FlowMap, Solution, jacobian_det, t, x, x0, y, y0, z, z0

__all__ = [
    "SphereTransportReport",
    "Trajectory",
    "compare_to_closed_form",
    "convergence_order",
    "integrate",
    "sphere_transport",
    "velocity_function",
    "write_csv",
]


# largest sample count ``integrate`` allocates: four float columns of
# this length take 3.2 GB
MAX_SAMPLES = 10**8
CSV_BLOCK = 256  # rows ``write_csv`` formats by one ``%``


class IntegrationError(RuntimeError):
    """The right-hand side failed to evaluate along the path."""


class _Rows:
    """Read-only (x, y, z) rows over three equal-length column buffers."""

    __slots__ = ("columns",)

    def __init__(self, xs, ys, zs):
        self.columns = (xs, ys, zs)

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        xs, ys, zs = self.columns
        return (xs[i], ys[i], zs[i])

    def __iter__(self):
        return zip(*self.columns)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled particle path, as ``integrate`` makes it: ``ts``
    the ``array('d')`` of strictly increasing times, ``points`` the finite
    (x, y, z) rows over three ``array('d')`` columns of the same length."""

    ts: array
    points: _Rows

    def columns(self) -> tuple:
        """The x, y and z columns of ``points``."""
        return self.points.columns


def velocity_function(s: Solution):
    """Numeric velocity of a solution family as a callable (t, p) -> 3-tuple.

    ``p`` is the position as a 3-tuple of floats.  Components are
    evaluated with the ``math`` module, so a domain or overflow error
    raises (``ValueError``, ``ArithmeticError``) instead of returning nan
    or inf.  Bind the family's constants first, with ``Solution.subs``.
    ``inline`` is lambdify's text of the tuple and the namespace it runs in.
    """
    vel = (s.u, s.v, s.w)
    extra = set().union(*(g.free_symbols for g in vel)) - {t, x, y, z}
    if extra:
        raise ValueError(f"velocity has unbound constants: {sorted(map(str, extra))}")
    fn = sp.lambdify((t, (x, y, z)), tuple(vel), modules="math")
    src = "".join(linecache.getlines(fn.__code__.co_filename))  # unpack, return the tuple
    fn.inline = (ast.get_source_segment(src, ast.parse(src).body[0].body[-1].value), fn.__globals__)
    return fn


# RHS: the velocity as a 3-tuple of the locals t, x, y, z, which hold the
# state at each step's start; no other local is named as a math function
_RK4_LOOP = """
def loop(velocity, t, x, y, z, t1, h, ts, xs, ys, zs, max_samples):
    ts[0], xs[0], ys[0], zs[0] = tv, px, py, pz = t, x, y, z
    step, hh, h6, t_stop = h, h / 2, h / 6, t1 - 1e-15 * max(1.0, abs(t1))
    i, n = 1, len(ts)
    while tv < t_stop:
        if t1 - tv < h:  # land on t1; once short, every later step is
            step = t1 - tv
            hh, h6 = step / 2, step / 6
        try:
            a1, b1, c1 = RHS
            t = tv + hh
            x, y, z = px + hh * a1, py + hh * b1, pz + hh * c1
            a2, b2, c2 = RHS
            x, y, z = px + hh * a2, py + hh * b2, pz + hh * c2
            a3, b3, c3 = RHS
            t = tv + step
            x, y, z = px + step * a3, py + step * b3, pz + step * c3
            a4, b4, c4 = RHS
        except (ArithmeticError, ValueError) as exc:
            raise IntegrationError(f"velocity evaluation failed at t={tv}: {exc}")
        x = px = px + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        y = py = py + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
        z = pz = pz + h6 * (c1 + 2 * c2 + 2 * c3 + c4)
        if (px - px) + (py - py) + (pz - pz):  # nan unless all are finite
            raise IntegrationError(f"non-finite state at t={t}")
        tv = t
        if i == n:
            if tv == ts[i - 1]:
                raise ValueError(f"step size {h} is below the time resolution at t={tv}")
            if i >= max_samples:
                raise IntegrationError(f"more than MAX_SAMPLES = {max_samples} samples")
            for buf in (ts, xs, ys, zs):
                buf.extend(buf[: max_samples - i])
            n = len(ts)
        ts[i] = tv
        xs[i], ys[i], zs[i] = px, py, pz
        i += 1
    for buf in (ts, xs, ys, zs):
        del buf[i:]
"""


def integrate(velocity, p0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical 4th-order Runge-Kutta at fixed step h on [t0, t1].

    ``velocity`` is a callable (t, p) -> 3-vector; ``p`` is passed as a
    3-tuple of floats, and any length-3 sequence of numbers may be
    returned.  The final step is shortened to land exactly on t1.

    One loop, ``_RK4_LOOP``, compiled per call, evaluates a
    ``velocity_function``'s ``inline`` text in place or calls any other
    velocity.  Each RK4 formula runs per float component in the order of
    its vector form, so samples are bit-identical to a numpy RK4 on
    3-vectors; they go into four ``array('d')`` columns (t, x, y, z), each
    state checked finite as it is made.  A failing velocity, a non-finite
    state or more than ``MAX_SAMPLES`` samples (or than can be allocated)
    raise ``IntegrationError``; a time not finite, no t1 > t0, or a step
    not > 0 (nan too), infinite or below the time resolution ``ValueError``.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"times must be finite, not t0={t0}, t1={t1}")
    if not t1 > t0:
        raise ValueError("empty time range: need t1 > t0")
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be {'finite' if h == math.inf else 'positive'}, not {h}")
    # h steps plus a rounding-remainder step; rounding of tv can add more,
    # in which case the loop grows the buffers
    try:
        n = math.ceil((t1 - t0) / h) + 2
        if n > MAX_SAMPLES:
            raise ValueError(f"{n:.6g} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")
        ts, xs, ys, zs = (array("d", [0.0]) * n for _ in range(4))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise IntegrationError(f"cannot allocate samples for step size {h}: {exc}")
    rhs, scope = getattr(velocity, "inline", ("velocity(t, (x, y, z))", {}))
    exec(_RK4_LOOP.replace("RHS", rhs), scope := {**scope, "IntegrationError": IntegrationError})
    px, py, pz = (float(v) for v in p0)
    scope["loop"](velocity, t0, px, py, pz, t1, h, ts, xs, ys, zs, MAX_SAMPLES)
    return Trajectory(ts, _Rows(xs, ys, zs))


def _map_function(fm: FlowMap, binding: dict):
    comps = [c.subs(binding) for c in fm.components()]
    extra = set().union(*(c.free_symbols for c in comps)) - {t}
    if extra:
        raise ValueError(f"flow map has unbound symbols: {sorted(map(str, extra))}")
    return sp.lambdify(t, comps, modules="numpy")


def compare_to_closed_form(tr: Trajectory, fm: FlowMap, binding: dict) -> float:
    """Max Euclidean distance between samples and the closed-form flow.

    ``binding`` must fix the map's constants and Lagrangian labels.
    """
    import numpy as np

    fn = _map_function(fm, binding)
    err = 0.0
    for tv, p in zip(tr.ts, tr.points):
        q = np.asarray(fn(tv), dtype=float)
        err = max(err, float(np.linalg.norm(p - q)))
    return err


def convergence_order(velocity, p0, t0: float, t1: float, closed_form, hs=(1e-2, 5e-3, 2.5e-3)) -> float:
    """Observed RK4 order: slope of log endpoint error against log h.

    ``closed_form`` is a callable t -> exact 3-vector.
    """
    import numpy as np

    errs = []
    exact = np.asarray(closed_form(t1), dtype=float)
    for h in hs:
        tr = integrate(velocity, p0, t0, t1, h)
        errs.append(float(np.linalg.norm(tr.points[-1] - exact)))
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)


# --------------------------------------------------------------------------
# unit-sphere transport (figure 1 data)


@dataclass(frozen=True)
class SphereTransportReport:
    """Images of seeded unit-sphere points under the isochoric flow."""

    t: float
    n: int
    seed: int
    quadric: dict  # monomial (as string) -> float coefficient
    max_residual: float
    jacobian: float
    volume: float


def sphere_transport(fm: FlowMap, n: int, t_value, binding: dict, *, seed: int = 0) -> SphereTransportReport:
    """Transport n sphere points to time t and test the image quadric.

    The quadric is obtained exactly: the flow map is inverted
    symbolically and substituted into x0^2 + y0^2 + z0^2 - 1.  Each
    transported point must satisfy it to floating-point accuracy; the
    enclosed volume is (4/3)*pi*|J| with J the map's Jacobian
    determinant.
    """
    import numpy as np

    binding = {sp.sympify(k, strict=True): exact_number(v) for k, v in binding.items()}
    comps = [c.subs(binding) for c in fm.components()]
    t_exact = exact_number(t_value)
    at_t = [c.subs(t, t_exact) for c in comps]
    sol = sp.solve(
        [sp.Eq(x, at_t[0]), sp.Eq(y, at_t[1]), sp.Eq(z, at_t[2])],
        [x0, y0, z0],
        dict=True,
    )
    if len(sol) != 1:
        raise ValueError("flow map is not invertible at the requested time")
    inverse = sol[0]
    quadric = sp.expand(
        inverse[x0] ** 2 + inverse[y0] ** 2 + inverse[z0] ** 2 - 1
    )
    coeffs = {
        str(mon): float(c)
        for mon, c in quadric.as_coefficients_dict().items()
    }

    forward = sp.lambdify((x0, y0, z0), [c.subs(t, t_exact) for c in comps], modules="numpy")
    qfn = sp.lambdify((x, y, z), quadric, modules="numpy")
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    images = np.array([forward(*p) for p in pts], dtype=float)
    residuals = np.abs(qfn(images[:, 0], images[:, 1], images[:, 2]))

    jac = jacobian_det(fm).subs(binding).subs(t, t_exact)
    volume = float(sp.Rational(4, 3) * sp.pi * abs(jac))
    return SphereTransportReport(
        t=float(t_exact),
        n=n,
        seed=seed,
        quadric=coeffs,
        max_residual=float(np.max(residuals)),
        jacobian=float(jac),
        volume=volume,
    )


def _write_rows(fh, *columns) -> None:
    """The rows of four columns (t, x, y, z), 17 significant digits per value."""
    values = chain.from_iterable(zip(*columns))
    while block := tuple(islice(values, 4 * CSV_BLOCK)):
        fh.write("%.17g,%.17g,%.17g,%.17g\n" * (len(block) // 4) % block)


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fork_cpus() -> int:
    """The CPUs that processes forked from this one may use: the usable CPUs
    where ``os.fork`` exists and no other thread runs, else 1.  A fork
    copies only the calling thread, so beside another one it may copy a
    lock that thread holds."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _usable_cpus()


def write_csv(tr: Trajectory, path, fork: bool = False) -> None:
    """Trajectory CSV: header t,x,y,z, 17 significant digits per value.

    With ``fork``, a forked process formats the second half of the rows
    while this one formats the first (``_write_halves``); whatever it does
    not deliver is formatted here, so the bytes are always the same.
    """
    # a slice of a memoryview shares its array's memory; one of an array copies it
    columns = [memoryview(c) for c in (tr.ts, *tr.columns())]
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        done = _write_halves(fh, columns) if fork else 0
        _write_rows(fh, *(c[done:] for c in columns))


def _write_halves(fh, columns) -> int:
    """Rows [0, k) of ``columns`` into ``fh``, k = n // 2, while a forked
    process formats rows [k, n) into an unlinked temporary file, which is
    then appended to ``fh`` by ``shutil.copyfileobj``.  The rows written:
    n; k if the process fails; 0 if no temporary file or process could be
    made.  It is reaped on every path.
    """
    import shutil
    import tempfile  # both loaded with sympy already

    n = len(columns[0])
    k = n // 2
    try:
        part = tempfile.TemporaryFile()
    except OSError:
        return 0
    with part:
        try:
            pid = os.fork()
        except OSError:
            return 0
        if not pid:
            status = 1
            try:
                with open(part.fileno(), "w", closefd=False) as out:
                    _write_rows(out, *(c[k:] for c in columns))
                status = 0
            finally:
                os._exit(status)
        try:
            _write_rows(fh, *(c[:k] for c in columns))
        finally:
            failed = os.waitpid(pid, 0)[1]
        if failed:
            return k
        part.seek(0)
        fh.flush()
        shutil.copyfileobj(part, fh.buffer)
    return n
