"""Floating-point support: trajectory integration and figure data.

Classical fixed-step RK4 for particle paths dx/dt = u(t, x), comparison
against the closed-form flow maps, and the unit-sphere transport behind
the ellipsoid figure.  All sampling uses a seeded PRNG and every routine
is deterministic.

RK4 runs on Python floats: velocities are lambdified with the ``math``
module, the state is three floats, and samples go into preallocated flat
``array('d')`` buffers, one per column (see ``integrate``), so a trace
holds no Python object per sample and never imports numpy.  numpy is
imported only inside the float helpers ``compare_to_closed_form``,
``convergence_order`` and ``sphere_transport``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import InitVar, dataclass
from itertools import chain, islice
from operator import lt
from typing import Sequence

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
    """Uniformly sampled particle path.

    ``ts`` is a sequence of times and ``points`` a sequence of (x, y, z)
    rows of the same length: the column buffers ``integrate`` fills or,
    say, an (n, 3) numpy array.  Times must increase strictly and every
    value must be finite; ``checked=True`` skips that walk for samples
    already checked as they were made.
    """

    ts: Sequence[float]
    points: Sequence[Sequence[float]]
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if not checked:
            _check_samples(self.ts, self.columns())

    def columns(self) -> tuple:
        """The x, y and z columns of ``points``."""
        return getattr(self.points, "columns", None) or tuple(zip(*self.points))


def _check_samples(ts, columns) -> None:
    if not all(map(lt, ts, islice(ts, 1, None))):
        raise ValueError("time samples must be strictly increasing")
    if not all(map(math.isfinite, chain(ts, *columns))):
        raise ValueError("trajectory contains non-finite values")


def velocity_function(s: Solution):
    """Numeric velocity of a solution family as a callable (t, p) -> 3-tuple.

    ``p`` is the position as a 3-tuple of floats.  Components are
    evaluated with the ``math`` module, so a domain or overflow error
    raises (``ValueError``, ``ArithmeticError``) instead of returning nan
    or inf.  Bind the family's constants first, with ``Solution.subs``.
    """
    vel = (s.u, s.v, s.w)
    extra = set().union(*(g.free_symbols for g in vel)) - {t, x, y, z}
    if extra:
        raise ValueError(f"velocity has unbound constants: {sorted(map(str, extra))}")
    # the nested (x, y, z) argument makes the generated function take the
    # position as one sequence, with no wrapper call per evaluation
    return sp.lambdify((t, (x, y, z)), tuple(vel), modules="math")


def integrate(velocity, p0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical 4th-order Runge-Kutta at fixed step h on [t0, t1].

    ``velocity`` is a callable (t, p) -> 3-vector; ``p`` is passed as a
    3-tuple of floats, and any length-3 sequence of numbers may be
    returned.  The final step is shortened to land exactly on t1.

    The state is kept as three floats and each RK4 formula is evaluated
    per component in the order of its vector form, so the samples are
    bit-identical to a numpy RK4 on 3-vectors.  Samples go into four
    preallocated ``array('d')`` column buffers (t, x, y, z).  A failing
    velocity evaluation, a non-finite state, or a step so small that more
    than ``MAX_SAMPLES`` samples (or more than can be allocated) would be
    needed raises ``IntegrationError``.  Every state is checked finite as
    it is made and time only advances, so the ``Trajectory`` is built
    without a second check.  A time that is not finite, no t1 > t0, a step
    not > 0 (nan too) or below the time resolution raise ``ValueError``.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"times must be finite, not t0={t0}, t1={t1}")
    if not t1 > t0:
        raise ValueError("empty time range: need t1 > t0")
    if not h > 0:
        raise ValueError(f"step size must be positive, not {h}")
    # h steps plus a rounding-remainder step; rounding of tv can add more,
    # in which case the buffers grow below
    try:
        n = math.ceil((t1 - t0) / h) + 2
        if n > MAX_SAMPLES:
            raise ValueError(f"{n:.6g} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")
        ts, xs, ys, zs = (array("d", [0.0]) * n for _ in range(4))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise IntegrationError(f"cannot allocate samples for step size {h}: {exc}")
    px, py, pz = (float(v) for v in p0)
    tv = t0
    ts[0], xs[0], ys[0], zs[0] = tv, px, py, pz
    i = 1
    t_stop = t1 - 1e-15 * max(1.0, abs(t1))
    while tv < t_stop:
        step = min(h, t1 - tv)
        half = step / 2
        try:
            a1, b1, c1 = velocity(tv, (px, py, pz))
            a2, b2, c2 = velocity(tv + half, (px + half * a1, py + half * b1, pz + half * c1))
            a3, b3, c3 = velocity(tv + half, (px + half * a2, py + half * b2, pz + half * c2))
            a4, b4, c4 = velocity(tv + step, (px + step * a3, py + step * b3, pz + step * c3))
        except (ArithmeticError, ValueError) as exc:
            raise IntegrationError(f"velocity evaluation failed at t={tv}: {exc}")
        sixth = step / 6
        px = px + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        py = py + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
        pz = pz + sixth * (c1 + 2 * c2 + 2 * c3 + c4)
        if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(pz)):
            raise IntegrationError(f"non-finite state at t={tv + step}")
        tv = tv + step
        if i == len(ts):
            if tv == ts[i - 1]:
                raise ValueError(f"step size {h} is below the time resolution at t={tv}")
            if i >= MAX_SAMPLES:
                raise IntegrationError(f"more than MAX_SAMPLES = {MAX_SAMPLES} samples")
            for buf in (ts, xs, ys, zs):
                buf.extend(buf[: MAX_SAMPLES - i])
        ts[i] = tv
        xs[i] = px
        ys[i] = py
        zs[i] = pz
        i += 1
    for buf in (ts, xs, ys, zs):
        del buf[i:]
    return Trajectory(ts, _Rows(xs, ys, zs), checked=True)


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


def write_csv(tr: Trajectory, path) -> None:
    """Trajectory CSV: header t,x,y,z, 17 significant digits per value."""
    row = "%.17g,%.17g,%.17g,%.17g\n"
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
        fh.writelines(map(row.__mod__, zip(tr.ts, *tr.columns())))
