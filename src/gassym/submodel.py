"""The rank-1/defect-1 submodel of entry 4.77 and its exact solutions.

The subalgebra {X1, X2, X3, Y + X4} has invariants (t, v, w, P1 = P - u,
rho); keeping u as a defective unknown of all variables reduces the gas
dynamics system to five equations in t.  Two explicit solution families
solve the reduced system: an isochoric one (constant density) and a
non-isochoric one (rho = rho0/t, taken on t > 0).  This module encodes
the reduced system, the full system with state equation P = f(rho) + S,
both families (each reduced form is its general one at n0 = v0 = w0 =
P0 = 0), their closed-form particle flow maps, and the trajectory
geometry statements.  ``verify_solution`` checks each claim once.

The state function f stays opaque in every symbolic check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import sympy as sp

from .exprs import canonicalize, opaque

__all__ = [
    "CONSTANTS",
    "SOLUTION_KINDS",
    "FlowMap",
    "Solution",
    "flow_consistency",
    "flow_map",
    "full_residuals",
    "geometry_checks",
    "jacobian_det",
    "reduce_general",
    "reduced_residuals",
    "solution_family",
    "translate",
    "verify_solution",
    "vorticity",
]

t, x, y, z = sp.symbols("t x y z")
_SPACE = (x, y, z)
x0, y0, z0, u0 = sp.symbols("x0 y0 z0 u0")

k0, m0, n0, v0, w0, P0 = sp.symbols("k0 m0 n0 v0 w0 P0")
rho0 = sp.Symbol("rho0", positive=True)
CONSTANTS = (k0, m0, n0, v0, w0, P0, rho0)

_f = opaque("f")
_fp = opaque("f", 1)


@dataclass(frozen=True)
class Solution:
    """One exact solution family of the full system."""

    kind: str
    u: sp.Expr
    v: sp.Expr
    w: sp.Expr
    rho: sp.Expr
    P: sp.Expr

    @property
    def state(self) -> tuple:
        return (self.u, self.v, self.w, self.rho, self.P)

    @cached_property
    def jacobian(self) -> sp.Matrix:
        """d(u, v, w, rho, P)/d(t, x, y, z), taken once per solution."""
        return sp.Matrix(self.state).jacobian((t, *_SPACE))

    @property
    def P1(self) -> sp.Expr:
        return canonicalize(self.P - self.u)

    def subs(self, binding: dict) -> "Solution":
        return Solution(self.kind, *(g.subs(binding) for g in self.state))


SOLUTION_KINDS = (
    "isochoric-general",
    "isochoric-reduced",
    "nonisochoric-general",
    "nonisochoric-reduced",
)


def solution_family(kind: str) -> Solution:
    """The four families, with fully symbolic constants.  Each reduced
    family is its general one at n0 = v0 = w0 = P0 = 0."""
    if kind in ("isochoric-reduced", "nonisochoric-reduced"):
        g = solution_family(kind.replace("reduced", "general"))
        zero = {c: sp.S.Zero for c in (n0, v0, w0, P0)}
        return Solution(kind, *(e.xreplace(zero) for e in g.state))
    if kind == "isochoric-general":
        u = (
            k0 * y + m0 * z
            + (k0**2 + m0**2) / (2 * rho0) * t**2
            - (k0 * v0 + m0 * w0) * t
            + n0
        )
        return Solution(kind, u, -k0 / rho0 * t + v0, -m0 / rho0 * t + w0, rho0, P0 + u)
    if kind == "nonisochoric-general":
        u = (
            x / t + k0 * y / t + m0 * z / t + n0 / t
            + (k0**2 + m0**2 - 1) / (2 * rho0) * t
            - k0 * v0 - m0 * w0
        )
        P1 = _f(rho0 / t) + t / rho0 + P0
        return Solution(
            kind, u, -k0 / rho0 * t + v0, -m0 / rho0 * t + w0, rho0 / t, P1 + u
        )
    raise ValueError(f"unknown solution kind {kind!r}; expected one of {SOLUTION_KINDS}")


def full_residuals(s: Solution) -> list[sp.Expr]:
    """Residuals of the gas dynamics system with P = f(rho) + S at the
    solution; expected all zero."""
    J, rho = s.jacobian, s.rho
    D = J * sp.Matrix([1, s.u, s.v, s.w])  # material derivatives
    div = J[0, 1] + J[1, 2] + J[2, 3]
    return [
        canonicalize(D[0] + J[4, 1] / rho),
        canonicalize(D[1] + J[4, 2] / rho),
        canonicalize(D[2] + J[4, 3] / rho),
        canonicalize(D[3] + rho * div),
        canonicalize(D[4] + rho * _fp(rho) * div),
    ]


def reduced_residuals(u, v, w, rho, P1) -> list[sp.Expr]:
    """The five equations of the rank-1/defect-1 submodel, canonicalized:
    the full system on the ansatz P = P1 + u.

    Here v, w, rho, P1 are functions of t alone and u may depend on all
    of (t, x, y, z).
    """
    return full_residuals(Solution("ansatz", u, v, w, rho, P1 + u))


def vorticity(s: Solution) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """rot u = (w_y - v_z, u_z - w_x, v_x - u_y), read off the Jacobian."""
    J = s.jacobian
    return (
        canonicalize(J[2, 2] - J[1, 3]),
        canonicalize(J[0, 3] - J[2, 1]),
        canonicalize(J[1, 1] - J[0, 2]),
    )


# --------------------------------------------------------------------------
# particle flow


@dataclass(frozen=True)
class FlowMap:
    """Closed-form particle flow (x(t), y(t), z(t)) in the initial data.

    For the non-isochoric family the initial data (x0, y0, z0, u0) are
    labels tied to the stated form of the world lines (the map is
    singular at t = 0, where J = t vanishes); consistency with the
    velocity field is differential, via :func:`flow_consistency`.
    """

    kind: str
    x: sp.Expr
    y: sp.Expr
    z: sp.Expr
    # Lagrangian labels: (x0, y0, z0) for the isochoric flow; the
    # non-isochoric world lines carry (u0, y0, z0) instead, x0 being
    # absent from their stated form.
    labels: tuple = (x0, y0, z0)

    def components(self) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
        return (self.x, self.y, self.z)


def flow_map(s: Solution) -> FlowMap:
    """The closed-form flow map of a reduced family, as stated; checked
    against dx/dt = u o map by :func:`flow_consistency`."""
    if s.kind == "isochoric-reduced":
        return FlowMap(
            s.kind,
            (k0 * y0 + m0 * z0) * t + x0,
            -k0 / (2 * rho0) * t**2 + y0,
            -m0 / (2 * rho0) * t**2 + z0,
        )
    if s.kind == "nonisochoric-reduced":
        return FlowMap(
            s.kind,
            -(k0 * y0 + m0 * z0) - t**2 / (2 * rho0) + u0 * t,
            -k0 / (2 * rho0) * t**2 + y0,
            -m0 / (2 * rho0) * t**2 + z0,
            labels=(u0, y0, z0),
        )
    raise ValueError(f"no closed-form flow for kind {s.kind!r}")


def flow_consistency(s: Solution, fm: FlowMap) -> list[sp.Expr]:
    """Residuals d(map)/dt - velocity o map, canonicalized."""
    along = {x: fm.x, y: fm.y, z: fm.z}
    out = []
    for comp, vel in zip(fm.components(), (s.u, s.v, s.w)):
        out.append(canonicalize(sp.diff(comp, t) - vel.subs(along)))
    return out


def jacobian_det(fm: FlowMap) -> sp.Expr:
    """det d(x,y,z)/d(labels), canonicalized."""
    return canonicalize(sp.Matrix(fm.components()).jacobian(fm.labels).det())


# --------------------------------------------------------------------------
# symmetry reduction of the general families


_TRANSLATIONS = ("Y", "X1", "X2", "X3", "X4", "X5", "X6")


def translate(s: Solution, c: dict) -> Solution:
    """Act on the solution by exp(sum c[X] X) for X in Y, X1..X6, the
    translations and Galilean boosts, which commute: one substitution
    x_i -> x_i - c[X_i] - c[X_{i+3}] t, then c[X4..X6] is added to (u, v, w)
    and c[Y] to P.  Any other label (X7..X9 rotate, X10 does not commute
    with X4..X6, X11 dilates) raises ValueError naming it."""
    if other := [label for label in c if label not in _TRANSLATIONS]:
        raise ValueError(f"{other[0]} is not a translation: translate takes {', '.join(_TRANSLATIONS)}")
    shift, boost = ([c.get(f"X{i + k}", 0) for i in (1, 2, 3)] for k in (0, 3))
    comp = {q: q - a - b * t for q, a, b in zip(_SPACE, shift, boost)}
    u, v, w, rho, P = (g.xreplace(comp) for g in s.state)
    return Solution(s.kind, u + boost[0], v + boost[1], w + boost[2], rho, P + c.get("Y", 0))


def reduce_general(kind: str) -> tuple[Solution, dict]:
    """The general family ``kind`` translated to its reduced one (checked by
    ``verify_solution``), and the L12 element applied, {label: coefficient}."""
    c = {"isochoric-general": {"X4": -n0, "X5": -v0, "X6": -w0, "Y": -P0 - n0},
         "nonisochoric-general": {"X1": n0, "X5": -v0, "X6": -w0, "Y": -P0}}.get(kind)
    if c is None:
        raise ValueError(f"no reduction defined for kind {kind!r}")
    return replace(translate(solution_family(kind), c), kind=kind.replace("general", "reduced")), c


# --------------------------------------------------------------------------
# trajectory geometry


def geometry_checks(s: Solution) -> dict:
    """The paper's trajectory case analysis, as named residual checks.

    The constants k0, m0 and rho0 stay symbols, so each check covers
    every value of them.  Each report item carries the canonicalized
    residual; ``ok`` means it is identically zero.
    """
    X, Yc, Zc = flow_map(s).components()
    report = {}

    def record(name, residual):
        residual = canonicalize(residual)
        report[name] = {"ok": residual == 0, "residual": str(residual)}

    if s.kind == "isochoric-reduced":
        # on k0*y0 + m0*z0 = 0 the trajectory is a line in the plane x = x0
        on_plane = {y0: m0, z0: -k0}
        record("line_in_plane_x", X.subs(on_plane) - x0)
        record(
            "line_equation",
            (m0 * (Yc - y0) - k0 * (Zc - z0)).subs(on_plane),
        )
        denom = 2 * rho0 * (k0 * y0 + m0 * z0) ** 2
        record(
            "parabola_xy",
            Yc - (y0 - k0 * (X - x0) ** 2 / denom),
        )
        record(
            "parabola_xz",
            Zc - (z0 - m0 * (X - x0) ** 2 / denom),
        )
        # an identity in QQ(k0, m0, rho0, ...): it holds wherever k0 != 0
        record("line_yz_slope", Zc - (m0 / k0) * (Yc - y0) - z0)
        record("vertex_xy", (X.subs(t, 0) - x0) + (Yc.subs(t, 0) - y0))
        record("vertex_slope_zero", sp.diff(Yc, t).subs(t, 0) / sp.diff(X, t).subs(t, 0))
    elif s.kind == "nonisochoric-reduced":
        record("plane_at_t0", X.subs(t, 0) + k0 * Yc.subs(t, 0) + m0 * Zc.subs(t, 0))
        record("line_yz", m0 * (Yc - y0) - k0 * (Zc - z0))
        # particles sharing a start differ affinely in x at fixed t
        record("x_affine_in_u0", sp.diff(X, u0) - t)
        record("yz_free_of_u0", sp.diff(Yc, u0) + sp.diff(Zc, u0))
        # t -> -t, u0 -> -u0 preserves the world lines
        flip = {t: -t, u0: -u0}
        record(
            "time_reversal",
            sum(
                (c.subs(flip, simultaneous=True) - c)
                for c in (X, Yc, Zc)
            ),
        )
    else:
        raise ValueError(f"no geometry checks for kind {s.kind!r}")
    return report


# --------------------------------------------------------------------------
# verification


def verify_solution(kind: str) -> dict:
    """Every check on one solution family, as the report item for it.

    Both forms: the full residuals vanish, and the family fits the 4.77
    ansatz (v, w, rho, P1 depend on t alone), so the reduced residuals,
    which are the full ones on that ansatz, vanish too; plus the
    vorticity.  A reduced family also needs its closed-form flow map to
    satisfy dx/dt = u o map, with Jacobian 1 (isochoric) or t
    (non-isochoric), and passing geometry checks; a general family must
    reduce exactly to its reduced form.
    """
    s = solution_family(kind)
    full = all(r == 0 for r in full_residuals(s))
    on_ansatz = all(e.free_symbols.isdisjoint(_SPACE) for e in (s.v, s.w, s.rho, s.P1))
    entry = {
        "reduced_residuals_zero": on_ansatz and full,
        "full_residuals_zero": full,
        "vorticity": [str(c) for c in vorticity(s)],
    }
    checks = [entry["reduced_residuals_zero"], entry["full_residuals_zero"]]
    if kind.endswith("-reduced"):
        fm = flow_map(s)
        entry["flow_consistent"] = all(r == 0 for r in flow_consistency(s, fm))
        jac = jacobian_det(fm)
        entry["jacobian_det"] = str(jac)
        geo = geometry_checks(s)
        entry["geometry"] = {k: v["ok"] for k, v in geo.items()}
        expected_jac = sp.Integer(1) if kind.startswith("isochoric") else t
        checks += [
            entry["flow_consistent"],
            jac == expected_jac,
            all(entry["geometry"].values()),
        ]
    else:
        red, _ = reduce_general(kind)
        target = solution_family(kind.replace("general", "reduced"))
        entry["reduction_exact"] = all(
            canonicalize(a - b) == 0 for a, b in zip(red.state, target.state)
        )
        checks.append(entry["reduction_exact"])
    entry["passed"] = all(checks)
    return entry
