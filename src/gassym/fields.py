"""Vector-field realizations of the symmetry generators and chart changes.

The generators act on the 9-space (t, x, y, z, u, v, w, rho, P).  Besides
the Cartesian chart D we support:

  * C        -- cylindrical position (x, r, theta) about the x-axis with
                the transverse velocity in its own polar pair (q, vartheta),
                so v = q*cos(theta + vartheta), w = q*sin(theta + vartheta);
  * S        -- spherical position (r_S, theta_S, phi) with the velocity in
                its own spherical triple (q_S, vartheta_S, varphi);
  * D-shift  -- Cartesian with (v, w) replaced by (qbar, varthetabar) via
                v = (t*y + b*z)/(t^2 + b^2) + qbar*cos(varthetabar),
                w = (t*z - b*y)/(t^2 + b^2) + qbar*sin(varthetabar).

Pushforward solves J_Psi * G = F o Psi where Psi maps chart coordinates to
Cartesian ones, so no inverse trig functions enter symbolic work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import sympy as sp

from .exprs import canonicalize
from .liealg import L12_LABELS

__all__ = [
    "Chart",
    "VectorField",
    "chart_C",
    "chart_D",
    "chart_D_shift",
    "chart_S",
    "pushforward",
    "realization_table_diff",
    "realize",
    "realize_combination",
    "vf_commutator",
]

CARTESIAN_COORDS = ("t", "x", "y", "z", "u", "v", "w", "rho", "P")


@dataclass(frozen=True, eq=False)
class Chart:
    """A coordinate chart on the 9-space: its map to Cartesian coordinates.

    ``to_cartesian`` expresses each Cartesian coordinate as an expression
    in this chart's symbols.
    """

    name: str
    coords: tuple[str, ...]
    to_cartesian: Mapping[str, sp.Expr]
    # stages of (cartesian coords, chart coords) making the chart Jacobian
    # block triangular, so pushforwards reduce to tiny linear solves
    solve_order: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()


def _syms(names: str) -> list[sp.Symbol]:
    return sp.symbols(names)


@lru_cache(maxsize=None)
def chart_D() -> Chart:
    return Chart("D", CARTESIAN_COORDS, {c: sp.Symbol(c) for c in CARTESIAN_COORDS})


@lru_cache(maxsize=None)
def chart_C() -> Chart:
    t, x, u, rho, P = _syms("t x u rho P")
    r, theta, q, vartheta = _syms("r theta q vartheta")
    to_cart = {
        "t": t,
        "x": x,
        "y": r * sp.cos(theta),
        "z": r * sp.sin(theta),
        "u": u,
        "v": q * sp.cos(theta + vartheta),
        "w": q * sp.sin(theta + vartheta),
        "rho": rho,
        "P": P,
    }
    coords = ("t", "x", "r", "theta", "u", "q", "vartheta", "rho", "P")
    stages = (
        (("t",), ("t",)),
        (("x",), ("x",)),
        (("u",), ("u",)),
        (("rho",), ("rho",)),
        (("P",), ("P",)),
        (("y", "z"), ("r", "theta")),
        (("v", "w"), ("q", "vartheta")),
    )
    return Chart("C", coords, to_cart, stages)


@lru_cache(maxsize=None)
def chart_S() -> Chart:
    t, rho, P = _syms("t rho P")
    r_S, theta_S, phi = _syms("r_S theta_S phi")
    q_S, vartheta_S, varphi = _syms("q_S vartheta_S varphi")
    U = q_S * sp.cos(vartheta_S)
    V = q_S * sp.sin(vartheta_S) * sp.cos(varphi)
    W = q_S * sp.sin(vartheta_S) * sp.sin(varphi)
    to_cart = {
        "t": t,
        "x": r_S * sp.sin(theta_S) * sp.cos(phi),
        "y": r_S * sp.sin(theta_S) * sp.sin(phi),
        "z": r_S * sp.cos(theta_S),
        "u": (U * sp.sin(theta_S) + V * sp.cos(theta_S)) * sp.cos(phi)
        - W * sp.sin(phi),
        "v": (U * sp.sin(theta_S) + V * sp.cos(theta_S)) * sp.sin(phi)
        + W * sp.cos(phi),
        "w": U * sp.cos(theta_S) - V * sp.sin(theta_S),
        "rho": rho,
        "P": P,
    }
    coords = ("t", "r_S", "theta_S", "phi", "q_S", "vartheta_S", "varphi", "rho", "P")
    stages = (
        (("t",), ("t",)),
        (("rho",), ("rho",)),
        (("P",), ("P",)),
        (("x", "y", "z"), ("r_S", "theta_S", "phi")),
        (("u", "v", "w"), ("q_S", "vartheta_S", "varphi")),
    )
    return Chart("S", coords, to_cart, stages)


@lru_cache(maxsize=None)
def chart_D_shift(b) -> Chart:
    """Cartesian chart with (v, w) traded for the shifted polar pair."""
    b = sp.nsimplify(b, rational=True)
    t, x, y, z, u, rho, P = _syms("t x y z u rho P")
    qbar, varthetabar = _syms("qbar varthetabar")
    denom = t**2 + b**2
    vs = (t * y + b * z) / denom
    ws = (t * z - b * y) / denom
    to_cart = {
        "t": t,
        "x": x,
        "y": y,
        "z": z,
        "u": u,
        "v": vs + qbar * sp.cos(varthetabar),
        "w": ws + qbar * sp.sin(varthetabar),
        "rho": rho,
        "P": P,
    }
    coords = ("t", "x", "y", "z", "u", "qbar", "varthetabar", "rho", "P")
    stages = (
        (("t",), ("t",)),
        (("x",), ("x",)),
        (("y",), ("y",)),
        (("z",), ("z",)),
        (("u",), ("u",)),
        (("rho",), ("rho",)),
        (("P",), ("P",)),
        (("v", "w"), ("qbar", "varthetabar")),
    )
    return Chart(f"D-shift({b})", coords, to_cart, stages)


@dataclass(frozen=True, eq=False)
class VectorField:
    """First-order differential operator on a chart: coord -> coefficient."""

    chart: Chart
    coeffs: Mapping[str, sp.Expr]

    def coeff(self, coord: str) -> sp.Expr:
        return sp.sympify(self.coeffs.get(coord, 0))

    def apply(self, e) -> sp.Expr:
        """Directional derivative sum_i F_i * d(e)/dx_i, canonicalized."""
        e = sp.sympify(e)
        out = sp.Integer(0)
        for c in self.chart.coords:
            fc = self.coeff(c)
            if fc != 0:
                out += fc * sp.diff(e, sp.Symbol(c))
        return canonicalize(out)

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.chart.name != self.chart.name:
            raise ValueError("chart mismatch")
        coords = self.chart.coords
        return VectorField(
            self.chart,
            {c: sp.expand(self.coeff(c) + other.coeff(c)) for c in coords},
        )

    def __rmul__(self, scalar) -> "VectorField":
        return VectorField(
            self.chart,
            {c: sp.expand(sp.sympify(scalar) * self.coeff(c))
             for c in self.chart.coords},
        )

    def canonical(self) -> "VectorField":
        return VectorField(
            self.chart,
            {c: canonicalize(self.coeff(c)) for c in self.chart.coords},
        )

    def equals(self, other: "VectorField") -> bool:
        if other.chart.name != self.chart.name:
            return False
        return all(
            canonicalize(self.coeff(c) - other.coeff(c)) == 0
            for c in self.chart.coords
        )


def vf_commutator(F: VectorField, G: VectorField) -> VectorField:
    """[F, G] with coefficients F(G_i) - G(F_i)."""
    if F.chart.name != G.chart.name:
        raise ValueError("chart mismatch")
    coeffs = {
        c: canonicalize(F.apply(G.coeff(c)) - G.apply(F.coeff(c)))
        for c in F.chart.coords
    }
    return VectorField(F.chart, coeffs)


# --------------------------------------------------------------------------
# generator realizations (Cartesian forms are the table of record)


def _cartesian_generators() -> dict[str, dict[str, sp.Expr]]:
    t, x, y, z, u, v, w = _syms("t x y z u v w")
    one = sp.Integer(1)
    return {
        "X1": {"x": one},
        "X2": {"y": one},
        "X3": {"z": one},
        "X4": {"x": t, "u": one},
        "X5": {"y": t, "v": one},
        "X6": {"z": t, "w": one},
        "X7": {"y": -z, "z": y, "v": -w, "w": v},
        "X8": {"x": z, "z": -x, "u": w, "w": -u},
        "X9": {"x": -y, "y": x, "u": -v, "v": u},
        "X10": {"t": one},
        "X11": {"t": t, "x": x, "y": y, "z": z},
        "Y": {"P": one},
    }


@lru_cache(maxsize=None)
def realize(label: str, chart: Chart | None = None) -> VectorField:
    """The generator ``label`` (Y or X1..X11) as a field on ``chart``."""
    if label not in L12_LABELS:
        raise ValueError(f"unknown generator {label!r}")
    D = chart_D()
    F = VectorField(D, _cartesian_generators()[label])
    if chart is None or chart.name == "D":
        return F
    return pushforward(F, chart)


def realize_combination(coeffs, chart: Chart | None = None) -> VectorField:
    """Linear combination sum coeffs[i] * generator_i, (Y, X1..X11) order."""
    chart = chart or chart_D()
    out = VectorField(chart, {})
    for c, label in zip(coeffs, L12_LABELS):
        c = sp.sympify(c)
        if c != 0:
            out = out + c * realize(label, chart)
    return out.canonical()


def realization_table_diff(chart: Chart | None = None) -> list[tuple[str, str]]:
    """Generator pairs whose realized commutator disagrees with the
    structure-constant table; empty means the table is certified."""
    from .liealg import l12

    chart = chart or chart_D()
    alg = l12()
    realized = {lbl: realize(lbl, chart) for lbl in L12_LABELS}
    bad = []
    for i, a in enumerate(L12_LABELS):
        for j in range(i + 1, len(L12_LABELS)):
            b = L12_LABELS[j]
            lhs = vf_commutator(realized[a], realized[b])
            rhs = realize_combination(
                [alg.C[i][j][k] for k in range(alg.dim)], chart
            )
            if not lhs.equals(rhs):
                bad.append((a, b))
    return bad


def pushforward(F: VectorField, target: Chart) -> VectorField:
    """Express a Cartesian field in ``target`` chart coordinates.

    Solves J_Psi * G = F o Psi stage by stage (Psi is the
    chart-to-Cartesian map and its Jacobian is block triangular in the
    chart's declared stage order), then simplifies with the Pythagorean
    rule.
    """
    if F.chart.name != "D":
        raise ValueError("pushforward expects a field in chart D")
    if target.name == "D":
        return F
    if not target.solve_order:
        raise ValueError(f"chart {target.name} has no solve stages")
    subs = {sp.Symbol(c): target.to_cartesian[c] for c in CARTESIAN_COORDS}
    rhs = {c: canonicalize(sp.sympify(F.coeff(c)).subs(subs)) for c in CARTESIAN_COORDS}
    solved: dict[str, sp.Expr] = {}
    for stage, (cart_coords, chart_coords) in enumerate(target.solve_order):
        b = []
        for cc in cart_coords:
            expr = rhs[cc]
            for prev, gval in solved.items():
                d = sp.diff(target.to_cartesian[cc], sp.Symbol(prev))
                if d != 0:
                    expr -= d * gval
            b.append(expr)
        if all(x == 0 for x in b):
            sol = [sp.Integer(0)] * len(chart_coords)
        else:
            sol = _stage_inverse(target, stage) * sp.Matrix(b)
        for name, val in zip(chart_coords, sol):
            solved[name] = canonicalize(val)
    return VectorField(target, {c: solved[c] for c in target.coords})


@lru_cache(maxsize=None)
def _stage_inverse(chart: Chart, stage: int) -> sp.Matrix:
    """Simplified inverse of one Jacobian block, computed once per chart."""
    cart_coords, chart_coords = chart.solve_order[stage]
    unknowns = [sp.Symbol(c) for c in chart_coords]
    block = sp.Matrix([
        [sp.diff(chart.to_cartesian[cc], xi) for xi in unknowns]
        for cc in cart_coords
    ])
    det = canonicalize(block.det())
    adj = block.adjugate()
    inv = adj.applyfunc(canonicalize) / det
    return inv.applyfunc(canonicalize)
