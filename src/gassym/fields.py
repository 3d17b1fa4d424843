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

A chart declares only the Cartesian coordinates it moves (``_chart``); every
other one maps to itself and is solved by a 1x1 stage ahead of the chart's
own blocks.  Pushforward solves J_Psi * G = F o Psi where Psi maps chart
coordinates to Cartesian ones, so no inverse trig functions enter symbolic
work.  Field coefficients live in the chart's rational function field over
QQ (``Chart.ring``, built once per chart): its generators are the
coordinates, each angle a followed by sin(a) and cos(a), then the catalog
parameters ``PARAM_SYMBOLS``.  Pushforwards, sums, brackets, equality and
the catalog's annihilation verdicts run there, with one zero test: the
numerator reduced modulo sin(a)**2 + cos(a)**2 - 1 is 0.  The ring's kernel
is sparse: a structural zero is never differentiated, multiplied, composed
or cancelled, and a 1x1 stage is inverted without a determinant.
``exprs.canonicalize`` serves only ``VectorField.apply``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Mapping

import sympy as sp
from sympy.polys.fields import field
from sympy.polys.matrices import DomainMatrix

from .exprs import canonicalize, exact_number
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
C_COORDS = ("t", "x", "r", "theta", "u", "q", "vartheta", "rho", "P")
S_COORDS = ("t", "r_S", "theta_S", "phi", "q_S", "vartheta_S", "varphi", "rho", "P")
D_SHIFT_COORDS = ("t", "x", "y", "z", "u", "qbar", "varthetabar", "rho", "P")
PARAM_SYMBOLS = sp.symbols("a b c d eps")  # the catalog's parameters


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

    @cached_property
    def ring(self) -> "_ChartRing":
        """The map over the chart's rational function field, built on first use."""
        return _ChartRing(self)


def _chart(name: str, coords: tuple[str, ...], moved: Mapping[str, sp.Expr], blocks=()) -> Chart:
    """A chart that maps every Cartesian coordinate not in ``moved`` to
    itself.  Its stages are a 1x1 stage per such coordinate, in Cartesian
    order, followed by the ``blocks`` that solve for the moved ones."""
    kept = [c for c in CARTESIAN_COORDS if c not in moved]
    to_cart = {c: moved.get(c, sp.Symbol(c)) for c in CARTESIAN_COORDS}
    return Chart(name, coords, to_cart, tuple(((c,), (c,)) for c in kept) + blocks)


@lru_cache(maxsize=None)
def chart_D() -> Chart:
    return Chart("D", CARTESIAN_COORDS, {c: sp.Symbol(c) for c in CARTESIAN_COORDS})


@lru_cache(maxsize=None)
def chart_C() -> Chart:
    r, theta, q, vartheta = sp.symbols("r theta q vartheta")
    moved = {
        "y": r * sp.cos(theta),
        "z": r * sp.sin(theta),
        "v": q * sp.cos(theta + vartheta),
        "w": q * sp.sin(theta + vartheta),
    }
    blocks = ((("y", "z"), ("r", "theta")), (("v", "w"), ("q", "vartheta")))
    return _chart("C", C_COORDS, moved, blocks)


@lru_cache(maxsize=None)
def chart_S() -> Chart:
    r_S, theta_S, phi = sp.symbols("r_S theta_S phi")
    q_S, vartheta_S, varphi = sp.symbols("q_S vartheta_S varphi")
    U = q_S * sp.cos(vartheta_S)
    V = q_S * sp.sin(vartheta_S) * sp.cos(varphi)
    W = q_S * sp.sin(vartheta_S) * sp.sin(varphi)
    moved = {
        "x": r_S * sp.sin(theta_S) * sp.cos(phi),
        "y": r_S * sp.sin(theta_S) * sp.sin(phi),
        "z": r_S * sp.cos(theta_S),
        "u": (U * sp.sin(theta_S) + V * sp.cos(theta_S)) * sp.cos(phi)
        - W * sp.sin(phi),
        "v": (U * sp.sin(theta_S) + V * sp.cos(theta_S)) * sp.sin(phi)
        + W * sp.cos(phi),
        "w": U * sp.cos(theta_S) - V * sp.sin(theta_S),
    }
    blocks = (
        (("x", "y", "z"), ("r_S", "theta_S", "phi")),
        (("u", "v", "w"), ("q_S", "vartheta_S", "varphi")),
    )
    return _chart("S", S_COORDS, moved, blocks)


@lru_cache(maxsize=None)
def chart_D_shift(b) -> Chart:
    """Cartesian chart with (v, w) traded for the shifted polar pair."""
    b = exact_number(b)
    t, y, z, qbar, varthetabar = sp.symbols("t y z qbar varthetabar")
    denom = t**2 + b**2
    moved = {
        "v": (t * y + b * z) / denom + qbar * sp.cos(varthetabar),
        "w": (t * z - b * y) / denom + qbar * sp.sin(varthetabar),
    }
    return _chart(f"D-shift({b})", D_SHIFT_COORDS, moved, ((("v", "w"), ("qbar", "varthetabar")),))


@dataclass(frozen=True, eq=False)
class VectorField:
    """First-order differential operator on a chart: coord -> element of ``chart.ring.field``."""

    chart: Chart
    coeffs: Mapping[str, object]

    def __post_init__(self):
        coeffs = {c: self.chart.ring.element(self.coeffs.get(c, 0)) for c in self.chart.coords}
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, coord: str) -> sp.Expr:
        return self.coeffs[coord].as_expr()

    def apply(self, e) -> sp.Expr:
        """Directional derivative sum_i F_i * d(e)/dx_i, canonicalized."""
        e = sp.sympify(e, strict=True)
        terms = (self.coeff(c) * sp.diff(e, sp.Symbol(c)) for c, f in self.coeffs.items() if f)
        return canonicalize(sum(terms, sp.Integer(0)))

    def __rmul__(self, scalar) -> "VectorField":
        k = self.chart.ring.element(sp.sympify(scalar, strict=True))
        return VectorField(self.chart, {c: k * f for c, f in self.coeffs.items()})

    def equals(self, other: "VectorField") -> bool:
        if other.chart.name != self.chart.name:
            return False
        ring = self.chart.ring
        return all(ring.is_zero(f - other.coeffs[c]) for c, f in self.coeffs.items())


def vf_commutator(F: VectorField, G: VectorField) -> VectorField:
    """[F, G] with coefficients F(G_i) - G(F_i)."""
    if F.chart.name != G.chart.name:
        raise ValueError("chart mismatch")
    return VectorField(F.chart, F.chart.ring.bracket(F.coeffs, G.coeffs))


# --------------------------------------------------------------------------
# generator realizations (Cartesian forms are the table of record)


def _cartesian_generators() -> dict[str, dict[str, sp.Expr]]:
    t, x, y, z, u, v, w = sp.symbols("t x y z u v w")
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
    ring = chart.ring
    terms = [(ring.element(sp.sympify(a, strict=True)), realize(label, chart).coeffs)
             for a, label in zip(coeffs, L12_LABELS) if a != 0]
    sums = {c: sum((a * F[c] for a, F in terms if F[c]), ring.field.zero) for c in chart.coords}
    return VectorField(chart, sums)


def realization_table_diff(chart: Chart | None = None) -> list[tuple[str, str]]:
    """Generator pairs whose realized commutator disagrees with the
    structure-constant table; empty means the table is certified."""
    from .liealg import l12

    chart = chart or chart_D()
    ring, table = chart.ring, l12().table
    fields = [realize(lbl, chart).coeffs for lbl in L12_LABELS]
    bad = []
    for i, j in combinations(range(len(L12_LABELS)), 2):
        lhs = ring.bracket(fields[i], fields[j])
        terms = [(a, fields[k]) for k, a in table.get((i, j), {}).items()]
        if not all(
            ring.is_zero(lhs[c] - sum((a * g[c] for a, g in terms), ring.field.zero))
            for c in chart.coords
        ):
            bad.append((L12_LABELS[i], L12_LABELS[j]))
    return bad


def pushforward(F: VectorField, target: Chart) -> VectorField:
    """Express a Cartesian field in ``target`` chart coordinates.

    Solves J_Psi * G = F o Psi stage by stage (Psi is the
    chart-to-Cartesian map and its Jacobian is block triangular in the
    chart's declared stage order) in the chart's rational function field,
    reducing each solved value modulo the Pythagorean relations.
    """
    if F.chart.name != "D":
        raise ValueError("pushforward expects a field in chart D")
    if target.name == "D":
        return F
    if not target.solve_order:
        raise ValueError(f"chart {target.name} has no solve stages")
    ring, zero = target.ring, target.ring.field.zero
    rhs = {c: ring.compose(F.coeff(c)) for c in CARTESIAN_COORDS}
    solved = {}
    for (cart_coords, chart_coords), inverse, coupling in zip(
        target.solve_order, ring.inverses, ring.couplings
    ):
        b = [
            rhs[cc] - sum((d * solved[p] for p, d in coupling[cc] if solved[p]), zero)
            for cc in cart_coords
        ]
        for name, row in zip(chart_coords, inverse):
            solved[name] = ring.reduce(sum((m * x for m, x in zip(row, b) if m and x), zero))
    return VectorField(target, solved)


class _ChartRing:
    """A chart's map to Cartesian coordinates over
    QQ(coords, sin(a), cos(a), params).

    Each angle ``a`` under ``sin``/``cos`` is a generator followed by
    sin(a) and cos(a); rational functions are kept with numerator and
    denominator reduced modulo {sin(a)**2 + cos(a)**2 - 1}, a Groebner
    basis in lex order with sin(a) before cos(a), since its leading terms
    sin(a)**2 are pairwise coprime.  a is transcendental over the rest, so
    an element vanishes exactly when its numerator reduces to 0.  Holds the image of each
    Cartesian coordinate, and per solve stage the inverse of the Jacobian
    block (1/J for a 1x1 block, else adjugate over the reduced
    determinant) and the derivatives coupling it to earlier stages.

    The kernel is sparse: a structural zero is never differentiated,
    multiplied, composed or cancelled (``diff`` runs the quotient rule only
    on the parts that involve the coordinate, and ``reduce`` is the
    identity on a chart with no angles); each result is the canonical
    element the dense formulas give.
    """

    def __init__(self, chart: Chart):
        maps = {c: sp.expand_trig(e) for c, e in chart.to_cartesian.items()}
        coords = [sp.Symbol(c) for c in chart.coords]
        args = {f.args[0] for e in maps.values() for f in e.atoms(sp.sin, sp.cos)}
        angles = [a for a in coords if a in args]
        gens = [g for x in coords for g in ((x, sp.sin(x), sp.cos(x)) if x in args else (x,))]
        self.field = K = field(gens + list(PARAM_SYMBOLS), sp.QQ)[0]
        self._gen = {x.name: gens.index(x) for x in coords}
        self._angle = {a.name: (gens.index(sp.sin(a)), gens.index(sp.cos(a))) for a in angles}
        g = K.ring.gens
        self._ideal = [g[s] ** 2 + g[c] ** 2 - 1 for s, c in self._angle.values()]
        self.coords = chart.coords
        self._cart = {sp.Symbol(c): e for c, e in maps.items()}
        images = {c: K.from_expr(e) for c, e in maps.items()}

        self.inverses, self.couplings, earlier = [], [], []
        for cart_coords, chart_coords in chart.solve_order:
            jac = [[self.diff(images[cc], x) for x in chart_coords] for cc in cart_coords]
            if len(jac) == 1:
                adj, det = [[K.one]], jac[0][0]
            else:
                block = DomainMatrix(jac, (len(jac), len(jac)), K.to_domain())
                adj, det = block.adjugate().to_list(), block.det()
            det = self.reduce(det)
            self.inverses.append([[self.reduce(m / det) for m in row] for row in adj])
            self.couplings.append({
                cc: [(prev, d) for prev in earlier if (d := self.diff(images[cc], prev))]
                for cc in cart_coords
            })
            earlier += chart_coords

    def _derive(self, p, coord: str):
        """d p / d coord of a polynomial; along an angle a it is
        d/da + cos(a) d/dsin(a) - sin(a) d/dcos(a).  A generator is passed
        to ``PolyElement.diff`` by index, which skips a search by equality."""
        dp = p.diff(self._gen[coord])
        if coord in self._angle:
            s, c = self._angle[coord]
            g = p.ring.gens
            dp += g[c] * p.diff(s) - g[s] * p.diff(c)
        return dp

    def diff(self, f, coord: str):
        """d f / d coord by the quotient rule, run only on the parts of
        ``f`` that involve ``coord``."""
        n, d = f.numer, f.denom
        dn, dd = self._derive(n, coord), self._derive(d, coord)
        if not dd:
            return self.field.new(dn, d)
        return self.field.new(dn * d - n * dd, d**2)

    def bracket(self, f: dict, g: dict) -> dict:
        """[f, g] of two fields' coefficients: f(g_c) - g(f_c), reduced;
        a term f_x * d(g_c)/dx is formed only when f_x and g_c are nonzero."""
        out = {}
        for c in self.coords:
            terms = [f[x] * self.diff(g[c], x) for x in self.coords if f[x] and g[c]]
            terms += [-g[x] * self.diff(f[c], x) for x in self.coords if g[x] and f[c]]
            out[c] = self.reduce(sum(terms, self.field.zero))
        return out

    def is_zero(self, f) -> bool:
        """The zero test of fields and verdicts: the numerator reduces to 0."""
        return not f.numer.rem(self._ideal)

    def compose(self, e):
        """The Cartesian expression ``e`` composed with the chart map."""
        return self.element(e.xreplace(self._cart))

    def element(self, e):
        """``e``, a number, expression or element, in the field; zero is not converted."""
        return self.field(e) if e != 0 else self.field.zero

    def reduce(self, f):
        """``f`` with numerator and denominator reduced modulo the
        Pythagorean relations; on a chart with no angles, ``f`` itself."""
        if not self._ideal:
            return f
        return self.field.new(f.numer.rem(self._ideal), f.denom.rem(self._ideal))
