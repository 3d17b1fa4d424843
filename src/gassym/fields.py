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

A ``Chart`` declares only the Cartesian coordinates it moves, as elements
of its field, and the blocks that solve for them; every other one maps to
itself and is listed as ``kept``.  Pushforward solves J_Psi * G = F o Psi,
where Psi maps chart coordinates to Cartesian ones: F o Psi evaluates F's
coefficients at those elements, so no inverse trig function and no sympy
expression enters the work.  The field (``Chart.field``) is rational over
QQ in the coordinates, each angle a followed by sin(a) and cos(a), then the
catalog parameters ``PARAM_SYMBOLS``, built as ``field(gens, ZZ)`` so that
ring arithmetic runs on Python ints.  Pushforwards, combinations of the
generators (``realize_combination``, their one builder), brackets, equality
and the annihilation verdicts run there, with one zero test
(``Chart.is_zero``): the numerator reduced modulo sin(a)**2 + cos(a)**2 - 1
(``exprs``) is 0.  The kernel is sparse: a structural zero is never
differentiated, multiplied, composed or cancelled, and set-up, pushforward
and the catalog's invariants take no gcd (``Chart.quotient``).
``Chart.gradient`` differentiates r + sum c*log(g) in the field, given as
field elements (a catalog row) or read from a sympy expression (``apply``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import Mapping

import sympy as sp
from sympy.polys.fields import FracElement, field
from sympy.polys.matrices import DomainMatrix

from .exprs import exact_number, pythagorean_ideal
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


class Chart:
    """A coordinate chart on the 9-space and its map to Cartesian
    coordinates, over the field QQ(coords, sin(a), cos(a), params) built
    over ZZ: a rational constant p/q is the pair (p, q) (``element``).

    Each of the ``angles`` a is a generator followed by sin(a) and cos(a),
    and ``gens`` names each generator ("t", "sin(theta)", "a").  ``moved``
    builds from them the image of each Cartesian coordinate the chart moves;
    the others are ``kept``, each its own image (``images``).  ``blocks``
    of (Cartesian coords, chart coords), polynomial over ZZ (else ValueError),
    solve for the moved ones, in an order making the Jacobian block
    triangular.  ``factors`` builds the irreducible non-monomials that, with
    monomials, make up the denominators (``quotient``).
    Rational functions are kept with numerator and denominator reduced
    (``reduce``) modulo ``exprs.pythagorean_ideal``.  a is transcendental
    over the rest, so an element vanishes exactly when its numerator
    reduces to 0.  Each of the ``stages`` is one block as a pair: the
    derivatives coupling each of its Cartesian coordinates to the kept
    coordinates and earlier stages, and the inverse of its Jacobian (adjugate
    over reduced determinant, both in the ring), one row per chart coordinate.

    The kernel is sparse: a structural zero is never differentiated,
    multiplied, composed or cancelled (``diff`` runs the quotient rule only
    on the parts that involve the coordinate); each result is the canonical
    element the dense formulas give.
    """

    def __init__(self, name: str, coords: tuple[str, ...], angles=(), moved=None, blocks=(), factors=None):
        self.name, self.coords = name, coords
        self.symbols = syms = [sp.Symbol(c) for c in coords]
        gens = [g for x in syms for g in ((x, sp.sin(x), sp.cos(x)) if x.name in angles else (x,))]
        self.field = K = field(gens + list(PARAM_SYMBOLS), sp.ZZ)[0]
        self.gens = {str(s): g for s, g in zip(K.symbols, K.gens)}
        self._gen = {k: i for i, k in enumerate(self.gens)}  # generator indices by name
        self._angle = {a: (self._gen[f"sin({a})"], self._gen[f"cos({a})"]) for a in angles}
        self._ideal = pythagorean_ideal(K.ring)
        self.factors = tuple(f.numer for f in factors(self)) if factors else ()
        images = moved(self) if moved else {}
        self.kept = tuple(c for c in CARTESIAN_COORDS if c not in images)
        self.images = {c: images[c] if c in images else self.gens[c] for c in CARTESIAN_COORDS}

        self.stages, earlier = [], list(self.kept)
        for cart_coords, chart_coords in blocks:
            jac = [[self.diff(self.images[cc], x) for x in chart_coords] for cc in cart_coords]
            if not all(f.denom == 1 for row in jac for f in row):
                raise ValueError(f"chart {name}: the block of {cart_coords} is not polynomial over ZZ")
            jac = [[f.numer for f in row] for row in jac]
            block = DomainMatrix(jac, (len(jac), len(jac)), K.ring.to_domain())
            adj, det = block.adjugate().to_list(), block.det().rem(self._ideal)
            coupling = {cc: [(prev, d) for prev in earlier if (d := self.diff(self.images[cc], prev))]
                        for cc in cart_coords}
            self.stages.append((coupling, {
                x: [self.reduce(K.raw_new(m, det)) for m in row] for x, row in zip(chart_coords, adj)
            }))
            earlier += chart_coords

    def quotient(self, n, d):
        """Exactly ``field.new(n, d)``, with no gcd when d is powers of the ``factors``
        times a term or times c * p**k, p primitive and linear (``_linear_base``): each
        factor, and then p, comes out of n and d while it divides both, then the monomial
        gcd, and content and sign are set as ``PolyElement.cancel`` sets them."""
        K = self.field
        if not n:
            return K.zero
        core, rest = d, K.ring.one  # d is core * rest times what came out of n
        for p in self.factors:
            core, n, rest = _strip(p, core, n, rest)
        if len(core) > 1:
            if not (p := _linear_base(core)):
                return K.new(n, core * rest)
            core, n, rest = _strip(p, core, n, rest)  # core is now c
        m = reduce(K.ring.monomial_gcd, n.itermonoms(), core.LM)
        n, d = n.quo_term((m, 1)), core.quo_term((m, 1)) * rest
        c = K.domain.gcd(n.content(), d.content()) * d.canonical_unit()
        return K.raw_new(n.quo_ground(c), d.quo_ground(c))

    def reduce(self, f):
        """f, maybe uncancelled, as a ``quotient``, reduced modulo the Pythagorean ideal."""
        f = self.quotient(f.numer, f.denom)
        return self.quotient(f.numer.rem(self._ideal), f.denom.rem(self._ideal)) if self._ideal else f

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
        return self.quotient(dn * d - n * dd, d**2) if dd else self.quotient(dn, d)

    def bracket(self, f: dict, g: dict) -> dict:
        """[f, g] of two fields' coefficients: f(g_c) - g(f_c), reduced;
        a term f_x * d(g_c)/dx is formed only when f_x and g_c are nonzero."""
        out = {}
        for c in self.coords:
            terms = [(f[x], self.diff(g[c], x)) for x in self.coords if f[x] and g[c]]
            terms += [(-g[x], self.diff(f[c], x)) for x in self.coords if g[x] and f[c]]
            out[c] = self.reduce(self.combination(terms))
        return out

    def gradient(self, e) -> list:
        """The partial derivatives of r + sum c*log(g), no c involving a
        coordinate (d log(g) = g'/g): ``e`` is the pair (r, ((c, g), ...)) of
        field elements, or a sympy expression read into it term by term; any
        other expression raises one ValueError naming it."""
        if not isinstance(e, tuple):
            r, logs = self.field.zero, ()
            try:
                for term in sp.Add.make_args(e):
                    c, f = term.as_independent(sp.log, as_Add=False)
                    if f != 1 and (f.func != sp.log or f.args[0].has(sp.log) or c.has(*self.symbols)):
                        raise ValueError
                    c = self.element(c)
                    r, logs = (r + c, logs) if f == 1 else (r, logs + ((c, self.element(f.args[0])),))
            except ValueError:
                raise ValueError(f"{e} has a Jacobian entry that is not rational in the chart's field") from None
            e = r, logs
        r, logs = e

        def dlog(g, x):  # g'/g
            dg = self.diff(g, x)
            return self.quotient(dg.numer * g.denom, dg.denom * g.numer)

        return [self.total([(self.field.one, self.diff(r, x)), *((c, dlog(g, x)) for c, g in logs)])
                for x in self.coords]

    def combination(self, terms):
        """sum a * f over the (a, f) ``terms`` as one numerator over a product
        of their denominators, with no gcd: ``is_zero`` stays exact, as no
        product of reduced nonzero denominators lies in the prime ideal."""
        num, den = self.field.ring.zero, self.field.ring.one
        for a, f in terms:
            if a and f:
                n = f.numer if a.numer == 1 else a.numer * f.numer
                d = f.denom if a.denom == 1 else a.denom * f.denom
                num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
        return self.field.raw_new(num, den)

    def total(self, terms):
        """The ``combination`` of ``terms``, cancelled by ``quotient``; a lone
        nonzero term 1 * f is f as it is."""
        terms = [(a, f) for a, f in terms if a and f]
        if len(terms) == 1 and terms[0][0] == self.field.one:
            return terms[0][1]
        f = self.combination(terms)
        return self.quotient(f.numer, f.denom)

    def is_zero(self, f) -> bool:
        """The zero test of fields and verdicts: the numerator reduces to 0."""
        return not f.numer.rem(self._ideal)

    def element(self, e):
        """``e``, a number, expression or element, in the field; zero is not converted."""
        if isinstance(e, FracElement) and e.field is self.field:
            return e
        if isinstance(e, sp.Rational):  # a ground constant p/q, with no from_expr
            return self.field.raw_new(self.field.ring(e.p), self.field.ring(e.q))
        return self.field(e) if e != 0 else self.field.zero


def _strip(p, core, n, rest):
    """p out of ``core`` while it divides it, each time out of n too where it
    divides n, else into ``rest``: the new (core, n, rest)."""
    while not (qd := divmod(core, p))[1]:
        core, (qn, r) = qd[0], divmod(n, p)
        n, rest = (n, rest * p) if r else (qn, rest)
    return core, n, rest


def _linear_base(f):
    """The primitive linear p with f = c * p**k, or None, with no gcd: for k the
    total degree of f, the primitive part of the (k - 1)-th derivative of f in a
    generator of degree k, checked by multiplying out.  A primitive linear p is
    irreducible, so what it does not divide shares no factor with it."""
    k = max(map(sum, f.itermonoms()))
    if (i := next((i for i, e in enumerate(f.degrees()) if e == k), None)) is None:
        return None
    p = reduce(lambda g, _: g.diff(i), range(k - 1), f).primitive()[1]
    c, r = divmod(f.LC, p.LC ** k)
    return p if not r and f == (p ** k).mul_ground(c) else None


@lru_cache(maxsize=None)
def chart_D() -> Chart:
    return Chart("D", CARTESIAN_COORDS)


@lru_cache(maxsize=None)
def chart_C() -> Chart:
    def moved(chart):  # cos and sin of theta + vartheta expanded
        r, q, s, c, s2, c2 = (chart.gens[k] for k in (
            "r", "q", "sin(theta)", "cos(theta)", "sin(vartheta)", "cos(vartheta)"))
        return {"y": r * c, "z": r * s, "v": q * (c * c2 - s * s2), "w": q * (s * c2 + c * s2)}

    blocks = ((("y", "z"), ("r", "theta")), (("v", "w"), ("q", "vartheta")))
    return Chart("C", C_COORDS, ("theta", "vartheta"), moved, blocks)


@lru_cache(maxsize=None)
def chart_S() -> Chart:
    angles = ("theta_S", "phi", "vartheta_S", "varphi")

    def moved(chart):
        r, q = chart.gens["r_S"], chart.gens["q_S"]
        st, ct, sf, cf, sv, cv, sw, cw = (chart.gens[f"{f}({a})"] for a in angles for f in ("sin", "cos"))
        U, V, W = q * cv, q * sv * cw, q * sv * sw
        return {"x": r * st * cf, "y": r * st * sf, "z": r * ct, "u": (U * st + V * ct) * cf - W * sf,
                "v": (U * st + V * ct) * sf + W * cf, "w": U * ct - V * st}

    blocks = (
        (("x", "y", "z"), ("r_S", "theta_S", "phi")),
        (("u", "v", "w"), ("q_S", "vartheta_S", "varphi")),
    )
    return Chart("S", S_COORDS, angles, moved, blocks)


@lru_cache(maxsize=None)
def chart_D_shift(b) -> Chart:
    """Cartesian chart with (v, w) traded for the shifted polar pair over
    F = t**2 + b**2, the declared factor for b != 0 (irreducible over QQ)."""
    b = exact_number(b)
    shift = lambda chart: (chart.gens["t"] ** 2 + chart.element(b) ** 2,)  # (F,)

    def moved(chart):  # v = (t*y + b*z + qbar*cos*F)/F and w likewise, one quotient each
        t, y, z, q, s, c = (chart.gens[k] for k in (
            "t", "y", "z", "qbar", "sin(varthetabar)", "cos(varthetabar)"))
        k, (F,) = chart.element(b), shift(chart)
        over = lambda e: chart.quotient(e.numer * F.denom, e.denom * F.numer)
        return {"v": over(t * y + k * z + q * c * F), "w": over(t * z - k * y + q * s * F)}

    blocks = ((("v", "w"), ("qbar", "varthetabar")),)
    return Chart(f"D-shift({b})", D_SHIFT_COORDS, ("varthetabar",), moved, blocks, shift if b != 0 else None)


@dataclass(frozen=True, eq=False)
class VectorField:
    """First-order differential operator on a chart: coord -> element of ``chart.field``."""

    chart: Chart
    coeffs: Mapping[str, object]

    def __post_init__(self):
        coeffs = {c: self.chart.element(self.coeffs.get(c, 0)) for c in self.chart.coords}
        object.__setattr__(self, "coeffs", coeffs)

    def apply(self, e) -> sp.Expr:
        """Directional derivative sum_c F_c * d(e)/dc, cancelled and reduced in the chart's field."""
        grad = self.chart.gradient(sp.sympify(e, strict=True))
        lie = self.chart.combination(zip(self.coeffs.values(), grad))
        return self.chart.reduce(lie).as_expr()

    def __rmul__(self, scalar) -> "VectorField":
        k = self.chart.element(sp.sympify(scalar, strict=True))
        return VectorField(self.chart, {c: k * f for c, f in self.coeffs.items()})

    def equals(self, other: "VectorField") -> bool:
        if other.chart.name != self.chart.name:
            return False
        return all(self.chart.is_zero(f - other.coeffs[c]) for c, f in self.coeffs.items())


def vf_commutator(F: VectorField, G: VectorField) -> VectorField:
    """[F, G] with coefficients F(G_i) - G(F_i)."""
    if F.chart.name != G.chart.name:
        raise ValueError("chart mismatch")
    return VectorField(F.chart, F.chart.bracket(F.coeffs, G.coeffs))


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
    """sum coeffs[i] * generator_i over (Y, X1..X11) on ``chart``, each coefficient a number,
    expression or field element: the generators with a nonzero one, each coordinate one
    ``Chart.combination``.  A list of another length than 12 raises ValueError."""
    chart = chart or chart_D()
    if len(coeffs) != len(L12_LABELS):
        raise ValueError(f"a combination takes {len(L12_LABELS)} coefficients, not {len(coeffs)}")
    terms = [(chart.element(a if isinstance(a, FracElement) else sp.sympify(a, strict=True)),
              realize(label, chart).coeffs) for a, label in zip(coeffs, L12_LABELS) if a != 0]
    return VectorField(chart, {c: chart.combination((k, F[c]) for k, F in terms) for c in chart.coords})


def realization_table_diff(chart: Chart | None = None) -> list[tuple[str, str]]:
    """Generator pairs whose realized commutator disagrees with the
    structure-constant table; empty means the table is certified."""
    from .liealg import l12

    chart, bad = chart or chart_D(), []
    for i, j in combinations(range(len(L12_LABELS)), 2):
        lhs = chart.bracket(*(realize(L12_LABELS[n], chart).coeffs for n in (i, j)))
        row = l12().table.get((i, j), {})
        rhs = realize_combination([row.get(k, 0) for k in range(len(L12_LABELS))], chart).coeffs
        if not all(chart.is_zero(lhs[c] - rhs[c]) for c in chart.coords):
            bad.append((L12_LABELS[i], L12_LABELS[j]))
    return bad


def pushforward(F: VectorField, target: Chart) -> VectorField:
    """Express a Cartesian field in ``target`` chart coordinates.

    Solves J_Psi * G = F o Psi in the chart's rational function field
    (Psi is the chart-to-Cartesian map): a kept coordinate takes F's
    coefficient, then the declared blocks are solved in order.  F o Psi and
    the stage sums are ring pairs (``Chart.combination``); each coefficient
    is cancelled and reduced modulo the Pythagorean relations once (``reduce``).
    """
    if F.chart.name != "D":
        raise ValueError("pushforward expects a field in chart D")
    if target.name == "D":
        return F
    if not target.stages:
        raise ValueError(f"chart {target.name} has no solve stages")
    K, one = target.field, target.field.ring.one
    at = [*target.images.values(), *K.gens[-len(PARAM_SYMBOLS):]]  # chart D's generators
    power = lambda side, m: math.prod((getattr(v, side) ** k for v, k in zip(at, m) if k), start=one)

    def at_psi(f):  # f o Psi as a ring pair
        n, d = (target.combination((K.one, K.raw_new(power("numer", m).mul_ground(c), power("denom", m)))
                                   for m, c in p.items()) for p in (f.numer, f.denom))
        return K.raw_new(n.numer * d.denom, n.denom * d.numer)

    rhs = {c: at_psi(f) for c, f in F.coeffs.items()}
    solved = {c: target.reduce(rhs[c]) for c in target.kept}
    for coupling, inverse in target.stages:
        b = [target.combination([(K.one, rhs[cc]), *((-d, solved[p]) for p, d in links)])
             for cc, links in coupling.items()]
        for name, row in inverse.items():
            solved[name] = target.reduce(target.combination(zip(row, b)))
    return VectorField(target, solved)
