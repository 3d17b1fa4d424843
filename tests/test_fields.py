"""Vector-field realization tests: charts, pushforwards, certification."""

import math
import random
from itertools import combinations

import pytest
import sympy as sp
import sympy.polys.rings as rings
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from gassym import fields
from gassym.fields import (
    CARTESIAN_COORDS,
    VectorField,
    chart_C,
    chart_D,
    chart_D_shift,
    chart_S,
    pushforward,
    realization_table_diff,
    realize,
    realize_combination,
    vf_commutator,
)
from gassym.liealg import L12_LABELS


# --------------------------------------------------------------------------
# certification against the structure-constant table


def test_realization_matches_table_cartesian():
    assert realization_table_diff() == []


def test_selected_commutators_cartesian():
    X7, X8 = realize("X7"), realize("X8")
    want = realize_combination([-1 if label == "X9" else 0 for label in L12_LABELS])
    assert vf_commutator(X7, X8).equals(want)
    X4, X10 = realize("X4"), realize("X10")
    minus_x1 = (-1) * realize("X1")
    assert vf_commutator(X4, X10).equals(minus_x1)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        realize("X12")


# --------------------------------------------------------------------------
# chart coherence


def test_x7_is_pure_rotation_angle_in_cylindrical():
    F = realize("X7", chart_C())
    assert F.coeffs["theta"].as_expr() == 1
    assert all(F.coeffs[c].as_expr() == 0 for c in chart_C().coords if c != "theta")


def test_x10_in_cylindrical_is_time_translation():
    F = realize("X10", chart_C())
    assert F.coeffs["t"].as_expr() == 1
    assert all(F.coeffs[c].as_expr() == 0 for c in chart_C().coords if c != "t")


def test_x11_in_spherical_scales_t_and_radius():
    F = realize("X11", chart_S())
    assert F.coeffs["t"].as_expr() == sp.Symbol("t")
    assert F.coeffs["r_S"].as_expr() == sp.Symbol("r_S")
    assert F.coeffs["theta_S"].as_expr() == 0 and F.coeffs["phi"].as_expr() == 0


def test_commutator_transfers_to_cylindrical():
    C = chart_C()
    lhs = vf_commutator(realize("X7", C), realize("X8", C))
    rhs = (-1) * realize("X9", C)
    assert lhs.equals(rhs)


@pytest.mark.parametrize("b", [1, sp.Rational(1, 2)])
def test_commutator_transfers_to_shifted_chart(b):
    ch = chart_D_shift(b)
    lhs = vf_commutator(realize("X4", ch), realize("X10", ch))
    rhs = (-1) * realize("X1", ch)
    assert lhs.equals(rhs)


# --------------------------------------------------------------------------
# pushforward algebra


def test_pushforward_linear():
    # pushing 2*X5 - 3*X8 forward agrees with the combination of the pushed
    # generators, and the test tells it from 2*X5 + 3*X8
    C = chart_C()
    coeffs = [0] * 12
    coeffs[L12_LABELS.index("X5")], coeffs[L12_LABELS.index("X8")] = 2, -3
    combo = pushforward(realize_combination(coeffs), C)
    assert combo.equals(realize_combination(coeffs, C))
    coeffs[L12_LABELS.index("X8")] = 3
    assert not combo.equals(realize_combination(coeffs, C))


def test_pushforward_requires_cartesian_source():
    F = realize("X7", chart_C())
    with pytest.raises(ValueError):
        pushforward(F, chart_S())


def test_pushforward_identity_on_cartesian_target():
    F = realize("X4")
    assert pushforward(F, chart_D()) is F


def test_vector_field_chart_mismatch():
    with pytest.raises(ValueError):
        vf_commutator(realize("X1"), realize("X1", chart_C()))


def test_apply_is_directional_derivative():
    x, y = sp.symbols("x y")
    F = VectorField(chart_D(), {"x": y, "y": -x})
    assert F.apply(x**2 + y**2) == 0
    assert F.apply(x) == y


def test_realize_combination_order_is_y_first():
    F = realize_combination([1] + [0] * 11)
    assert F.coeffs["P"].as_expr() == 1
    assert all(F.coeffs[c].as_expr() == 0 for c in CARTESIAN_COORDS if c != "P")


@pytest.mark.parametrize("n", [0, 2, 11, 13])
def test_realize_combination_refuses_another_length(n):
    # a 13th coefficient is not dropped, nor a short list padded with zeros
    with pytest.raises(ValueError, match=f"takes 12 coefficients, not {n}$"):
        realize_combination([1] * n)


def test_realize_combination_takes_field_elements():
    # the catalog passes a basis row read into the chart's field
    C = chart_C()
    a = C.gens["a"]
    coeffs = [a if label == "X5" else -C.field.one if label == "X8" else 0 for label in L12_LABELS]
    want = [sp.Symbol("a") if label == "X5" else -1 if label == "X8" else 0 for label in L12_LABELS]
    assert realize_combination(coeffs, C).equals(realize_combination(want, C))


# --------------------------------------------------------------------------
# the pushforward identity J_Psi * G = F o Psi, exactly at rational points

# (cos, sin) on the unit circle with both entries rational and nonzero
PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]
PUSHFORWARD_CHARTS = [
    chart_C, chart_S, lambda: chart_D_shift(0), lambda: chart_D_shift(1),
    lambda: chart_D_shift(sp.Rational(4, 5)),
]


def _rational_point(chart, rng):
    """Values for the chart's symbols and for sin/cos of its angles: each
    angle sits where (cos, sin) is a signed Pythagorean pair, every other
    coordinate in [1/32, 2], so no pole of the charts is hit."""
    maps = [sp.expand_trig(f.as_expr()) for f in chart.images.values()]
    angles = {f.args[0] for e in maps for f in e.atoms(sp.sin, sp.cos)}
    values = {}
    for c in map(sp.Symbol, chart.coords):
        if c in angles:
            a, b, h = rng.choice(PYTHAGOREAN)
            if rng.random() < 0.5:
                a, b = b, a
            values[sp.cos(c)] = sp.Rational(rng.choice((-a, a)), h)
            values[sp.sin(c)] = sp.Rational(rng.choice((-b, b)), h)
        else:
            values[c] = sp.Rational(rng.randint(1, 64), 32)
    return values


def _identity_residual(F, G, point):
    """J_Psi * G - F o Psi at ``point``, one rational per Cartesian coord."""
    chart = G.chart
    at = lambda e: sp.expand_trig(sp.sympify(e)).xreplace(point)
    images = {c: f.as_expr() for c, f in chart.images.items()}
    psi = {sp.Symbol(c): e for c, e in images.items()}
    out = []
    for cc in CARTESIAN_COORDS:
        lhs = sum(at(sp.diff(images[cc], sp.Symbol(c))) * at(G.coeffs[c].as_expr()) for c in chart.coords)
        val = lhs - at(F.coeffs[cc].as_expr().xreplace(psi))
        assert val.is_Rational, val
        out.append(val)
    return out


@pytest.mark.parametrize("make_chart", PUSHFORWARD_CHARTS, ids=["C", "S", "Dshift0", "Dshift1", "Dshift4/5"])
def test_pushforward_identity_holds_exactly(make_chart):
    chart = make_chart()
    rng = random.Random(0)
    for _ in range(2):
        point = _rational_point(chart, rng)
        for label in L12_LABELS:
            assert _identity_residual(realize(label), realize(label, chart), point) == [0] * 9


@pytest.mark.parametrize("make_chart", PUSHFORWARD_CHARTS, ids=["C", "S", "Dshift0", "Dshift1", "Dshift4/5"])
def test_pushforward_identity_catches_a_flipped_sign(make_chart):
    # mutant: one realized coefficient of X8 with its sign flipped
    chart = make_chart()
    point = _rational_point(chart, random.Random(0))
    G = realize("X8", chart)
    c = next(c for c in chart.coords if G.coeffs[c])
    bad = VectorField(chart, {**G.coeffs, c: -G.coeffs[c]})
    assert any(_identity_residual(realize("X8"), bad, point))


CERTIFIED_CHARTS = {
    "C": chart_C, "S": chart_S, "Dshift(b)": lambda: chart_D_shift(sp.Symbol("b")),
}


@pytest.mark.parametrize("make_chart", CERTIFIED_CHARTS.values(), ids=list(CERTIFIED_CHARTS))
def test_realization_matches_table(make_chart):
    # chart D is certified by verify-algebra and gate 1; D-shift with b a
    # free symbol covers every shift at once
    assert realization_table_diff(make_chart()) == []


MOVED = {"C": ("y", "z", "v", "w"), "S": ("x", "y", "z", "u", "v", "w"), "Dshift(b)": ("v", "w")}


@pytest.mark.parametrize("name", list(CERTIFIED_CHARTS))
def test_chart_keeps_every_unmoved_coordinate(name):
    # each coordinate a chart does not move maps to itself and is listed
    # as kept, in Cartesian order; the solve stages are the chart's own
    # blocks, which solve for the moved coordinates only
    chart = CERTIFIED_CHARTS[name]()
    kept = tuple(c for c in CARTESIAN_COORDS if c not in MOVED[name])
    assert tuple(chart.images) == CARTESIAN_COORDS
    assert tuple(c for c, f in chart.images.items() if f.as_expr() == sp.Symbol(c)) == kept
    assert chart.kept == kept
    stages = chart.stages  # (coupling by Cartesian coord, inverse row by chart coord)
    assert all(len(cart) in (2, 3) and len(cart) == len(inv) for cart, inv in stages)
    assert sorted(c for cart, _ in stages for c in cart) == sorted(MOVED[name])


MUTANT_CHARTS = {
    "D": chart_D, "C": chart_C, "S": chart_S,
    "Dshift4/5": lambda: chart_D_shift(sp.Rational(4, 5)),
}


@pytest.mark.parametrize("make_chart", MUTANT_CHARTS.values(), ids=list(MUTANT_CHARTS))
def test_flipped_table_entry_is_caught(make_chart):
    # mutant: the table entry [X1, X9] = -X2 in place of +X2
    ch = make_chart()
    lhs = vf_commutator(realize("X1", ch), realize("X9", ch))
    assert lhs.equals(realize("X2", ch))
    assert not lhs.equals(-1 * realize("X2", ch))


FLIPPED_X9 = {
    "D": (chart_D, "u", [("X5", "X9"), ("X7", "X8"), ("X7", "X9"), ("X8", "X9")]),
    "S": (chart_S, "phi", [
        ("X1", "X9"), ("X2", "X9"), ("X4", "X9"), ("X5", "X9"),
        ("X7", "X8"), ("X7", "X9"), ("X8", "X9"),
    ]),
}


@pytest.mark.parametrize("name", list(FLIPPED_X9))
def test_certification_names_the_pairs_a_flipped_generator_breaks(monkeypatch, name):
    # mutant: realized X9 with one coefficient's sign flipped; exactly the
    # brackets that differentiate that coefficient, or that the table
    # writes through X9, disagree
    make_chart, coord, pairs = FLIPPED_X9[name]
    chart, real = make_chart(), fields.realize

    def realize_flipped(label, ch=None):
        G = real(label, ch)
        if label != "X9":
            return G
        return VectorField(G.chart, {**G.coeffs, coord: -G.coeffs[coord]})

    monkeypatch.setattr(fields, "realize", realize_flipped)
    assert realization_table_diff(chart) == pairs


# --------------------------------------------------------------------------
# the sparse chart kernel against the dense formulas

REFERENCE_CHARTS = {
    "D": chart_D, "C": chart_C, "S": chart_S,
    "Dshift(b)": lambda: chart_D_shift(sp.Symbol("b")),
    "Dshift4/5": lambda: chart_D_shift(sp.Rational(4, 5)),
}


def _dense_diff(chart, h, coord):
    """d h / d coord by FracElement.diff, (n'd - nd')/d**2, on every part;
    along an angle, the bare angle and its sin and cos all move."""
    K = chart.field
    gens = K.ring.gens
    d = h.diff(K(gens[chart._gen[coord]]))
    if coord in chart._angle:
        s, c = (K(gens[i]) for i in chart._angle[coord])
        d += c * h.diff(s) - s * h.diff(c)
    return d


def _dense_reduce(chart, h):
    return chart.field.new(h.numer.rem(chart._ideal), h.denom.rem(chart._ideal))


def _probe(chart):
    """A field whose coefficients carry a bare angle, its sin and cos, and
    a parameter, as the catalog's invariant Jacobians do."""
    t, rho, eps = sp.symbols("t rho eps")
    angle = next(iter(chart._angle), None)
    e = eps * rho / t
    if angle is None:
        return VectorField(chart, {"t": e})
    a = sp.Symbol(angle)
    e += a * sp.sin(a) - a**2 * sp.cos(a) / t
    return VectorField(chart, {"t": e, angle: e})


@pytest.mark.parametrize("make_chart", REFERENCE_CHARTS.values(), ids=list(REFERENCE_CHARTS))
def test_sparse_ring_kernel_matches_dense_formulas(make_chart):
    # diff and bracket skip structural zeros; on every realized generator,
    # and on a probe with a bare angle and a parameter, they give the same
    # canonical elements as the dense formulas
    chart = make_chart()
    coords, zero = chart.coords, chart.field.zero
    names = [*L12_LABELS, "probe"]
    fields = [realize(label, chart).coeffs for label in L12_LABELS] + [_probe(chart).coeffs]
    dense = []
    for f in fields:
        d = {(c, x): _dense_diff(chart, f[c], x) for c in coords for x in coords}
        assert {cx: chart.diff(f[cx[0]], cx[1]) for cx in d} == d
        dense.append(d)
    for i, j in combinations(range(len(fields)), 2):
        f, g = fields[i], fields[j]
        want = {
            c: _dense_reduce(chart, sum(
                (f[x] * dense[j][c, x] - g[x] * dense[i][c, x] for x in coords), zero
            ))
            for c in coords
        }
        assert chart.bracket(f, g) == want, (names[i], names[j])


def test_ring_kernel_skips_structural_zeros(monkeypatch):
    # the table on chart D differentiates only nonzero coefficients along
    # nonzero ones, and the five catalog charts take one adjugate per
    # declared block when they are built, seven in all; a kept coordinate
    # takes none
    calls = {"diff": 0, "adjugate": 0}
    diff, adjugate = fields.Chart.diff, DomainMatrix.adjugate

    def counted_diff(self, f, coord):
        calls["diff"] += 1
        return diff(self, f, coord)

    def counted_adjugate(self):
        calls["adjugate"] += 1
        return adjugate(self)

    monkeypatch.setattr(fields.Chart, "diff", counted_diff)
    monkeypatch.setattr(DomainMatrix, "adjugate", counted_adjugate)
    assert realization_table_diff(chart_D()) == []
    assert calls["diff"] == 648
    for cached in (fields.chart_C, fields.chart_S, fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    charts = [chart_C(), chart_S(), *map(chart_D_shift, (0, 1, sp.Rational(4, 5)))]
    assert len(charts) == 5 and calls["adjugate"] == 7


# --------------------------------------------------------------------------
# the chart quotient: sympy's canonical element, with no gcd

QUOTIENT_CHARTS = {
    "Dshift0": lambda: chart_D_shift(0), "Dshift4/5": lambda: chart_D_shift(sp.Rational(4, 5)),
    "Dshift(b)": lambda: chart_D_shift(sp.Symbol("b")), "C": chart_C, "S": chart_S,
}


@st.composite
def _quotient_case(draw):
    """A chart and (n, d) built from its declared factor (t**2 where it
    declares none), monomials with rational coefficients and small random
    polynomials; d may carry the undeclared factor t + 1 or a random one."""
    chart = QUOTIENT_CHARTS[draw(st.sampled_from(sorted(QUOTIENT_CHARTS)))]()
    gens = [chart.gens[k].numer for k in ("t", chart.coords[1], "b")]
    gens += [g.numer for k, g in chart.gens.items() if k.startswith(("sin(", "cos("))][:2]
    factor = chart.factors[0] if chart.factors else gens[0] ** 2
    coeff = st.builds(sp.QQ, st.integers(-6, 6).filter(bool), st.integers(1, 4))

    def monomial():
        return draw(coeff) * math.prod(g ** draw(st.integers(0, 2)) for g in gens)

    def polynomial():
        return sum((monomial() for _ in range(draw(st.integers(1, 3)))), chart.field.ring.zero)

    n = monomial() * factor ** draw(st.integers(0, 3)) * polynomial()
    d = monomial() * factor ** draw(st.integers(0, 3))
    d *= draw(st.sampled_from([chart.field.ring.one, gens[0] + 1, polynomial()]))
    return chart, n, d


@given(case=_quotient_case())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_quotient_is_sympys_canonical_element(case):
    chart, n, d = case
    if not d:
        return
    for n in (n, chart.field.ring.zero):
        got, want = chart.quotient(n, d), chart.field.new(n, d)
        assert (got.numer, got.denom) == (want.numer, want.denom)


def test_chart_setup_and_pushforward_take_no_gcd(monkeypatch):
    # fresh charts: building D-shift(4/5), D-shift(b) and S and pushing the
    # 12 generators forward runs sympy's heuristic gcd not once; a quotient
    # over the undeclared t + 1 shows that the counter counts
    calls = []
    heugcd = rings.heugcd
    monkeypatch.setattr(rings, "heugcd", lambda f, g: calls.append(1) or heugcd(f, g))
    for cached in (fields.chart_D, fields.chart_S, fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    charts = [chart_D_shift(sp.Rational(4, 5)), chart_D_shift(sp.Symbol("b")), chart_S()]
    for chart in charts:
        for label in L12_LABELS:
            realize(label, chart)
    assert calls == []
    t, x = (charts[0].gens[k].numer for k in ("t", "x"))
    assert charts[0].quotient(t * x + x + t + 1, t * x + t) == charts[0].field.new(t + 1, t)
    assert calls == [1]


def test_rational_block_is_refused():
    with pytest.raises(ValueError, match="not polynomial"):
        fields.Chart("inverted", CARTESIAN_COORDS, (), lambda chart: {"x": 1 / chart.gens["x"]},
                     ((("x",), ("x",)),))
