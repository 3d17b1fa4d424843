"""Vector-field realization tests: charts, pushforwards, certification."""

import random
from itertools import combinations

import pytest
import sympy as sp
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
    want = realize_combination([0] * L12_LABELS.index("X9") + [-1])
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
    assert F.coeff("theta") == 1
    assert all(F.coeff(c) == 0 for c in chart_C().coords if c != "theta")


def test_x10_in_cylindrical_is_time_translation():
    F = realize("X10", chart_C())
    assert F.coeff("t") == 1
    assert all(F.coeff(c) == 0 for c in chart_C().coords if c != "t")


def test_x11_in_spherical_scales_t_and_radius():
    F = realize("X11", chart_S())
    assert F.coeff("t") == sp.Symbol("t")
    assert F.coeff("r_S") == sp.Symbol("r_S")
    assert F.coeff("theta_S") == 0 and F.coeff("phi") == 0


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
    assert F.coeff("P") == 1
    assert all(F.coeff(c) == 0 for c in CARTESIAN_COORDS if c != "P")


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
    maps = [sp.expand_trig(e) for e in chart.to_cartesian.values()]
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
    psi = {sp.Symbol(c): e for c, e in chart.to_cartesian.items()}
    out = []
    for cc in CARTESIAN_COORDS:
        image = chart.to_cartesian[cc]
        lhs = sum(at(sp.diff(image, sp.Symbol(c))) * at(G.coeff(c)) for c in chart.coords)
        val = lhs - at(F.coeff(cc).xreplace(psi))
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
    c = next(c for c in chart.coords if G.coeff(c) != 0)
    bad = VectorField(chart, {**G.coeffs, c: -G.coeff(c)})
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
    # each coordinate a chart does not move maps to itself and is solved
    # by a 1x1 stage, in Cartesian order, ahead of the chart's own blocks
    chart = CERTIFIED_CHARTS[name]()
    kept = [c for c in CARTESIAN_COORDS if c not in MOVED[name]]
    assert tuple(chart.to_cartesian) == CARTESIAN_COORDS
    assert [c for c, e in chart.to_cartesian.items() if e == sp.Symbol(c)] == kept
    assert chart.solve_order[: len(kept)] == tuple(((c,), (c,)) for c in kept)
    blocks = chart.solve_order[len(kept):]
    assert all(len(cart) > 1 for cart, _ in blocks)
    assert sorted(c for cart, _ in blocks for c in cart) == sorted(MOVED[name])


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
        return VectorField(G.chart, {**G.coeffs, coord: -G.coeff(coord)})

    monkeypatch.setattr(fields, "realize", realize_flipped)
    assert realization_table_diff(chart) == pairs


# --------------------------------------------------------------------------
# the sparse chart-ring kernel against the dense formulas

REFERENCE_CHARTS = {
    "D": chart_D, "C": chart_C, "S": chart_S,
    "Dshift(b)": lambda: chart_D_shift(sp.Symbol("b")),
    "Dshift4/5": lambda: chart_D_shift(sp.Rational(4, 5)),
}


def _dense_diff(ring, h, coord):
    """d h / d coord by FracElement.diff, (n'd - nd')/d**2, on every part;
    along an angle, the bare angle and its sin and cos all move."""
    K = ring.field
    gens = K.ring.gens
    d = h.diff(K(gens[ring._gen[coord]]))
    if coord in ring._angle:
        s, c = (K(gens[i]) for i in ring._angle[coord])
        d += c * h.diff(s) - s * h.diff(c)
    return d


def _dense_reduce(ring, h):
    return ring.field.new(h.numer.rem(ring._ideal), h.denom.rem(ring._ideal))


def _probe(chart):
    """A field whose coefficients carry a bare angle, its sin and cos, and
    a parameter, as the catalog's invariant Jacobians do."""
    t, rho, eps = sp.symbols("t rho eps")
    angle = next(iter(chart.ring._angle), None)
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
    ring, coords, zero = chart.ring, chart.coords, chart.ring.field.zero
    names = [*L12_LABELS, "probe"]
    fields = [realize(label, chart).coeffs for label in L12_LABELS] + [_probe(chart).coeffs]
    dense = []
    for f in fields:
        d = {(c, x): _dense_diff(ring, f[c], x) for c in coords for x in coords}
        assert {cx: ring.diff(f[cx[0]], cx[1]) for cx in d} == d
        dense.append(d)
    for i, j in combinations(range(len(fields)), 2):
        f, g = fields[i], fields[j]
        want = {
            c: _dense_reduce(ring, sum(
                (f[x] * dense[j][c, x] - g[x] * dense[i][c, x] for x in coords), zero
            ))
            for c in coords
        }
        assert ring.bracket(f, g) == want, (names[i], names[j])


def test_ring_kernel_skips_structural_zeros(monkeypatch):
    # the table on chart D differentiates only nonzero coefficients along
    # nonzero ones, and of the five catalog charts' stages only the seven
    # larger than 1x1 take an adjugate
    calls = {"diff": 0, "adjugate": 0}
    diff, adjugate = fields._ChartRing.diff, DomainMatrix.adjugate

    def counted_diff(self, f, coord):
        calls["diff"] += 1
        return diff(self, f, coord)

    def counted_adjugate(self):
        calls["adjugate"] += 1
        return adjugate(self)

    monkeypatch.setattr(fields._ChartRing, "diff", counted_diff)
    monkeypatch.setattr(DomainMatrix, "adjugate", counted_adjugate)
    assert realization_table_diff(chart_D()) == []
    assert calls["diff"] == 648
    for cached in (fields.chart_C, fields.chart_S, fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    for chart in (chart_C(), chart_S(), *map(chart_D_shift, (0, 1, sp.Rational(4, 5)))):
        chart.ring
    assert calls["adjugate"] == 7
