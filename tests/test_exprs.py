"""Expression-layer tests: canonical forms, derivatives, evaluation."""

import ast
import math
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gassym import fields, liealg, numerics, submodel
from gassym.exprs import (
    DomainError,
    ZeroVerdict,
    canonicalize,
    evaluate,
    exact_number,
    is_zero,
    opaque,
    pythagorean_ideal,
)

x, y = sp.symbols("x y")


# --------------------------------------------------------------------------
# canonical form


@pytest.mark.parametrize(
    "expr",
    [
        sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1,
        sp.sin(2 * x) - 2 * sp.sin(x) * sp.cos(x),
        sp.cos(x) ** 4 - (1 - sp.sin(x) ** 2) ** 2,
        (x**2 - 1) / (x - 1) - (x + 1),
        sp.sin(x + y) - sp.sin(x) * sp.cos(y) - sp.cos(x) * sp.sin(y),
        (1 - sp.cos(x) ** 2) / sp.sin(x) - sp.sin(x),
        sp.sin(x + y) ** 2 + sp.cos(x + y) ** 2 - 1,
    ],
)
def test_canonicalize_kills_identities(expr):
    assert canonicalize(expr) == 0


def test_canonicalize_keeps_nonzero():
    assert canonicalize(sp.sin(x) ** 2 + sp.cos(x) ** 2) == 1
    assert canonicalize(x + 1) != 0


_small = st.integers(min_value=-4, max_value=4)


def _poly_trig(a, b, c, d):
    return (
        a * x**2 + b * x + c * sp.sin(x) * sp.cos(x) + d * sp.sin(x) ** 2
    ) / (1 + x**2)


@given(a=_small, b=_small, c=_small, d=_small, pt=st.floats(0.3, 1.4))
@settings(max_examples=40, deadline=None)
def test_canonicalize_preserves_value(a, b, c, d, pt):
    e = _poly_trig(a, b, c, d)
    before = evaluate(e, {"x": pt})
    after = evaluate(canonicalize(e), {"x": pt})
    assert abs(before - after) <= 1e-12 * max(1.0, abs(before))


@given(a=_small, b=_small, c=_small, d=_small)
@settings(max_examples=30, deadline=None)
def test_canonicalize_idempotent(a, b, c, d):
    e = canonicalize(_poly_trig(a, b, c, d))
    assert canonicalize(e) == e


# --------------------------------------------------------------------------
# differentiation


@given(a=_small, b=_small, c=_small, d=_small)
@settings(max_examples=30, deadline=None)
def test_differentiate_linear(a, b, c, d):
    f = a * x**2 + c * sp.sin(x)
    g = b * x**3 + d * sp.cos(x)
    lhs = canonicalize(sp.diff(2 * f + 3 * g, x))
    rhs = canonicalize(2 * canonicalize(sp.diff(f, x)) + 3 * canonicalize(sp.diff(g, x)))
    assert canonicalize(lhs - rhs) == 0


@given(pt=st.floats(0.4, 1.3))
@settings(max_examples=25, deadline=None)
def test_differentiate_product_rule_numeric(pt):
    f = x**2 + sp.sin(x)
    g = sp.cos(x) + 1
    lhs = canonicalize(sp.diff(f * g, x))
    rhs = canonicalize(sp.diff(f, x)) * g + f * canonicalize(sp.diff(g, x))
    a = {"x": pt}
    assert abs(evaluate(lhs, a) - evaluate(rhs, a)) < 1e-10


@given(pt=st.floats(0.4, 1.3))
@settings(max_examples=25, deadline=None)
def test_differentiate_matches_finite_differences(pt):
    e = sp.sin(x) * x**2 + sp.log(x)
    d = canonicalize(sp.diff(e, x))
    h = 1e-5
    fd = (
        evaluate(e, {"x": pt + h}) - evaluate(e, {"x": pt - h})
    ) / (2 * h)
    exact = evaluate(d, {"x": pt})
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_parameters_are_constants():
    assert canonicalize(sp.diff(y * x**2, x)) == 2 * x * y
    assert canonicalize(sp.diff(y, x)) == 0


# --------------------------------------------------------------------------
# opaque state function


def test_opaque_chain_rule():
    f = opaque("f")
    fp = opaque("f", 1)
    e = f(x**2)
    assert canonicalize(sp.diff(e, x) - 2 * x * fp(x**2)) == 0


def test_opaque_second_derivative():
    f = opaque("f")
    fpp = opaque("f", 2)
    fp = opaque("f", 1)
    d2 = sp.diff(f(x), x, 2)
    assert d2 == fpp(x)
    assert sp.diff(fp(x), x) == fpp(x)


def test_opaque_cached_class_identity():
    assert opaque("f", 1) is opaque("f", 1)
    assert opaque("f", 1) is not opaque("g", 1)


# --------------------------------------------------------------------------
# evaluation


def test_evaluate_log_means_ln_abs():
    a = {"x": -2.0}
    assert evaluate(sp.log(x), a) == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("expr", [1 / x, sp.log(x), sp.zoo * x, sp.nan * x, sp.oo * x])
def test_evaluate_domain_errors(expr):
    with pytest.raises(DomainError):
        evaluate(expr, {"x": 0.0})


@pytest.mark.parametrize("expr", [x**5000, x**600 * (x + 1) ** 600], ids=["pow", "mul"])
def test_evaluate_overflow_is_domain_error(expr):
    with pytest.raises(DomainError):
        evaluate(expr, {"x": 2.0})


def test_evaluate_trig():
    a = {"x": 0.5}
    assert evaluate(sp.sin(x) ** 2 + sp.cos(x) ** 2, a) == pytest.approx(1.0)


# --------------------------------------------------------------------------
# zero verdicts


def test_is_zero_symbolic():
    v = is_zero(sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1)
    assert v.kind == ZeroVerdict.SYMBOLIC_ZERO
    assert bool(v)


def test_is_zero_numeric_fallback():
    # |x| - x is zero on the positive sampling box but not as a ring identity
    v = is_zero(sp.Abs(x) - x)
    assert v.kind == ZeroVerdict.NUMERIC_ZERO


def test_is_zero_nonzero_witness():
    v = is_zero(x - 1 + sp.Rational(1, 10**6))
    assert v.kind == ZeroVerdict.NON_ZERO or v.kind == ZeroVerdict.NUMERIC_ZERO
    v2 = is_zero(x)
    assert v2.kind == ZeroVerdict.NON_ZERO
    assert "point" in v2.witness and "value" in v2.witness


@pytest.mark.parametrize(
    "expr",
    [sp.sqrt(-1 - x**2), sp.zoo * x],
    ids=["negative-sqrt", "zoo"],
)
def test_is_zero_with_no_evaluated_point_is_undecided(expr):
    # every sample is a domain miss: nothing was checked, so no pass
    v = is_zero(expr)
    assert v.kind == ZeroVerdict.UNDECIDED
    assert not v


def test_is_zero_skips_domain_misses():
    # sqrt(x - 1) is undefined on half of the box; the points that do
    # evaluate decide
    e = sp.sqrt(x - 1) * (sp.Abs(x) - x)
    assert is_zero(e).kind == ZeroVerdict.NUMERIC_ZERO
    assert is_zero(sp.sqrt(x - 1)).kind == ZeroVerdict.NON_ZERO


def test_is_zero_deterministic():
    a = is_zero(sp.Abs(x) - x, seed=3)
    b = is_zero(sp.Abs(x) - x, seed=3)
    assert a.kind == b.kind


def test_is_zero_samples_state_function_jets_freely():
    f = opaque("f")
    fp = opaque("f", 1)
    fpp = opaque("f", 2)
    # each holds for f(r) = r^2 only, so none is zero for every f
    for e in (fp(x) - 2 * x, fpp(x) - 2, x * fp(x) - 2 * f(x), 4 * f(x / 2) - f(x)):
        v = is_zero(e)
        assert v.kind == ZeroVerdict.NON_ZERO, e
    assert is_zero(f(x) - x).kind == ZeroVerdict.NON_ZERO
    # f(x) and f(x/2) are separate sample values
    v = is_zero(4 * f(x / 2) - f(x))
    assert len([name for name in v.witness["point"] if name.startswith("f(")]) == 2


def test_is_zero_draws_are_pinned():
    # the points of seed 0, drawn per name in sorted order: x alone, and
    # the jets f(x/2) and f(x), numbered in sympy's order, with x unused
    f = opaque("f")
    assert is_zero(x).witness == {"point": {"x": 1.1369616873214543}, "value": 1.1369616873214543}
    assert is_zero(4 * f(x / 2) - f(x)).witness == {
        "point": {"f(x)#1": 1.1369616873214543, "f(x/2)#0": 0.7697867137638703}, "value": 1.942185167734027}


# --------------------------------------------------------------------------
# exact numbers


@pytest.mark.parametrize("value", [0.6, "0.6", "3/5", sp.Rational(3, 5)])
def test_exact_number_reads_numbers_and_literals_exactly(value):
    assert exact_number(value) == sp.Rational(3, 5)


def test_exact_number_reads_a_float_as_the_number_it_prints_as():
    # no guess: not sqrt(2), not E, and not a truncation to 14 digits
    assert exact_number(1.4142135623730951) == sp.Rational(14142135623730951, 10**16)
    e = exact_number(2.718281828459045)
    assert e.is_Rational and e == sp.Rational(2718281828459045, 10**15)
    assert exact_number(sp.Float(0.6)) == sp.Rational(3, 5)


@pytest.mark.parametrize(
    "value", [sp.sqrt(2), sp.pi, math.inf, math.nan, sp.oo], ids=["sqrt2", "pi", "inf", "nan", "oo"]
)
def test_exact_number_refuses_what_is_not_a_number_literal(value):
    with pytest.raises(ValueError, match="not a number literal"):
        exact_number(value)


def test_exact_number_bounds_the_decimal_exponent():
    # an exponent up to CPython's default int-string limit reads; beyond
    # it the text is refused before Fraction builds its power of 10
    assert exact_number("1e4300") == sp.Integer(10) ** 4300
    assert exact_number("-2.5E-4300") == sp.Rational(-5, 2 * 10**4300)
    for text in ("1e4301", "1e-4301", "1e1000000000", "1e-1000000000"):
        with pytest.raises(ValueError, match="not a number literal"):
            exact_number(text)


def test_no_module_calls_nsimplify():
    # nsimplify guesses a closed form for a float; every number is read
    # by exact_number instead
    calls = []
    for path in sorted(Path(fields.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "nsimplify":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_catalog_and_fields_verdicts_never_canonicalize():
    # annihilation verdicts, brackets, field equality and the Lie
    # derivative of an expression all take the chart's zero test:
    # neither catalog.py nor fields.py calls canonicalize, and each chart
    # reduces modulo the one Pythagorean ideal that canonicalize uses
    package = Path(fields.__file__).parent
    names = [
        f"catalog.py:{node.lineno}"
        for node in ast.walk(ast.parse((package / "catalog.py").read_text()))
        if "canonicalize" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None))
    ]
    assert names == []
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "canonicalize":
                    callers.append(".".join(scope))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse((package / "fields.py").read_text()), ())
    assert callers == []
    for chart in (fields.chart_C(), fields.chart_S(), fields.chart_D_shift(1)):
        assert chart._ideal and chart._ideal == pythagorean_ideal(chart.field.ring)


_FAM = submodel.solution_family("isochoric-reduced")
_BINDING = {submodel.k0: 1, submodel.m0: 1, submodel.rho0: 1}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(exact_number, id="exact_number"),
        pytest.param(fields.chart_D_shift, id="chart_D_shift"),
        pytest.param(
            lambda v: numerics.sphere_transport(submodel.flow_map(_FAM), 2, 1, {**_BINDING, submodel.k0: v}),
            id="sphere_transport-binding",
        ),
        pytest.param(
            lambda v: numerics.sphere_transport(submodel.flow_map(_FAM), 2, v, _BINDING), id="sphere_transport-t"
        ),
    ],
)
def test_string_values_are_never_evaluated(capsys, call):
    # sp.nsimplify would hand a str to sympify, which evaluates it
    with pytest.raises(ValueError, match="not a number literal"):
        call('print("EVALUATED") or 1')
    assert capsys.readouterr() == ("", "")


_EVIL = 'print("EVALUATED") or 1'
_E1 = [1] + [0] * 11


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda v: liealg.apply_automorphism("TT", [v] + [0] * 11, 1), id="apply_automorphism-v"),
        pytest.param(lambda v: liealg.apply_automorphism("TT", _E1, v), id="apply_automorphism-param"),
        pytest.param(
            lambda v: liealg.apply_automorphism("R", _E1, [[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
            id="apply_automorphism-R",
        ),
        pytest.param(lambda v: liealg.inverse_params("TT", v), id="inverse_params"),
        pytest.param(lambda v: liealg.l12().bracket([v] + [0] * 11, _E1), id="bracket"),
        pytest.param(canonicalize, id="canonicalize"),
        pytest.param(fields.realize("X1").apply, id="VectorField.apply"),
        pytest.param(lambda v: fields.realize_combination([v] + [0] * 11), id="realize_combination"),
        pytest.param(lambda v: evaluate(v, {}), id="evaluate"),
        pytest.param(
            lambda v: numerics.sphere_transport(submodel.flow_map(_FAM), 2, 1, {**_BINDING, v: 1}),
            id="sphere_transport-key",
        ),
    ],
)
def test_expression_strings_are_refused_unevaluated(capsys, call):
    # plain sympify would evaluate the string; strict sympify refuses a str
    with pytest.raises(sp.SympifyError):
        call(_EVIL)
    assert capsys.readouterr() == ("", "")
