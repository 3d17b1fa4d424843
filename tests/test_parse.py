"""Data-string parser tests: the whitelist grammar, agreement with sympy's
parser, and no parsing after the tables are loaded."""

import copy
import re
from importlib import resources

import pytest
import sympy as sp
import yaml
from sympy.parsing import sympy_parser

from gassym import catalog, classify, fields
from gassym.catalog import _COORDS, _PARAM_SYMS, parse
from gassym.liealg import L12_LABELS

E_NAMES = ("E1", "E2", "E3", "E4")
e_NAMES = ("e1", "e2", "e3", "e4")


@pytest.fixture
def tamper(monkeypatch):
    """Replace one string of an entry, 4.77 (chart D) unless ``eid`` is
    given, and drop the parsed rows; an ``index`` of None replaces the value."""
    raw = catalog._raw_entries()

    def tampered(field: str, index: int | None, text: str, eid: str = "4.77") -> None:
        row = copy.deepcopy(raw[eid])
        if index is None:
            row[field] = text
        else:
            row[field][index] = text
        monkeypatch.setattr(catalog, "_raw_entries", lambda: {**raw, eid: row})
        catalog._row.cache_clear()

    yield tampered
    catalog._row.cache_clear()


@pytest.mark.parametrize(
    "field, index, text",
    [
        ("invariants", 3, "P - E + I"),  # sympify reads Euler's number and i
        ("invariants", 0, "sin(t)"),
        ("invariants", 0, "E1(t)"),
        ("invariants", 0, "S(1)"),
        ("invariants", 0, "t.__class__"),
        ("invariants", 0, "t[0]"),
        ("invariants", 0, "(lambda: t)()"),
        ("invariants", 0, "log(t, base=2)"),
        ("invariants", 0, "theta"),  # a chart C coordinate in a chart D row
        ("invariants", 0, "t/0"),
        ("invariants", 0, "0.5*t"),
        ("basis", 3, "Y + X4 + 1"),
        ("basis", 3, "X1*X4"),
        ("invariants", 0, "(t - t)**(-1)"),
        ("invariants", 3, "P - log(t - t)"),
        ("basis", 3, "Y + 0**(-1)*X4"),
        ("basis", 3, "Y + log(0)*X4"),
    ],
    ids=["E-and-I", "sin", "E1-call", "S-call", "attribute", "subscript",
         "lambda", "keyword", "foreign-coordinate", "division-by-zero",
         "float", "affine-basis", "quadratic-basis", "zero-to-a-negative-power",
         "log-of-zero", "basis-zero-to-a-negative-power", "basis-log-of-zero"],
)
def test_tampered_string_rejected(tamper, field, index, text):
    tamper(field, index, text)
    with pytest.raises(ValueError, match=r"entry 4\.77: cannot read " + re.escape(repr(text))):
        catalog.get_entry("4.77")


@pytest.mark.parametrize("name", ["E", "I", "pi", "oo", "zoo", "nan"])
def test_sympy_constant_names_rejected(tamper, name):
    tamper("invariants", 3, f"P - {name}")
    with pytest.raises(ValueError, match=rf"4\.77: cannot read 'P - {name}': Name '{name}'"):
        catalog.get_entry("4.77")


@pytest.mark.parametrize(
    "field, index, text, why",
    [
        ("invariants", 0, "(t - t)**(-1)", "division by zero"),
        ("invariants", 0, "0**(-1/2)", "division by zero"),
        ("invariants", 3, "P - log(t - t)", "log of zero"),
        ("basis", 3, "Y + 0**(-1)*X4", "division by zero"),
        ("basis", 3, "a", "not linear in Y, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11"),
        ("invariants", 0, "t +", "syntax error"),
    ],
)
def test_refusal_names_the_reason(tamper, field, index, text, why):
    tamper(field, index, text)
    with pytest.raises(ValueError, match=rf"^entry 4\.77: cannot read {re.escape(repr(text))}: {re.escape(why)}$"):
        catalog.get_entry("4.77")


@pytest.mark.parametrize("text", ["0**(-1)", "(a - a)**(-1)", "a*0**(-2)"])
def test_zero_to_a_negative_power_refused_in_every_mode(text):
    # as a sympy value, a term of a chart's field and a linear coefficient
    chart = fields.chart_D()
    bound = {k: (g, ()) for k, g in chart.gens.items()}
    for string, names, gens, field in [(text, _PARAM_SYMS, (), None), (text, bound, (), chart.field),
                                       (f"Y + {text}*X1", _PARAM_SYMS, L12_LABELS, None)]:
        with pytest.raises(ValueError, match=rf"^row: cannot read {re.escape(repr(string))}: division by zero$"):
            parse("row", string, names, gens, field)


def test_unknown_chart_raises(tamper):
    tamper("chart", None, "Q")
    with pytest.raises(ValueError, match=r"^entry 4\.77: unknown chart 'Q'$"):
        catalog.get_entry("4.77")


@pytest.mark.parametrize(
    "text, view",
    [
        ("P - log(t)*log(t)", "P - log(t)**2"),  # a product of logs
        ("P - 1/log(t)", "P - 1/log(t)"),  # a log in a divisor
        ("P - log(log(t))", "P - log(log(t))"),  # a log of a log
        ("P - Abs(t)", "P - Abs(t)"),
        ("P - t*log(t)", "P - t*log(t)"),  # a log whose coefficient involves a coordinate
    ],
)
def test_invariant_of_another_form_is_refused_at_the_jacobian(tamper, text, view):
    # 4.1's P - log(t) replaced in catalog.yaml: the field-mode parse gives
    # no term, get_entry keeps the sympy view, and the rank refuses it
    tamper("invariants", 3, text, eid="4.1")
    ent = catalog.get_entry("4.1")
    assert str(ent.invariants[3]) == view
    with pytest.raises(ValueError, match=rf"^entry 4\.1: invariant {re.escape(view)} has a Jacobian entry "
                                         r"that is not rational in the chart's field$"):
        catalog.verify_invariants(ent)


@pytest.mark.parametrize("text, view", [("P - log(t)/log(t)", "P - 1"), ("P - t**(1/2)*t**(1/2)", "P - t")])
def test_invariant_sympy_simplifies_is_read(tamper, text, view):
    # strings of another form that sympy simplifies to a rational invariant:
    # read as that, which the verdicts refuse
    tamper("invariants", 3, text, eid="4.1")
    ent = catalog.get_entry("4.1")
    assert str(ent.invariants[3]) == view
    rep = catalog.verify_invariants(ent)
    assert not rep.passed and rep.rank == 5


def test_basis_outside_the_parameter_field_raises(tamper):
    # the grammar reads Abs(a), but closure must not pass over an
    # expression domain, where Abs(a) is a free generator
    tamper("basis", 0, "Abs(a)*X1 + X2")
    with pytest.raises(ValueError, match="not rational in the parameters"):
        catalog.verify_entry("4.77")


def test_tampered_class_relation_rejected():
    with pytest.raises(ValueError, match=r"class row 4\.21: cannot read 'I\*e1'"):
        classify._parse_relations({"e2,e3": "I*e1"}, "class row 4.21")


def _data_strings() -> list:
    """(text, names, gens) for every string in catalog.yaml and classes.yaml."""
    out = []
    for raw in catalog._raw_entries().values():
        coords = {c: sp.Symbol(c) for c in _COORDS[raw.get("chart", "D")]}
        out += [(s, _PARAM_SYMS, L12_LABELS) for s in raw["basis"]]
        out += [(s, coords | _PARAM_SYMS, ()) for s in raw["invariants"]]
        out += [(s, _PARAM_SYMS, ()) for s in raw.get("constraints", [])]
        out += [(raw["chart_b"], _PARAM_SYMS, ())] if isinstance(raw.get("chart_b"), str) else []
    text = resources.files("gassym").joinpath("data/classes.yaml").read_text()
    for raw in yaml.safe_load(text)["entries"]:
        out += [(s, _PARAM_SYMS, E_NAMES) for s in raw["basis_change"]]
        out += [(s, _PARAM_SYMS, e_NAMES) for s in raw.get("relations", {}).values()]
    return out


def _expand_and_check(expr: sp.Expr, gens: list) -> list:
    """The coefficients of a linear form the way sympy expansion reads them."""
    expr = sp.expand(expr)
    coeffs = [expr.coeff(g, 1) for g in gens]
    assert sp.expand(expr - sum(c * g for c, g in zip(coeffs, gens))) == 0
    return [sp.expand(c) for c in coeffs]


def test_parser_agrees_with_sympify_on_every_data_string():
    strings = _data_strings()
    assert len(strings) == 396
    for text, names, gens in strings:
        syms = {g: sp.Symbol(g) for g in gens}
        want = sp.sympify(text, locals=names | syms)  # the oracle, and only here
        assert parse("test", text, names | syms) == want, text
        if gens:
            got = parse("test", text, names, gens)
            assert got == _expand_and_check(want, list(syms.values())), text


def test_classify_all_parses_no_string_after_loading(monkeypatch):
    # every string is read by the whitelist parser when its table loads;
    # nothing later reaches sympy's string parser
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("parse_expr called")

    for cached in (catalog._raw_entries, catalog._row, classify._assignments):
        cached.cache_clear()
    monkeypatch.setattr(sympy_parser, "parse_expr", refuse)
    for eid in catalog.catalog_ids():
        catalog._row(eid)
    for eid in classify.class_ids():
        assert classify.verify_class(eid).passed
        classify.entry_fingerprint(eid)
    assert calls == []
