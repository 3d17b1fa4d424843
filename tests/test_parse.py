"""Data-string parser tests: the whitelist grammar, agreement with sympy's
parser, and no parsing after the tables are loaded."""

import copy
import re
import shutil
import types
from importlib import resources

import pytest
import sympy as sp
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.parsing import sympy_parser

from gassym import catalog, classify, fields
from gassym.catalog import _COORDS, _PARAM_SYMS, parse
from gassym.cli import main
from gassym.fields import CARTESIAN_COORDS, PARAM_SYMBOLS
from gassym.liealg import L12_LABELS

E_NAMES = ("E1", "E2", "E3", "E4")
e_NAMES = ("e1", "e2", "e3", "e4")
BINDINGS = {"4.3": {"a": -1, "b": 1}}  # a sample of each parametric entry the rows tamper


@pytest.fixture
def tamper(monkeypatch):
    """Replace one string of an entry, 4.77 (chart D) unless ``eid`` is
    given, and drop the parsed rows; an ``index`` of None replaces the value,
    a ``text`` of None drops the field."""
    raw = catalog._raw_entries()

    def tampered(field: str, index: int | None, text, eid: str = "4.77") -> None:
        row = copy.deepcopy(raw[eid])
        if text is None:
            del row[field]
        elif index is None:
            row[field] = text
        else:
            row[field][index] = text
        monkeypatch.setattr(catalog, "_raw_entries", lambda: {**raw, eid: row})
        catalog._row.cache_clear()

    yield tampered
    catalog._row.cache_clear()


@pytest.mark.parametrize(
    "field, index, text, eid",
    [
        ("invariants", 3, "P - E + I", "4.77"),  # sympify reads Euler's number and i
        ("invariants", 0, "sin(t)", "4.77"),
        ("invariants", 0, "E1(t)", "4.77"),
        ("invariants", 0, "S(1)", "4.77"),
        ("invariants", 0, "t.__class__", "4.77"),
        ("invariants", 0, "t[0]", "4.77"),
        ("invariants", 0, "(lambda: t)()", "4.77"),
        ("invariants", 0, "log(t, base=2)", "4.77"),
        ("invariants", 0, "theta", "4.77"),  # a chart C coordinate in a chart D row
        ("invariants", 0, "t/0", "4.77"),
        ("invariants", 0, "0.5*t", "4.77"),
        ("basis", 3, "Y + X4 + 1", "4.77"),
        ("basis", 3, "X1*X4", "4.77"),
        ("invariants", 0, "(t - t)**(-1)", "4.77"),
        ("invariants", 3, "P - log(t - t)", "4.77"),
        ("basis", 3, "Y + 0**(-1)*X4", "4.77"),
        ("basis", 3, "Y + log(0)*X4", "4.77"),
        ("invariants", 0, "log(-1)", "4.77"),  # sympy reads I*pi
        ("invariants", 0, "(-1)**(1/2)", "4.77"),  # sympy reads I
        ("invariants", 0, "2**(1/2)", "4.77"),
        ("invariants", 0, "a**(1/2)", "4.77"),
        ("invariants", 3, "P - log(t) - log(-1)", "4.1"),  # a constant log term, of gradient 0
        ("invariants", 3, "P - t**(1/2)*t**(1/2)", "4.1"),
        ("invariants", 3, "P - log(a)", "4.3"),  # sympy reads I*pi at a = -1
    ],
    ids=["E-and-I", "sin", "E1-call", "S-call", "attribute", "subscript",
         "lambda", "keyword", "foreign-coordinate", "division-by-zero",
         "float", "affine-basis", "quadratic-basis", "zero-to-a-negative-power",
         "log-of-zero", "basis-zero-to-a-negative-power", "basis-log-of-zero",
         "log-of-minus-one", "root-of-minus-one", "root-of-two", "root-of-a",
         "constant-log-term", "half-powers", "log-of-a-parameter"],
)
def test_tampered_string_rejected(tamper, field, index, text, eid):
    # every constant is real and rational: exponents are integer literals,
    # and a log's argument involves a coordinate
    tamper(field, index, text, eid)
    with pytest.raises(catalog.DataError, match=rf"entry {re.escape(eid)}: cannot read " + re.escape(repr(text))):
        catalog.get_entry(eid, **BINDINGS.get(eid, {}))


@pytest.mark.parametrize("name", ["E", "I", "pi", "oo", "zoo", "nan"])
def test_sympy_constant_names_rejected(tamper, name):
    tamper("invariants", 3, f"P - {name}")
    with pytest.raises(ValueError, match=rf"4\.77: cannot read 'P - {name}': Name '{name}'"):
        catalog.get_entry("4.77")


_REFUSALS = [
    ("invariants", 0, "(t - t)**(-1)", "division by zero", "4.77"),
    ("invariants", 0, "0**(-1/2)", "division by zero", "4.77"),
    ("invariants", 3, "P - log(t - t)", "log of zero", "4.77"),
    ("basis", 3, "Y + 0**(-1)*X4", "division by zero", "4.77"),
    ("basis", 3, "a", "not linear in Y, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11", "4.77"),
    ("invariants", 0, "t +", "syntax error", "4.77"),
    ("invariants", 0, "2**(1/2)", "exponent '1 / 2' is not an integer", "4.77"),
    ("invariants", 0, "t**t", "exponent 't' is not an integer", "4.77"),
    ("invariants", 3, "P - log(-1)", "log of the constant '-1'", "4.77"),
    ("invariants", 3, "P - log(a)", "log of the constant 'a'", "4.3"),
]


@pytest.mark.parametrize("field, index, text, why, eid", _REFUSALS,
                         ids=["-".join(map(str, row[:4])) for row in _REFUSALS])
def test_refusal_names_the_reason(tamper, field, index, text, why, eid):
    tamper(field, index, text, eid)
    with pytest.raises(ValueError, match=rf"^entry {re.escape(eid)}: cannot read {re.escape(repr(text))}: {re.escape(why)}$"):
        catalog.get_entry(eid, **BINDINGS.get(eid, {}))


@pytest.mark.parametrize("text", ["0**(-1)", "(a - a)**(-1)", "a*0**(-2)"])
def test_zero_to_a_negative_power_refused_in_every_mode(text):
    # as a sympy value, a term of a chart's field and a linear coefficient
    chart = fields.chart_D()
    bound = {k: (g, ()) for k, g in chart.gens.items()}
    for string, names, gens, field in [(text, _PARAM_SYMS, (), None), (text, bound, (), chart.field),
                                       (f"Y + {text}*X1", _PARAM_SYMS, L12_LABELS, None)]:
        with pytest.raises(ValueError, match=rf"^row: cannot read {re.escape(repr(string))}: division by zero$"):
            parse("row", string, names, gens, field)


def _nodes(sub):
    """The grammar's nodes over ``sub``: unary -, + - * / **, log and Abs."""
    return st.one_of(
        st.builds("-({})".format, sub),
        st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})**({})".format, sub, sub),
        st.builds("{}({})".format, st.sampled_from(["log", "Abs"]), sub),
    )


_GRAMMAR = st.recursive(st.sampled_from(["t", "x", "P", "a", "b", "0", "1", "2", "3"]), _nodes, max_leaves=6)
_AT = {"a": -1, "b": 2}  # a binding of the parameters for the field reading


@given(text=_GRAMMAR)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_grammar_string_is_refused_or_real_and_rational(text):
    # the sympy reading, over symbolic parameters: refused, or free of
    # every constant that is not a real rational
    coords = {c: sp.Symbol(c) for c in CARTESIAN_COORDS}
    try:
        value = parse("row", text, coords | _PARAM_SYMS)
    except catalog.DataError as exc:
        assert str(exc).startswith(f"row: cannot read {text!r}: ")
        value = None
    else:
        assert not value.has(sp.I, sp.zoo, sp.nan, sp.oo) and not value.atoms(sp.NumberSymbol)
        assert all(p.exp.is_Integer for p in value.atoms(sp.Pow))
        assert all(g.args[0].free_symbols - set(PARAM_SYMBOLS) for g in value.atoms(sp.log))
    # the field reading at _AT: refused, or a term of Chart.gradient whose
    # gradient is the sympy reading's
    chart = fields.chart_D()
    bound = {k: (g, ()) for k, g in chart.gens.items()} | {k: (chart.element(sp.Integer(v)), ()) for k, v in _AT.items()}
    try:
        terms = parse("row", text, bound, field=chart.field)
    except catalog.DataError as exc:
        assert str(exc).startswith(f"row: cannot read {text!r}: ")
        return
    assert value is not None
    at = value.subs({_PARAM_SYMS[k]: v for k, v in _AT.items()})
    for got, s in zip(chart.gradient(terms), chart.symbols):
        assert not got - chart.element(sp.diff(at, s)), (text, s)


def test_unknown_chart_raises(tamper):
    tamper("chart", None, "Q")
    with pytest.raises(ValueError, match=r"^entry 4\.77: unknown chart 'Q'$"):
        catalog.get_entry("4.77")


@pytest.mark.parametrize("basis", [["X1", "X4", "X11"], ["X1", "X4", "X11", "Y + X7", "X2"], None])
def test_catalog_row_of_the_wrong_shape_exits_2(tamper, capsys, basis):
    # refused when the row is read, before sympy's matrix code sees it
    tamper("basis", None, basis)
    assert main(["verify-invariants", "4.77"]) == 2
    assert capsys.readouterr().err == f"error: entry 4.77: needs 4 basis elements, has {len(basis or [])}\n"


@pytest.mark.parametrize("invariants", [["t", "v", "w"], None], ids=["three", "none"])
def test_catalog_row_without_four_invariants_exits_2(tamper, capsys, invariants):
    # refused when the row is read, not reported as a check that fails at rank 4
    tamper("invariants", None, invariants)
    assert main(["verify-invariants", "4.77"]) == 2
    assert capsys.readouterr().err == f"error: entry 4.77: needs 4 invariants, has {len(invariants or [])}\n"


@pytest.fixture
def edit_data(monkeypatch, tmp_path):
    """Replace one string of a copy of a data file, read both tables from
    the copies, and drop the tables loaded before and after."""
    shutil.copytree(resources.files("gassym").joinpath("data"), tmp_path / "data")
    copies = types.SimpleNamespace(files=lambda package: tmp_path)
    monkeypatch.setattr(catalog, "resources", copies)
    monkeypatch.setattr(classify, "resources", copies)
    caches = (catalog._raw_entries, catalog._row, classify._assignments)

    def edited(name: str, old: str, new: str) -> None:
        path = tmp_path / "data" / name
        path.write_text(path.read_text().replace(old, new, 1))
        for cached in caches:
            cached.cache_clear()

    yield edited
    for cached in caches:
        cached.cache_clear()


@pytest.mark.parametrize("name, command", [("catalog.yaml", "verify-invariants"), ("classes.yaml", "classify")])
@pytest.mark.parametrize(
    "new, message",
    [("", "entry 28 has no id"), ('id: "4.1"\n    ', "entry 28 repeats the id '4.1'")],
    ids=["no-id", "repeated-id"],
)
def test_data_row_without_its_own_id_exits_2(edit_data, capsys, name, command, new, message):
    # 4.77, the last row of each file, loses its id or takes 4.1's: it is
    # refused, not dropped or read as another row
    edit_data(name, 'id: "4.77"\n    ', new)
    assert main([command, "all"]) == 2
    assert capsys.readouterr().err == f"error: {name}: {message}\n"


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
    # 4.1's P - log(t) replaced in catalog.yaml: the chart's field holds no
    # Jacobian of it, so get_entry refuses the string as written, not in
    # sympy's spelling ``view``
    _refused_as_written(tamper, text, view)


@pytest.mark.parametrize("text, view", [("P - log(t)/log(t)", "P - 1"), ("P - t*Abs(t)/Abs(t)", "P - t")])
def test_invariant_sympy_simplifies_is_read(tamper, text, view):
    # strings of another form that sympy simplifies to a rational invariant
    # are read as that by sympy only: get_entry refuses them as written
    _refused_as_written(tamper, text, view)


def _refused_as_written(tamper, text: str, view: str) -> None:
    """4.1 with ``text`` for its P - log(t), which sympy reads as ``view``,
    is refused by get_entry with a message naming ``text``."""
    assert str(parse("entry 4.1", text, {c: sp.Symbol(c) for c in ("t", "P")})) == view
    tamper("invariants", 3, text, eid="4.1")
    with pytest.raises(catalog.DataError, match=rf"^entry 4\.1: cannot read {re.escape(repr(text))}: not a rational "
                                                r"function plus constant multiples of logs in the chart's field$"):
        catalog.get_entry("4.1")


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
    data = yaml.safe_load(resources.files("gassym").joinpath("data/classes.yaml").read_text())
    for raw in data["entries"]:
        out += [(s, _PARAM_SYMS, E_NAMES) for s in raw["basis_change"]]
    pq = _PARAM_SYMS | {n: sp.Symbol(n) for n in ("p", "q")}
    for cls in data["classes"].values():
        out += [(s, pq, e_NAMES) for s in cls["relations"].values()]
        out += [(s, pq, ()) for s in cls.get("range", [])]
    return out


def _expand_and_check(expr: sp.Expr, gens: list) -> list:
    """The coefficients of a linear form the way sympy expansion reads them."""
    expr = sp.expand(expr)
    coeffs = [expr.coeff(g, 1) for g in gens]
    assert sp.expand(expr - sum(c * g for c, g in zip(coeffs, gens))) == 0
    return [sp.expand(c) for c in coeffs]


def test_parser_agrees_with_sympify_on_every_data_string():
    strings = _data_strings()
    assert len(strings) == 367
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
