"""Catalog tests: entry loading, parameter grids, verification verdicts."""

import contextlib
import dataclasses
import io
import operator
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import sympy as sp
import sympy.polys.rings as rings
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.core.cache import clear_cache
from sympy.parsing import sympy_parser
from sympy.polys.fields import FracField

from gassym import catalog, cli, exprs, fields, liealg
from gassym.catalog import (
    ConstraintError,
    UnknownEntryError,
    catalog_ids,
    entry_basis,
    entry_schema,
    get_entry,
    parameter_samples,
    verify_entry,
    verify_invariants,
)
from gassym.liealg import L12_LABELS

ALL_IDS = [
    "4.1", "4.2", "4.3", "4.21", "4.23.i", "4.23.ii", "4.27",
    "4.34.i", "4.34.ii", "4.35", "4.38", "4.42", "4.44.i", "4.44.ii",
    "4.45", "4.54", "4.56.i", "4.56.ii", "4.57", "4.64.i", "4.64.ii",
    "4.65", "4.71.i", "4.71.ii", "4.74.i", "4.74.ii", "4.74.iii", "4.77",
]


def test_catalog_has_all_entries():
    assert catalog_ids() == ALL_IDS
    assert len(catalog_ids()) == 28


def test_unknown_entry_raises():
    with pytest.raises(UnknownEntryError):
        get_entry("4.99")
    with pytest.raises(UnknownEntryError):
        parameter_samples("nope")


def test_entry_is_four_dimensional():
    ent = get_entry("4.77")
    assert len(ent.basis) == 4
    assert all(len(v) == 12 for v in ent.basis)
    assert len(ent.invariants) == 4


def test_unexpected_parameter_rejected():
    with pytest.raises(ConstraintError):
        get_entry("4.77", a=1)


def test_missing_parameter_rejected():
    with pytest.raises(ConstraintError):
        get_entry("4.3", a=1)  # b missing


def test_string_parameter_is_never_evaluated(capsys):
    with pytest.raises(ConstraintError, match="parameter 'a'"):
        get_entry("4.3", a='print("EVALUATED") or 1', b=1)
    assert capsys.readouterr() == ("", "")
    # a number literal is read exactly, as perfbench passes choice values
    assert get_entry("4.3", a="-1/2", b="1").basis == get_entry("4.3", a=sp.Rational(-1, 2), b=1).basis


@pytest.mark.parametrize("value", [sp.sqrt(sp.Symbol("a")), sp.Symbol("q")], ids=["sqrt(a)", "q"])
def test_parameter_outside_the_field_is_refused_by_name(value):
    # a value that is no rational function of the parameters is refused as
    # a value, not as the invariant string it would be bound into
    with pytest.raises(ConstraintError) as err:
        get_entry("4.56.ii", a=value)
    assert str(err.value) == f"entry 4.56.ii, parameter 'a': {value} is not rational in the parameters"


def test_float_parameter_binds_the_number_it_prints_as():
    # all 17 digits, not a 14-digit truncation or a guessed sqrt(2)
    ent = get_entry("4.3", a=1.4142135623730951, b=1)
    assert ent.params["a"] == sp.Rational(14142135623730951, 10**16)


def test_unit_circle_enforced():
    with pytest.raises(ConstraintError):
        get_entry("4.23.i", a=1, b=1)
    ent = get_entry("4.23.i", a=sp.Rational(3, 5), b=sp.Rational(4, 5))
    assert ent.params["a"] == sp.Rational(3, 5)


def test_ne_constraint_enforced():
    with pytest.raises(ConstraintError):
        get_entry("4.34.i", a=0)


# --------------------------------------------------------------------------
# parameter grids


@pytest.mark.parametrize(
    "entry_id, count",
    [
        ("4.1", 1),       # parameter free
        ("4.3", 36),      # 6x6 grid in (a, b)
        ("4.23.i", 2),    # unit circle minus the a = 0 point
        ("4.38", 12),     # 6-point grid in a times eps in {0, 1}
        ("4.42", 6),      # 3 unit-circle points times eps in {0, 1}
        ("4.34.i", 6),    # Ne(a, 0) removes nothing from the grid
        ("4.71.i", 72),   # 6x6 grid times 2 admissible circle points
    ],
)
def test_parameter_sample_counts(entry_id, count):
    assert len(parameter_samples(entry_id)) == count


def test_samples_satisfy_constraints():
    for s in parameter_samples("4.23.i"):
        assert s["a"] != 0
        assert s["a"] ** 2 + s["b"] ** 2 == 1


def test_entry_schema_shape():
    sch = entry_schema("4.38")
    assert sch["grid"] == ["a"]
    assert sch["choices"] == {"eps": [0, 1]}
    sch2 = entry_schema("4.23.i")
    assert sch2["unit_circle"] == ["a", "b"]
    assert sch2["constraints"] == ["Ne(a, 0)"]


def test_entry_basis_accepts_symbols():
    a = sp.Symbol("a", positive=True)
    b = sp.Symbol("b")
    vecs = entry_basis("4.3", {"a": a, "b": b})
    assert len(vecs) == 4
    free = set().union(*(set().union(*(c.free_symbols for c in v)) for v in vecs))
    assert free <= {a, b}


# --------------------------------------------------------------------------
# verification


def test_verify_entry_477_passes():
    rep = verify_entry("4.77")
    assert rep.passed
    assert rep.closure_ok
    assert rep.rank == 5
    assert set(rep.verdicts.values()) == {"SymbolicZero"}


def test_verify_entry_parametric_fixed_branch():
    rep = verify_entry("4.34.ii")
    assert rep.passed and rep.rank == 5


def test_independence_rank_is_five():
    assert verify_invariants(get_entry("4.77")).rank == 5
    assert verify_invariants(get_entry("4.27")).rank == 5


def test_independence_rank_needs_numeric_params():
    ent = get_entry("4.77")
    bad = dataclasses.replace(ent, invariants=[sp.Symbol("a") * sp.Symbol("u")])
    with pytest.raises(ConstraintError):
        verify_invariants(bad)


def test_group_closure_is_decided_once_over_the_grid():
    # X1 + a*X10 closes with X2, X3, Y + X4 only at a = 0: a grid
    # parameter ranges over an interval, so the span is not closed at
    # all but finitely many of its values, and every sample fails
    ent = get_entry("4.77")
    basis = [list(v) for v in ent.basis]
    basis[0][L12_LABELS.index("X10")] = sp.Symbol("a")
    reports = catalog._verify_group(
        dataclasses.replace(ent, basis=basis), [{"a": 0}, {"a": 1}]
    )
    assert [r["closure_ok"] for r in reports] == [False, False]


def test_group_closure_fails_where_the_basis_collapses():
    # a*X3 vanishes at a = 0: X1, X2 and Y + X4 still close, but they
    # span a three-dimensional subalgebra, not a four-dimensional one
    ent = get_entry("4.77")
    basis = [list(v) for v in ent.basis]
    basis[2] = [sp.Symbol("a") * c for c in basis[2]]
    reports = catalog._verify_group(
        dataclasses.replace(ent, basis=basis), [{"a": 1}, {"a": 0}]
    )
    assert [r["closure_ok"] for r in reports] == [True, False]
    assert [r["rank"] for r in reports] == [5, 5]


def test_catalog_pass_instantiates_once_per_group(monkeypatch):
    # one group per unit-circle point and choice value: 22 entries with
    # neither, 2 each for eps of 4.38, 4.45 and 4.65, 2 and 2 circle
    # points for 4.23.i and 4.71.i, and 3 circle points times 2 for 4.42
    calls = {"instantiate": 0, "is_closed": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(catalog, "_instantiate", counted("instantiate", catalog._instantiate))
    monkeypatch.setattr(
        catalog.Subalgebra, "is_closed", counted("is_closed", catalog.Subalgebra.is_closed)
    )
    monkeypatch.setattr(liealg, "_solve_exact", counted("solve", liealg._solve_exact))
    for eid in catalog_ids():
        verify_entry(eid)
    # one exact solve per closure check, for all six brackets at once
    assert calls == {"instantiate": 38, "is_closed": 38, "solve": 38}


def test_catalog_pass_parses_each_string_once(monkeypatch):
    # a row is read by the whitelist parser on first use, without sympy's
    # string parser, and every later binding is a substitution into it
    calls = {"parse": 0}
    parse = sympy_parser.parse_expr

    def counted(*args, **kwargs):
        calls["parse"] += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(sympy_parser, "parse_expr", counted)
    catalog._row.cache_clear()
    for eid in catalog_ids():
        verify_entry(eid)
    assert calls["parse"] == 0


def test_catalog_pass_pushes_forward_in_the_ring(monkeypatch):
    # fresh charts: each chart, chart D included, is built once,
    # each realized generator is pushed forward once, and no Expr-level
    # canonicalize runs inside a pushforward
    for cached in (fields.chart_D, fields.chart_C, fields.chart_S, fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    setups, calls = {}, {"pushforward": 0, "canonicalize": 0}
    inside = []

    class CountedChart(fields.Chart):
        def __init__(self, name, *args):
            setups[name] = setups.get(name, 0) + 1
            super().__init__(name, *args)

    def pushforward(F, target):
        calls["pushforward"] += 1
        inside.append(True)
        try:
            return push(F, target)
        finally:
            inside.pop()

    def canonicalize(e):
        calls["canonicalize"] += bool(inside)
        return canon(e)

    push, canon = fields.pushforward, exprs.canonicalize
    monkeypatch.setattr(fields, "Chart", CountedChart)
    monkeypatch.setattr(fields, "pushforward", pushforward)
    monkeypatch.setattr(exprs, "canonicalize", canonicalize)
    for eid in catalog_ids():
        verify_entry(eid)
    assert set(setups) == {"D", "C", "S", "D-shift(0)", "D-shift(1)", "D-shift(4/5)"}
    assert set(setups.values()) == {1}
    assert calls == {"pushforward": 37, "canonicalize": 0}


def test_catalog_pass_differentiates_each_invariant_once(monkeypatch):
    # every verdict is one chart zero test of a row of its group's one
    # invariant Jacobian: 38 groups x 4 generators x 5 invariants, with no
    # Lie derivative of an expression and no Expr canonical form
    calls = {"is_zero": 0, "apply": 0, "canonicalize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fields.Chart, "is_zero", counted("is_zero", fields.Chart.is_zero))
    monkeypatch.setattr(fields.VectorField, "apply", counted("apply", fields.VectorField.apply))
    monkeypatch.setattr(exprs, "canonicalize", counted("canonicalize", exprs.canonicalize))
    for eid in catalog_ids():
        verify_entry(eid)
    assert calls == {"is_zero": 760, "apply": 0, "canonicalize": 0}


def test_catalog_pass_reads_invariants_into_the_field(monkeypatch):
    # fresh charts: no invariant Jacobian is taken over sympy Expr, and each
    # basis element is realized once per group as a combination of fields
    # (38 groups x 4); the verdicts and pushforwards keep their counts, each
    # sample ranks the 5-row Jacobian and the 4-row basis once at the point
    # modulo the prime, and no rank falls back to the rref over the field
    for cached in (fields.chart_D, fields.chart_C, fields.chart_S, fields.chart_D_shift,
                   fields.realize):
        cached.cache_clear()
    calls = dict.fromkeys(["jacobian", "realize_combination", "is_zero", "pushforward", 5, 4, "rref"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp.MatrixBase, "jacobian", counted("jacobian", sp.MatrixBase.jacobian))
    combination = counted("realize_combination", fields.realize_combination)
    monkeypatch.setattr(fields, "realize_combination", combination)
    monkeypatch.setattr(catalog, "realize_combination", combination)
    monkeypatch.setattr(fields.Chart, "is_zero", counted("is_zero", fields.Chart.is_zero))
    monkeypatch.setattr(fields, "pushforward", counted("pushforward", fields.pushforward))
    rank_mod_p = catalog._rank_mod_p

    def ranked(rows):  # counted by rows: 5 for the Jacobian, 4 for the basis
        calls[len(rows)] += 1
        return rank_mod_p(rows)

    monkeypatch.setattr(catalog, "_rank_mod_p", ranked)
    monkeypatch.setattr(catalog, "_rref", counted("rref", catalog._rref))
    for eid in catalog_ids():
        verify_entry(eid)
    assert calls == {"jacobian": 0, "realize_combination": 152, "is_zero": 760,
                     "pushforward": 37, 5: 298, 4: 298, "rref": 0}


# the single-entry campaigns of perfbench's catalog workload, seeds 0 and 1
PARAMS_RUNS = [("4.74.i", "a=4,c=-1/5"), ("4.71.i", "c=7/25,d=24/25,a=-2/7,b=-5/7"), ("4.54", "a=5/4")]


def _fresh_catalog_caches():
    for cached in (catalog._row, fields.chart_D, fields.chart_C, fields.chart_S,
                   fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    clear_cache()  # sympy's own: a cached Add is returned without Add.flatten


def test_catalog_builds_no_sympy_sum(monkeypatch, capsys):
    # invariants, chart maps and pushforwards are read in the chart fields:
    # a catalog pass and the --params campaigns build no sympy Add, whose
    # first Add.flatten imports sympy.tensor.tensor; the basis is read into
    # the chart's field, so no sympy matrix becomes a domain matrix
    calls = {"flatten": 0, "to_domain": 0}
    flatten, to_domain = sp.Add.flatten.__func__, liealg.to_domain

    def counted_flatten(cls, seq):
        calls["flatten"] += 1
        return flatten(cls, seq)

    def counted_to_domain(M):
        calls["to_domain"] += 1
        return to_domain(M)

    monkeypatch.setattr(sp.Add, "flatten", classmethod(counted_flatten))
    monkeypatch.setattr(liealg, "to_domain", counted_to_domain)
    _fresh_catalog_caches()
    for eid in catalog_ids():
        verify_entry(eid)
    assert calls == {"flatten": 0, "to_domain": 0}
    for eid, params in PARAMS_RUNS:
        _fresh_catalog_caches()
        assert cli.main(["verify-invariants", eid, "--params", params]) == 0
    assert calls["flatten"] == 0
    capsys.readouterr()


def test_catalog_takes_no_gcd(monkeypatch, capsys):
    # every denominator that a pass, the --params campaigns and a 4.42 draw
    # cancel is a term, or c*p**k with p primitive and linear, times the
    # declared factors, so sympy's heuristic gcd never runs; FracElement
    # arithmetic on the invariants' sums and log derivatives would run it
    calls, heugcd = [], rings.heugcd
    monkeypatch.setattr(rings, "heugcd", lambda f, g: calls.append(1) or heugcd(f, g))
    _fresh_catalog_caches()
    for eid in catalog_ids():
        verify_entry(eid)
    for eid, params in [*PARAMS_RUNS, ("4.42", "a=3/5,b=-4/5,eps=1")]:
        _fresh_catalog_caches()
        assert cli.main(["verify-invariants", eid, "--params", params]) == 0
    assert calls == []
    capsys.readouterr()


def test_catalog_pass_reads_rationals_as_ground_constants(monkeypatch):
    # Chart.element converts a sympy Rational (mostly the basis entries 1
    # and -1) with no FracField.from_expr: 277 of a pass's 378 calls read
    # one, and the 101 left read a Symbol or a Mul
    calls = {"from_expr": 0}
    from_expr = FracField.from_expr

    def counted(self, expr):
        calls["from_expr"] += 1
        assert not isinstance(expr, sp.Rational)
        return from_expr(self, expr)

    monkeypatch.setattr(FracField, "from_expr", counted)
    _fresh_catalog_caches()
    for eid in catalog_ids():
        verify_entry(eid)
    assert calls["from_expr"] == 101
    chart = fields.chart_C()
    for r in (sp.S.Zero, sp.S.One, sp.S.NegativeOne, sp.Rational(-5, 2)):
        got, want = chart.element(r), from_expr(chart.field, r)
        assert (got.numer, got.denom) == (want.numer, want.denom)


def test_catalog_campaigns_leave_sympy_tensor_unimported():
    # a pass over every id and the --params campaigns, in a fresh
    # process: sympy.tensor.tensor, which the first Add.flatten imports,
    # is never imported
    code = f"""
import contextlib, io, sys
from gassym import catalog, cli
catalog.verify_entries(catalog.catalog_ids())
with contextlib.redirect_stdout(io.StringIO()):
    for eid, params in {PARAMS_RUNS!r}:
        assert cli.main(["verify-invariants", eid, "--params", params]) == 0
print("sympy.tensor.tensor" in sys.modules)
"""
    src = str(Path(catalog.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_get_entry_keeps_exact_values_unparsed(monkeypatch):
    calls = {"parse": 0}
    parse = sympy_parser.parse_expr

    def counted(*args, **kwargs):
        calls["parse"] += 1
        return parse(*args, **kwargs)

    get_entry("4.23.i", a=sp.Rational(3, 5), b=sp.Rational(4, 5))  # caches the row
    monkeypatch.setattr(sympy_parser, "parse_expr", counted)
    get_entry("4.23.i", a=sp.Rational(3, 5), b=sp.Rational(4, 5))
    assert calls["parse"] == 0


def test_catalog_ranks_proven_at_first_point(monkeypatch):
    # one rank of the Jacobian modulo the prime per sample, and no rref
    # over the field: each rank reaches 5 at its first point
    calls = {"point": 0, "rref": 0}
    rank_mod_p, rref = catalog._rank_mod_p, catalog._rref

    def at_point(rows):
        calls["point"] += len(rows) == 5
        return rank_mod_p(rows)

    def fallback(M):
        calls["rref"] += 1
        return rref(M)

    monkeypatch.setattr(catalog, "_rank_mod_p", at_point)
    monkeypatch.setattr(catalog, "_rref", fallback)
    samples = sum(len(verify_entry(eid).samples) for eid in catalog_ids())
    assert samples == 298
    assert calls == {"point": samples, "rref": 0}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda invs: [invs[0], invs[0], invs[2], invs[3]],  # t, t, w, P - u
        lambda invs: [invs[0], invs[1], invs[0] * invs[1], invs[3]],  # w -> t*v
    ],
    ids=["duplicate", "product"],
)
def test_dependent_invariants_lose_rank(mutate):
    ent = get_entry("4.77")
    rep = verify_invariants(dataclasses.replace(ent, invariants=mutate(ent.invariants)))
    assert rep.rank == 4
    assert not rep.passed


def _catalog_reports() -> tuple:
    """Every id's report from fresh caches, and the --params campaigns' stdout."""
    _fresh_catalog_caches()
    reports = [verify_entry(eid) for eid in catalog_ids()]
    out = []
    for eid, params in PARAMS_RUNS:
        _fresh_catalog_caches()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["verify-invariants", eid, "--params", params]) == 0
        out.append(stdout.getvalue())
    return reports, out


@pytest.mark.parametrize("prime", [2, 5, 7])
def test_rank_modulo_a_small_prime_changes_no_report(monkeypatch, prime):
    # modulo 2 every other coordinate of the rank point and the grid values
    # +-1/2 have no residue; modulo 5 the point's sin and cos (4/5, 3/5), its
    # coordinate at 6/5 and the unit-circle values 3/5 and 4/5; modulo 7 its
    # coordinate at 8/7.  A matrix that involves one, or whose rank drops
    # mod p, is ranked by the rref over the field; ids, samples, verdicts and
    # ranks are the default's either way
    calls = {"point": 0, "rref": 0}
    rank_mod_p, rref = catalog._rank_mod_p, catalog._rref

    def at_point(rows):
        calls["point"] += 1
        return rank_mod_p(rows)

    def fallback(M):
        calls["rref"] += 1
        return rref(M)

    want = _catalog_reports()
    monkeypatch.setattr(catalog, "_PRIME", prime)
    monkeypatch.setattr(catalog, "_rank_mod_p", at_point)
    monkeypatch.setattr(catalog, "_rref", fallback)
    assert _catalog_reports() == want
    assert calls["point"] > 0 and calls["rref"] > 0


@given(rows=st.lists(st.lists(st.integers(-12, 12), min_size=4, max_size=4), min_size=1, max_size=4),
       prime=st.sampled_from([2, 3, 5, 2**61 - 1]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rank_mod_p_bounds_the_rank_below(rows, prime):
    # reduction mod p is a ring map: a minor nonzero mod p is nonzero over
    # QQ, so the rank mod p is at most the rank, and full mod p is full
    with mock.patch.object(catalog, "_PRIME", prime):
        rank_p = catalog._rank_mod_p([[c % prime for c in r] for r in rows])
    rank = sp.Matrix(rows).rank()
    assert rank_p <= rank
    assert rank_p < len(rows) or rank == len(rows)


def test_rank_deficient_mod_p_falls_back_to_the_field(monkeypatch):
    # 4.77 with its invariant v replaced by 11*v: rank 5 over QQ, rank 4
    # modulo 11, so one rref over the field decides, and it finds 5
    ent = get_entry("4.77")
    v = sp.Symbol("v")
    ent = dataclasses.replace(ent, invariants=[i.xreplace({v: 11 * v}) for i in ent.invariants])
    ranks, rrefs = [], []
    rank_mod_p, rref = catalog._rank_mod_p, catalog._rref
    monkeypatch.setattr(catalog, "_PRIME", 11)
    monkeypatch.setattr(catalog, "_rank_mod_p", lambda rows: ranks.append((len(rows), rank_mod_p(rows))) or ranks[-1][1])
    monkeypatch.setattr(catalog, "_rref", lambda M: rrefs.append(M.shape[0]) or rref(M))
    rep = verify_invariants(ent)
    assert rep.rank == 5 and rep.passed
    assert ranks == [(5, 4), (4, 4)] and rrefs == [5]


def test_power_exponent_is_exact():
    # the chart field is over ZZ, so a ground exponent is a pair of ints:
    # in floats (10**20 + 1)/10**20 would read as the integer 1
    chart = fields.chart_D()
    K = chart.field
    x, huge = K.gens[1], K(10**20 + 1) / K(10**20)
    assert catalog._combine_terms(chart, operator.pow, (x, ()), (huge, ())) is None
    assert catalog._combine_terms(chart, operator.pow, (x, ()), (K(-2), ())) == (x**-2, ())
    with pytest.raises(ZeroDivisionError):
        catalog._combine_terms(chart, operator.pow, (K.zero, ()), (-huge, ()))


def test_rank_skips_point_on_a_pole(monkeypatch):
    # move a pole of the Jacobian onto the rank point: the rank is then
    # the exact one over QQ(coords), from one rref of the symbolic Jacobian
    ent = get_entry("4.77")
    coords = [sp.Symbol(c) for c in ent.chart.coords]
    x = sp.Symbol("x")
    point = catalog._rank_point(coords)
    invs = list(ent.invariants)
    invs[0] = invs[0] + 1 / (x - point[x])
    assert sp.diff(invs[0], x).xreplace(point) == sp.zoo
    bad = dataclasses.replace(ent, invariants=invs)

    ranked = []
    rref = catalog._rref

    def recorded(M):  # the Jacobian's; the basis is ranked apart
        if M.shape[0] == 5:
            ranked.append(M)
        return rref(M)

    monkeypatch.setattr(catalog, "_rref", recorded)
    assert verify_invariants(bad).rank == 5
    assert len(ranked) == 1 and not ranked[0].to_Matrix().has(sp.zoo, sp.nan)


def _critical_on_a_grid(v, v_p):
    # G'(v) = prod (64 v - k), k = 32..96, vanishes on every point of
    # (1/64)Z in [1/2, 3/2]: no point of that grid shows rank 5
    return sp.Poly(sp.prod([64 * v - k for k in range(32, 97)]), v).integrate().as_expr()


@pytest.mark.parametrize(
    "g, rrefs",
    [
        (_critical_on_a_grid, 0),  # rank 5 at the rank point proves it
        (lambda v, v_p: (v - v_p) ** 2, 1),  # rank 4 there: the exact rref decides
    ],
    ids=["critical-on-a-grid", "critical-at-the-point"],
)
def test_reparametrized_invariant_keeps_rank_five(monkeypatch, g, rrefs):
    # 4.77 with its invariant v replaced by g(v): still a complete set
    ent = get_entry("4.77")
    v = sp.Symbol("v")
    assert ent.invariants[1] == v
    v_p = catalog._rank_point([sp.Symbol(c) for c in ent.chart.coords])[v]
    ent = dataclasses.replace(ent, invariants=[i.xreplace({v: g(v, v_p)}) for i in ent.invariants])
    calls = {"rref": 0}
    rref = catalog._rref

    def counted(M):  # the Jacobian's rrefs over the field; the basis is ranked apart
        calls["rref"] += M.shape[0] == 5
        return rref(M)

    monkeypatch.setattr(catalog, "_rref", counted)
    rep = verify_invariants(ent)
    assert rep.rank == 5
    assert rep.passed
    assert calls["rref"] == rrefs


def test_tampered_invariant_detected():
    ent = get_entry("4.77")
    invs = list(ent.invariants)
    x = sp.Symbol("x")
    invs[0] = invs[0] + x  # X1 = d/dx no longer annihilates it
    bad = dataclasses.replace(ent, invariants=invs)
    rep = verify_invariants(bad)
    assert not rep.passed
    assert "NonZero" in rep.verdicts.values()


def test_verdicts_cover_all_pairs():
    rep = verify_entry("4.77")
    assert set(rep.verdicts) == {(g, i) for g in range(4) for i in range(5)}


def test_outer_scaling_preserves_annihilation():
    # replacing Y + X4 by mu*(Y + X4) rescales the subalgebra but keeps
    # the same annihilator verdicts
    ent = get_entry("4.77")
    basis = [list(v) for v in ent.basis]
    basis[3] = [2 * c for c in basis[3]]
    scaled = dataclasses.replace(ent, basis=basis)
    assert verify_invariants(scaled).passed


@pytest.mark.parametrize(
    "entry_id, nonzero",
    [("4.34.i", [(0, 1), (1, 1), (3, 1)]), ("4.71.i", [(0, 1), (2, 1), (3, 1)])],
    ids=["4.34.i", "4.71.i"],
)
def test_invariant_vanishing_on_the_grid_fails(monkeypatch, entry_id, nonzero):
    # mutant: a term that vanishes at every grid value of a, but not at
    # the admissible a = 3, makes the second invariant wrong; each group
    # decides it with a left symbolic, so every sample carries the NonZero
    row = catalog._row(entry_id)
    invs = list(row.invariants)
    invs[1] = f"({invs[1]}) + (a**2 - 4)*(a**2 - 1)*(4*a**2 - 1)*x"
    mutant = dataclasses.replace(row, invariants=tuple(invs))
    monkeypatch.setattr(catalog, "_row", lambda eid: mutant)
    rep = verify_entry(entry_id)
    assert not rep.passed
    assert sorted(k for k, v in rep.verdicts.items() if v != "SymbolicZero") == nonzero
    assert {rep.verdicts[k] for k in nonzero} == {"NonZero"}
    assert all(s["verdicts"] == rep.verdicts for s in rep.samples)


def test_non_rational_jacobian_entry_is_refused():
    # d/dt of t*log(t) keeps log(t), which the chart's field cannot hold:
    # one ValueError names the entry and the invariant
    ent = get_entry("4.1")
    t, P = sp.symbols("t P")
    assert ent.invariants[3] == P - sp.log(t)
    bad = P - sp.log(t) - t * sp.log(t)
    mutant = dataclasses.replace(ent, invariants=[*ent.invariants[:3], bad])
    with pytest.raises(ValueError, match=r"entry 4\.1: invariant P - t\*log\(t\) - log\(t\) has a Jacobian entry"):
        verify_invariants(mutant)


@pytest.mark.parametrize("term", ["log(t)**2", "log(log(t))", "Abs(t)", "t*log(t)", "atan(t)"])
def test_invariant_outside_the_reader_is_refused(term):
    # the reader takes a rational part plus sum c*log(g) with no c
    # involving a coordinate: a squared or nested log, Abs, a log with a
    # coordinate coefficient, or atan, although d/dt atan(t) = 1/(1 + t**2)
    # is rational, is refused with one ValueError naming it
    ent = get_entry("4.1")
    t, P = sp.symbols("t P")
    bad = P - sp.sympify(term, locals={"t": t})
    mutant = dataclasses.replace(ent, invariants=[*ent.invariants[:3], bad])
    with pytest.raises(ValueError) as err:
        verify_invariants(mutant)
    assert str(err.value) == (f"entry 4.1: invariant {bad} has a Jacobian entry that is "
                              "not rational in the chart's field")


def test_log_with_a_grid_coefficient_is_read():
    # a in 4.56.ii's u - a*log(t) is a grid symbol: a generator of the
    # chart's field, but no coordinate, so d/dt reads -a/t
    a, t, u = sp.symbols("a t u")
    assert catalog._row("4.56.ii").invariants[0] == "u - a*log(t)"
    K = fields.chart_D().field
    assert fields.chart_D().gradient(u - a * sp.log(t)) == [K(-a / t), 0, 0, 0, K.one, 0, 0, 0, 0]
    assert verify_entry("4.56.ii").passed


def test_parameter_value_rational_in_the_parameters_is_read():
    # a caller's a + 1 for 4.56.ii's a is an element of the chart's field,
    # so u - a*log(t) is read there as u - (a + 1)*log(t)
    a, t, u = sp.symbols("a t u")
    ent = get_entry("4.56.ii", a=a + 1)
    K = ent.chart.field
    assert ent.invariants.terms[0] == (K(u), ((K(-a - 1), K(t)),))
    assert ent.invariants[0] == u - (a + 1) * sp.log(t)


def _zero_cases() -> list:
    """For each grid parameter that the constraints let be 0, the entry's
    first sample with that parameter at 0."""
    cases = []
    for eid in catalog_ids():
        row = catalog._row(eid)
        first = catalog.parameter_bindings(eid, lambda _: catalog.GRID)[0]
        for name in row.grid:
            binding = {**first, name: sp.Integer(0)}
            if row.admits(binding):
                cases.append(pytest.param(eid, binding, id=f"{eid}-{name}"))
    return cases


_ZERO_CASES = _zero_cases()


def test_zero_sweep_covers_every_grid_parameter_that_may_be_zero():
    assert [case.id for case in _ZERO_CASES] == [
        "4.3-a", "4.3-b", "4.38-a", "4.54-a", "4.56.i-a", "4.56.ii-a", "4.57-b",
        "4.71.i-a", "4.71.i-b", "4.71.ii-a", "4.71.ii-b", "4.74.i-a", "4.74.ii-a", "4.74.iii-a",
    ]


@pytest.mark.parametrize("entry_id, binding", _ZERO_CASES)
def test_grid_parameter_at_zero_passes(entry_id, binding):
    # GRID never visits 0; where a log's coefficient is 0 there (b*log(t)
    # of 4.3 at b = 0), that coefficient involves no coordinate and is read
    report = verify_invariants(get_entry(entry_id, **binding))
    assert report.passed and report.rank == 5


def test_non_rational_entry_is_refused_by_apply():
    # VectorField.apply reads the expression by the verdicts' reader
    # (Chart.gradient) and refuses the same entry with one ValueError
    # naming the expression
    t, P = sp.symbols("t P")
    bad = P - sp.log(t) - t * sp.log(t)
    for g in get_entry("4.1").realized_basis():
        if g.coeffs["t"]:
            with pytest.raises(ValueError, match=r"^P - t\*log\(t\) - log\(t\) has a Jacobian entry"):
                g.apply(bad)
            return
    pytest.fail("no generator of 4.1 moves t")


@pytest.mark.parametrize("logarithm", ["log(t**2)/2", "log(2*t)"])
def test_log_invariant_in_another_form_passes(monkeypatch, logarithm):
    # P - log(t**2)/2 and P - log(2*t) differ from 4.1's P - log(t) by a
    # constant, so each is an invariant: rank 5, and every Lie derivative
    # is a symbolic zero
    t, P = sp.symbols("t P")
    row, row_of = catalog._row("4.1"), catalog._row
    assert row.invariants[3] == "P - log(t)"
    mutant = dataclasses.replace(row, invariants=(*row.invariants[:3], f"P - {logarithm}"))
    monkeypatch.setattr(catalog, "_row", lambda eid: mutant if eid == "4.1" else row_of(eid))
    rep = verify_entry("4.1")
    assert rep.passed and rep.rank == 5
    inv = P - sp.sympify(logarithm, locals={"t": t})
    for g in get_entry("4.1").realized_basis():
        assert exprs.is_zero(g.apply(inv)).kind == "SymbolicZero"


def test_undecided_verdict_fails_a_report():
    # only a SymbolicZero passes: any other verdict fails the report, in
    # the symbolic verdicts and in a sample alike
    ok = {(0, 0): "SymbolicZero", (0, 1): "SymbolicZero"}
    sample = {"closure_ok": True, "rank": 5, "verdicts": ok}
    assert catalog.VerificationReport("x", True, ok, 5, samples=[sample]).passed
    for kind in ("NonZero", "Undecided", "NumericZero", "SIMPLIFIER-GAP"):
        bad = {**ok, (1, 0): kind}
        assert not catalog.VerificationReport("x", True, bad, 5).passed
        bad_sample = {**sample, "verdicts": bad}
        assert not catalog.VerificationReport("x", True, ok, 5, samples=[bad_sample]).passed

def _mutant(monkeypatch, entry_id, *, invariant=None, basis=None):
    """verify_entry on ``entry_id`` with a term added to its second
    invariant, or to the X10 coefficient of its first basis element."""
    row = catalog._row(entry_id)
    invs, B = list(row.invariants), row.basis.as_mutable()
    if invariant is not None:
        invs[1] = f"({invs[1]}) + ({invariant})"
    if basis is not None:
        B[0, L12_LABELS.index("X10")] += basis
    mutant = dataclasses.replace(row, invariants=tuple(invs), basis=sp.ImmutableMatrix(B))
    monkeypatch.setattr(catalog, "_row", lambda eid: mutant)
    return verify_entry(entry_id)


EPS, T = sp.symbols("eps t")


@pytest.mark.parametrize(
    "entry_id, change, passed",
    [
        ("4.38", {"invariant": EPS * (EPS - 1) * T}, True),
        ("4.38", {"basis": EPS * (EPS - 1)}, True),
        ("4.45", {"basis": EPS * (EPS - 1)}, True),
        ("4.38", {"invariant": EPS * T}, False),
        ("4.38", {"basis": EPS}, False),
    ],
    ids=["4.38-invariant-both", "4.38-basis-both", "4.45-basis-both",
         "4.38-invariant-eps", "4.38-basis-eps"],
)
def test_choice_value_mutant(monkeypatch, entry_id, change, passed):
    # eps takes only its listed values 0 and 1, each in a group of its
    # own: a term that vanishes at both changes nothing, and one that
    # does not fails
    rep = _mutant(monkeypatch, entry_id, **change)
    assert rep.passed == passed
    if "invariant" in change:
        assert ("NonZero" in rep.verdicts.values()) != passed
    else:
        assert rep.closure_ok == passed


@pytest.mark.parametrize(
    "entry_id, angle, nonzero",
    [("4.45", "varthetabar", [(3, 1)]), ("4.65", "theta", [(0, 1), (1, 1), (3, 1)])],
    ids=["4.45", "4.65"],
)
def test_bare_angle_mutant_fails(monkeypatch, entry_id, angle, nonzero):
    # mutant: eps*angle/t on the second invariant; the bare angle is a
    # generator of the chart's field beside its sin and cos, so the
    # verdicts that move it are NonZero, in the eps = 1 groups
    rep = _mutant(monkeypatch, entry_id, invariant=EPS * sp.Symbol(angle) / T)
    assert not rep.passed
    assert sorted(k for k, v in rep.verdicts.items() if v != "SymbolicZero") == nonzero
    assert {rep.verdicts[k] for k in nonzero} == {"NonZero"}


def test_entry_rank_is_the_least_sample_rank(monkeypatch):
    # (a - 1)*r/t vanishes at a = 1, where only four invariants are left
    row = catalog._row("4.3")
    assert row.invariants[0] == "r/t"
    mutant = dataclasses.replace(row, invariants=("(a - 1)*r/t", *row.invariants[1:]))
    monkeypatch.setattr(catalog, "_row", lambda eid: mutant)
    rep = verify_entry("4.3")
    assert rep.rank == 4
    assert not rep.passed


# --------------------------------------------------------------------------
# many ids: one after another, in this process


def test_error_in_a_worker_reaches_the_caller(monkeypatch):
    def stub(eid):
        if eid == "4.42":
            raise ConstraintError(f"entry {eid}: stub failure")
        return catalog.VerificationReport(eid, True, {}, 5)

    monkeypatch.setattr(catalog, "verify_entry", stub)
    with pytest.raises(ConstraintError, match="entry 4.42: stub failure"):
        catalog.verify_entries(ALL_IDS)


def test_non_rational_jacobian_entry_is_refused_in_a_worker(monkeypatch):
    # raised where 4.1 is instantiated
    row, row_of = catalog._row("4.1"), catalog._row
    assert row.invariants[3] == "P - log(t)"
    mutant = dataclasses.replace(row, invariants=(*row.invariants[:3], "P - log(t) - t*log(t)"))
    monkeypatch.setattr(catalog, "_row", lambda eid: mutant if eid == "4.1" else row_of(eid))
    with pytest.raises(catalog.DataError, match=r"^entry 4\.1: cannot read 'P - log\(t\) - t\*log\(t\)': not a rational "
                                                r"function plus constant multiples of logs in the chart's field$"):
        catalog.verify_entries(["4.1", "4.77"])
