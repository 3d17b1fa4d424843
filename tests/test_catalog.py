"""Catalog tests: entry loading, parameter grids, verification verdicts."""

import dataclasses

import pytest
import sympy as sp
from sympy.parsing import sympy_parser

from gassym import catalog, exprs, fields, liealg
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
    # fresh charts: each chart's ring, chart D's included, is set up once,
    # each realized generator is pushed forward once, and no Expr-level
    # canonicalize runs inside a pushforward
    for cached in (fields.chart_D, fields.chart_C, fields.chart_S, fields.chart_D_shift, fields.realize):
        cached.cache_clear()
    setups, calls = {}, {"pushforward": 0, "canonicalize": 0}
    inside = []

    class CountedRing(fields._ChartRing):
        def __init__(self, chart):
            setups[chart.name] = setups.get(chart.name, 0) + 1
            super().__init__(chart)

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
    monkeypatch.setattr(fields, "_ChartRing", CountedRing)
    monkeypatch.setattr(fields, "pushforward", pushforward)
    monkeypatch.setattr(fields, "canonicalize", canonicalize)
    monkeypatch.setattr(exprs, "canonicalize", canonicalize)
    for eid in catalog_ids():
        verify_entry(eid)
    assert set(setups) == {"D", "C", "S", "D-shift(0)", "D-shift(1)", "D-shift(4/5)"}
    assert set(setups.values()) == {1}
    assert calls == {"pushforward": 37, "canonicalize": 0}


def test_catalog_pass_differentiates_each_invariant_once(monkeypatch):
    # every verdict is one ring zero test of a row of its group's one
    # invariant Jacobian: 38 groups x 4 generators x 5 invariants, with no
    # Lie derivative of an expression and no Expr canonical form
    calls = {"is_zero": 0, "apply": 0, "canonicalize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fields._ChartRing, "is_zero", counted("is_zero", fields._ChartRing.is_zero))
    monkeypatch.setattr(fields.VectorField, "apply", counted("apply", fields.VectorField.apply))
    canonicalize = counted("canonicalize", exprs.canonicalize)
    monkeypatch.setattr(fields, "canonicalize", canonicalize)
    monkeypatch.setattr(exprs, "canonicalize", canonicalize)
    for eid in catalog_ids():
        verify_entry(eid)
    assert calls == {"is_zero": 760, "apply": 0, "canonicalize": 0}


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
    # one exact rref per sample: each rank reaches 5 at its first point
    calls = {"rref": 0}
    rref = catalog._rref

    def counted(M):
        calls["rref"] += 1
        return rref(M)

    monkeypatch.setattr(catalog, "_rref", counted)
    samples = sum(len(verify_entry(eid).samples) for eid in catalog_ids())
    assert samples == 298
    assert calls["rref"] == samples


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

    def recorded(M):
        ranked.append(M)
        return rref(M)

    monkeypatch.setattr(catalog, "_rref", recorded)
    jac = sp.Matrix([*bad.invariants, sp.Symbol("rho")]).jacobian(coords)
    assert catalog._group_ranks(jac, coords, [{}]) == [5]
    assert len(ranked) == 1 and not ranked[0].has(sp.zoo, sp.nan)


def _critical_on_a_grid(v, v_p):
    # G'(v) = prod (64 v - k), k = 32..96, vanishes on every point of
    # (1/64)Z in [1/2, 3/2]: no point of that grid shows rank 5
    return sp.Poly(sp.prod([64 * v - k for k in range(32, 97)]), v).integrate().as_expr()


@pytest.mark.parametrize(
    "g, rrefs",
    [
        (_critical_on_a_grid, 1),  # rank 5 at the rank point proves it
        (lambda v, v_p: (v - v_p) ** 2, 2),  # rank 4 there: the exact rref decides
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

    def counted(M):
        calls["rref"] += 1
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
    a, x = sp.symbols("a x")
    row = catalog._row(entry_id)
    invs = list(row.invariants)
    invs[1] += (a**2 - 4) * (a**2 - 1) * (4 * a**2 - 1) * x
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
        invs[1] += invariant
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
    a, r, t = sp.symbols("a r t")
    row = catalog._row("4.3")
    assert row.invariants[0] == r / t
    mutant = dataclasses.replace(row, invariants=((a - 1) * r / t, *row.invariants[1:]))
    monkeypatch.setattr(catalog, "_row", lambda eid: mutant)
    rep = verify_entry("4.3")
    assert rep.rank == 4
    assert not rep.passed
