"""Submodel tests: residuals, flow maps, reductions, trajectory geometry."""

import dataclasses
import json

import pytest
import sympy as sp

from gassym import cli, submodel
from gassym.exprs import canonicalize, opaque
from gassym.submodel import (
    P0,
    FlowMap,
    Solution,
    flow_consistency,
    flow_map,
    full_residuals,
    geometry_checks,
    jacobian_det,
    k0,
    m0,
    n0,
    reduce_general,
    reduced_residuals,
    rho0,
    solution_family,
    t,
    translate,
    u0,
    v0,
    vorticity,
    w0,
    x,
    x0,
    y,
    y0,
    z,
    z0,
)

KINDS = (
    "isochoric-general",
    "isochoric-reduced",
    "nonisochoric-general",
    "nonisochoric-reduced",
)
REDUCED = ("isochoric-reduced", "nonisochoric-reduced")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        solution_family("barotropic")


# --------------------------------------------------------------------------
# residuals


@pytest.mark.parametrize("kind", KINDS)
def test_reduced_residuals_vanish(kind):
    s = solution_family(kind)
    assert reduced_residuals(s.u, s.v, s.w, s.rho, s.P1) == [0] * 5


def _hand_reduced(u, v, w, rho, P1, state=lambda r: r * opaque("f", 1)(r)):
    """The submodel written out by hand, the reference for
    :func:`reduced_residuals`; ``state`` is the rho*f'(rho) factor."""
    Du = sp.diff(u, t) + u * sp.diff(u, x) + v * sp.diff(u, y) + w * sp.diff(u, z)
    return [
        canonicalize(Du + sp.diff(u, x) / rho),
        canonicalize(sp.diff(v, t) + sp.diff(u, y) / rho),
        canonicalize(sp.diff(w, t) + sp.diff(u, z) / rho),
        canonicalize(sp.diff(rho, t) + rho * sp.diff(u, x)),
        canonicalize(sp.diff(P1, t) + Du + state(rho) * sp.diff(u, x)),
    ]


_ANSATZ = (
    sp.Function("U")(t, x, y, z),
    *(sp.Function(n)(t) for n in ("V", "W", "R", "P1")),
)


def test_reduced_residuals_match_hand_written_on_generic_ansatz():
    assert reduced_residuals(*_ANSATZ) == _hand_reduced(*_ANSATZ)


def test_reduced_residuals_catch_state_term_mutant():
    # dropping the rho factor of rho*f'(rho) changes the energy equation
    derived = reduced_residuals(*_ANSATZ)
    mutant = _hand_reduced(*_ANSATZ, state=opaque("f", 1))
    assert derived[:4] == mutant[:4]
    assert canonicalize(derived[4] - mutant[4]) != 0


@pytest.mark.parametrize("kind", KINDS)
def test_full_residuals_vanish(kind):
    assert full_residuals(solution_family(kind)) == [0] * 5


def test_p1_is_pressure_minus_u():
    s = solution_family("isochoric-reduced")
    assert s.P1 == sp.expand(s.P - s.u)


@pytest.mark.parametrize(
    "tamper",
    [
        {"u": lambda s: s.u + t},
        {"rho": lambda s: s.rho * t},
        {"v": lambda s: -s.v},
    ],
    ids=["u-drift", "rho-drift", "v-sign"],
)
def test_tampered_solution_leaves_residual(tamper):
    s = solution_family("isochoric-reduced")
    bad = dataclasses.replace(s, **{k: fn(s) for k, fn in tamper.items()})
    assert any(r != 0 for r in full_residuals(bad))


# --------------------------------------------------------------------------
# vorticity


def test_vorticity_isochoric():
    s = solution_family("isochoric-reduced")
    assert vorticity(s) == (0, m0, -k0)


def test_vorticity_nonisochoric():
    s = solution_family("nonisochoric-reduced")
    assert vorticity(s) == (0, m0 / t, -k0 / t)


# --------------------------------------------------------------------------
# flow maps


def test_flow_map_isochoric():
    fm = flow_map(solution_family("isochoric-reduced"))
    assert fm.labels == (x0, y0, z0)
    assert jacobian_det(fm) == 1


def test_flow_map_nonisochoric():
    fm = flow_map(solution_family("nonisochoric-reduced"))
    assert fm.labels == (u0, y0, z0)
    assert jacobian_det(fm) == t


def test_flow_consistency_residuals_vanish():
    for kind in REDUCED:
        s = solution_family(kind)
        assert flow_consistency(s, flow_map(s)) == [0, 0, 0]


def test_flow_map_rejects_general_kinds():
    with pytest.raises(ValueError):
        flow_map(solution_family("isochoric-general"))


def _patch_family(monkeypatch, kind, make):
    """``solution_family`` with ``kind`` replaced by ``make(original)``."""
    family = submodel.solution_family
    monkeypatch.setattr(
        submodel, "solution_family", lambda k: make(family(k)) if k == kind else family(k)
    )


def test_inconsistent_flow_map_fails_the_verdict(monkeypatch, capsys):
    # u + 1 leaves the stated flow map behind: a failing verdict, not a raise
    _patch_family(monkeypatch, "isochoric-reduced", lambda s: dataclasses.replace(s, u=s.u + 1))
    entry = submodel.verify_solution("isochoric-reduced")
    assert entry["flow_consistent"] is False
    assert entry["passed"] is False
    assert cli.main(["verify-solution", "isochoric-reduced"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["solutions"]["isochoric-reduced"]["flow_consistent"] is False
    assert err == ""


def test_off_ansatz_solution_fails_the_reduced_check(monkeypatch):
    # v = y/t solves the full system, but depends on y: not the 4.77 ansatz
    off = Solution("isochoric-general", sp.S.Zero, y / t, sp.S.Zero, rho0 / t,
                   opaque("f")(rho0 / t))
    assert full_residuals(off) == [0] * 5
    _patch_family(monkeypatch, "isochoric-general", lambda s: off)
    entry = submodel.verify_solution("isochoric-general")
    assert entry["full_residuals_zero"] is True
    assert entry["reduced_residuals_zero"] is False
    assert entry["passed"] is False


def test_verify_solution_checks_each_claim_once(monkeypatch):
    calls = {"full_residuals": 0, "flow_consistency": 0}
    for name in calls:
        fn = getattr(submodel, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(submodel, name, counted)
    assert all(submodel.verify_solution(kind)["passed"] for kind in KINDS)
    assert calls == {"full_residuals": 4, "flow_consistency": 2}


@pytest.mark.parametrize("kind", REDUCED)
def test_reduced_family_is_general_at_zero_constants(kind):
    g = solution_family(kind.replace("reduced", "general"))
    zero = {c: 0 for c in (n0, v0, w0, P0)}
    at_zero = [sp.srepr(e.subs(zero)) for e in (g.u, g.v, g.w, g.rho, g.P)]
    r = solution_family(kind)
    assert [sp.srepr(e) for e in (r.u, r.v, r.w, r.rho, r.P)] == at_zero


def test_wrong_flow_map_has_residual():
    s = solution_family("isochoric-reduced")
    fm = flow_map(s)
    wrong = FlowMap(fm.kind, fm.x + t, fm.y, fm.z)
    assert any(r != 0 for r in flow_consistency(s, wrong))


# --------------------------------------------------------------------------
# symmetry reductions


@pytest.mark.parametrize("kind", ["isochoric-general", "nonisochoric-general"])
def test_reduce_general_is_exact(kind):
    red, params = reduce_general(kind)
    target = solution_family(kind.replace("general", "reduced"))
    for a, b in zip(
        (red.u, red.v, red.w, red.rho, red.P),
        (target.u, target.v, target.w, target.rho, target.P),
    ):
        assert sp.expand(a - b) == 0
    assert {"X5", "X6", "Y"} <= params.keys()


def test_reduce_general_unknown_kind():
    with pytest.raises(ValueError):
        reduce_general("isochoric-reduced")


def test_shifts_preserve_solutions():
    s = solution_family("isochoric-reduced")
    moved = translate(s, {"X4": 1, "X5": sp.Rational(1, 2), "X6": -1, "Y": 3})
    assert full_residuals(moved) == [0] * 5


@pytest.mark.parametrize("label", ["X7", "X8", "X9", "X10", "X11", "b"])
def test_translate_refuses_what_is_not_a_translation(label):
    # X7..X9 rotate, X10 does not commute with X4..X6, X11 dilates
    s = solution_family("isochoric-general")
    with pytest.raises(ValueError, match=f"^{label} is not a translation"):
        translate(s, {"X4": 1, label: 1})


@pytest.mark.parametrize("kind", ["isochoric-general", "nonisochoric-general"])
def test_translate_is_a_group_action(kind):
    # the translations commute, so composing two adds their coefficients
    labels = ("Y", "X1", "X2", "X3", "X4", "X5", "X6")
    c = dict(zip(labels, sp.symbols("c:7")))
    d = dict(zip(labels, sp.symbols("d:7")))
    s = solution_family(kind)
    twice = translate(translate(s, c), d)
    once = translate(s, {k: c[k] + d[k] for k in labels})
    assert all(sp.expand(a - b) == 0 for a, b in zip(twice.state, once.state))
    assert translate(s, {}).state == s.state


# --------------------------------------------------------------------------
# trajectory geometry


@pytest.mark.parametrize("kind", REDUCED)
def test_geometry_checks_default_binding(kind):
    report = geometry_checks(solution_family(kind))
    assert report  # non-empty
    assert all(item["ok"] for item in report.values()), report


def test_geometry_checks_cover_every_value_of_the_constants(monkeypatch):
    # a y that agrees with the stated map only at k0 = 1 fails each check
    # that reads y, so no check fixes the constants at the figure's values
    stated = submodel.flow_map

    def flow_map_k0_squared(s):
        return dataclasses.replace(stated(s), y=-k0**2 / (2 * rho0) * t**2 + y0)

    monkeypatch.setattr(submodel, "flow_map", flow_map_k0_squared)
    report = geometry_checks(solution_family("isochoric-reduced"))
    failed = {name for name, item in report.items() if not item["ok"]}
    assert failed == {"parabola_xy", "line_equation", "line_yz_slope"}


def test_geometry_checks_reject_general():
    with pytest.raises(ValueError):
        geometry_checks(solution_family("isochoric-general"))
