"""Acceptance suite: the eight gates, each printed as one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the gate lines.
Tolerances are fixed here and nowhere else.
"""

import dataclasses
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import sympy as sp
import pytest

from gassym import catalog, classify, numerics, submodel
from gassym.exprs import canonicalize, is_zero, opaque
from gassym.fields import realization_table_diff, realize_combination, vf_commutator, realize
from gassym.liealg import L12_LABELS, Subalgebra, apply_automorphism, inverse_params, l12

TOL_ZERO = 1e-9
TRAJ_TOL = 1e-6
QUADRIC_TOL = 1e-10
VOLUME_TOL = 1e-12
FIG2_TOL = 1e-10
ORDER_RANGE = (3.7, 4.3)


def _gate(number: int, name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"[gate {number}] {name}: {'PASS' if ok else 'FAIL'}")
    failed = [desc for desc, flag in checks if not flag]
    assert ok, f"gate {number} ({name}) failed: {failed}"


# --------------------------------------------------------------------------
# 1. algebra gate


def test_gate_1_algebra():
    t0 = time.perf_counter()
    alg = l12()
    jacobi = alg.jacobi_report()
    diff = realization_table_diff()
    elapsed = time.perf_counter() - t0
    n = alg.dim
    triples = n * (n - 1) * (n - 2) // 6
    _gate(1, "algebra", [
        ("220 basis triples", triples == 220),
        (f"jacobi violations {jacobi}", not jacobi),
        (f"realization-vs-table diff {diff}", not diff),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])


# --------------------------------------------------------------------------
# 2. automorphism gate

_ROT = [
    [sp.Rational(3, 5), -sp.Rational(4, 5), 0],
    [sp.Rational(4, 5), sp.Rational(3, 5), 0],
    [0, 0, 1],
]

_VARIANTS = [
    ("ST", [sp.Rational(1, 2), -2, sp.Rational(1, 3)]),
    ("GT", [1, sp.Rational(-3, 4), 2]),
    ("R", _ROT),
    ("TT", sp.Rational(5, 3)),
    ("D", sp.Rational(-7, 2)),
    ("I1", None),
    ("I2", None),
    ("OuterScale", sp.Rational(2, 9)),
]


def _rand_vec(rng) -> list:
    return [
        sp.Rational(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        for _ in range(12)
    ]


def test_gate_2_automorphisms():
    alg = l12()
    rng = np.random.default_rng(42)
    checks = []
    for variant, param in _VARIANTS:
        hom_ok = inv_ok = True
        for _ in range(50):
            v, w = _rand_vec(rng), _rand_vec(rng)
            av = apply_automorphism(variant, v, param)
            aw = apply_automorphism(variant, w, param)
            lhs = alg.bracket(av, aw)
            rhs = apply_automorphism(variant, alg.bracket(v, w), param)
            if any(sp.expand(a - b) != 0 for a, b in zip(lhs, rhs)):
                hom_ok = False
            back = apply_automorphism(variant, av, inverse_params(variant, param))
            if any(sp.expand(a - b) != 0 for a, b in zip(back, v)):
                inv_ok = False
        checks.append((f"{variant} homomorphism", hom_ok))
        checks.append((f"{variant} inverse roundtrip", inv_ok))
    _gate(2, "automorphisms", checks)


# --------------------------------------------------------------------------
# 3. catalog gate


def test_gate_3_catalog():
    t0 = time.perf_counter()
    reports = [
        catalog.verify_entry(eid)
        for eid in catalog.catalog_ids()
    ]
    elapsed = time.perf_counter() - t0
    checks = []
    for rep in reports:
        closure = rep.closure_ok and all(s["closure_ok"] for s in rep.samples)
        zeros = all(v != "NonZero" for v in rep.verdicts.values()) and all(
            v != "NonZero" for s in rep.samples for v in s["verdicts"].values()
        )
        checks.append((f"{rep.entry_id} closure", closure))
        checks.append((f"{rep.entry_id} annihilation", zeros))
        checks.append((f"{rep.entry_id} rank {rep.rank}", rep.rank == 5))
    checks.append((f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0))
    _gate(3, "catalog", checks)


# --------------------------------------------------------------------------
# 4. classification gate

_SAME_CLASS_GROUPS = [
    ["4.1", "4.2"],
    ["4.44.ii", "4.77"],
    ["4.38", "4.42", "4.45", "4.54", "4.57", "4.65", "4.74.ii", "4.74.iii"],
]

# explicit sign samples for rows with |.| coefficients
_SIGN_SAMPLES = {
    "4.56.i": [{"a": 1, "b": 2}, {"a": 1, "b": -2}],
    "4.64.i": [{"a": 1}, {"a": -1}],
    "4.74.i": [{"a": 1, "c": 1}, {"a": 1, "c": -1}],
}


def _row_matches_at(entry_id: str, binding: dict) -> bool:
    asg = classify.get_assignment(entry_id)
    subs = {sp.Symbol(k): sp.nsimplify(v) for k, v in binding.items()}
    M = sp.Matrix(asg.basis_change).subs(subs)  # row i: e_{i+1} over E1..E4
    B = sp.Matrix([list(vec) for vec in catalog.entry_basis(entry_id, binding)])
    induced = Subalgebra(l12(), M * B).induced()
    for i in range(4):
        for j in range(i + 1, 4):
            target = asg.relations.get((i, j), (0, 0, 0, 0))
            for k in range(4):
                want = sp.sympify(target[k]).subs(subs)
                if canonicalize(sp.sympify(induced.get((i, j), {}).get(k, 0)) - want) != 0:
                    return False
    return True


def test_gate_4_classification():
    checks = []
    for eid in classify.class_ids():
        rep = classify.verify_class(eid)
        checks.append((f"{eid} -> {rep.label}", rep.passed))
    for eid, bindings in _SIGN_SAMPLES.items():
        for binding in bindings:
            checks.append(
                (f"{eid} sign sample {binding}", _row_matches_at(eid, binding))
            )
    prints = {eid: classify.entry_fingerprint(eid) for eid in classify.class_ids()}
    for group in _SAME_CLASS_GROUPS:
        same = len({prints[eid] for eid in group}) == 1
        checks.append((f"fingerprints equal in {group}", same))
    checks.append(
        ("same-label consistency", classify.fingerprint_consistency().passed)
    )
    _gate(4, "classification", checks)


# --------------------------------------------------------------------------
# 5. submodel gate


def test_gate_5_submodel():
    checks = []
    for kind in ("isochoric-general", "isochoric-reduced",
                 "nonisochoric-general", "nonisochoric-reduced"):
        s = submodel.solution_family(kind)
        red = submodel.reduced_residuals(s.u, s.v, s.w, s.rho, s.P1)
        full = submodel.full_residuals(s)
        checks.append((f"{kind} reduced residuals", all(r == 0 for r in red)))
        checks.append((f"{kind} full residuals", all(r == 0 for r in full)))
    k0, m0, t = submodel.k0, submodel.m0, submodel.t
    iso = submodel.solution_family("isochoric-reduced")
    non = submodel.solution_family("nonisochoric-reduced")
    vort_iso = submodel.vorticity(iso)
    vort_non = submodel.vorticity(non)
    checks.append((
        "isochoric vorticity (0, m0, -k0)",
        vort_iso == (0, m0, -k0),
    ))
    checks.append((
        "nonisochoric vorticity (0, m0/t, -k0/t)",
        all(canonicalize(a - b) == 0 for a, b in zip(vort_non, (0, m0 / t, -k0 / t))),
    ))
    checks.append((
        "isochoric jacobian = 1",
        submodel.jacobian_det(submodel.flow_map(iso)) == 1,
    ))
    checks.append((
        "nonisochoric jacobian = t",
        submodel.jacobian_det(submodel.flow_map(non)) == t,
    ))
    _gate(5, "submodel", checks)


# --------------------------------------------------------------------------
# 6. trajectory gate

_FIG_BINDING = {submodel.k0: 1, submodel.m0: 1, submodel.rho0: 1}


def _closed_form(fm, labels: dict):
    comps = [sp.sympify(c).subs(_FIG_BINDING).subs(labels) for c in fm.components()]
    return sp.lambdify(submodel.t, comps, modules="numpy")


def test_gate_6_trajectories():
    checks = []
    x0s, y0s, z0s, u0s = submodel.x0, submodel.y0, submodel.z0, submodel.u0

    iso = submodel.solution_family("isochoric-reduced").subs(_FIG_BINDING)
    fm_iso = submodel.flow_map(submodel.solution_family("isochoric-reduced"))
    labels = {x0s: 0, y0s: 0, z0s: 1}
    cf = _closed_form(fm_iso, labels)
    vel = numerics.velocity_function(iso)
    tr = numerics.integrate(vel, np.asarray(cf(0.0), dtype=float), 0.0, 3.0, 1e-3)
    err = numerics.compare_to_closed_form(
        tr, fm_iso, {**_FIG_BINDING, **labels}
    )
    checks.append((f"isochoric max error {err:.2e} < 1e-6", err < TRAJ_TOL))
    # the isochoric flow is cubic in t, which RK4 integrates exactly, so
    # the order is measured on the non-isochoric family below

    non = submodel.solution_family("nonisochoric-reduced").subs(_FIG_BINDING)
    fm_non = submodel.flow_map(submodel.solution_family("nonisochoric-reduced"))
    labels = {u0s: 1, y0s: 1, z0s: 1}
    cf = _closed_form(fm_non, labels)
    vel = numerics.velocity_function(non)
    start = np.asarray(cf(0.1), dtype=float)
    tr = numerics.integrate(vel, start, 0.1, 3.0, 1e-3)
    err = numerics.compare_to_closed_form(tr, fm_non, {**_FIG_BINDING, **labels})
    checks.append((f"nonisochoric max error {err:.2e} < 1e-6", err < TRAJ_TOL))
    order = numerics.convergence_order(
        vel, start, 0.1, 3.0, lambda tv: np.asarray(cf(tv), dtype=float)
    )
    checks.append((
        f"nonisochoric order {order:.2f} in [3.7, 4.3]",
        ORDER_RANGE[0] <= order <= ORDER_RANGE[1],
    ))
    _gate(6, "trajectories", checks)


# --------------------------------------------------------------------------
# 7. figure reproduction


def test_gate_7_figures():
    checks = []
    fm_iso = submodel.flow_map(submodel.solution_family("isochoric-reduced"))
    exact_volume = sp.Rational(4, 3) * sp.pi
    for tv in (1.6, 2.0):
        rep = numerics.sphere_transport(fm_iso, 1000, tv, _FIG_BINDING, seed=0)
        checks.append((
            f"sphere t={tv} quadric residual {rep.max_residual:.2e}",
            rep.max_residual < QUADRIC_TOL,
        ))
        checks.append((
            f"sphere t={tv} volume = 4pi/3",
            abs(rep.volume - float(exact_volume)) < VOLUME_TOL,
        ))

    # Fig. 2: four particles from (-2, 1, 1) with u0 in {0, 1, 2, 3}
    non = submodel.solution_family("nonisochoric-reduced").subs(_FIG_BINDING)
    fm_non = submodel.flow_map(submodel.solution_family("nonisochoric-reduced"))
    vel = numerics.velocity_function(non)
    u0s = [0.0, 1.0, 2.0, 3.0]
    endpoints = []
    for u0v in u0s:
        labels = {submodel.u0: sp.nsimplify(u0v), submodel.y0: 1, submodel.z0: 1}
        cf = _closed_form(fm_non, labels)
        start = np.asarray(cf(0.1), dtype=float)
        tr = numerics.integrate(vel, start, 0.1, 3.0, 1e-3)
        endpoints.append(tr.points[-1])
        # world line passes through (-2, 1, 1) at t = 0
        at0 = np.asarray(cf(0.0), dtype=float)
        checks.append((
            f"u0={u0v} starts at (-2,1,1)",
            float(np.linalg.norm(at0 - np.array([-2.0, 1.0, 1.0]))) < 1e-12,
        ))
    endpoints = np.array(endpoints)
    yz_spread = float(
        np.max(np.abs(endpoints[:, 1:] - endpoints[0, 1:]))
    )
    checks.append((f"equal (y, z) at t=3, spread {yz_spread:.2e}", yz_spread < FIG2_TOL))
    coef = np.polyfit(u0s, endpoints[:, 0], 1)
    resid = float(np.max(np.abs(np.polyval(coef, u0s) - endpoints[:, 0])))
    checks.append((f"x affine in u0, fit residual {resid:.2e}", resid < FIG2_TOL))
    _gate(7, "figures", checks)


# --------------------------------------------------------------------------
# 8. mutation sensitivity


def _invariant_mutant_detected(entry_id: str, bad_invariant) -> bool:
    """True when some basis generator fails to annihilate the mutant."""
    ent = catalog.get_entry(entry_id)
    bad = sp.sympify(bad_invariant, locals={c: sp.Symbol(c) for c in ent.chart.coords})
    for g in ent.realized_basis():
        v = is_zero(g.apply(bad), seed=0, tol=TOL_ZERO)
        if v.kind == "NonZero":
            return v.witness is not None
    return False


def _catalog_mutant_nonzero(entry_id: str, index: int, term) -> list | None:
    """Failing verdicts of ``verify_entry`` with ``term`` added to the
    entry's invariant ``index``; None if the mutant passes."""
    row = catalog._row(entry_id)
    invs = list(row.invariants)
    invs[index] = f"({invs[index]}) + ({term})"
    mutant = dataclasses.replace(row, invariants=tuple(invs))
    with mock.patch.object(catalog, "_row", lambda eid: mutant):
        rep = catalog.verify_entry(entry_id)
    return None if rep.passed else sorted(k for k, v in rep.verdicts.items() if v == "NonZero")


def test_gate_8_mutations():
    alg = l12()
    checks = []

    # structure-constant flips break the Jacobi identity
    iY = L12_LABELS.index
    for (i, j, k, val) in [
        (iY("X1"), iY("X9"), iY("X2"), -1),
        (iY("X7"), iY("X8"), iY("X9"), 1),
        (iY("X4"), iY("X10"), iY("X1"), 0),
        (iY("X10"), iY("X11"), iY("X10"), -1),
    ]:
        bad = alg.mutated(i, j, k, val).jacobi_report()
        checks.append((
            f"flip C[{L12_LABELS[i]}][{L12_LABELS[j]}][{L12_LABELS[k]}]"
            f" -> jacobi witness {bad[:1]}",
            len(bad) > 0,
        ))

    # a flipped table entry also disagrees with the realized fields
    lhs = vf_commutator(realize("X1"), realize("X9"))
    checks.append((
        "[X1, X9] realizes to +X2, not -X2",
        lhs.equals(realize("X2")) and not lhs.equals(-1 * realize("X2")),
    ))

    # invariant sign flips are caught with a witness point
    for eid, bad in [
        ("4.77", "P + u"),
        ("4.2", "P + t"),
        ("4.1", "P + log(t)"),
        ("4.21", "P - t - theta"),
    ]:
        checks.append((
            f"{eid} mutant invariant {bad!r}",
            _invariant_mutant_detected(eid, bad),
        ))

    # a term that vanishes at every grid value of a, not at a = 3, is caught
    a = sp.Symbol("a")
    term = (a**2 - 4) * (a**2 - 1) * (4 * a**2 - 1) * sp.Symbol("x")
    nonzero = _catalog_mutant_nonzero("4.34.i", 1, term)
    checks.append((
        f"4.34.i mutant invariant q + {term}: NonZero at {nonzero}",
        nonzero == [(0, 1), (1, 1), (3, 1)],
    ))

    # a sampled zero test that evaluates no point is not a pass
    xs = sp.Symbol("x")
    for bad in (sp.sqrt(-1 - xs**2), sp.zoo * xs):
        v = is_zero(bad, seed=0, tol=TOL_ZERO)
        checks.append((f"{bad} is evaluable nowhere: {v.kind}", v.kind == "Undecided" and not v))

    # a residual that holds for the one choice f(rho) = rho**2 only is no zero
    bad = opaque("f", 2)(sp.Symbol("rho")) - 2
    v = is_zero(bad, seed=0, tol=TOL_ZERO)
    checks.append((f"{bad} holds for one f only: {v.kind}", v.kind == "NonZero"))

    # solution coefficient flips leave a nonzero residual
    iso = submodel.solution_family("isochoric-reduced")
    k0, m0, rho0, t = submodel.k0, submodel.m0, submodel.rho0, submodel.t

    bad_p = submodel.Solution(iso.kind, iso.u, iso.v, iso.w, iso.rho,
                              iso.P - 2 * k0 * submodel.y)
    res = submodel.full_residuals(bad_p)
    checks.append((
        "isochoric P with flipped k0*y term",
        any(is_zero(r, seed=0).kind == "NonZero" for r in res if r != 0),
    ))

    bad_v = submodel.Solution(iso.kind, iso.u, -iso.v, iso.w, iso.rho, iso.P)
    res = submodel.full_residuals(bad_v)
    checks.append((
        "isochoric v sign flipped",
        any(is_zero(r, seed=0).kind == "NonZero" for r in res if r != 0),
    ))

    non = submodel.solution_family("nonisochoric-reduced")
    bad_rho = submodel.Solution(non.kind, non.u, non.v, non.w, rho0 * t, non.P)
    res = submodel.full_residuals(bad_rho)
    checks.append((
        "nonisochoric rho = rho0*t",
        any(is_zero(r, seed=0).kind == "NonZero" for r in res if r != 0),
    ))

    bad_fm = submodel.FlowMap(
        iso.kind,
        (k0 * submodel.y0 + m0 * submodel.z0) * t + submodel.x0,
        k0 / (2 * rho0) * t**2 + submodel.y0,
        -m0 / (2 * rho0) * t**2 + submodel.z0,
    )
    resid = submodel.flow_consistency(iso, bad_fm)
    checks.append((
        "isochoric flow map with flipped y coefficient",
        any(r != 0 for r in resid),
    ))

    # a mutated class relation fails the classification check
    asg = classify.get_assignment("4.21")
    mutated = classify.ClassAssignment(
        entry_id=asg.entry_id,
        label=asg.label,
        basis_change=asg.basis_change,
        relations={(1, 2): (-1, 0, 0, 0)},  # claims [e2,e3] = -e1
    )
    M = sp.Matrix(mutated.basis_change)
    B = sp.Matrix([list(v) for v in catalog.entry_basis("4.21", {})])
    induced = Subalgebra(l12(), M * B).induced()
    mismatch = any(
        canonicalize(
            sp.sympify(induced.get((i, j), {}).get(k, 0))
            - sp.sympify(mutated.relations.get((i, j), (0,) * 4)[k])
        ) != 0
        for i in range(4) for j in range(i + 1, 4) for k in range(4)
    )
    checks.append(("4.21 with mutated target relation", mismatch))

    assert len(checks) >= 10
    _gate(8, "mutations", checks)
