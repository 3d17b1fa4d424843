"""The benchmark's workloads: seeded inputs, known answers and negative
controls.

Each workload is a list of ``gassym`` CLI campaigns (one cold process
each) generated from the benchmark seed, a check per campaign that
compares its report with the known answer, and negative controls whose
known answer is "fail".  Why each workload exists, and which layers
should dominate it, is in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

CATALOG_SIZE = 28
# single-entry `verify-invariants ID --params ...` campaigns per pass:
# one parametric id of each chart family that has one (C, D, D-shift),
# so every pass exercises each chart's realization path once
DRAW_CHARTS = ("C", "D", "D-shift")
TRACE_H = 4e-5  # 75,000 RK4 steps per trace: RK4 dominates the process
TRACE_SPAN = 3.0
TRACE_TOL = 1e-6
NONISO_T0 = 0.5  # the non-isochoric flow is singular at t = 0
# every coordinate's sample interval in gassym.catalog lies in this box
SAMPLE_BOX = (0.2, 1.5)


@dataclass
class Campaign:
    """One CLI invocation and the check of its report."""

    label: str
    argv: list
    check: Callable[[dict], list]  # report -> list of mismatches
    csv: str | None = None  # CSV written by a trace, relative to the work dir


@dataclass
class Control:
    """A negative control: an input whose known answer is "fail".

    CLI controls give ``argv`` and must exit 2 with a one-line message and
    no traceback; in-process controls give ``run``, which returns
    (gassym reported the failure, detail).
    """

    label: str
    argv: list | None = None
    run: Callable[[], tuple] | None = None


@dataclass
class Workload:
    name: str
    campaigns: list
    controls: list
    inputs: dict = field(default_factory=dict)  # recorded for replay
    # campaigns on which gassym is known to be wrong: run once per run,
    # untimed and not counted, and reported until the defect is fixed
    known_defects: list = field(default_factory=list)


# --------------------------------------------------------------------------
# known answers


def _expect(cond: bool, what: str, out: list) -> None:
    if not cond:
        out.append(what)


def check_catalog(expected_ids: list, n: int | None = None):
    def check(report: dict) -> list:
        bad: list = []
        cat = report.get("catalog") or {}
        if n is not None:
            _expect(len(cat) == n, f"{len(cat)} catalog items, expected {n}", bad)
        _expect(sorted(cat) == sorted(expected_ids), "catalog ids differ", bad)
        for eid, item in cat.items():
            _expect(item.get("passed") is True, f"{eid} not passed", bad)
            _expect(item.get("closure") is True, f"{eid} not closed", bad)
            _expect(item.get("rank") == 5, f"{eid} rank {item.get('rank')}", bad)
        return bad

    return check


def check_algebra(report: dict) -> list:
    bad: list = []
    alg = report.get("algebra") or {}
    _expect(alg.get("dim") == 12, "algebra dim is not 12", bad)
    _expect(alg.get("passed") is True, "algebra not passed", bad)
    _expect(alg.get("jacobi_failures") == [], "Jacobi failures", bad)
    _expect(alg.get("realization_diff") == [], "realization diff", bad)
    return bad


def check_classes(report: dict) -> list:
    bad: list = []
    cls = report.get("classes") or {}
    rows = cls.get("rows") or {}
    _expect(len(rows) == CATALOG_SIZE, f"{len(rows)} class rows", bad)
    for eid, row in rows.items():
        _expect(row.get("passed") is True, f"class row {eid} not passed", bad)
    labels = cls.get("label_consistency") or {}
    _expect(bool(labels) and all(v is True for v in labels.values()), "label consistency", bad)
    _expect(cls.get("passed") is True, "classes not passed", bad)
    return bad


SOLUTION_JACOBIANS = {"isochoric-reduced": "1", "nonisochoric-reduced": "t"}


def check_solutions(report: dict) -> list:
    bad: list = []
    sol = report.get("solutions") or {}
    kinds = ("isochoric-general", "isochoric-reduced", "nonisochoric-general", "nonisochoric-reduced")
    _expect(sorted(sol) == sorted(kinds), "solution kinds differ", bad)
    for kind in kinds:
        _expect((sol.get(kind) or {}).get("passed") is True, f"{kind} not passed", bad)
    for kind, jac in SOLUTION_JACOBIANS.items():
        got = (sol.get(kind) or {}).get("jacobian_det")
        _expect(got == jac, f"{kind} Jacobian {got!r}, expected {jac!r}", bad)
    return bad


def closed_form_flow(kind: str, p0: tuple, t0: float, t: float) -> tuple:
    """Exact particle position at time t from p0 at time t0, for the
    reduced families at k0 = m0 = rho0 = 1 (the CLI's defaults).

    Written out here from the paper's velocity fields, independently of
    ``gassym.submodel.flow_map``:
      isochoric      u = y + z + t^2,        v = w = -t
      non-isochoric  u = (x + y + z)/t + t/2, v = w = -t
    In both, y + z = C - t^2 with C = y(t0) + z(t0) + t0^2.
    """
    xa, ya, za = p0
    y = ya - (t * t - t0 * t0) / 2
    z = za - (t * t - t0 * t0) / 2
    c = ya + za + t0 * t0
    if kind == "isochoric-reduced":
        x = xa + c * (t - t0)
    else:  # x = -C - t^2/2 + K t solves x' = (x + y + z)/t + t/2
        k = (xa + c + t0 * t0 / 2) / t0
        x = -c - t * t / 2 + k * t
    return (x, y, z)


def check_trace(kind: str, p0: tuple, t0: float, t1: float):
    want = closed_form_flow(kind, p0, t0, t1)

    def check(report: dict) -> list:
        bad: list = []
        traces = report.get("traces") or []
        if len(traces) != 1:
            return [f"{len(traces)} traces, expected 1"]
        tr = traces[0]
        _expect(tr.get("kind") == kind, "trace kind differs", bad)
        end = tr.get("endpoint") or [math.nan] * 3
        err = math.dist(end, want)
        _expect(err <= TRACE_TOL, f"endpoint off the closed form by {err:.3g}", bad)
        return bad

    return check


# --------------------------------------------------------------------------
# seeded inputs


def _draw_rational(rng: random.Random) -> str:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(1, 7)
        if p:
            g = math.gcd(p, q)
            return f"{p // g}/{q // g}" if q // g != 1 else str(p // g)


def _draw_unit_circle(rng: random.Random) -> tuple:
    """A rational point on the unit circle off the axes, from a
    Pythagorean triple (m^2 - n^2, 2mn, m^2 + n^2)."""
    m = rng.randint(2, 6)
    n = rng.randint(1, m - 1)
    while math.gcd(m, n) != 1 or (m - n) % 2 == 0:
        m = rng.randint(2, 6)
        n = rng.randint(1, m - 1)
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if rng.random() < 0.5:
        a, b = b, a
    return (f"{rng.choice((1, -1)) * a}/{c}", f"{rng.choice((1, -1)) * b}/{c}")


def _logs_real(entry) -> bool:
    """Whether every ``log`` argument of the entry's invariants is positive
    on the sample box, so that the invariants are real functions there.
    The catalog's log arguments (t, r, y, d*t + c) are affine, so the
    corners of the box decide it."""
    import sympy as sp

    for arg in {a.args[0] for inv in entry.invariants for a in inv.atoms(sp.log)}:
        syms = sorted(arg.free_symbols, key=str)
        for corner in itertools.product(SAMPLE_BOX, repeat=len(syms)):
            if not arg.subs(dict(zip(syms, corner))) > 0:
                return False
    return True


def draw_params(gassym, entry_id: str, rng: random.Random) -> str:
    """Admissible rational parameters for ``entry_id``, drawn from its
    ``entry_schema``; redrawn until ``get_entry`` accepts them and the
    invariants are real on the sample box (see catalog_workload)."""
    catalog = gassym.catalog
    schema = catalog.entry_schema(entry_id)
    while True:
        params = {}
        if schema["unit_circle"]:
            p, q = schema["unit_circle"]
            params[p], params[q] = _draw_unit_circle(rng)
        for name in schema["grid"]:
            params[name] = _draw_rational(rng)
        for name, values in schema["choices"].items():
            params[name] = str(rng.choice(values))
        try:
            entry = catalog.get_entry(entry_id, **params)
        except catalog.ConstraintError:
            continue
        if _logs_real(entry):
            return ",".join(f"{k}={v}" for k, v in params.items())


def _parametric_ids_by_chart(gassym) -> dict:
    catalog = gassym.catalog
    by_chart: dict = {}
    for eid in catalog.catalog_ids():
        schema = catalog.entry_schema(eid)
        if schema["grid"] or schema["choices"] or schema["unit_circle"]:
            chart = catalog.get_entry(eid, **_first_sample(catalog, eid)).chart.name
            by_chart.setdefault(chart.split("(")[0], []).append(eid)
    return by_chart


def _first_sample(catalog, eid: str) -> dict:
    fixed = catalog.entry_schema(eid)["fixed"]
    return {k: v for k, v in catalog.parameter_samples(eid)[0].items() if k not in fixed}


def _point(rng: random.Random) -> tuple:
    return tuple(round(rng.uniform(-2.0, 2.0), 4) for _ in range(3))


# --------------------------------------------------------------------------
# the three workloads


def catalog_workload(gassym, seed: int) -> Workload:
    rng = random.Random(seed)
    ids = gassym.catalog.catalog_ids()
    seed_arg = ["--seed", str(seed)]
    campaigns = [
        Campaign("verify-invariants all", ["verify-invariants", "all", *seed_arg], check_catalog(ids, CATALOG_SIZE))
    ]
    by_chart = _parametric_ids_by_chart(gassym)
    draws = []
    for chart in DRAW_CHARTS:
        eid = rng.choice(sorted(by_chart[chart]))
        params = draw_params(gassym, eid, rng)
        draws.append({"id": eid, "params": params})
        campaigns.append(
            Campaign(
                f"verify-invariants {eid} --params {params}",
                ["verify-invariants", eid, "--params", params, *seed_arg],
                check_catalog([eid]),
            )
        )
    controls = [
        Control("verify-invariants 4.34.i --params a=0", argv=["verify-invariants", "4.34.i", "--params", "a=0"]),
        Control("verify-invariants 4.99 (unknown id)", argv=["verify-invariants", "4.99"]),
        Control("verify_invariants(4.77 with a perturbed invariant)", run=lambda: _perturbed_invariant(gassym)),
    ]
    # independence_rank lambdifies log as ln, not ln|.|, so the Jacobian
    # turns NaN where d*t + c < 0 on the sample box; the draws above keep
    # log arguments positive so that the measured campaigns do not meet it
    defect_params = "c=-15/17,d=8/17,a=-1,b=1/4"
    known_defects = [
        Campaign(
            f"verify-invariants 4.71.i --params {defect_params}",
            ["verify-invariants", "4.71.i", "--params", defect_params, *seed_arg],
            check_catalog(["4.71.i"]),
        )
    ]
    return Workload("catalog", campaigns, controls, {"draws": draws}, known_defects)


def structure_workload(gassym, seed: int) -> Workload:
    seed_arg = ["--seed", str(seed)]
    campaigns = [
        Campaign("verify-algebra", ["verify-algebra", *seed_arg], check_algebra),
        Campaign("classify all", ["classify", "all", *seed_arg], check_classes),
    ]
    controls = [
        Control("classify 4.99 (unknown id)", argv=["classify", "4.99"]),
        Control("l12().mutated(1, 8, 3, -2).jacobi_report()", run=lambda: _mutated_jacobi(gassym)),
    ]
    return Workload("structure", campaigns, controls)


def flows_workload(gassym, seed: int) -> Workload:
    rng = random.Random(seed)
    seed_arg = ["--seed", str(seed)]
    campaigns = [Campaign("verify-solution", ["verify-solution", *seed_arg], check_solutions)]
    points = []
    for kind, t0 in (("isochoric-reduced", 0.0), ("nonisochoric-reduced", NONISO_T0)):
        p0 = _point(rng)
        t1 = t0 + TRACE_SPAN
        csv = f"{kind}.csv"
        x0 = ",".join(repr(v) for v in p0)
        points.append({"kind": kind, "x0": list(p0), "t0": t0, "t1": t1})
        campaigns.append(
            Campaign(
                f"trace {kind}",
                # --x0=... because a leading '-' in a separate argument
                # reads as a flag and exits 2 at argparse
                ["trace", kind, f"--x0={x0}", "--t0", repr(t0), "--t1", repr(t1),
                 "--h", repr(TRACE_H), "--out", csv, *seed_arg],
                check_trace(kind, p0, t0, t1),
                csv=csv,
            )
        )
    controls = [
        Control("trace isochoric-reduced --t0 1 --t1 0",
                argv=["trace", "isochoric-reduced", "--x0=1,0,0", "--t0", "1", "--t1", "0", "--out", "empty.csv"]),
        Control("full_residuals(isochoric-reduced with u + x)", run=lambda: _perturbed_solution(gassym)),
    ]
    return Workload("flows", campaigns, controls, {"traces": points, "h": TRACE_H})


WORKLOADS = {
    "catalog": catalog_workload,
    "structure": structure_workload,
    "flows": flows_workload,
}


# --------------------------------------------------------------------------
# in-process negative controls: (gassym reported the failure, detail)


def _perturbed_invariant(gassym) -> tuple:
    import sympy as sp

    entry = gassym.catalog.get_entry("4.77")
    invs = list(entry.invariants)
    invs[3] = invs[3] + sp.Symbol("x")
    rep = gassym.catalog.verify_invariants(dataclasses.replace(entry, invariants=invs))
    nonzero = sorted(f"{g},{i}" for (g, i), v in rep.verdicts.items() if v == "NonZero")
    return (not rep.passed, {"passed": rep.passed, "nonzero": nonzero})


def _mutated_jacobi(gassym) -> tuple:
    failures = gassym.liealg.l12().mutated(1, 8, 3, -2).jacobi_report()
    return (len(failures) > 0, {"jacobi_failures": len(failures)})


def _perturbed_solution(gassym) -> tuple:
    import sympy as sp

    s = gassym.submodel.solution_family("isochoric-reduced")
    res = gassym.submodel.full_residuals(dataclasses.replace(s, u=s.u + sp.Symbol("x")))
    nonzero = [i for i, r in enumerate(res) if r != 0]
    return (bool(nonzero), {"nonzero_residuals": nonzero})


def report_json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None
