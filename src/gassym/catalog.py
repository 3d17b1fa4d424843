"""The four-dimensional subalgebra catalog and its machine verification.

Entries live in ``data/catalog.yaml`` so they can be reviewed line by
line.  Verification of an entry checks three things:

  * the basis spans a subalgebra (closure under the bracket, exact);
  * each listed invariant (plus the implicit density) is annihilated by
    every basis generator realized in the entry's chart;
  * the five invariants are functionally independent (Jacobian rank 5 at
    seeded generic points).

Parametric entries are verified twice: with parameters as symbols where
the constraints permit, and on the admissible sample grid.  A symbolic
failure that disappears under sampling is reported as a simplifier gap,
not an invariance failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import sympy as sp
import yaml

from .exprs import canonicalize, is_zero
from .fields import Chart, chart_C, chart_D, chart_D_shift, chart_S, realize_combination
from .liealg import L12_LABELS, Subalgebra, l12

__all__ = [
    "SubalgebraEntry",
    "VerificationReport",
    "UnknownEntryError",
    "ConstraintError",
    "catalog_ids",
    "entry_basis",
    "entry_schema",
    "get_entry",
    "independence_rank",
    "parameter_samples",
    "verify_entry",
    "verify_invariants",
]

GRID = [sp.Rational(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2")]
UNIT_CIRCLE = [
    (sp.Integer(1), sp.Integer(0)),
    (sp.Rational(3, 5), sp.Rational(4, 5)),
    (sp.Integer(0), sp.Integer(1)),
]

# sampling boxes per chart coordinate, chosen off the singular loci and
# inside one branch of the angle coordinates
_DOMAINS = {
    "t": (0.5, 1.5), "x": (0.5, 1.5), "y": (0.5, 1.5), "z": (0.5, 1.5),
    "u": (0.5, 1.5), "v": (0.5, 1.5), "w": (0.5, 1.5),
    "rho": (0.5, 1.5), "P": (0.5, 1.5),
    "r": (0.5, 1.5), "theta": (0.2, 1.2), "q": (0.5, 1.5),
    "vartheta": (0.2, 1.2),
    "r_S": (0.5, 1.5), "theta_S": (0.3, 1.2), "phi": (0.2, 1.2),
    "q_S": (0.5, 1.5), "vartheta_S": (0.3, 1.2), "varphi": (0.2, 1.2),
    "qbar": (0.5, 1.5), "varthetabar": (0.2, 1.2),
}


class UnknownEntryError(KeyError):
    pass


class ConstraintError(ValueError):
    pass


_GEN_SYMS = {lbl: sp.Symbol(lbl) for lbl in L12_LABELS}
_PARAM_NAMES = ("a", "b", "c", "d", "eps")
_PARAM_SYMS = {n: sp.Symbol(n) for n in _PARAM_NAMES}


def _load_raw() -> dict:
    text = resources.files("gassym").joinpath("data/catalog.yaml").read_text()
    return yaml.safe_load(text)


_RAW = None


def _raw_entries() -> dict[str, dict]:
    global _RAW
    if _RAW is None:
        data = _load_raw()
        _RAW = {e["id"]: e for e in data["entries"]}
    return _RAW


def catalog_ids() -> list[str]:
    return list(_raw_entries().keys())


def _parse_basis_vector(text: str, params: dict) -> list[sp.Expr]:
    loc = dict(_GEN_SYMS)
    loc.update(_PARAM_SYMS)
    expr = sp.expand(sp.sympify(text, locals=loc).subs(params))
    vec = []
    rest = expr
    for lbl in L12_LABELS:
        c = expr.coeff(_GEN_SYMS[lbl], 1)
        vec.append(sp.expand(c))
        rest = rest - c * _GEN_SYMS[lbl]
    if sp.expand(rest) != 0:
        raise ValueError(f"basis element {text!r} is not linear in the generators")
    return vec


def _chart_for(raw: dict, params: dict) -> Chart:
    name = raw.get("chart", "D")
    if name == "D":
        return chart_D()
    if name == "C":
        return chart_C()
    if name == "S":
        return chart_S()
    if name == "Dshift":
        b = sp.sympify(raw.get("chart_b", 0), locals=_PARAM_SYMS).subs(params)
        return chart_D_shift(b)
    raise ValueError(f"unknown chart {name!r}")


@dataclass(frozen=True, eq=False)
class SubalgebraEntry:
    """One instantiated catalog item."""

    id: str
    params: dict
    basis: list  # four coefficient vectors over (Y, X1..X11)
    chart: Chart
    invariants: list  # the four listed invariants (rho is implicit)

    def subalgebra(self) -> Subalgebra:
        return Subalgebra(l12(), sp.Matrix([list(v) for v in self.basis]))

    def realized_basis(self) -> list:
        return [realize_combination(v, self.chart) for v in self.basis]

    def invariants_with_density(self) -> list:
        return list(self.invariants) + [sp.Symbol("rho")]


def _free_param_names(raw: dict) -> list[str]:
    names = list(raw.get("grid", []))
    names += list(raw.get("choices", {}).keys())
    names += list(raw.get("unit_circle", []))
    return names


def _check_constraints(raw: dict, params: dict) -> bool:
    loc = dict(_PARAM_SYMS)
    for cond in raw.get("constraints", []):
        val = sp.sympify(cond, locals=loc).subs(params)
        if val == sp.false or val is False:
            return False
        if not (val == sp.true or val is True):
            raise ConstraintError(f"cannot decide constraint {cond!r} at {params}")
    return True


def get_entry(entry_id: str, **params) -> SubalgebraEntry:
    """Instantiate a catalog entry, validating parameter constraints."""
    raw = _raw_entries().get(entry_id)
    if raw is None:
        raise UnknownEntryError(f"unknown catalog entry {entry_id!r}")
    binding = {k: sp.nsimplify(v) for k, v in raw.get("fixed", {}).items()}
    free = _free_param_names(raw)
    for k, v in params.items():
        if k not in free:
            raise ConstraintError(f"entry {entry_id} takes no parameter {k!r}")
        binding[k] = sp.nsimplify(v)
    missing = [k for k in free if k not in binding]
    if missing:
        raise ConstraintError(f"entry {entry_id} needs parameters {missing}")
    for pair in [raw.get("unit_circle")] if raw.get("unit_circle") else []:
        s = binding[pair[0]] ** 2 + binding[pair[1]] ** 2
        if sp.simplify(s - 1) != 0:
            raise ConstraintError(
                f"entry {entry_id}: {pair[0]}^2 + {pair[1]}^2 must be 1"
            )
    subs = {_PARAM_SYMS[k]: v for k, v in binding.items()}
    if not _check_constraints(raw, subs):
        raise ConstraintError(f"entry {entry_id}: constraints violated at {binding}")
    return _instantiate(raw, entry_id, binding)


def _instantiate(raw: dict, entry_id: str, binding: dict) -> SubalgebraEntry:
    subs = {_PARAM_SYMS[k]: v for k, v in binding.items()}
    basis = [_parse_basis_vector(b, subs) for b in raw["basis"]]
    chart = _chart_for(raw, subs)
    loc = {c: sp.Symbol(c) for c in chart.coords}
    loc.update(_PARAM_SYMS)
    invs = [
        canonicalize(sp.sympify(s, locals=loc).subs(subs))
        for s in raw["invariants"]
    ]
    return SubalgebraEntry(entry_id, dict(binding), basis, chart, invs)


def entry_schema(entry_id: str) -> dict:
    """Parameter layout of an entry: grid names, choice values, the
    unit-circle pair, fixed values, and constraint strings."""
    raw = _raw_entries().get(entry_id)
    if raw is None:
        raise UnknownEntryError(f"unknown catalog entry {entry_id!r}")
    return {
        "grid": list(raw.get("grid", [])),
        "choices": {k: list(v) for k, v in raw.get("choices", {}).items()},
        "unit_circle": list(raw.get("unit_circle", [])),
        "fixed": dict(raw.get("fixed", {})),
        "constraints": list(raw.get("constraints", [])),
    }


def entry_basis(entry_id: str, binding: dict) -> list[list[sp.Expr]]:
    """Basis coefficient vectors over (Y, X1..X11) at ``binding``.

    Unlike :func:`get_entry`, the binding values may be symbolic, which
    is how sign-split parameters reach the classification checks.
    """
    raw = _raw_entries().get(entry_id)
    if raw is None:
        raise UnknownEntryError(f"unknown catalog entry {entry_id!r}")
    full = {k: sp.nsimplify(v) for k, v in raw.get("fixed", {}).items()}
    for k, v in binding.items():
        full[k] = sp.sympify(v)
    subs = {_PARAM_SYMS[k]: v for k, v in full.items()}
    return [_parse_basis_vector(b, subs) for b in raw["basis"]]


def symbolic_entry(entry_id: str) -> SubalgebraEntry | None:
    """Entry with free parameters left symbolic, or None if the entry has
    an algebraic constraint (unit circle) that blocks a generic symbol."""
    raw = _raw_entries().get(entry_id)
    if raw is None:
        raise UnknownEntryError(f"unknown catalog entry {entry_id!r}")
    if raw.get("unit_circle"):
        return None
    binding = {k: sp.nsimplify(v) for k, v in raw.get("fixed", {}).items()}
    for name in raw.get("grid", []):
        binding[name] = _PARAM_SYMS[name]
    for name in raw.get("choices", {}):
        binding[name] = _PARAM_SYMS[name]
    return _instantiate(raw, entry_id, binding)


def parameter_samples(entry_id: str) -> list[dict]:
    """Admissible parameter grid for an entry (empty dict if none)."""
    raw = _raw_entries().get(entry_id)
    if raw is None:
        raise UnknownEntryError(f"unknown catalog entry {entry_id!r}")
    axes: list[list[tuple[tuple[str, ...], tuple]]] = []
    if raw.get("unit_circle"):
        pair = tuple(raw["unit_circle"])
        axes.append([(pair, s) for s in UNIT_CIRCLE])
    for name in raw.get("grid", []):
        axes.append([((name,), (v,)) for v in GRID])
    for name, values in raw.get("choices", {}).items():
        axes.append([((name,), (sp.nsimplify(v),)) for v in values])
    if not axes:
        return [dict(raw.get("fixed", {}))]
    out = []
    for combo in itertools.product(*axes):
        binding = {k: sp.nsimplify(v) for k, v in raw.get("fixed", {}).items()}
        for names, values in combo:
            binding.update(dict(zip(names, values)))
        subs = {_PARAM_SYMS[k]: v for k, v in binding.items()}
        if _check_constraints(raw, subs):
            out.append(binding)
    return out


# --------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    """Verdicts for one entry (all parameter samples)."""

    entry_id: str
    closure_ok: bool
    verdicts: dict  # (generator idx, invariant idx) -> verdict string
    rank: int
    samples: list = field(default_factory=list)
    simplifier_gaps: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        ok = self.closure_ok and self.rank == 5
        ok = ok and all(v != "NonZero" for v in self.verdicts.values())
        for s in self.samples:
            ok = ok and s["closure_ok"] and s["rank"] == 5
            ok = ok and all(v != "NonZero" for v in s["verdicts"].values())
        return ok


def _annihilation_verdicts(entry: SubalgebraEntry, seed: int, tol: float) -> dict:
    verdicts = {}
    realized = entry.realized_basis()
    invs = entry.invariants_with_density()
    for gi, g in enumerate(realized):
        for ii, inv in enumerate(invs):
            applied = g.apply(inv)
            if applied == 0:
                verdicts[(gi, ii)] = "SymbolicZero"
            else:
                v = is_zero(applied, _DOMAINS, seed=seed, tol=tol)
                verdicts[(gi, ii)] = v.kind
    return verdicts


def independence_rank(
    entry: SubalgebraEntry, *, n_points: int = 10, seed: int = 0, tol: float = 1e-8
) -> int:
    """Max numeric rank of the 5x9 invariant Jacobian at seeded points.

    The single-entry case of ``_group_ranks``, so ``log`` reads ln|.| here
    as on the parameter grid.
    """
    if any(v.free_symbols - {sp.Symbol(c) for c in entry.chart.coords}
           for v in entry.invariants):
        raise ConstraintError("rank requires numeric parameters")
    return _group_ranks(entry, [], [{}], n_points=n_points, seed=seed, tol=tol)[0]


def _group_ranks(
    entry: SubalgebraEntry,
    grid_syms: list,
    bindings: list[dict],
    *,
    n_points: int = 10,
    seed: int = 0,
    tol: float = 1e-8,
) -> list[int]:
    """Numeric Jacobian ranks for each binding, sharing one lambdify."""
    coords = [sp.Symbol(c) for c in entry.chart.coords]
    invs = entry.invariants_with_density()
    jac = sp.Matrix([[sp.diff(i, c) for c in coords] for i in invs])
    fn = sp.lambdify(
        coords + grid_syms, jac, modules=[{"log": lambda x: np.log(np.abs(x))}, "numpy"]
    )
    ranks = []
    for binding in bindings:
        pvals = [float(binding[s.name]) for s in grid_syms]
        rng = np.random.default_rng(seed)
        best = 0
        for _ in range(n_points):
            point = [rng.uniform(*_DOMAINS[c.name]) for c in coords]
            J = np.array(fn(*point, *pvals), dtype=float)
            sv = np.linalg.svd(J, compute_uv=False)
            best = max(best, int(np.sum(sv > tol)))
        ranks.append(best)
    return ranks


def _verify_group(
    raw: dict,
    entry_id: str,
    grid_names: list[str],
    bindings: list[dict],
    *,
    seed: int,
    tol: float,
) -> list[dict]:
    """Verify bindings differing only in grid parameters via one symbolic
    pass with those parameters left as symbols.

    Closure and annihilation established symbolically transfer to every
    binding by substitution; a binding only falls back to its own exact
    check when a symbolic denominator vanishes there.
    """
    grid_syms = [_PARAM_SYMS[n] for n in grid_names]
    generic = dict(bindings[0])
    for n in grid_names:
        generic[n] = _PARAM_SYMS[n]
    ent = _instantiate(raw, entry_id, generic)

    closed, induced = ent.subalgebra().is_closed()
    denominators = set()
    if closed and grid_syms:
        for plane in induced:
            for row in plane:
                for coeff in row:
                    den = sp.fraction(sp.together(coeff))[1]
                    if den.free_symbols:
                        denominators.add(den)

    residuals = {}
    realized = ent.realized_basis()
    invs = ent.invariants_with_density()
    for gi, g in enumerate(realized):
        for ii, inv in enumerate(invs):
            residuals[(gi, ii)] = g.apply(inv)

    ranks = _group_ranks(ent, grid_syms, bindings, seed=seed)

    reports = []
    for binding, rank in zip(bindings, ranks):
        subs = {_PARAM_SYMS[n]: binding[n] for n in grid_names}
        verdicts = {}
        for key, res in residuals.items():
            if res == 0:
                verdicts[key] = "SymbolicZero"
            else:
                verdicts[key] = is_zero(res.subs(subs), _DOMAINS, seed=seed, tol=tol).kind
        if closed and all(den.subs(subs) != 0 for den in denominators):
            closed_here = True
        else:
            sampled = _instantiate(raw, entry_id, binding)
            closed_here, _ = sampled.subalgebra().is_closed()
        reports.append({
            "params": {k: str(v) for k, v in binding.items()},
            "closure_ok": closed_here,
            "verdicts": verdicts,
            "rank": rank,
        })
    return reports


def verify_invariants(
    entry: SubalgebraEntry, *, seed: int = 0, tol: float = 1e-9
) -> VerificationReport:
    """Closure + annihilation + independence for one instantiated entry."""
    closed, _ = entry.subalgebra().is_closed()
    verdicts = _annihilation_verdicts(entry, seed, tol)
    rank = independence_rank(entry, seed=seed)
    return VerificationReport(
        entry_id=entry.id,
        closure_ok=closed,
        verdicts=verdicts,
        rank=rank,
    )


def verify_entry(entry_id: str, *, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Full verification campaign for one catalog id.

    Runs the symbolic-parameter mode when the entry admits it, then every
    admissible grid sample.  Symbolic NonZero verdicts that vanish on all
    samples are downgraded to simplifier gaps.
    """
    sym = symbolic_entry(entry_id)
    samples = parameter_samples(entry_id)

    sym_verdicts: dict = {}
    sym_closed = True
    if sym is not None:
        sym_closed, _ = sym.subalgebra().is_closed()
        sym_verdicts = _annihilation_verdicts(sym, seed, tol)

    raw = _raw_entries()[entry_id]
    grid_names = [n for n in raw.get("grid", [])]
    groups: dict[tuple, list[dict]] = {}
    for binding in samples:
        key = tuple(
            (k, binding[k]) for k in sorted(binding) if k not in grid_names
        )
        groups.setdefault(key, []).append(binding)
    sample_reports = []
    for bindings in groups.values():
        sample_reports += _verify_group(
            raw, entry_id, grid_names, bindings, seed=seed, tol=tol
        )

    gaps = []
    for key, kind in list(sym_verdicts.items()):
        if kind == "NonZero" and all(
            s["verdicts"].get(key) != "NonZero" for s in sample_reports
        ):
            sym_verdicts[key] = "SIMPLIFIER-GAP"
            gaps.append(key)

    rank = max((s["rank"] for s in sample_reports), default=0)
    return VerificationReport(
        entry_id=entry_id,
        closure_ok=sym_closed and all(s["closure_ok"] for s in sample_reports),
        verdicts=sym_verdicts or sample_reports[0]["verdicts"],
        rank=rank,
        samples=sample_reports,
        simplifier_gaps=gaps,
    )
