"""The four-dimensional subalgebra catalog and its machine verification.

Entries live in ``data/catalog.yaml`` so they can be reviewed line by
line.  Each entry is parsed once, on first use, into a row cached per
id: the basis coefficient matrix and the invariants over the parameter
symbols, the chart, the constraints and the parameter values.  The
strings of both data files are read by :func:`parse`, a whitelist over
Python's ``ast`` that evaluates nothing, and a basis element is read
off its tree as a coefficient vector.  Every binding of the parameters,
numeric or symbolic, is a substitution into that row.  Verification of
an entry checks three things:

  * the basis spans a subalgebra (closure under the bracket, exact);
  * each listed invariant (plus the implicit density) is annihilated by
    every basis generator realized in the entry's chart;
  * the five invariants are functionally independent: their Jacobian
    has rank 5 over QQ(coordinates), decided exactly.

One core, ``_verify_group``, does all three for an instantiated entry at
a list of bindings of its grid parameters.  A single entry is the
one-binding group ``[{}]``.  A catalog id is verified as one group per
unit-circle point and choice value, with only the grid parameters left
as symbols: closure and the residuals are decided once per group, and
each sample checks only the ranks that substitution can change.  Both
the residuals and the ranks read the group's one invariant Jacobian.

Every annihilation verdict is exact.  A residual sum_c F_c * J_ic lives in
the chart's field over the coordinates, the bare angles with their sin and
cos, and the parameters; ``ring.is_zero`` reduces its numerator modulo
sin^2 + cos^2 - 1.  That ideal is prime, its real points are dense and an
angle is transcendental over the rest, so the reduced numerator is 0
exactly when the residual vanishes: a SymbolicZero is a proof.  The group's
verdicts hold for each of its samples.  A grid parameter ranges over an
interval, so a residual that is not identically 0, or a span that is
not closed, fails at all but finitely many of its values; a choice
parameter takes only its listed values, each in a group of its own.
A wrong invariant never passes.
"""

from __future__ import annotations

import ast
import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import sympy as sp
import yaml

from .exprs import exact_number
from .fields import (CARTESIAN_COORDS, C_COORDS, D_SHIFT_COORDS, PARAM_SYMBOLS, S_COORDS, Chart,
                     chart_C, chart_D, chart_D_shift, chart_S, realize_combination)
from .liealg import L12_LABELS, Subalgebra, _rref, l12

__all__ = [
    "SubalgebraEntry",
    "VerificationReport",
    "UnknownEntryError",
    "ConstraintError",
    "catalog_ids",
    "entry_basis",
    "entry_schema",
    "get_entry",
    "parameter_samples",
    "parse",
    "verify_entry",
    "verify_invariants",
]

GRID = [sp.Rational(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2")]
UNIT_CIRCLE = [
    (sp.Integer(1), sp.Integer(0)),
    (sp.Rational(3, 5), sp.Rational(4, 5)),
    (sp.Integer(0), sp.Integer(1)),
]


class UnknownEntryError(KeyError):
    pass


class ConstraintError(ValueError):
    pass


_PARAM_SYMS = {s.name: s for s in PARAM_SYMBOLS}
_CHARTS = {"D": chart_D, "C": chart_C, "S": chart_S}
_COORDS = {"D": CARTESIAN_COORDS, "C": C_COORDS, "S": S_COORDS, "Dshift": D_SHIFT_COORDS}
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _chart(name: str, b: sp.Expr) -> Chart:
    """Chart ``name`` of catalog.yaml; ``b`` is the shift of ``Dshift``."""
    return chart_D_shift(b) if name == "Dshift" else _CHARTS[name]()


@lru_cache(maxsize=None)
def _raw_entries() -> dict[str, dict]:
    text = resources.files("gassym").joinpath("data/catalog.yaml").read_text()
    return {e["id"]: e for e in yaml.load(text, Loader=_YAML_LOADER)["entries"]}


def catalog_ids() -> list[str]:
    return list(_raw_entries().keys())


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


_FUNCTIONS = {"log": sp.log, "Abs": sp.Abs}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}


def parse(where: str, text, names: dict, gens: tuple = ()):
    """The sympy value of one data string, read off its Python ``ast``.

    The grammar is a whitelist: the symbols in ``names``, integer
    literals, binary + - * / **, unary -, calls of log and Abs, and a
    whole string ``Ne(x, y)``.  Nothing is evaluated, so no other name
    (``E``, ``I``, ``pi``, ...) becomes a sympy constant.  With ``gens``
    the string must be a linear form in those names, and its coefficient
    list is returned.  Anything else raises ValueError naming ``where``
    and the string.
    """
    def fail(why: str):
        raise ValueError(f"{where}: cannot read {text!r}: {why}")

    def combine(op, a, b):  # a linear form is a list of coefficients
        va, vb = isinstance(a, list), isinstance(b, list)
        if op is operator.truediv and not vb and b == 0:
            fail("division by zero")
        if not (va or vb):
            return op(a, b)
        if va and vb and op in (operator.add, operator.sub):
            return [op(x, y) for x, y in zip(a, b)]
        if (op is operator.mul and va != vb) or (op is operator.truediv and not vb):
            return [x if x == 0 else op(x, b) if va else a * x for x in (a if va else b)]
        fail(f"not linear in {', '.join(gens)}")

    def build(node):
        match node:
            case ast.Constant(value=int() as v) if not isinstance(v, bool):
                return sp.Integer(v)
            case ast.Name(id=name) if name in gens:
                return [sp.Integer(name == g) for g in gens]
            case ast.Name(id=name) if name in names:
                return names[name]
            case ast.UnaryOp(op=ast.USub(), operand=x):
                return [-c for c in x] if isinstance(x := build(x), list) else -x
            case ast.BinOp(left=a, op=op, right=b) if type(op) in _OPERATORS:
                return combine(_OPERATORS[type(op)], build(a), build(b))
            case ast.Call(func=ast.Name(id=f), args=[x], keywords=[]) if f in _FUNCTIONS:
                if not isinstance(x := build(x), list):
                    return _FUNCTIONS[f](x)
        fail(f"{type(node).__name__} {ast.unparse(node)!r} is outside the grammar")

    try:
        tree = ast.parse(str(text), mode="eval").body
    except SyntaxError:
        fail("syntax error")
    match tree:
        case ast.Call(func=ast.Name(id="Ne"), args=[x, y], keywords=[]) if not gens:
            value = sp.Ne(build(x), build(y))
        case _:
            value = build(tree)
    if isinstance(value, list) != bool(gens):
        fail(f"not linear in {', '.join(gens)}" if gens else "not a scalar")
    return value


@dataclass(frozen=True)
class _Row:
    """One catalog.yaml entry, parsed over the parameter symbols."""

    id: str
    basis: sp.ImmutableMatrix  # 4x12 coefficients over (Y, X1..X11)
    chart: str
    chart_b: sp.Expr
    invariants: tuple
    constraints: tuple
    grid: tuple
    choices: dict  # name -> admissible values
    unit_circle: tuple
    fixed: dict  # name -> value

    def subs(self, binding: dict) -> dict:
        """Substitution for ``binding`` over the fixed values."""
        return {_PARAM_SYMS[k]: v for k, v in {**self.fixed, **binding}.items()}

    def admits(self, binding: dict) -> bool:
        """Whether ``binding`` (over the fixed values) meets the constraints;
        raises :class:`ConstraintError` when one cannot be decided."""
        subs = self.subs(binding)
        for cond in self.constraints:
            val = cond.xreplace(subs)
            if val == sp.false:
                return False
            if val != sp.true:
                raise ConstraintError(f"cannot decide constraint '{cond}' at {subs}")
        return True


@lru_cache(maxsize=None)
def _row(entry_id: str) -> _Row:
    """The entry's strings, each parsed once; every binding of its
    parameters is then a substitution into this row."""
    schema = entry_schema(entry_id)
    raw = _raw_entries()[entry_id]
    where = f"entry {entry_id}"
    chart = raw.get("chart", "D")
    if chart not in _COORDS:
        raise ValueError(f"{where}: unknown chart {chart!r}")
    coords = {c: sp.Symbol(c) for c in _COORDS[chart]}

    def value(v):
        return parse(where, v, _PARAM_SYMS)

    return _Row(
        id=entry_id,
        basis=sp.ImmutableMatrix(
            [parse(where, b, _PARAM_SYMS, L12_LABELS) for b in raw["basis"]]
        ),
        chart=chart,
        chart_b=value(raw.get("chart_b", 0)),
        invariants=tuple(parse(where, s, coords | _PARAM_SYMS) for s in raw["invariants"]),
        constraints=tuple(value(c) for c in schema["constraints"]),
        grid=tuple(schema["grid"]),
        choices={k: tuple(value(v) for v in vs) for k, vs in schema["choices"].items()},
        unit_circle=tuple(schema["unit_circle"]),
        fixed={k: value(v) for k, v in schema["fixed"].items()},
    )


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


def get_entry(entry_id: str, **params) -> SubalgebraEntry:
    """Instantiate a catalog entry, validating parameter constraints."""
    row = _row(entry_id)
    free = row.grid + tuple(row.choices) + row.unit_circle
    binding = {}
    for k, v in params.items():
        if k not in free:
            raise ConstraintError(f"entry {entry_id} takes no parameter {k!r}")
        try:
            binding[k] = exact_number(v)
        except ValueError as exc:
            raise ConstraintError(f"entry {entry_id}, parameter {k!r}: {exc}") from None
    missing = [k for k in free if k not in binding]
    if missing:
        raise ConstraintError(f"entry {entry_id} needs parameters {missing}")
    for k, values in row.choices.items():
        if binding[k] not in values:
            raise ConstraintError(f"entry {entry_id}: {k} must be in {sp.FiniteSet(*values)}")
    if row.unit_circle:
        p, q = row.unit_circle
        if binding[p] ** 2 + binding[q] ** 2 != 1:
            raise ConstraintError(f"entry {entry_id}: {p}^2 + {q}^2 must be 1")
    if not row.admits(binding):
        full = {**row.fixed, **binding}
        raise ConstraintError(f"entry {entry_id}: constraints violated at {full}")
    return _instantiate(row, binding)


def _instantiate(row: _Row, binding: dict) -> SubalgebraEntry:
    subs = row.subs(binding)
    chart = _chart(row.chart, row.chart_b.subs(subs))
    invs = [inv.subs(subs) for inv in row.invariants]
    params = {s.name: v for s, v in subs.items()}
    return SubalgebraEntry(row.id, params, row.basis.xreplace(subs).tolist(), chart, invs)


def entry_basis(entry_id: str, binding: dict) -> list[list[sp.Expr]]:
    """Basis coefficient vectors over (Y, X1..X11) at ``binding``.

    Unlike :func:`get_entry`, the binding values may be symbolic, which
    is how sign-split parameters reach the classification checks.
    """
    row = _row(entry_id)
    return row.basis.xreplace(row.subs(binding)).tolist()


def parameter_bindings(entry_id: str, grid_values) -> list[dict]:
    """Free-parameter bindings of an entry that satisfy its constraints.

    The axes are the unit-circle points, then ``grid_values(name)`` for
    each grid parameter, then each choice parameter's listed values.
    Fixed values are not in the bindings, but the constraints see them.
    Raises :class:`ConstraintError` when a constraint cannot be decided.
    """
    row = _row(entry_id)
    axes = [[dict(zip(row.unit_circle, s)) for s in UNIT_CIRCLE]] if row.unit_circle else []
    axes += [[{name: v} for v in grid_values(name)] for name in row.grid]
    axes += [[{name: v} for v in values] for name, values in row.choices.items()]
    bindings = ({k: v for part in combo for k, v in part.items()}
                for combo in itertools.product(*axes))
    return [b for b in bindings if row.admits(b)]


def parameter_samples(entry_id: str) -> list[dict]:
    """Admissible parameter grid for an entry, fixed values included."""
    fixed = _row(entry_id).fixed
    return [{**fixed, **b} for b in parameter_bindings(entry_id, lambda _: GRID)]


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

    @property
    def passed(self) -> bool:
        """Closure, rank 5 and every verdict SymbolicZero, for the symbolic
        verdicts and for each sample."""
        reports = [vars(self), *self.samples]
        return all(r["closure_ok"] and r["rank"] == 5
                   and set(r["verdicts"].values()) <= {"SymbolicZero"} for r in reports)


def _rank_point(coords: list) -> dict:
    """The one rational point of the rank check: the k-th coordinate
    (from 0) at (k + 3)/(k + 2), off every pole of the catalog."""
    return {c: sp.Rational(k + 3, k + 2) for k, c in enumerate(coords)}


def _group_ranks(jac: sp.Matrix, coords: list, grids: list[dict]) -> list[int]:
    """Exact generic rank of the invariant Jacobian over QQ(coords), for
    each substitution in ``grids`` of the grid symbols.  The invariants
    use only ``log``, so the entries are rational, and the rank at a point
    is a lower bound on the generic rank: rank 5 at ``_rank_point`` proves
    it.  The point is substituted once, then each grid.  Below 5, or on a
    pole, the rref of ``jac`` at the grid over QQ(coords) decides."""
    at_point = jac.xreplace(_rank_point(coords))
    ranks = []
    for grid in grids:
        J = at_point.xreplace(grid)
        if J.has(sp.zoo, sp.nan) or (rank := len(_rref(J)[1])) < jac.rows:
            rank = len(_rref(jac.xreplace(grid))[1])
        ranks.append(rank)
    return ranks


def _verify_group(entry: SubalgebraEntry, bindings: list[dict]) -> list[dict]:
    """Closure, annihilation verdicts and rank of ``entry`` at each binding
    of its symbolic parameters (all bindings share one set of names).

    The invariant Jacobian (rho included) is taken once, its nonzero entries
    lifted into the chart's field: each verdict is a row of it along a
    generator.  Closure and the verdicts are decided once, over the symbols.
    Per binding only the ranks are checked: the basis is closed there when
    the symbolic span is closed and the substituted basis keeps its dimension.
    Returns one report per binding.
    """
    sub = entry.subalgebra()
    closed = sub.is_closed()[0]
    ring, coords = entry.chart.ring, [sp.Symbol(c) for c in entry.chart.coords]
    invariants = [*entry.invariants, sp.Symbol("rho")]
    jac = sp.Matrix(invariants).jacobian(coords)
    rows = []
    for inv, jrow in zip(invariants, jac.tolist()):
        try:
            rows.append([(c.name, ring.element(e)) for c, e in zip(coords, jrow) if e != 0])
        except ValueError:
            raise ValueError(f"entry {entry.id}: invariant {inv} has a Jacobian entry "
                             "that is not rational in the chart's field") from None
    verdicts = {
        (gi, ii): "SymbolicZero" if ring.is_zero(
            sum((F[c] * e for c, e in row if F[c]), ring.field.zero)) else "NonZero"
        for gi, F in enumerate(g.coeffs for g in entry.realized_basis())
        for ii, row in enumerate(rows)
    }
    grids = [{_PARAM_SYMS[n]: v for n, v in b.items()} for b in bindings]
    reports = []
    for grid, rank in zip(grids, _group_ranks(jac, coords, grids)):
        here = Subalgebra(l12(), sub.basis.xreplace(grid))
        reports.append({"closure_ok": closed and here.rank == here.dim,
                        "verdicts": verdicts, "rank": rank})
    return reports


def verify_invariants(entry: SubalgebraEntry) -> VerificationReport:
    """Closure + annihilation + independence for one instantiated entry."""
    coords = {sp.Symbol(c) for c in entry.chart.coords}
    if any(v.free_symbols - coords for v in entry.invariants):
        raise ConstraintError("rank requires numeric parameters")
    [rep] = _verify_group(entry, [{}])
    return VerificationReport(entry.id, rep["closure_ok"], rep["verdicts"], rep["rank"])


def verify_entry(entry_id: str) -> VerificationReport:
    """Full verification campaign for one catalog id.

    Every admissible sample is checked, in one group per unit-circle
    point and choice value with the grid parameters left as symbols.
    Each sample carries its group's verdicts; the entry's verdict is
    NonZero where any sample's is, and its rank is the least sample rank.
    """
    row = _row(entry_id)
    groups: dict[tuple, list[dict]] = {}
    for binding in parameter_samples(entry_id):
        key = tuple(binding[n] for n in row.unit_circle + tuple(row.choices))
        groups.setdefault(key, []).append(binding)

    samples = []
    for bindings in groups.values():
        entry = _instantiate(row, {**bindings[0], **{n: _PARAM_SYMS[n] for n in row.grid}})
        reports = _verify_group(entry, [{n: b[n] for n in row.grid} for b in bindings])
        for binding, rep in zip(bindings, reports):
            samples.append({"params": {k: str(v) for k, v in binding.items()}, **rep})

    return VerificationReport(
        entry_id=entry_id,
        closure_ok=all(s["closure_ok"] for s in samples),
        verdicts={key: "NonZero" if any(s["verdicts"][key] == "NonZero" for s in samples)
                  else "SymbolicZero" for key in samples[0]["verdicts"]},
        rank=min(s["rank"] for s in samples),
        samples=samples,
    )
