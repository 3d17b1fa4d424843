"""The four-dimensional subalgebra catalog and its machine verification.

Entries live in ``data/catalog.yaml`` so they can be reviewed line by
line.  Each entry is parsed once, on first use, into a row cached per
id: the basis coefficient matrix over the parameter symbols, the chart,
the constraints, the parameter values and the invariant strings.  The
strings of both data files are read by :func:`parse`, a whitelist over
Python's ``ast`` that evaluates nothing, and a basis element is read
off its tree as a coefficient vector.  Every binding of the parameters,
numeric or symbolic, is a substitution into that row; the invariant
strings are read at each binding straight into its chart's field, so a
verdict builds no sympy expression (``SubalgebraEntry.invariants`` parses
them only when read).  Verification of an entry checks three things:

  * the basis spans a subalgebra (closure under the bracket, exact);
  * each listed invariant (plus the implicit density) is annihilated by
    every basis generator realized in the entry's chart;
  * the five invariants are functionally independent: their Jacobian
    has rank 5 over QQ(coordinates), decided exactly.

One core, ``_verify_group``, does all three for an instantiated entry at
a list of bindings of its grid parameters (a single entry is ``[{}]``),
from its basis and invariant gradients read once into the chart's field.
A catalog id is one group per unit-circle point and choice value, the
grid parameters left as symbols: closure and the residuals are decided
once per group, and one rank routine ranks the invariant Jacobian and
the basis at each sample.  :func:`verify_entries` verifies many ids, one
task per chart family, in forked workers when more than one CPU is usable.

Every annihilation verdict is exact.  A residual sum_i B_ki L_{X_i} I lives
in the chart's field over the coordinates, the bare angles with their sin
and cos, and the parameters; ``Chart.is_zero`` reduces its numerator modulo
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
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources

import sympy as sp
import yaml
from sympy.polys.matrices import DomainMatrix

from .exprs import exact_number
from .fields import (CARTESIAN_COORDS, C_COORDS, D_SHIFT_COORDS, PARAM_SYMBOLS, S_COORDS, Chart,
                     chart_C, chart_D, chart_D_shift, chart_S, evaluate, realize, realize_combination)
from .liealg import L12_LABELS, Subalgebra, _rref, l12

__all__ = [
    "SubalgebraEntry",
    "VerificationReport",
    "UnknownEntryError",
    "ConstraintError",
    "DataError",
    "catalog_ids",
    "entry_basis",
    "entry_schema",
    "get_entry",
    "parameter_samples",
    "parse",
    "verify_entries",
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


class DataError(ValueError):
    """A string or row of the data files that the verifier refuses."""


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


def parse(where: str, text, names: dict, gens: tuple = (), field=None):
    """The sympy value of one data string, read off its Python ``ast``.

    The grammar is a whitelist: the symbols in ``names``, integer
    literals, binary + - * / **, unary -, calls of log and Abs, and a
    whole string ``Ne(x, y)``.  Nothing is evaluated, so no other name
    (``E``, ``I``, ``pi``, ...) becomes a sympy constant.  With ``gens``
    the string must be a linear form in those names, and its coefficient
    list is returned.  With a chart's ``field`` the names and the value
    are terms (:func:`_combine_terms`).  Every constant is real and
    rational: an exponent must be an integer literal, possibly negated, and
    a log's argument must involve a coordinate, not the parameters alone.
    Anything outside the grammar, a zero divisor (``0**(-1)``), a log of zero
    or of a constant (``log(-1)``, ``log(a)``, ``log(t/t)``) or another
    exponent (``2**(1/2)``) raises :class:`DataError` naming ``where`` and
    the string.
    """
    def fail(why: str):
        raise DataError(f"{where}: cannot read {text!r}: {why}")

    number = (lambda v: (field(v), ())) if field else sp.Integer
    functions = _FUNCTIONS if not field else {  # the log of a nonzero rational term is a log term
        "Abs": lambda x: None,
        "log": lambda x: None if x is None or x[1] else (field.zero, ((field.one, x[0]),))}

    def constant(x) -> bool:  # of the parameters alone
        if not field:
            return x.free_symbols <= set(PARAM_SYMBOLS)
        return x is not None and not x[1] and not _has_coordinate(x[0])

    def combine(op, a, b):  # a linear form is a list of coefficients
        va, vb = isinstance(a, list), isinstance(b, list)
        if op is operator.truediv and not vb and b == number(0):
            fail("division by zero")
        if field:
            try:
                return _combine_terms(op, a, b)
            except ZeroDivisionError:  # 0**n, n < 0
                fail("division by zero")
        if not (va or vb):
            if (value := op(a, b)) is sp.zoo:  # 0**n, n < 0
                fail("division by zero")
            return value
        if va and vb and op in (operator.add, operator.sub):
            return [op(x, y) for x, y in zip(a, b)]
        if (op is operator.mul and va != vb) or (op is operator.truediv and not vb):
            return [x if x == 0 else op(x, b) if va else a * x for x in (a if va else b)]
        fail(f"not linear in {', '.join(gens)}")

    def build(node):
        match node:
            case ast.Constant(value=int() as v) if not isinstance(v, bool):
                return number(v)
            case ast.Name(id=name) if name in gens:
                return [sp.Integer(name == g) for g in gens]
            case ast.Name(id=name) if name in names:
                return names[name]
            case ast.UnaryOp(op=ast.USub(), operand=x):
                return combine(operator.mul, build(x), number(-1))
            case ast.BinOp(left=a, op=op, right=b) if type(op) in _OPERATORS:
                value = combine(_OPERATORS[type(op)], build(a), build(b))
                if isinstance(op, ast.Pow) and not _is_integer_literal(b):
                    fail(f"exponent {ast.unparse(b)!r} is not an integer")
                return value
            case ast.Call(func=ast.Name(id=f), args=[arg], keywords=[]) if f in _FUNCTIONS:
                if not isinstance(x := build(arg), list):
                    if f == "log" and x == number(0):
                        fail("log of zero")
                    if f == "log" and constant(x):
                        fail(f"log of the constant {ast.unparse(arg)!r}")
                    return functions[f](x)
        fail(f"{type(node).__name__} {ast.unparse(node)!r} is outside the grammar")

    try:
        tree = ast.parse(str(text), mode="eval").body
    except SyntaxError:
        fail("syntax error")
    match tree:
        case ast.Call(func=ast.Name(id="Ne"), args=[x, y], keywords=[]) if not gens:
            x, y = build(x), build(y)
            value = None if field else sp.Ne(x, y)
        case _:
            value = build(tree)
    if isinstance(value, list) != bool(gens):
        fail(f"not linear in {', '.join(gens)}" if gens else "not a scalar")
    return value


def _has_coordinate(f) -> bool:
    """Whether a chart field's element involves a coordinate (its first generators)."""
    n = len(f.field.gens) - len(PARAM_SYMBOLS)
    return any(any(p.degrees()[:n]) for p in (f.numer, f.denom))


def _is_integer_literal(node) -> bool:
    """Whether ``node`` is an integer literal, possibly negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _combine_terms(op, a, b):
    """``op`` on two terms: r + sum c*log(g) over a chart's field as the pair
    (r, ((c, g), ...)) that ``Chart.gradient`` differentiates, or None for a
    value of another form (a log of a log or in a divisor, a product of
    logs, a power that is no integer, Abs)."""
    if a is None or b is None:
        return None
    (r, p), (s, q) = (b, a) if op is operator.mul and a[1] else (a, b)  # logs in the second factor
    if op in (operator.add, operator.sub):
        return op(r, s), p + tuple((c if op is operator.add else -c, g) for c, g in q)
    if op is operator.mul and not p:
        return r * s, tuple((r * c, g) for c, g in q)
    if op is operator.truediv and not q:
        return r / s, tuple((c / s, g) for c, g in p)
    if op is operator.pow and not (p or q) and s.numer.is_ground and s.denom.is_ground:
        n = s.numer.LC / s.denom.LC  # the exponent, a rational
        if n < 0 and not r:
            raise ZeroDivisionError  # 0**n, n < 0
        if n != int(n):
            return None
        return (r**int(n) if r or n else r.field.one, ())  # 0**0 is 1, as sympy reads it
    return None


class _Invariants:
    """A row's invariant strings at ``subs``: indexed, sympy expressions,
    parsed over ``names`` on first use.  Given the entry's ``chart``, each is
    read at once into its field as a term of ``Chart.gradient`` (``terms``);
    the expression stands in for a string of another form."""

    def __init__(self, where: str, texts: tuple, names: dict, subs=None, chart=None):
        self.where, self.texts, self.names, self.subs = where, texts, names, subs or {}
        if chart is not None:
            K = chart.field
            bound = {k: (g, ()) for k, g in chart.gens.items()} | {
                s.name: (chart.element(v), ()) if v.is_Rational or v in K.symbols else None
                for s, v in self.subs.items()}
            terms = [parse(where, s, bound, field=K) for s in texts]
            self.terms = [t if t and not any(_has_coordinate(c) for c, _ in t[1]) else self[i]
                          for i, t in enumerate(terms)]

    @cached_property
    def _exprs(self) -> tuple:
        return tuple(parse(self.where, s, self.names).subs(self.subs) for s in self.texts)

    def __getitem__(self, i):
        return self._exprs[i]

    def __len__(self) -> int:
        return len(self.texts)


@dataclass(frozen=True)
class _Row:
    """One catalog.yaml entry, parsed over the parameter symbols."""

    id: str
    basis: sp.ImmutableMatrix  # 4x12 coefficients over (Y, X1..X11)
    chart: str
    chart_b: sp.Expr
    invariants: _Invariants  # or a tuple of sympy expressions
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
    """The entry's strings, each parsed once, but for the invariants: each
    binding reads them into its chart's field (:class:`_Invariants`)."""
    schema = entry_schema(entry_id)
    raw = _raw_entries()[entry_id]
    where = f"entry {entry_id}"
    chart = raw.get("chart", "D")
    if chart not in _COORDS:
        raise DataError(f"{where}: unknown chart {chart!r}")
    coords = {c: sp.Symbol(c) for c in _COORDS[chart]}

    def value(v):
        return parse(where, v, _PARAM_SYMS)

    return _Row(
        id=entry_id,
        basis=sp.ImmutableMatrix([parse(where, b, _PARAM_SYMS, L12_LABELS) for b in raw["basis"]]),
        chart=chart,
        chart_b=value(raw.get("chart_b", 0)),
        invariants=_Invariants(where, tuple(raw["invariants"]), coords | _PARAM_SYMS),
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
    invariants: _Invariants  # the four listed ones, or a list of expressions (rho is implicit)

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
    chart, invs = _chart(row.chart, row.chart_b.subs(subs)), row.invariants
    invs = (_Invariants(invs.where, invs.texts, invs.names, subs, chart) if isinstance(invs, _Invariants)
            else [inv.subs(subs) for inv in invs])  # a row whose invariants are expressions
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
    (from 0) at (k + 3)/(k + 2), off every pole of the catalog, and
    (sin, cos) of each at (4/5, 3/5), a generic point of the circle."""
    return {g: sp.Rational(*v) for k, c in enumerate(coords)
            for g, v in ((c, (k + 3, k + 2)), (sp.sin(c), (4, 5)), (sp.cos(c), (3, 5)))}


def _group_ranks(chart: Chart, matrices: list, grids: list[dict]) -> list[list[int]]:
    """Exact rank over QQ(coords) of each of ``matrices`` (rows of chart field
    elements) at each substitution in ``grids`` of the grid symbols.  Full row
    rank at ``_rank_point`` (numerators and denominators evaluated over QQ)
    proves it, as the rank at a point bounds it below.  Otherwise, or on a
    pole, the rref over the chart's field, the grid values substituted, decides."""
    point, ranks = {g: sp.QQ.convert(v) for g, v in _rank_point(chart.symbols).items()}, []
    for grid in grids:
        at = [sp.QQ.convert(grid[g]) if g in grid else point.get(g, sp.QQ.zero) for g in chart.field.symbols]
        ranks.append([])
        for M in matrices:
            try:  # a zero denominator is a pole
                J = [[evaluate(f, at) if f else sp.QQ.zero for f in row] for row in M]
                rank = len(_rref(DomainMatrix(J, (len(M), len(M[0])), sp.QQ))[1])
            except ZeroDivisionError:
                rank = 0
            if rank < len(M):
                sub = [(chart.gens[g.name], sp.QQ.convert(v)) for g, v in grid.items()]
                J = [[f.subs(sub) if sub else f for f in row] for row in M]
                rank = len(_rref(DomainMatrix(J, (len(M), len(M[0])), chart.field.to_domain()))[1])
            ranks[-1].append(rank)
    return ranks


def _verify_group(entry: SubalgebraEntry, bindings: list[dict]) -> list[dict]:
    """Closure, annihilation verdicts and rank of ``entry`` at each binding
    of its symbolic parameters (all bindings share one set of names).

    The basis and each invariant I (rho included) are read once into the
    chart's field, which contains QQ(params): closure is one exact solve
    there, and I is differentiated there (``Chart.gradient``).  By linearity
    the verdict of basis element k is sum_i B_ki L_{X_i} I over the cached
    ``realize(X_i, chart)``, one ``Chart.combination`` decided by ``Chart.is_zero``.
    Both are decided once, over the symbols.  Per binding ``_group_ranks``
    ranks the Jacobian and the basis: the basis is closed there when the
    symbolic span is closed and keeps its dimension.  One report per binding.
    """
    chart, terms = entry.chart, getattr(entry.invariants, "terms", entry.invariants)
    try:  # apart from the invariants, whose message names an invariant
        basis = [[chart.element(b) for b in v] for v in entry.basis]
    except ValueError:  # a coefficient such as Abs(a)
        raise DataError(f"entry {entry.id}: basis {entry.basis} is not rational in the parameters") from None
    closed = Subalgebra(l12(), DomainMatrix(basis, (4, 12), chart.field.to_domain())).is_closed()[0]
    try:
        grads = [chart.gradient(t) for t in [*terms, (chart.gens["rho"], ())]]
    except ValueError as exc:
        raise DataError(f"entry {entry.id}: invariant {exc}") from None
    used = [i for i in range(len(L12_LABELS)) if any(v[i] for v in basis)]
    lie = {(i, j): chart.combination(zip(realize(L12_LABELS[i], chart).coeffs.values(), grad))
           for i in used for j, grad in enumerate(grads)}
    verdicts = {(k, j): "SymbolicZero" if chart.is_zero(chart.combination((v[i], lie[i, j]) for i in used))
                else "NonZero" for k, v in enumerate(basis) for j in range(len(grads))}
    grids = [{_PARAM_SYMS[n]: v for n, v in b.items()} for b in bindings]
    return [{"closure_ok": closed and basis_rank == 4, "verdicts": verdicts, "rank": rank}
            for rank, basis_rank in _group_ranks(chart, [grads, basis], grids)]


def verify_invariants(entry: SubalgebraEntry) -> VerificationReport:
    """Closure + annihilation + independence for one instantiated entry."""
    invs = entry.invariants
    if (any(not v.is_number for v in invs.subs.values()) if isinstance(invs, _Invariants)
            else any(v.free_symbols - set(entry.chart.symbols) for v in invs)):
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


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def fork_cpus() -> int:
    """The CPUs that processes forked from this one may use: the usable CPUs
    where ``os.fork`` exists and no other thread runs, else 1.  A fork
    copies only the calling thread, so beside another one it may copy a
    lock that thread holds."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _usable_cpus()


def _chart_tasks(ids: list[str]) -> list[tuple[str, ...]]:
    """The ids grouped by their catalog.yaml chart family (C, D, Dshift,
    S), each id once, so that the charts and realized generators of the
    family's charts are built in one task.  Longest first: ranked by the
    ids' unit-circle points times choice values, the number of sample
    groups before the constraints drop any."""
    families: dict[str, list[str]] = {}
    for eid in dict.fromkeys(ids):
        families.setdefault(_raw_entries()[eid].get("chart", "D"), []).append(eid)

    def groups(eid: str) -> int:
        schema = entry_schema(eid)
        points = len(UNIT_CIRCLE) if schema["unit_circle"] else 1
        return points * math.prod(len(v) for v in schema["choices"].values())

    tasks = [tuple(family) for family in families.values()]
    return sorted(tasks, key=lambda task: -sum(map(groups, task)))


def _verify_task(ids: tuple[str, ...]) -> list[VerificationReport]:
    return [verify_entry(eid) for eid in ids]


def verify_entries(ids: list[str]) -> list[VerificationReport]:
    """:func:`verify_entry` of each id, in the order of ``ids``.

    No entry's verdict reads another's, so the chart families of
    :func:`_chart_tasks` are independent tasks.  With more than one task
    and more than one of :func:`fork_cpus`, they run in a pool of
    min(tasks, CPUs) workers forked from this process: a fork shares the
    import-time heap copy-on-write, where a spawned worker would import
    sympy again.  Otherwise the same tasks run here, one after another.
    """
    tasks = _chart_tasks(ids)
    workers = min(len(tasks), fork_cpus())
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = pool.map(_verify_task, tasks, chunksize=1)
            pool.close()  # let the workers exit on their own, not by SIGTERM
            pool.join()
    else:
        done = map(_verify_task, tasks)
    reports = {rep.entry_id: rep for reps in done for rep in reps}
    return [reports[eid] for eid in ids]
