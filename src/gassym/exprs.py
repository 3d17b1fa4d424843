"""Exact symbolic expression layer.

Expressions are plain immutable sympy objects over exact rationals.  This
module pins down the handful of operations the rest of the package relies
on: opaque functions whose derivatives ``sp.diff`` takes by the chain rule,
a canonical form strong enough to reduce every residual we care about to
a literal 0, numeric evaluation with explicit bindings, exact rationals,
and a zero test with a seeded numeric fallback.  That sampled test,
``is_zero``, serves only the mutation checks of acceptance gate 8; no
campaign calls it, since every campaign verdict is exact.

Conventions:
  * ``log`` always means ``ln|.|``; numeric evaluation applies ``abs`` to
    the argument, and ``d log(x) = dx/x`` holds on each branch.
  * Opaque function symbols (the state function ``f`` and its derivatives)
    are created with :func:`opaque`; differentiation produces the next
    derivative order via the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import sympy as sp
from sympy.core.sorting import default_sort_key

__all__ = [
    "Assignment",
    "DomainError",
    "UnboundSymbolError",
    "ZeroVerdict",
    "canonicalize",
    "evaluate",
    "exact_number",
    "is_zero",
    "opaque",
    "to_sexpr",
]

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_NUM_POINTS = 100


class UnboundSymbolError(KeyError):
    """A free symbol of the expression has no binding."""


class DomainError(ValueError):
    """Evaluation hit a singular point (division by zero, log of zero)."""


# --------------------------------------------------------------------------
# opaque function symbols


class _Opaque(sp.Function):
    base_name: str = ""
    diff_order: int = 0

    def fdiff(self, argindex=1):
        return opaque(self.base_name, self.diff_order + 1)(self.args[0])


_opaque_cache: dict[tuple[str, int], type] = {}


def opaque(name: str, order: int = 0):
    """Unary opaque function symbol ``name``, or its ``order``-th derivative.

    ``opaque("f")(rho)`` stands for f(rho) with f arbitrary;
    ``opaque("f", 1)`` is f'.  Chain rule is wired in, so
    ``diff(f(g), x) == f'(g) * diff(g, x)``.
    """
    key = (name, order)
    cls = _opaque_cache.get(key)
    if cls is None:
        display = name + "'" * order
        cls = type(display, (_Opaque,), {"base_name": name, "diff_order": order})
        _opaque_cache[key] = cls
    return cls


# --------------------------------------------------------------------------
# core operations


def canonicalize(e) -> sp.Expr:
    """Canonical form: flatten/sort/fold, rational normal form, and the
    Pythagorean reduction sin^2 + cos^2 -> 1.

    Trig arguments are first expanded to single angles; even powers of
    sine are then rewritten through cosine, which is a confluent reduction
    modulo the Pythagorean ideal.  Idempotent; two expressions equal under
    ring axioms plus the Pythagorean relation map to the same tree.
    """
    e = sp.sympify(e, strict=True)
    if e.has(sp.sin, sp.cos):
        e = sp.expand_trig(e)
        num, den = sp.fraction(sp.together(e))
        e = sp.cancel(_sin_reduce(num) / _sin_reduce(den))
    else:
        e = sp.cancel(sp.expand(e))
    return e


def _sin_reduce(p: sp.Expr) -> sp.Expr:
    """Rewrite sin(x)**n (n >= 2) as (1 - cos(x)**2)**(n//2) * sin(x)**(n%2)."""
    p = sp.expand(p)
    repl = {}
    for pw in p.atoms(sp.Pow):
        if (
            isinstance(pw.base, sp.sin)
            and pw.exp.is_Integer
            and pw.exp >= 2
        ):
            x = pw.base.args[0]
            k, r = divmod(int(pw.exp), 2)
            repl[pw] = (1 - sp.cos(x) ** 2) ** k * sp.sin(x) ** r
    if repl:
        p = sp.expand(p.xreplace(repl))
    return p


@dataclass(frozen=True)
class Assignment:
    """Numeric bindings for evaluation.

    ``values`` maps symbol names to floats; ``functions`` maps
    ``(base_name, derivative_order)`` to numeric callbacks.
    """

    values: Mapping[str, float]
    functions: Mapping[tuple[str, int], Callable[[float], float]] = field(
        default_factory=dict
    )


def evaluate(e, a: Assignment) -> float:
    """IEEE-double evaluation of ``e`` under ``a``.

    ``log`` is applied to the absolute value of its argument.  Raises
    :class:`UnboundSymbolError` naming the missing symbol, and
    :class:`DomainError` on division by zero, log/sqrt domain hits and
    any ``zoo``, ``nan`` or infinite node or value.
    """
    return _eval(sp.sympify(e, strict=True), a)


def _eval(e, a: Assignment) -> float:
    if e is sp.zoo:
        raise DomainError("complex infinity")
    try:
        val = _eval_node(e, a)
    except OverflowError:  # float ** raises where * gives inf
        raise DomainError(f"overflow in {e}") from None
    if not math.isfinite(val):
        raise DomainError(f"non-finite value {val} of {e}")
    return val


def _eval_node(e, a: Assignment) -> float:
    if e.is_Number:
        return float(e)
    if e.is_Symbol:
        name = e.name
        if name not in a.values:
            raise UnboundSymbolError(f"unbound symbol {name!r}")
        return float(a.values[name])
    if e.is_Add:
        return math.fsum(_eval(t, a) for t in e.args)
    if e.is_Mul:
        out = 1.0
        for t in e.args:
            out *= _eval(t, a)
        return out
    if e.is_Pow:
        base = _eval(e.base, a)
        exp = _eval(e.exp, a)
        if base == 0.0 and exp < 0:
            raise DomainError(f"division by zero in {e}")
        if base < 0 and not float(exp).is_integer():
            raise DomainError(f"fractional power of negative base in {e}")
        return base**exp
    if isinstance(e, sp.log):
        arg = _eval(e.args[0], a)
        if arg == 0.0:
            raise DomainError(f"log of zero in {e}")
        return math.log(abs(arg))
    if isinstance(e, sp.sin):
        return math.sin(_eval(e.args[0], a))
    if isinstance(e, sp.cos):
        return math.cos(_eval(e.args[0], a))
    if isinstance(e, sp.Abs):
        return abs(_eval(e.args[0], a))
    if isinstance(e, _Opaque):
        key = (e.base_name, e.diff_order)
        fn = a.functions.get(key)
        if fn is None:
            raise UnboundSymbolError(
                f"unbound opaque function {e.base_name!r} of order {e.diff_order}"
            )
        return float(fn(_eval(e.args[0], a)))
    raise TypeError(f"cannot evaluate node {type(e).__name__}: {e}")


class ZeroVerdict:
    """Outcome of :func:`is_zero`."""

    SYMBOLIC_ZERO = "SymbolicZero"
    NUMERIC_ZERO = "NumericZero"
    NON_ZERO = "NonZero"
    UNDECIDED = "Undecided"  # no sample point could be evaluated

    def __init__(self, kind: str, witness: dict | None = None):
        self.kind = kind
        self.witness = witness

    def __bool__(self) -> bool:
        return self.kind in (self.SYMBOLIC_ZERO, self.NUMERIC_ZERO)

    def __eq__(self, other):
        if isinstance(other, str):
            return self.kind == other
        return isinstance(other, ZeroVerdict) and self.kind == other.kind

    def __repr__(self):
        if self.witness is not None:
            return f"ZeroVerdict({self.kind}, witness={self.witness})"
        return f"ZeroVerdict({self.kind})"


def is_zero(
    e,
    dom: Mapping[str, tuple[float, float]] | None = None,
    *,
    functions: Mapping[tuple[str, int], Callable[[float], float]] | None = None,
    tol: float = DEFAULT_ZERO_TOL,
    seed: int = 0,
) -> ZeroVerdict:
    """Zero test: symbolic first, seeded sampling fallback.

    ``dom`` gives one interval per free symbol, chosen off the singular
    locus.  Each jet f^(k)(g) of an opaque function without a ``functions``
    override becomes a symbol of its own, one per distinct (k, g), sampled
    like a coordinate: a pass then holds for every smooth f.  The
    fallback evaluates at ``DEFAULT_NUM_POINTS`` pseudo-random points,
    skipping points outside the domain, and returns NonZero with a witness
    point if some |value| >= ``tol``, NumericZero if at least one point
    evaluated, and Undecided (falsy) if none did.
    """
    e = canonicalize(e)
    if e == 0:
        return ZeroVerdict(ZeroVerdict.SYMBOLIC_ZERO)
    if e.is_Number:
        return ZeroVerdict(ZeroVerdict.NON_ZERO, witness={"value": float(e)})
    if dom is None:
        dom = {}
    import numpy as np  # only the sampling fallback needs it

    funcs = functions or {}
    jets = sorted(
        (j for j in e.atoms(_Opaque) if (j.base_name, j.diff_order) not in funcs),
        key=default_sort_key,
    )
    e = e.xreplace({j: sp.Symbol(f"{j}#{i}") for i, j in enumerate(jets)})
    free = sorted(e.free_symbols, key=lambda s: s.name)
    rng = np.random.default_rng(seed)
    evaluated = False
    for _ in range(DEFAULT_NUM_POINTS):
        point = {}
        for s in free:
            lo, hi = dom.get(s.name, (0.5, 1.5))
            point[s.name] = float(rng.uniform(lo, hi))
        try:
            val = evaluate(e, Assignment(point, funcs))
        except DomainError:
            continue
        if abs(val) >= tol:
            return ZeroVerdict(
                ZeroVerdict.NON_ZERO, witness={"point": point, "value": val}
            )
        evaluated = True
    return ZeroVerdict(ZeroVerdict.NUMERIC_ZERO if evaluated else ZeroVerdict.UNDECIDED)


# --------------------------------------------------------------------------
# serialization


def to_sexpr(e) -> str:
    """Deterministic S-expression text form (for report embedding)."""
    return _sexpr(canonicalize(e))


def _sexpr(e) -> str:
    if e.is_Symbol:
        return e.name
    if e.is_Integer:
        return str(int(e))
    if e.is_Rational:
        return f"{e.p}/{e.q}"
    if e.is_Float:
        return repr(float(e))
    if e.is_Add or e.is_Mul:
        op = "+" if e.is_Add else "*"
        parts = sorted((_sexpr(t) for t in e.args), key=str)
        return f"({op} " + " ".join(parts) + ")"
    if e.is_Pow:
        return f"(^ {_sexpr(e.base)} {_sexpr(e.exp)})"
    if isinstance(e, sp.log):
        return f"(ln {_sexpr(e.args[0])})"
    if isinstance(e, (sp.sin, sp.cos)):
        return f"({type(e).__name__} {_sexpr(e.args[0])})"
    if isinstance(e, _Opaque):
        return f"({e.base_name}^({e.diff_order}) {_sexpr(e.args[0])})"
    raise TypeError(f"cannot serialize node {type(e).__name__}: {e}")


# CPython's default limit on the digits of an int read from text
_MAX_EXPONENT = 4300


def exact_number(v) -> sp.Expr:
    """A caller's number, exactly.  A sympy ``Rational``, or an expression
    with free symbols, is returned as it is.  Anything else, sympy
    ``Float`` included, is read by ``Fraction`` from its decimal text
    ``str(v)``: ``0.6`` is 3/5, and a float is the number it prints as.
    Nothing is guessed or evaluated, so ``sqrt(2)``, ``pi``, ``inf`` and
    any text that is not a number literal raise ``ValueError``.  So does a
    decimal exponent beyond +-4300, CPython's default limit on the digits
    of an int read from text, before ``Fraction`` builds its power of 10."""
    if isinstance(v, sp.Basic) and (v.is_Rational or v.free_symbols):
        return v
    _, e, exponent = str(v).lower().partition("e")
    try:
        if e and abs(int(exponent)) > _MAX_EXPONENT:
            raise ValueError
        return rational(Fraction(str(v)))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{v!r} is not a number literal") from None


def rational(p, q=1) -> sp.Rational:
    """Exact rational constant in lowest terms."""
    if isinstance(p, Fraction):
        return sp.Rational(p.numerator, p.denominator)
    return sp.Rational(p, q)
