"""Exact symbolic expression layer.

Expressions are plain immutable sympy objects over exact rationals.  This
module pins down the handful of operations the rest of the package relies
on: opaque functions whose derivatives ``sp.diff`` takes by the chain rule,
the Pythagorean relations and the reduction modulo them (shared with the
charts' fields in ``fields``), a reduced form of an expression in the field
over its atoms, numeric evaluation, exact rationals, and a zero test with
a seeded numeric fallback.  That sampled test, ``is_zero``, serves only the
mutation checks of acceptance gate 8; no campaign calls it, since every
campaign verdict is exact.  It takes no chosen f: each jet f^(k)(g) is
sampled as a value of its own, so a pass holds for every smooth f.

Conventions:
  * ``log`` always means ``ln|.|``; numeric evaluation applies ``abs`` to
    the argument, and ``d log(x) = dx/x`` holds on each branch.
  * Opaque function symbols (the state function ``f`` and its derivatives)
    are created with :func:`opaque`; differentiation produces the next
    derivative order via the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import sympy as sp
from sympy.core.sorting import default_sort_key
from sympy.polys.fields import sfield

__all__ = [
    "DomainError",
    "ZeroVerdict",
    "canonicalize",
    "evaluate",
    "exact_number",
    "is_zero",
    "opaque",
    "pythagorean_ideal",
]

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_NUM_POINTS = 100


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


def pythagorean_ideal(ring) -> list:
    """sin(a)**2 + cos(a)**2 - 1 for each pair of generators sin(a), cos(a)
    of a polynomial ``ring``.  In any monomial order their leading terms are
    powers of distinct generators, so they are a Groebner basis (Buchberger's
    first criterion) and ``rem`` by them is 0 exactly on their ideal."""
    gens = dict(zip(ring.symbols, ring.gens))
    return [g**2 + gens[sp.cos(s.args[0])] ** 2 - 1 for s, g in gens.items()
            if isinstance(s, sp.sin) and sp.cos(s.args[0]) in gens]


def canonicalize(e) -> sp.Expr:
    """``e`` with trig arguments expanded to single angles, read into the
    field over QQ whose generators are its atoms (symbols, sin and cos, log,
    Abs, jets of f) and reduced there.  Idempotent.  Equal expressions need
    not give one tree ((1 - cos(x)**2)/sin(x) and sin(x) stay apart): test
    equality through the difference, which reduces to 0 exactly when it
    lies in the Pythagorean ideal with the atoms taken as independent."""
    e = sp.expand_trig(sp.sympify(e, strict=True))
    K, f = sfield(e, domain=sp.QQ)
    ideal = pythagorean_ideal(K.ring)
    return (f.new(f.numer.rem(ideal), f.denom.rem(ideal)) if ideal else f).as_expr()


def evaluate(e, values: Mapping[str, float]) -> float:
    """IEEE-double evaluation of ``e`` with each free symbol at its value
    in ``values``, keyed by name.

    ``log`` is applied to the absolute value of its argument.  Raises
    :class:`DomainError` on division by zero, log/sqrt domain hits and
    any ``zoo``, ``nan`` or infinite node or value.
    """
    return _eval(sp.sympify(e, strict=True), values)


def _eval(e, a: Mapping[str, float]) -> float:
    if e is sp.zoo:
        raise DomainError("complex infinity")
    try:
        val = _eval_node(e, a)
    except OverflowError:  # float ** raises where * gives inf
        raise DomainError(f"overflow in {e}") from None
    if not math.isfinite(val):
        raise DomainError(f"non-finite value {val} of {e}")
    return val


def _eval_node(e, a: Mapping[str, float]) -> float:
    if e.is_Number:
        return float(e)
    if e.is_Symbol:
        return float(a[e.name])
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
    raise TypeError(f"cannot evaluate node {type(e).__name__}: {e}")


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of :func:`is_zero`."""

    SYMBOLIC_ZERO = "SymbolicZero"
    NUMERIC_ZERO = "NumericZero"
    NON_ZERO = "NonZero"
    UNDECIDED = "Undecided"  # no sample point could be evaluated

    kind: str
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.kind in (self.SYMBOLIC_ZERO, self.NUMERIC_ZERO)


def is_zero(e, *, tol: float = DEFAULT_ZERO_TOL, seed: int = 0) -> ZeroVerdict:
    """Zero test: symbolic first, seeded sampling fallback.

    Each jet f^(k)(g) of an opaque function becomes a symbol of its own,
    one per distinct (k, g), sampled like a coordinate: a pass then holds
    for every smooth f.  The fallback evaluates at ``DEFAULT_NUM_POINTS``
    pseudo-random points, each symbol drawn from (0.5, 1.5) in name
    order, skips the points where evaluation fails, and returns
    NonZero with a witness point if some |value| >= ``tol``, NumericZero
    if at least one point evaluated, and Undecided (falsy) if none did.
    """
    e = canonicalize(e)
    if e == 0:
        return ZeroVerdict(ZeroVerdict.SYMBOLIC_ZERO)
    if e.is_Number:
        return ZeroVerdict(ZeroVerdict.NON_ZERO, witness={"value": float(e)})
    import numpy as np  # only the sampling fallback needs it

    jets = sorted(e.atoms(_Opaque), key=default_sort_key)
    e = e.xreplace({j: sp.Symbol(f"{j}#{i}") for i, j in enumerate(jets)})
    free = sorted(s.name for s in e.free_symbols)
    rng = np.random.default_rng(seed)
    evaluated = False
    for _ in range(DEFAULT_NUM_POINTS):
        point = {name: float(rng.uniform(0.5, 1.5)) for name in free}
        try:
            val = evaluate(e, point)
        except DomainError:
            continue
        if abs(val) >= tol:
            return ZeroVerdict(ZeroVerdict.NON_ZERO, witness={"point": point, "value": val})
        evaluated = True
    return ZeroVerdict(ZeroVerdict.NUMERIC_ZERO if evaluated else ZeroVerdict.UNDECIDED)


# CPython's default limit on the digits of an int read from or printed as text
MAX_DIGITS = 4300


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
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ValueError
        f = Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{v!r} is not a number literal") from None
    return sp.Rational(f.numerator, f.denominator)
