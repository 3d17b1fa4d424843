"""Structure-constant Lie algebras over the rationals.

The 12-dimensional symmetry algebra of the gas dynamics system with
state equation P = f(rho) + S is the main instance: basis ordered
(Y, X1, ..., X11) with Y the pressure translation at index 0.

Structure constants have one format, the sparse table
``{(i, j): {k: c}}``: an algebra is built from its i < j brackets and
stores both orientations over QQ, so L12 is 44 entries rather than a
12x12x12 tensor.  Vectors are sparse dicts ``{k: c}`` over one domain,
QQ or a field of rational functions (QQ(params), a catalog chart's), and
brackets, Jacobi triples, series, centre and Killing form are sums over
the table.  Subalgebras are row spans of coefficient matrices over the
basis; a sympy matrix reaches exact linear algebra only through
:func:`to_domain`, which admits QQ and QQ(symbols) and nothing else.
Closure is one exact solve in :meth:`Subalgebra.is_closed`, which also
returns the induced table; ranks and spans use one reduced row echelon
form (:func:`_rref`), and the Killing signature is counted exactly from
the characteristic polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Sequence

import sympy as sp
from sympy.polys.matrices import DomainMatrix

__all__ = [
    "L12_LABELS",
    "Fingerprint",
    "LieAlgebra",
    "NotClosedError",
    "Subalgebra",
    "apply_automorphism",
    "l12",
    "fingerprint",
    "to_domain",
]

L12_LABELS = ("Y",) + tuple(f"X{i}" for i in range(1, 12))


class NotClosedError(ValueError):
    """Row span is not closed under the bracket."""


# a caller's number or expression as a sympy object: a str raises
# SympifyError, where plain sympify would evaluate it
_strict = partial(sp.sympify, strict=True)


def _rational(c):
    """``c`` as an element of QQ."""
    c = _strict(c)
    if not c.is_Rational:
        raise ValueError(f"structure constants must be numeric, not {c}")
    return sp.QQ.from_sympy(c)


def _bracket(table: dict, v: dict, w: dict) -> dict:
    """[v, w] of sparse vectors {k: c} whose entries, sympy or domain
    elements, multiply the QQ constants of ``table``."""
    out = {}
    for i, a in v.items():
        for j, b in w.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: c for k, c in out.items() if c}


class LieAlgebra:
    """Lie algebra given by its structure constants over QQ.

    [e_i, e_j] = sum_k table[(i, j)][k] e_k, with only nonzero entries
    stored and (j, i) holding the negated (i, j) bracket, so antisymmetry
    holds by construction; the Jacobi identity is checked by
    :meth:`jacobi_report`.
    """

    def __init__(self, labels: Sequence[str], brackets: dict):
        """From the brackets {(i, j): {k: coeff}}, i < j only."""
        self.labels, self.dim, self.table = tuple(labels), len(labels), {}
        for (i, j), comps in brackets.items():
            if i >= j:
                raise ValueError(f"bracket key {(i, j)} must have i < j")
            for k, c in comps.items():
                if c := _rational(c):
                    self.table.setdefault((i, j), {})[k] = c
                    self.table.setdefault((j, i), {})[k] = -c

    def bracket(self, v: Sequence, w: Sequence) -> list:
        """Bilinear extension of the structure constants, on sympy vectors."""
        n = self.dim
        if len(v) != n or len(w) != n:
            raise ValueError(f"expected vectors of length {n}")
        sparse = [{i: x for i, x in enumerate(map(_strict, u)) if x != 0} for u in (v, w)]
        out = _bracket(self.table, *sparse)
        return [sp.expand(out.get(k, sp.Integer(0))) for k in range(n)]

    def jacobi_report(self) -> list[tuple[int, int, int]]:
        """All basis triples violating the Jacobi identity (empty = pass)."""
        T = self.table
        bad = []
        for i, j, k in itertools.combinations(range(self.dim), 3):
            total = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in _bracket(T, T.get((a, b), {}), {c: sp.QQ.one}).items():
                    total[m] = total.get(m, 0) + x
            if any(total.values()):
                bad.append((i, j, k))
        return bad

    def mutated(self, i: int, j: int, k: int, value) -> "LieAlgebra":
        """Copy with C[i][j][k] (and its antisymmetric mate) replaced; a
        zero value removes both entries."""
        brackets = {key: dict(comps) for key, comps in self.table.items() if key[0] < key[1]}
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        brackets.setdefault((lo, hi), {})[k] = sign * _rational(value)
        return LieAlgebra(self.labels, brackets)


@dataclass(frozen=True)
class Subalgebra:
    """Row span of ``basis`` (m x n sympy or domain matrix) inside ``ambient``."""

    ambient: LieAlgebra
    basis: sp.Matrix | DomainMatrix

    def __post_init__(self):
        if self.basis.shape[1] != self.ambient.dim:
            raise ValueError("basis width must equal ambient dimension")

    @cached_property
    def _domain_basis(self) -> DomainMatrix:
        """The basis as a domain matrix: a sympy one over QQ or QQ(params) (:func:`to_domain`)."""
        return self.basis if isinstance(self.basis, DomainMatrix) else to_domain(self.basis)

    def is_closed(self) -> tuple[bool, dict | None]:
        """Closure under bracket; on success also the induced constants.

        Returns ``(True, table)`` with the sparse table {(i, j): {k: c}},
        i < j, such that [row_i, row_j] = sum_k c row_k, in the domain of
        the basis; ``(False, None)`` when the span is not closed or the
        rows are dependent.  All brackets are solved for in one exact solve.
        """
        rows = self._domain_basis
        m, n = rows.shape
        vecs = rows.to_sdm()
        pairs = list(itertools.combinations(range(m), 2))
        rhs = {}
        for col, (i, j) in enumerate(pairs):
            for k, c in _bracket(self.ambient.table, vecs.get(i, {}), vecs.get(j, {})).items():
                rhs.setdefault(k, {})[col] = c
        sol = _solve_exact(rows.transpose(), DomainMatrix(rhs, (n, len(pairs)), rows.domain))
        if sol is None:
            return False, None
        cols = sol.transpose().to_sdm()
        return True, {pair: dict(cols[col]) for col, pair in enumerate(pairs) if col in cols}

    def induced(self) -> dict:
        ok, table = self.is_closed()
        if not ok:
            raise NotClosedError("subalgebra is not closed under the bracket")
        return table


def to_domain(M: sp.Matrix) -> DomainMatrix:
    """``M`` as a domain matrix over QQ or QQ(symbols); entries that are
    not rational functions of plain symbols (``Abs(a)``, ``log(a)``,
    ``sqrt(2)``, ``pi``, floats) raise ValueError."""
    D = DomainMatrix.from_Matrix(M).to_field()
    K = D.domain
    if not (K.is_QQ or K.is_FractionField and (K.domain.is_ZZ or K.domain.is_QQ)
            and all(isinstance(g, sp.Symbol) for g in K.symbols)):
        raise ValueError(f"not rational in the parameters (domain {K})")
    return D


def _rref(M: DomainMatrix) -> tuple[DomainMatrix, tuple[int, ...]]:
    """Reduced row echelon form of the domain matrix ``M``, plus the pivots."""
    return M.rref()


def _solve_exact(A: DomainMatrix, B: DomainMatrix) -> DomainMatrix | None:
    """The unique X with A X = B, or None if A is not of full column rank
    or some column of B is outside the column span of A."""
    m = A.shape[1]
    R, pivots = _rref(A.hstack(B))
    if tuple(pivots) != tuple(range(m)):
        return None
    return R[:m, m:]


# --------------------------------------------------------------------------
# the gas dynamics symmetry algebra L12


def _l12_brackets() -> dict:
    """Hand-keyed commutator table, basis order (Y, X1..X11).

    Encodes: translations/rotations, Galilean/rotations, so(3),
    time-translation and dilation actions.  Y commutes with everything.
    """
    def idx(lbl):
        return L12_LABELS.index(lbl)

    table = {
        # [Xi, Xj] = sum c_k X_k, written as (i, j): {k: c}
        ("X1", "X8"): {"X3": -1},
        ("X1", "X9"): {"X2": 1},
        ("X1", "X11"): {"X1": 1},
        ("X2", "X7"): {"X3": 1},
        ("X2", "X9"): {"X1": -1},
        ("X2", "X11"): {"X2": 1},
        ("X3", "X7"): {"X2": -1},
        ("X3", "X8"): {"X1": 1},
        ("X3", "X11"): {"X3": 1},
        ("X4", "X8"): {"X6": -1},
        ("X4", "X9"): {"X5": 1},
        ("X4", "X10"): {"X1": -1},
        ("X5", "X7"): {"X6": 1},
        ("X5", "X9"): {"X4": -1},
        ("X5", "X10"): {"X2": -1},
        ("X6", "X7"): {"X5": -1},
        ("X6", "X8"): {"X4": 1},
        ("X6", "X10"): {"X3": -1},
        ("X7", "X8"): {"X9": -1},
        ("X7", "X9"): {"X8": 1},
        ("X8", "X9"): {"X7": -1},
        ("X10", "X11"): {"X10": 1},
    }
    return {
        (idx(i), idx(j)): {idx(k): c for k, c in comps.items()}
        for (i, j), comps in table.items()
    }


@lru_cache(maxsize=None)
def l12() -> LieAlgebra:
    """The 12-dimensional symmetry algebra, basis (Y, X1, ..., X11)."""
    return LieAlgebra(L12_LABELS, _l12_brackets())


# --------------------------------------------------------------------------
# automorphisms


def _matrix(rows) -> sp.Matrix:
    """A 3x3 matrix of ``_strict`` entries, from rows or a Matrix."""
    return sp.Matrix(3, 3, [_strict(x) for x in sp.flatten(rows)])


def apply_automorphism(variant: str, v: Sequence, param=None) -> list:
    """Image of the coefficient vector ``v = (c0, c1..c11)`` under one
    automorphism of L12.

    Variants: ``ST`` (a in R^3), ``GT`` (b in R^3), ``R`` (3x3 rotation),
    ``TT`` (tau), ``D`` (lambda != 0), ``I1``, ``I2``, and the outer
    scaling ``OuterScale`` (mu != 0) acting on c0 only.  Coefficients not
    named by the variant's formula are unchanged.
    """
    if len(v) != 12:
        raise ValueError("expected a 12-vector (c0, c1..c11)")
    c = [_strict(x) for x in v]
    c0 = c[0]
    c1 = sp.Matrix(c[1:4])
    c2 = sp.Matrix(c[4:7])
    c3 = sp.Matrix(c[7:10])
    c10, c11 = c[10], c[11]

    if variant == "ST":
        a = sp.Matrix([_strict(x) for x in param])
        c1 = c1 + c11 * a - a.cross(c3)
    elif variant == "GT":
        b = sp.Matrix([_strict(x) for x in param])
        c1 = c1 - c10 * b
        c2 = c2 - b.cross(c3)
    elif variant == "R":
        R = _matrix(param)
        if sp.simplify(R.T * R - sp.eye(3)) != sp.zeros(3) or sp.simplify(R.det() - 1) != 0:
            raise ValueError("R must be a rotation (orthogonal, det 1)")
        c1, c2, c3 = R * c1, R * c2, R * c3
    elif variant == "TT":
        tau = _strict(param)
        c1 = c1 + tau * c2
        c10 = c10 + tau * c11
    elif variant == "D":
        lam = _strict(param)
        if lam == 0:
            raise ValueError("dilation parameter must be nonzero")
        c1 = lam * c1
        c10 = lam * c10
    elif variant == "I1":
        c1, c2 = -c1, -c2
    elif variant == "I2":
        c2 = -c2
        c10 = -c10
    elif variant == "OuterScale":
        mu = _strict(param)
        if mu == 0:
            raise ValueError("outer scaling must be nonzero")
        c0 = mu * c0
    else:
        raise ValueError(f"unknown automorphism variant {variant!r}")

    out = [c0, *c1, *c2, *c3, c10, c11]
    return [sp.expand(x) for x in out]


def inverse_params(variant: str, param):
    """Parameter of the inverse automorphism of the same variant."""
    if variant in ("ST", "GT"):
        return [-_strict(x) for x in param]
    if variant == "R":
        return _matrix(param).T
    if variant == "TT":
        return -_strict(param)
    if variant in ("D", "OuterScale"):
        return 1 / _strict(param)
    if variant in ("I1", "I2"):
        return None
    raise ValueError(f"unknown automorphism variant {variant!r}")


# --------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent invariants used to tell isomorphism classes apart."""

    derived_series: tuple[int, ...]
    lower_central_series: tuple[int, ...]
    center_dim: int
    killing_rank: int
    killing_signature: tuple[int, int, int]  # (n+, n-, n0)


def _span(vectors: list, n: int) -> list:
    """Sparse rows of the reduced echelon basis of the span of ``vectors``."""
    rows = {r: v for r, v in enumerate(vectors) if v}
    if not rows:
        return []
    R, pivots = _rref(DomainMatrix(rows, (len(vectors), n), sp.QQ))
    sdm = R.to_sdm()
    return [sdm[r] for r in range(len(pivots))]


def _series(n: int, step) -> tuple[int, ...]:
    """Dimensions of V_0 = span(e_1..e_n), V_{i+1} = step(V_i), up to the
    first V that is zero or no smaller than its predecessor."""
    dims = [n]
    cur = [{i: sp.QQ.one} for i in range(n)]
    while True:
        nxt = step(cur)
        dims.append(len(nxt))
        if not nxt or len(nxt) == len(cur):
            return tuple(dims)
        cur = nxt


def fingerprint(alg: LieAlgebra) -> Fingerprint:
    """Fingerprint of a Lie algebra over QQ."""
    n, T = alg.dim, alg.table
    basis = [{i: sp.QQ.one} for i in range(n)]

    def bracket_span(V, W):
        return _span([_bracket(T, v, w) for v in V for w in W], n)

    derived = _series(n, lambda V: bracket_span(V, V))
    lower = _series(n, lambda V: bracket_span(basis, V))

    # center: x with [x, e_j] = 0 for all j, one row per (j, k)
    rows = {}
    for (i, j), comps in T.items():
        for k, c in comps.items():
            rows.setdefault((j, k), {})[i] = c
    center_dim = n - len(_span(list(rows.values()), n))

    # Killing form K(i,j) = tr(ad e_i  ad e_j) = sum C[i][l][k] C[j][k][l].
    # K is real symmetric, so its characteristic polynomial has only real
    # roots and Descartes' rule of signs counts the positive ones exactly.
    killing = [
        [sum((c * T.get((j, k), {}).get(l, sp.QQ.zero)
              for l in range(n) for k, c in T.get((i, l), {}).items()), sp.QQ.zero)
         for j in range(n)]
        for i in range(n)
    ]
    coeffs = DomainMatrix(killing, (n, n), sp.QQ).charpoly()
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    rank = n - zero
    return Fingerprint(
        derived_series=derived,
        lower_central_series=lower,
        center_dim=center_dim,
        killing_rank=rank,
        killing_signature=(pos, rank - pos, zero),
    )
