"""Structure-constant Lie algebras over the rationals.

The 12-dimensional symmetry algebra of the gas dynamics system with
state equation P = f(rho) + S is the main instance: basis ordered
(Y, X1, ..., X11) with Y the pressure translation at index 0.

An algebra holds its nonzero brackets as a sparse table
``{(i, j): {k: c}}`` over QQ, both orientations, so L12 is 44 entries
rather than a 12x12x12 tensor.  Internally vectors are sparse dicts
``{k: c}`` over one domain, QQ or QQ(params) for parametric subalgebras,
and brackets, Jacobi triples, series, centre and Killing form are sums
over the table.  Subalgebras are row spans of coefficient matrices over
the basis; closure, spans and ranks all run on one reduced row echelon
form over the fraction field of the entries (:func:`_rref`), and the
Killing signature is counted exactly from the characteristic polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
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
]

L12_LABELS = ("Y",) + tuple(f"X{i}" for i in range(1, 12))


class NotClosedError(ValueError):
    """Row span is not closed under the bracket."""


def _rational(c):
    """``c`` as an element of QQ."""
    c = sp.sympify(c)
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
    stored and (j, i) holding the negated (i, j) bracket.  Antisymmetry
    of a dense tensor is checked at construction; the Jacobi identity is
    checked by :meth:`jacobi_report`.
    """

    def __init__(self, labels: Sequence[str], constants):
        """From a dense tensor: [e_i, e_j] = sum_k constants[i][j][k] e_k."""
        n = len(labels)
        C = [[[_rational(c) for c in row] for row in plane] for plane in constants]
        table = {}
        for i, j, k in itertools.product(range(n), repeat=3):
            if C[i][j][k] + C[j][i][k]:
                raise ValueError(f"antisymmetry fails at C[{i}][{j}][{k}]")
            if C[i][j][k]:
                table.setdefault((i, j), {})[k] = C[i][j][k]
        self.labels, self.dim, self.table = tuple(labels), n, table

    @classmethod
    def from_brackets(cls, labels: Sequence[str], brackets: dict) -> "LieAlgebra":
        """Build from a sparse table {(i, j): {k: coeff}} with i < j."""
        alg = cls.__new__(cls)
        alg.labels, alg.dim, alg.table = tuple(labels), len(labels), {}
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                if c := _rational(c):
                    alg.table.setdefault((i, j), {})[k] = c
                    alg.table.setdefault((j, i), {})[k] = -c
        return alg

    def bracket(self, v: Sequence, w: Sequence) -> list:
        """Bilinear extension of the structure constants, on sympy vectors."""
        n = self.dim
        if len(v) != n or len(w) != n:
            raise ValueError(f"expected vectors of length {n}")
        sparse = [{i: x for i, x in enumerate(map(sp.sympify, u)) if x != 0} for u in (v, w)]
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
        return LieAlgebra.from_brackets(self.labels, brackets)


@dataclass(frozen=True)
class Subalgebra:
    """Row span of ``basis`` (m x n sympy Matrix) inside ``ambient``."""

    ambient: LieAlgebra
    basis: sp.Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient.dim:
            raise ValueError("basis width must equal ambient dimension")
        if len(_rref(self._domain_basis)[1]) != self.basis.rows:
            raise ValueError("basis rows are linearly dependent")

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def _domain_basis(self) -> DomainMatrix:
        """The basis over the fraction field of its entries."""
        return DomainMatrix.from_Matrix(self.basis).to_field()

    def is_closed(self) -> tuple[bool, list | None]:
        """Closure under bracket; on success also the induced constants.

        Returns ``(True, C_ind)`` with C_ind[i][j][k] such that
        [row_i, row_j] = sum_k C_ind[i][j][k] row_k, or ``(False, None)``.
        """
        induced = induced_table(self.ambient, self._domain_basis)
        if induced is None:
            return False, None
        m, K = self.dim, self._domain_basis.domain
        C = [[[sp.Integer(0)] * m for _ in range(m)] for _ in range(m)]
        for (i, j), comps in induced.items():
            for k, c in comps.items():
                C[i][j][k] = K.to_sympy(c)
                C[j][i][k] = K.to_sympy(-c)
        return True, C

    def induced(self) -> list:
        ok, C = self.is_closed()
        if not ok:
            raise NotClosedError("subalgebra is not closed under the bracket")
        return C


def induced_table(ambient: LieAlgebra, rows: DomainMatrix) -> dict | None:
    """The structure constants {(i, j): {k: c}}, i < j, that the row span
    of ``rows`` (over a field containing QQ) inherits from ``ambient``,
    in the domain of ``rows``; None when the span is not closed or the
    rows are dependent.  All brackets are solved for in one exact solve."""
    m, n = rows.shape
    K, vecs = rows.domain, rows.to_sdm()
    pairs = list(itertools.combinations(range(m), 2))
    rhs = {}
    for col, (i, j) in enumerate(pairs):
        for k, c in _bracket(ambient.table, vecs.get(i, {}), vecs.get(j, {})).items():
            rhs.setdefault(k, {})[col] = c
    sol = _solve_exact(rows.transpose(), DomainMatrix(rhs, (n, len(pairs)), K))
    if sol is None:
        return None
    cols = sol.transpose().to_sdm()
    return {pair: dict(cols[col]) for col, pair in enumerate(pairs) if col in cols}


def _rref(M) -> tuple[DomainMatrix, tuple[int, ...]]:
    """Reduced row echelon form of ``M`` (a sympy or domain matrix) over
    the fraction field of its entries (QQ, or QQ(params) for parametric
    ones), plus the pivots."""
    if not isinstance(M, DomainMatrix):
        M = DomainMatrix.from_Matrix(M)
    return M.to_field().rref()


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


_L12 = None


def l12() -> LieAlgebra:
    """The 12-dimensional symmetry algebra, basis (Y, X1, ..., X11)."""
    global _L12
    if _L12 is None:
        _L12 = LieAlgebra.from_brackets(L12_LABELS, _l12_brackets())
    return _L12


# --------------------------------------------------------------------------
# automorphisms


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
    c = [sp.sympify(x) for x in v]
    c0 = c[0]
    c1 = sp.Matrix(c[1:4])
    c2 = sp.Matrix(c[4:7])
    c3 = sp.Matrix(c[7:10])
    c10, c11 = c[10], c[11]

    if variant == "ST":
        a = sp.Matrix([sp.sympify(x) for x in param])
        c1 = c1 + c11 * a - a.cross(c3)
    elif variant == "GT":
        b = sp.Matrix([sp.sympify(x) for x in param])
        c1 = c1 - c10 * b
        c2 = c2 - b.cross(c3)
    elif variant == "R":
        R = sp.Matrix(param)
        if sp.simplify(R.T * R - sp.eye(3)) != sp.zeros(3) or sp.simplify(R.det() - 1) != 0:
            raise ValueError("R must be a rotation (orthogonal, det 1)")
        c1, c2, c3 = R * c1, R * c2, R * c3
    elif variant == "TT":
        tau = sp.sympify(param)
        c1 = c1 + tau * c2
        c10 = c10 + tau * c11
    elif variant == "D":
        lam = sp.sympify(param)
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
        mu = sp.sympify(param)
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
        return [-sp.sympify(x) for x in param]
    if variant == "R":
        return sp.Matrix(param).T
    if variant == "TT":
        return -sp.sympify(param)
    if variant in ("D", "OuterScale"):
        return 1 / sp.sympify(param)
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


def _tensor_algebra(C) -> LieAlgebra:
    return LieAlgebra([f"e{i+1}" for i in range(len(C))], C)


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


def fingerprint(C_or_alg) -> Fingerprint:
    """Fingerprint of a structure-constant tensor (or LieAlgebra)."""
    alg = C_or_alg if isinstance(C_or_alg, LieAlgebra) else _tensor_algebra(C_or_alg)
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
