"""Structure-constant Lie algebras over the rationals.

The 12-dimensional symmetry algebra of the gas dynamics system with
state equation P = f(rho) + S is the main instance: basis ordered
(Y, X1, ..., X11) with Y the pressure translation at index 0.

Subalgebras are row spans of coefficient matrices over this basis.
Everything is exact (sympy rationals, symbols allowed for parametric
subalgebras).  Closure, spans and ranks all run on one reduced row
echelon form over the fraction field of the entries (:func:`_rref`);
the Killing signature is counted exactly from the characteristic
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class LieAlgebra:
    """Lie algebra given by structure constants C[i][j][k], exact entries.

    [e_i, e_j] = sum_k C[i][j][k] e_k.  Antisymmetry is enforced at
    construction; the Jacobi identity is checked by :meth:`jacobi_report`.
    """

    def __init__(self, labels: Sequence[str], constants):
        self.labels = tuple(labels)
        n = len(self.labels)
        self.dim = n
        C = [[[sp.nsimplify(constants[i][j][k], rational=True) for k in range(n)]
              for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if sp.expand(C[i][j][k] + C[j][i][k]) != 0:
                        raise ValueError(
                            f"antisymmetry fails at C[{i}][{j}][{k}]"
                        )
        self.C = C

    @classmethod
    def from_brackets(cls, labels: Sequence[str], brackets: dict) -> "LieAlgebra":
        """Build from a sparse table {(i, j): {k: coeff}} with i < j."""
        n = len(labels)
        C = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                c = sp.nsimplify(c)
                C[i][j][k] = c
                C[j][i][k] = -c
        return cls(labels, C)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def basis_vector(self, label: str) -> list:
        v = [sp.Integer(0)] * self.dim
        v[self.index(label)] = sp.Integer(1)
        return v

    def bracket(self, v: Sequence, w: Sequence) -> list:
        """Bilinear extension of the structure constants."""
        n = self.dim
        if len(v) != n or len(w) != n:
            raise ValueError(f"expected vectors of length {n}")
        out = [sp.Integer(0)] * n
        for i in range(n):
            vi = sp.sympify(v[i])
            if vi == 0:
                continue
            for j in range(n):
                wj = sp.sympify(w[j])
                if wj == 0:
                    continue
                row = self.C[i][j]
                for k in range(n):
                    if row[k] != 0:
                        out[k] += vi * wj * row[k]
        return [sp.expand(x) for x in out]

    def jacobi_report(self) -> list[tuple[int, int, int]]:
        """All basis triples violating the Jacobi identity (empty = pass)."""
        n = self.dim
        basis = [self.basis_vector(lbl) for lbl in self.labels]
        bad = []
        for i in range(n):
            for j in range(i + 1, n):
                bij = self.bracket(basis[i], basis[j])
                for k in range(j + 1, n):
                    s = self.bracket(bij, basis[k])
                    bjk = self.bracket(basis[j], basis[k])
                    s2 = self.bracket(bjk, basis[i])
                    bki = self.bracket(basis[k], basis[i])
                    s3 = self.bracket(bki, basis[j])
                    if any(sp.expand(a + b + c) != 0
                           for a, b, c in zip(s, s2, s3)):
                        bad.append((i, j, k))
        return bad

    def mutated(self, i: int, j: int, k: int, value) -> "LieAlgebra":
        """Copy with C[i][j][k] (and its antisymmetric mate) replaced."""
        n = self.dim
        C = [[[self.C[a][b][c] for c in range(n)] for b in range(n)]
             for a in range(n)]
        value = sp.nsimplify(value)
        C[i][j][k] = value
        C[j][i][k] = -value
        return LieAlgebra(self.labels, C)


@dataclass(frozen=True)
class Subalgebra:
    """Row span of ``basis`` (m x n sympy Matrix) inside ``ambient``."""

    ambient: LieAlgebra
    basis: sp.Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient.dim:
            raise ValueError("basis width must equal ambient dimension")
        if len(_rref(self.basis)[1]) != self.basis.rows:
            raise ValueError("basis rows are linearly dependent")

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_closed(self) -> tuple[bool, list | None]:
        """Closure under bracket; on success also the induced constants.

        Returns ``(True, C_ind)`` with C_ind[i][j][k] such that
        [row_i, row_j] = sum_k C_ind[i][j][k] row_k, or ``(False, None)``.
        """
        m, n = self.basis.rows, self.basis.cols
        rows = [list(self.basis.row(i)) for i in range(m)]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        brackets = [self.ambient.bracket(rows[i], rows[j]) for i, j in pairs]
        rhs = sp.Matrix(len(pairs), n, sum(brackets, [])).T  # one column per pair
        sol = _solve_exact(self.basis.T, rhs)
        if sol is None:
            return False, None
        C = [[[sp.Integer(0)] * m for _ in range(m)] for _ in range(m)]
        for col, (i, j) in enumerate(pairs):
            for k in range(m):
                C[i][j][k] = sol[k, col]
                C[j][i][k] = -sol[k, col]
        return True, C

    def induced(self) -> list:
        ok, C = self.is_closed()
        if not ok:
            raise NotClosedError("subalgebra is not closed under the bracket")
        return C


def _rref(M: sp.Matrix) -> tuple[sp.Matrix, tuple[int, ...]]:
    """Reduced row echelon form of ``M`` over the fraction field of its
    entries (QQ, or QQ(params) for parametric ones), plus the pivots."""
    R, pivots = DomainMatrix.from_Matrix(M).to_field().rref()
    return R.to_Matrix(), pivots


def _solve_exact(A: sp.Matrix, B: sp.Matrix):
    """Exact X with A X = B for A of full column rank, or None if some
    column of B is outside the column span of A."""
    R, pivots = _rref(A.row_join(B))
    if any(p >= A.cols for p in pivots):
        return None
    return R[: A.cols, A.cols:]


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


def _span(vectors: list, n: int) -> sp.Matrix:
    if not vectors:
        return sp.zeros(0, n)
    R, pivots = _rref(sp.Matrix([list(v) for v in vectors]))
    return R[: len(pivots), :]


def _bracket_span(alg: LieAlgebra, V: sp.Matrix, W: sp.Matrix) -> sp.Matrix:
    vecs = []
    for i in range(V.rows):
        for j in range(W.rows):
            vecs.append(alg.bracket(list(V.row(i)), list(W.row(j))))
    return _span(vecs, alg.dim)


def _series(n: int, step) -> tuple[int, ...]:
    """Dimensions of V_0 = span(e_1..e_n), V_{i+1} = step(V_i), up to the
    first V that is zero or no smaller than its predecessor."""
    dims = [n]
    cur = sp.eye(n)
    while True:
        nxt = step(cur)
        dims.append(nxt.rows)
        if nxt.rows == 0 or nxt.rows == cur.rows:
            return tuple(dims)
        cur = nxt


def fingerprint(C_or_alg) -> Fingerprint:
    """Fingerprint of a structure-constant tensor (or LieAlgebra)."""
    alg = C_or_alg if isinstance(C_or_alg, LieAlgebra) else _tensor_algebra(C_or_alg)
    n = alg.dim
    derived = _series(n, lambda V: _bracket_span(alg, V, V))
    lower = _series(n, lambda V: _bracket_span(alg, sp.eye(n), V))

    # center: x with [x, e_j] = 0 for all j
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([alg.C[i][j][k] for i in range(n)])
    center_dim = n - len(_rref(sp.Matrix(rows))[1])

    # Killing form K(i,j) = tr(ad e_i  ad e_j).  K is real symmetric, so
    # its characteristic polynomial has only real roots and Descartes'
    # rule of signs counts the positive ones exactly.
    ad = [sp.Matrix(n, n, lambda k, j, i=i: alg.C[i][j][k]) for i in range(n)]
    K = sp.Matrix(n, n, lambda i, j: sp.expand(sp.trace(ad[i] * ad[j])))
    if K.free_symbols:
        raise ValueError("Killing signature needs numeric structure constants")
    coeffs = K.charpoly().all_coeffs()
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    signs = [c.is_positive for c in coeffs if c != 0]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    rank = n - zero
    return Fingerprint(
        derived_series=derived,
        lower_central_series=lower,
        center_dim=center_dim,
        killing_rank=rank,
        killing_signature=(pos, rank - pos, zero),
    )
