"""Structure-constant algebra tests: table, automorphisms, fingerprints."""

import numpy as np
import pytest
import sympy as sp

from gassym.liealg import (
    L12_LABELS,
    Fingerprint,
    LieAlgebra,
    NotClosedError,
    Subalgebra,
    apply_automorphism,
    fingerprint,
    inverse_params,
    l12,
    to_domain,
)


def _unit(i, n=12):
    return [sp.Integer(1 if k == i else 0) for k in range(n)]


def _label_vec(**coeffs):
    v = [sp.Integer(0)] * 12
    for lbl, c in coeffs.items():
        v[L12_LABELS.index(lbl)] = sp.sympify(c)
    return v


# --------------------------------------------------------------------------
# the table


def test_l12_dimension_and_labels():
    alg = l12()
    assert alg.dim == 12
    assert alg.labels == L12_LABELS


def test_jacobi_identity_all_triples():
    assert l12().jacobi_report() == []


@pytest.mark.parametrize(
    "a, b, want",
    [
        ("X7", "X8", {"X9": -1}),
        ("X7", "X9", {"X8": 1}),
        ("X8", "X9", {"X7": -1}),
        ("X4", "X10", {"X1": -1}),
        ("X10", "X11", {"X10": 1}),
        ("X1", "X11", {"X1": 1}),
        ("Y", "X11", {}),
        ("X4", "X8", {"X6": -1}),
    ],
)
def test_selected_brackets(a, b, want):
    alg = l12()
    out = alg.bracket(_label_vec(**{a: 1}), _label_vec(**{b: 1}))
    assert out == _label_vec(**want)


def test_bracket_bilinear_and_antisymmetric():
    alg = l12()
    u = _label_vec(X4=2, X7=sp.Rational(1, 3))
    v = _label_vec(X8=-1, X10=5)
    w = _label_vec(X1=1, X11=sp.Rational(-2, 7))
    lhs = alg.bracket([2 * a + 3 * b for a, b in zip(u, v)], w)
    rhs = [
        2 * a + 3 * b
        for a, b in zip(alg.bracket(u, w), alg.bracket(v, w))
    ]
    assert [sp.expand(a - b) for a, b in zip(lhs, rhs)] == [0] * 12
    assert alg.bracket(u, v) == [-c for c in alg.bracket(v, u)]


def test_mutated_breaks_jacobi():
    alg = l12()
    i, j = L12_LABELS.index("X7"), L12_LABELS.index("X8")
    bad = alg.mutated(i, j, L12_LABELS.index("X9"), sp.Integer(1))
    assert bad.jacobi_report() != []


def test_unordered_bracket_keys_rejected():
    # only i < j is given: (j, i) is derived from it and (i, i) is zero,
    # so antisymmetry holds by construction
    for key in [(0, 0), (1, 0)]:
        with pytest.raises(ValueError, match="i < j"):
            LieAlgebra(("a", "b"), {key: {0: 1}})


# --------------------------------------------------------------------------
# subalgebras


def test_entry_477_basis_is_closed_abelian():
    basis = sp.Matrix(
        [
            _label_vec(X1=1),
            _label_vec(X2=1),
            _label_vec(X3=1),
            _label_vec(Y=1, X4=1),
        ]
    )
    assert Subalgebra(l12(), basis).is_closed() == (True, {})


def test_not_closed_detected():
    basis = sp.Matrix([_label_vec(X4=1), _label_vec(X10=1)])
    sub = Subalgebra(l12(), basis)
    assert sub.is_closed() == (False, None)
    with pytest.raises(NotClosedError):
        sub.induced()


def test_dependent_basis_rejected():
    sub = Subalgebra(l12(), sp.Matrix([_label_vec(X1=1), _label_vec(X1=2)]))
    assert sub.is_closed() == (False, None)


def test_induced_table_in_the_basis_field():
    # [X1, a*X4 + X11] = X1: the constant is 1 for every a, in QQ(a)
    a = sp.Symbol("a")
    sub = Subalgebra(l12(), sp.Matrix([_label_vec(X1=1), _label_vec(X4=a, X11=1)]))
    closed, table = sub.is_closed()
    K = to_domain(sub.basis).domain
    assert closed and table == {(0, 1): {0: K.one}}


@pytest.mark.parametrize(
    "c",
    [sp.Abs(sp.Symbol("a")), sp.log(sp.Symbol("a")), sp.sqrt(2), sp.pi],
    ids=["Abs", "log", "sqrt2", "pi"],
)
def test_coefficient_outside_qq_params_raises(c):
    # rows a*X1 + X2 and c*X1 + X2: with c = Abs(a) they coincide for a > 0,
    # yet an expression domain would count them independent and closed
    a = sp.Symbol("a")
    sub = Subalgebra(l12(), sp.Matrix([_label_vec(X1=a, X2=1), _label_vec(X1=c, X2=1)]))
    with pytest.raises(ValueError, match="not rational in the parameters"):
        sub.is_closed()


# --------------------------------------------------------------------------
# automorphisms

_ROT = sp.Matrix(
    [
        [sp.Rational(3, 5), -sp.Rational(4, 5), 0],
        [sp.Rational(4, 5), sp.Rational(3, 5), 0],
        [0, 0, 1],
    ]
)

VARIANTS = [
    ("ST", [sp.Rational(1, 2), -2, sp.Rational(3, 4)]),
    ("GT", [-1, sp.Rational(2, 3), 2]),
    ("R", _ROT),
    ("TT", sp.Rational(5, 7)),
    ("D", sp.Rational(-3, 2)),
    ("I1", None),
    ("I2", None),
    ("OuterScale", sp.Rational(7, 3)),
]


def _seeded_vectors(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            [
                sp.Rational(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                for _ in range(12)
            ]
        )
    return out


@pytest.mark.parametrize("variant, param", VARIANTS)
def test_automorphism_is_homomorphism(variant, param):
    alg = l12()
    vecs = _seeded_vectors(50, seed=7)
    for u, v in zip(vecs[:25], vecs[25:]):
        lhs = apply_automorphism(variant, alg.bracket(u, v), param)
        rhs = alg.bracket(
            apply_automorphism(variant, u, param),
            apply_automorphism(variant, v, param),
        )
        assert all(sp.expand(a - b) == 0 for a, b in zip(lhs, rhs))


@pytest.mark.parametrize("variant, param", VARIANTS)
def test_automorphism_inverse_roundtrip(variant, param):
    inv = inverse_params(variant, param)
    for v in _seeded_vectors(5, seed=11):
        back = apply_automorphism(variant, apply_automorphism(variant, v, param), inv)
        assert all(sp.expand(a - b) == 0 for a, b in zip(back, v))


def test_rotation_validated():
    with pytest.raises(ValueError):
        apply_automorphism("R", _unit(1), sp.Matrix(3, 3, lambda i, j: 1))


def test_dilation_nonzero():
    with pytest.raises(ValueError):
        apply_automorphism("D", _unit(1), 0)


def test_outer_scaling_touches_only_c0():
    v = _label_vec(Y=3, X1=1, X10=2)
    out = apply_automorphism("OuterScale", v, sp.Rational(5, 2))
    assert out[0] == sp.Rational(15, 2)
    assert out[1:] == v[1:]


# --------------------------------------------------------------------------
# fingerprints


def _heisenberg_plus_line():
    # [e2, e3] = e1 plus a central e4
    return LieAlgebra(("e1", "e2", "e3", "e4"), {(1, 2): {0: 1}})


def test_fingerprint_heisenberg():
    fp = fingerprint(_heisenberg_plus_line())
    assert fp.derived_series[:2] == (4, 1)
    assert fp.lower_central_series == (4, 1, 0)
    assert fp.center_dim == 2
    assert fp.killing_rank == 0


def test_fingerprint_abelian():
    fp = fingerprint(LieAlgebra(("e1", "e2", "e3", "e4"), {}))
    assert fp.center_dim == 4
    assert fp.derived_series == (4, 0)


def test_fingerprint_so3_killing_signature():
    # [e1, e2] = e3, [e2, e3] = e1, [e1, e3] = -e2
    so3 = LieAlgebra(("e1", "e2", "e3"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    fp = fingerprint(so3)
    assert fp.killing_rank == 3
    assert fp.killing_signature == (0, 3, 0)


@pytest.mark.parametrize(
    "rows",
    [
        # (h, 10^6 (e + f), e - f): K = diag(8, 8e12, -8); a relative
        # float threshold reads +-8 as zero, and clamping that count to the
        # exact rank 3 reports (1, 2, 0)
        [[1, 0, 0], [0, 10**6, 10**6], [0, 1, -1]],
        # (3h, 4(e + f), 5(e - f)): K = diag(72, 128, -200), charpoly
        # x^3 - 30784x + 1843200 with a zero x^2 coefficient
        [[3, 0, 0], [0, 4, 4], [0, 5, -5]],
    ],
)
def test_fingerprint_sl2_killing_signature(rows):
    # sl(2, R) in the basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h
    labels = ("h", "e", "f")
    sl2 = LieAlgebra(labels, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    fp = fingerprint(LieAlgebra(labels, Subalgebra(sl2, sp.Matrix(rows)).induced()))
    assert fp.killing_rank == 3
    assert fp.killing_signature == (2, 1, 0)


def test_fingerprint_symbolic_killing_form_raises():
    # [e1, e2] = a e1: K(e2, e2) = a**2 has no sign to count
    with pytest.raises(ValueError, match="numeric"):
        fingerprint(LieAlgebra(("e1", "e2"), {(0, 1): {0: sp.Symbol("a")}}))


def test_fingerprint_basis_invariant():
    base = _heisenberg_plus_line()
    want = fingerprint(base)
    rng = np.random.default_rng(13)
    trials = 0
    while trials < 20:
        M = sp.Matrix(
            4, 4, lambda i, j: sp.Rational(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
        )
        if M.det() == 0:
            continue
        trials += 1
        Minv = M.inv()
        rows = [list(M.row(i)) for i in range(4)]
        brackets = {}
        for i in range(4):
            for j in range(i + 1, 4):
                coeffs = Minv.T * sp.Matrix(base.bracket(rows[i], rows[j]))
                brackets[(i, j)] = {k: sp.expand(coeffs[k]) for k in range(4)}
        assert fingerprint(LieAlgebra(base.labels, brackets)) == want


def test_fingerprint_is_hashable():
    fp = fingerprint(_heisenberg_plus_line())
    assert isinstance(fp, Fingerprint)
    assert len({fp, fp}) == 1


# --------------------------------------------------------------------------
# the sparse table


def test_l12_table_holds_22_brackets_and_their_mates():
    table = l12().table
    assert sum(i < j for i, j in table) == 22
    for (i, j), comps in table.items():
        assert comps and all(comps.values())
        assert table[(j, i)] == {k: -c for k, c in comps.items()}


def test_mutated_to_zero_removes_entry_and_mate():
    i, j, k = (L12_LABELS.index(lbl) for lbl in ("X7", "X8", "X9"))
    alg = l12().mutated(i, j, k, 0)
    assert (i, j) not in alg.table and (j, i) not in alg.table
    assert sum(a < b for a, b in alg.table) == 21
    assert l12().table[(i, j)] == {k: -1}


def test_benchmark_mutant_has_four_jacobi_failures():
    # C[X1][X8][X3] = -2 in place of -1
    assert len(l12().mutated(1, 8, 3, -2).jacobi_report()) == 4
