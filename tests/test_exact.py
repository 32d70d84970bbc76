from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_route import mul_vector
from g2tcs.exact import (RationalMatrix, hermite_row_basis, int_det,
                         integer_kernel, lattice_intersection,
                         palindromic_quadratic_split, poly_eval,
                         rational_roots, smith_normal_form,
                         sturm_count_roots, xgcd)

ints = st.integers(min_value=-9, max_value=9)


def square_matrix(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n),
                    min_size=n, max_size=n)


any_matrix = st.integers(1, 3).flatmap(
    lambda m: st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(ints, min_size=n, max_size=n),
                           min_size=m, max_size=m)))


# ------------------------------------------------------------ RationalMatrix

def test_matrix_roundtrip_inverse():
    M = RationalMatrix([[2, 1], [7, 4]])
    assert M * M.inverse() == RationalMatrix.identity(2)
    assert M.det() == 1


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]]).inverse()


@given(square_matrix(3))
@settings(max_examples=60, deadline=None)
def test_det_matches_charpoly_constant(rows):
    M = RationalMatrix(rows)
    p = M.charpoly()
    # p(x) = det(xI - M); p(0) = det(-M) = (-1)^n det(M)
    assert p[-1] == (-1) ** 3 * M.det()


@given(square_matrix(3))
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_annihilate(rows):
    M = RationalMatrix(rows)
    for v in M.nullspace():
        assert all(x == 0 for x in mul_vector(M, v))
    assert M.rank() + len(M.nullspace()) == 3


# ------------------------------------------------------------ integer forms

@given(st.integers(0, 4).flatmap(square_matrix))
@settings(max_examples=80, deadline=None)
def test_int_det_matches_rational_det(rows):
    expected = RationalMatrix(rows).det() if rows else 1
    assert int_det(rows) == expected


def test_int_det_pivots_past_zero():
    assert int_det([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == 5 * (1 * 4 - 2 * 3)
    assert int_det([[0, 1], [0, 2]]) == 0
    with pytest.raises(ValueError):
        int_det([[1, 2]])


@given(any_matrix)
@settings(max_examples=80, deadline=None)
def test_smith_normal_form_properties(A):
    D, P, Q, Pinv = smith_normal_form(A)
    m, n = len(A), len(A[0])
    PA = RationalMatrix(P) * RationalMatrix(A) * RationalMatrix(Q)
    assert PA == RationalMatrix(D)
    assert RationalMatrix(P) * RationalMatrix(Pinv) == RationalMatrix.identity(m)
    assert abs(RationalMatrix(P).det()) == 1
    assert abs(RationalMatrix(Q).det()) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(any_matrix)
@settings(max_examples=60, deadline=None)
def test_integer_kernel_annihilates(A):
    M = RationalMatrix(A)
    kern = integer_kernel(A)
    for v in kern:
        assert all(x == 0 for x in mul_vector(M, v))
    assert len(kern) == len(A[0]) - M.rank()


def solve_integer_columns(A, b):
    """Integer solution x of A x = b (columns of A generate the image), or
    None: b is solved through the Smith form D = P A Q, one quotient
    (P b)_i / d_i per diagonal entry."""
    m = len(A)
    n = len(A[0]) if m else 0
    D, P, Q, _Pinv = smith_normal_form(A)
    Pb = [sum(P[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        d = D[i][i]
        if d != 0:
            if Pb[i] % d != 0:
                return None
            y[i] = Pb[i] // d
        elif Pb[i] != 0:
            return None
    for i in range(min(m, n), m):
        if Pb[i] != 0:
            return None
    return [sum(Q[i][j] * y[j] for j in range(n)) for i in range(n)]


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1,
                max_size=3))
@settings(max_examples=60, deadline=None)
def test_hermite_row_basis_spans_same_lattice(rows):
    basis = hermite_row_basis(rows)
    assert hermite_row_basis(basis) == basis
    # every input row is an integer combination of the basis rows
    if basis:
        Bt = [[basis[k][i] for k in range(len(basis))] for i in range(3)]
        for row in rows:
            assert solve_integer_columns(Bt, row) is not None
    else:
        assert all(all(x == 0 for x in row) for row in rows)


def test_lattice_intersection_example():
    # 2Z x Z intersect Z x 3Z = 2Z x 3Z
    inter = lattice_intersection([[2, 0], [0, 1]], [[1, 0], [0, 3]])
    assert hermite_row_basis(inter) == [[2, 0], [0, 3]]


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == abs(__import__("math").gcd(a, b)) or g == a * x + b * y
    assert a * x + b * y == g
    assert g >= 0


# ------------------------------------------------------------ polynomials

def test_sturm_counts_distinct_roots_half_open():
    # (x-1)(x-2)^2 has distinct roots {1, 2}
    p = [F(1), F(-5), F(8), F(-4)]
    assert sturm_count_roots(p, F(0), F(3)) == 2
    assert sturm_count_roots(p, F(1), F(3)) == 1  # (1, 3] excludes 1
    assert sturm_count_roots(p, F(3), F(10)) == 0


def test_rational_roots():
    # 2(x - 1/2)(x - 3)
    p = [F(2), F(-7), F(3)]
    roots, remainder = rational_roots(p)
    assert dict(roots) == {F(1, 2): 1, F(3): 1}
    assert len(remainder) == 1  # constant remainder


def test_palindromic_quadratic_split():
    # (x^2 - x + 1)(x^2 - 2x + 1): palindromic, roots on pairs t = 1, 2
    p = [F(1), F(-3), F(4), F(-3), F(1)]
    factors, remainder = palindromic_quadratic_split(p)
    assert sorted(factors) == [(F(1), 1), (F(2), 1)]
    assert all(c == 0 for c in remainder[:-1]) and remainder[-1] != 0


def test_poly_eval():
    assert poly_eval([F(1), F(0), F(-4)], F(3)) == 5
