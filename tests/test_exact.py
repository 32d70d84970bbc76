from fractions import Fraction as F

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_route
from fraction_route import mul_vector
from g2tcs.exact import (RationalMatrix, hermite_row_basis, int_det,
                         int_matmul, integer_kernel, lattice_intersection,
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


def smith_kernel(A):
    """The kernel read off the Smith form D = P A Q: the columns of Q past
    the nonzero diagonal."""
    n = len(A[0])
    D, _P, Q, _Pinv = smith_normal_form(A)
    r = sum(1 for i in range(min(len(A), n)) if D[i][i])
    return [[Q[i][j] for i in range(n)] for j in range(r, n)]


# Wide and tall matrices with zero rows and columns, some rank-deficient
# (a row that is a combination of the others).
sparse_ints = st.one_of(st.just(0), ints)
kernel_matrix = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(sparse_ints, min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.lists(st.integers(-2, 2), min_size=m, max_size=m))))


@given(kernel_matrix, st.booleans())
@settings(max_examples=150, deadline=None)
def test_integer_kernel_spans_the_smith_kernel(data, dependent):
    A, combo = data
    if dependent:
        A = A + [[sum(c * row[j] for c, row in zip(combo, A))
                  for j in range(len(A[0]))]]
    kern = integer_kernel(A)
    assert hermite_row_basis(kern) == hermite_row_basis(smith_kernel(A))


def test_integer_kernel_entries_stay_small():
    # A seeded symmetric 22x22 matrix B^T S B of rank 20 with entries of
    # 10 bits: the Smith route's kernel has entries of 249 bits here, the
    # echelon kernel of 33 and the same Hermite basis.
    rng = random.Random(0)
    B = [[rng.randint(-3, 3) for _ in range(22)] for _ in range(20)]
    S = [[rng.randint(-3, 3) for _ in range(20)] for _ in range(20)]
    S = [[S[i][j] + S[j][i] for j in range(20)] for i in range(20)]
    A = int_matmul(int_matmul(list(map(list, zip(*B))), S), B)
    kern = integer_kernel(A)
    assert len(kern) == 2
    assert max(abs(x).bit_length() for v in kern for x in v) <= 48
    assert hermite_row_basis(kern) == hermite_row_basis(smith_kernel(A))


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
    p = [1, -5, 8, -4]
    assert sturm_count_roots(p, 0, 3) == 2
    assert sturm_count_roots(p, 1, 3) == 1  # (1, 3] excludes 1
    assert sturm_count_roots(p, 3, 10) == 0


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)),
                max_size=4),
       st.lists(sparse_ints, min_size=1, max_size=6),
       st.integers(-8, 8), st.integers(0, 12))
@example([], [-1, 0, 0, 2, -3], -7, 9)
@settings(max_examples=300, deadline=None)
def test_integer_sturm_counts_match_the_fraction_chain(roots, rest, a, width):
    """Integer polynomials with repeated integer roots times a sparse
    factor: the integer chain counts as the Fraction chain does, also
    with an endpoint at a root. Sparse factors make remainders drop by
    two degrees, where a negative leading coefficient raised to an odd
    power would flip a sign (the example)."""
    p = rest
    for root, mult in roots:
        for _ in range(mult):
            p = _poly_mul(p, [1, -root])
    b = a + width
    assert sturm_count_roots(p, a, b) == \
        fraction_route.sturm_count_roots(p, F(a), F(b))


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
