import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_route import mul_vector, rational_discriminant_pairing
from g2tcs.exact import RationalMatrix, int_det
from g2tcs.lattices import (GramLattice, cokernel_presentation,
                            discriminant_form, even_dual_kernel,
                            quotient_by_2torsion,
                            radical_and_quotient, saturated_sum, signature)


def sym(rows):
    return GramLattice.from_rows(rows)


# ---------------------------------------------------------------- signature

def test_signature_known():
    assert signature(sym([[2, 0], [0, -2]])) == (1, 1, 0)
    assert signature(sym([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(sym([[4, 9], [9, 8]])) == (1, 1, 0)
    assert signature(sym([[2, 2], [2, 2]])) == (1, 0, 1)


def _random_unimodular(n, rng):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def test_signature_invariant_under_unimodular_change():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.randint(-4, 4)
        U = _random_unimodular(n, rng)
        Um = RationalMatrix(U)
        G2 = (Um * RationalMatrix(G) * Um.transpose()).int_rows()
        assert signature(sym(G2)) == signature(sym(G))


# ------------------------------------------------------------------ radical

def test_radical_and_quotient_degenerate():
    # rank-4 presentation with one-dimensional radical
    W = sym([[4, 4, 5, 3], [4, 2, 2, 4], [5, 2, 4, 9], [3, 4, 9, 8]])
    radical, reduced = radical_and_quotient(W)
    assert len(radical) == 1
    assert reduced.rank == 3
    assert signature(reduced) == (2, 1, 0)


def test_radical_trivial_for_nondegenerate():
    radical, reduced = radical_and_quotient(sym([[2, 1], [1, 2]]))
    assert radical == []
    assert reduced.rank == 2


# ----------------------------------------------------------------- cokernel

def _laplace_det(A):
    if not A:
        return 1
    return sum((-1) ** j * A[0][j] * _laplace_det([row[:j] + row[j + 1:]
                                                   for row in A[1:]])
               for j in range(len(A)))


def _adjugate(A):
    """adj(A) by cofactors, so that adj(A)·A = det(A)·I."""
    n = len(A)
    return [[(-1) ** (i + j) * _laplace_det(
                [row[:i] + row[i + 1:] for k, row in enumerate(A) if k != j])
             for j in range(n)] for i in range(n)]


def brute_force_order_counts(A, dets, max_k=8):
    """Number of cokernel classes killed by k, counted by coset enumeration.

    Every class has a representative t in the box [0, |det A|)^m, since
    |det A|·Z^m lies in the image A·Z^m. t lies in the image exactly when
    adj(A)·t = det(A)·A^-1·t is 0 mod |det A|, so adj(A)·t mod |det A|
    keys the class of t.
    """
    m = len(A)
    span = abs(dets)
    adj = _adjugate(A)
    from itertools import product as iproduct
    keys = {tuple(sum(a * x for a, x in zip(row, t)) % span for row in adj)
            for t in iproduct(range(span), repeat=m)}
    counts = {k: sum(1 for key in keys if all(k * c % span == 0
                                              for c in key))
              for k in range(1, max_k + 1)}
    return len(keys), counts


def test_cokernel_against_brute_force():
    from math import gcd
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = RationalMatrix(A).det()
        if d == 0 or abs(d) > 24:
            continue
        pres = cokernel_presentation(A)
        assert pres.group.free_rank == 0
        assert pres.group.torsion_order == abs(d)
        total, counts = brute_force_order_counts(A, int(abs(d)))
        assert total == abs(d)
        factors = pres.group.invariant_factors
        for k, cnt in counts.items():
            expected = 1
            for f in factors:
                expected *= gcd(k, f)
            assert cnt == expected, (A, factors, k)
        done += 1


def test_cokernel_free_rank():
    A = [[2, 0], [0, 0]]
    pres = cokernel_presentation(A)
    assert pres.group.invariant_factors == (2,)
    assert pres.group.free_rank == 1
    # Column i of Q is a preimage of d_i times generator i:
    # A Q e_i = d_i P^-1 e_i.
    for i in range(2):
        image = [sum(A[r][k] * pres.Q[k][i] for k in range(2))
                 for r in range(2)]
        assert image == [pres.diagonal(i) * pres.Pinv[r][i]
                         for r in range(2)]
    assert pres.linking() == ((F(1, 2),),)


# --------------------------------------------------------- discriminant form

def test_discriminant_form_orders():
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-4, 4)
                G[i][j] = G[j][i] = v
            G[i][i] = 2 * rng.randint(-3, 3)
        d = RationalMatrix(G).det()
        if d == 0:
            continue
        disc = discriminant_form(sym(G))
        assert disc.group.torsion_order == abs(d)
        # pairing is symmetric with entries in [0, 1)
        for i, row in enumerate(disc.pairing):
            for j, x in enumerate(row):
                assert 0 <= x < 1
                assert x == disc.pairing[j][i]
        done += 1


def test_discriminant_pairing_matches_the_rational_route():
    # x^T G^-1 y mod 1 by rational inversion, on random nondegenerate Grams
    # with odd diagonals allowed.
    rng = random.Random(19)
    done = 0
    while done < 200:
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.randint(-5, 5)
        if int_det(G) == 0:
            continue
        assert discriminant_form(sym(G)).pairing == \
            rational_discriminant_pairing(G), G
        done += 1


def test_discriminant_form_degenerate():
    with pytest.raises(ValueError, match="lattice is degenerate"):
        discriminant_form(sym([[2, 2], [2, 2]]))


def test_discriminant_form_known():
    disc = discriminant_form(sym([[2]]))
    assert disc.group.invariant_factors == (2,)
    assert disc.pairing == ((F(1, 2),),)


def test_quotient_by_2torsion_doubles_pairing():
    disc = discriminant_form(sym([[6]]))
    assert disc.group.invariant_factors == (6,)
    q = quotient_by_2torsion(disc)
    assert q.group.invariant_factors == (3,)
    # generator pairing doubles: 2 * (1/6) = 1/3 on the order-3 part
    assert q.pairing == ((F(1, 3),),)


# -------------------------------------------------------------- overlattice

def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_overlattice_from_glue():
    base = sym([[196, 0, 98], [0, -98, 0], [98, 0, 98]])
    over = saturated_sum(base, _identity_rows(3) + [
        [F(9, 49), F(8, 49), 0], [0, F(3, 14), F(5, 14)]])
    assert over.rank == 3
    assert over.is_even()
    # index of the base in the overlattice is 49 * 14; the determinant
    # shrinks by the square of the index: -98^3 / (49 * 14)^2 = -2
    assert int_det(over.gram) == -2
    assert signature(over) == signature(base)


def test_overlattice_rejects_bad_glue():
    with pytest.raises(ValueError):
        saturated_sum(sym([[2]]), _identity_rows(1) + [[F(1, 2)]])


def test_saturated_sum_rejects_fractional_pairings():
    with pytest.raises(ValueError):
        saturated_sum(sym([[2]]), [[F(1, 3)]])


# ----------------------------------------------------------- even dual part

def test_even_dual_kernel():
    # <2>: every pairing 2xy is already even, so the whole lattice qualifies
    assert even_dual_kernel(sym([[2]])) == [[1]]
    # all pairings already even
    assert even_dual_kernel(sym([[2, 4], [4, 2]])) == [[1, 0], [0, 1]]
    rows = even_dual_kernel(sym([[4, 4], [4, 2]]))
    G = RationalMatrix([[4, 4], [4, 2]])
    for r in rows:
        assert all(v % 2 == 0 for v in mul_vector(G, r))
