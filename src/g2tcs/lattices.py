"""Integral lattices, finite quotients and discriminant forms.

The central objects are integral symmetric bilinear forms (Gram matrices) and
the finite abelian groups they induce:

* ``cokernel_presentation`` — the quotient of Z^m by the column span of an
  integer matrix, presented through a Smith normal form D = P A Q with its
  transforms; the linking pairing of the torsion generators is read off Q.
* ``discriminant_form`` — the torsion group N*/N of a nondegenerate lattice
  together with its fractional pairing, read off the same transforms.
* ``signature`` — the inertia (n+, n-, n0) of a form; n0 is the rank of
  its radical, and ``radical_and_quotient`` gives the radical itself.
* Structure operations used by the gluing pipeline: the lattice generated
  by rational vectors and the even "half-dual" kernel sublattice.

All computations are exact and run in integers; rational input is cleared
to integers, and a ``Fraction`` is built only for a returned pairing entry.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exact import (RationalMatrix, clear_denominators, hermite_row_basis,
                    int_matmul, integer_kernel, smith_normal_form, transpose)

IntMatrix = List[List[int]]


def _gram_entry(x) -> int:
    """One Gram entry as an int; anything but an integral number is refused."""
    if type(x) is int:
        return x
    if (isinstance(x, bool) or not isinstance(x, numbers.Rational)
            or x.denominator != 1):
        raise ValueError(f"Gram entry {x!r} is not an integer")
    return int(x)


class GramLattice(NamedTuple):
    """An integral lattice given by its Gram matrix.

    Attributes:
        gram: symmetric integer Gram matrix (tuple of row tuples).
    """

    gram: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GramLattice":
        """Gram lattice from integer rows.

        Entries must be integers or integral rationals; floats, strings and
        booleans are rejected rather than truncated or coerced.
        """
        try:
            g = tuple(tuple(_gram_entry(x) for x in row) for row in rows)
        except TypeError:
            raise ValueError("Gram matrix must be a list of rows") from None
        if any(len(row) != len(g) for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(len(g)):
            for j in range(len(g)):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        return cls(g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def matrix(self) -> RationalMatrix:
        return RationalMatrix([list(row) for row in self.gram])

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


class FiniteAbelianGroup(NamedTuple):
    """Finite-rank abelian group: invariant factors plus a free rank."""

    invariant_factors: Tuple[int, ...]
    free_rank: int = 0

    @property
    def torsion_order(self) -> int:
        order = 1
        for d in self.invariant_factors:
            order *= d
        return order


class DiscriminantForm(NamedTuple):
    """A finite abelian group with a Q/Z-valued symmetric pairing.

    Attributes:
        group: the underlying group (pure torsion).
        pairing: matrix of pairings of the invariant-factor generators,
            entries reduced to [0, 1).
    """

    group: FiniteAbelianGroup
    pairing: Tuple[Tuple[Fraction, ...], ...]


class CokernelPresentation(NamedTuple):
    """Presentation of Z^m / A·Z^n through a Smith normal form D = P A Q.

    The torsion generator z_i is column i of P^-1, of order d_i = D[i][i];
    column i of Q is a preimage of d_i z_i, since A Q e_i = P^-1 D e_i =
    d_i P^-1 e_i (Newman, Integral Matrices, 1972). ``linking`` pairs the
    generators through these preimages.

    Attributes:
        group: invariant factors >= 2 and the free rank of the quotient.
        torsion_indices: indices i (in SNF coordinates) with d_i >= 2.
        free_indices: indices with d_i = 0 (or beyond the rank).
    """

    group: FiniteAbelianGroup
    D: IntMatrix
    P: IntMatrix
    Q: IntMatrix
    Pinv: IntMatrix
    torsion_indices: List[int]
    free_indices: List[int]

    def generator_vectors(self) -> List[List[int]]:
        """Representatives in Z^m of the torsion generators (P^-1 columns)."""
        m = len(self.P)
        return [[self.Pinv[i][j] for i in range(m)] for j in self.torsion_indices]

    def snf_coordinates(self, t: Sequence[int]) -> List[int]:
        m = len(self.P)
        return [sum(self.P[i][k] * t[k] for k in range(m)) for i in range(m)]

    def diagonal(self, i: int) -> int:
        return self.D[i][i] if i < min(len(self.D), len(self.D[0]) if self.D else 0) else 0

    def linking(self, embedding: Optional[Sequence[Sequence[int]]] = None
                ) -> Tuple[Tuple[Fraction, ...], ...]:
        """Pairing of the torsion generators, entries reduced to [0, 1).

        Entry (i, j) is z_j . E^T Q e_i / d_i mod 1: the preimage Q e_i of
        d_i z_i, carried to Z^m by the n×m matrix E (rows: images of the
        domain generators; the identity when omitted, which needs m = n),
        paired against z_j and divided by d_i; the integer pairing is
        reduced mod d_i before the entry is built.
        """
        gens = self.generator_vectors()
        preimages = [[row[i] for row in self.Q] for i in self.torsion_indices]
        if embedding is not None:
            preimages = int_matmul(preimages, embedding)
        return tuple(
            tuple(Fraction(sum(a * b for a, b in zip(z, v)) % d, d)
                  for z in gens)
            for d, v in zip(self.group.invariant_factors, preimages))


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def cokernel_presentation(A: Sequence[Sequence[int]]) -> CokernelPresentation:
    """Present the quotient Z^m / (column span of A).

    Args:
        A: m×n integer matrix whose columns generate the subgroup.

    Returns:
        A ``CokernelPresentation`` exposing the group, torsion generators,
        class projection and the linking pairing.
    """
    A = [[int(x) for x in row] for row in A]
    m = len(A)
    n = len(A[0]) if m and A[0] else 0
    if m == 0:
        raise ValueError("empty matrix")
    if n == 0:
        D, P, Q = [[0] * 0 for _ in range(m)], _identity(m), []
        pres = CokernelPresentation(
            FiniteAbelianGroup((), m), D, P, Q, _identity(m), [], list(range(m))
        )
        return pres
    D, P, Q, Pinv = smith_normal_form(A)
    r = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    torsion = [i for i in range(r) if D[i][i] >= 2]
    free = list(range(r, m))
    group = FiniteAbelianGroup(tuple(D[i][i] for i in torsion), len(free))
    return CokernelPresentation(group, D, P, Q, Pinv, torsion, free)


def discriminant_form(G: GramLattice) -> DiscriminantForm:
    """Discriminant group N*/N of a nondegenerate lattice with its pairing.

    The group is the cokernel of the Gram matrix, which has a free part
    exactly when G is degenerate; pairings of generators are
    x^T G^{-1} y mod 1 on integer representatives. With D = P G Q,
    G^{-1} z_i = Q e_i / d_i, so the pairing is the cokernel's ``linking``
    with the identity embedding.
    """
    pres = cokernel_presentation([list(row) for row in G.gram])
    if pres.group.free_rank:
        raise ValueError("lattice is degenerate")
    return DiscriminantForm(pres.group, pres.linking())


def quotient_by_2torsion(D: DiscriminantForm) -> DiscriminantForm:
    """Quotient by the 2-torsion subgroup, carrying the doubled pairing.

    The image of a generator g of Z/d has order d/2 (d even) or d (d odd) in
    the quotient, and the doubled pairing 2·b(x, y) mod 1 is well defined on
    it. Trivialised factors are dropped.
    """
    orders = []
    keep = []
    for i, d in enumerate(D.group.invariant_factors):
        new_d = d // 2 if d % 2 == 0 else d
        if new_d >= 2:
            orders.append(new_d)
            keep.append(i)
    kept = [[D.pairing[i][j] for j in keep] for i in keep]
    pairing = tuple(
        tuple(Fraction(2 * x.numerator % x.denominator, x.denominator)
              for x in row) for row in kept)
    return DiscriminantForm(FiniteAbelianGroup(tuple(orders), 0), pairing)


def radical_and_quotient(G: GramLattice) -> Tuple[List[List[int]], GramLattice]:
    """Radical of a possibly degenerate form and the induced quotient lattice.

    Returns:
        (radical_basis, reduced): a saturated integer basis of the radical
        {x : G x = 0}, and the nondegenerate Gram matrix induced on the
        quotient, on the complement basis given by the leading columns of the
        Smith transform Q.
    """
    n = G.rank
    A = [list(row) for row in G.gram]
    D, _P, Q, _Pinv = smith_normal_form(A)
    r = sum(1 for i in range(n) if D[i][i] != 0)
    radical = [[Q[i][j] for i in range(n)] for j in range(r, n)]
    complement = [[Q[i][j] for i in range(n)] for j in range(r)]
    reduced_gram = [
        [
            sum(complement[a][i] * G.gram[i][j] * complement[b][j] for i in range(n) for j in range(n))
            for b in range(r)
        ]
        for a in range(r)
    ]
    return radical, GramLattice.from_rows(reduced_gram)


def saturated_sum(ambient: GramLattice, generators: Sequence[Sequence],
                  denom: int = 1) -> GramLattice:
    """Lattice generated by rational vectors inside the span of ``ambient``.

    Args:
        ambient: Gram matrix of the coordinate lattice fixing the bilinear
            form on the ambient rational span.
        generators: rational vectors in ambient coordinates (ints or
            Fractions), each divided by ``denom``.

    Returns:
        GramLattice with the Gram matrix of a basis of the generated lattice:
        the integer Gram of the Hermite basis of the cleared generators,
        divided by the square of their common denominator. Raises ValueError
        with message "sum is not an integral lattice" if the induced form is
        not integral and even.
    """
    d, int_rows = clear_denominators(generators)
    denom = d * abs(denom)
    basis = hermite_row_basis(int_rows)
    gram = int_matmul(int_matmul(basis, ambient.gram), transpose(basis))
    square = denom * denom
    if any(x % square for row in gram for x in row) or any(
            gram[i][i] // square % 2 for i in range(len(gram))):
        raise ValueError("sum is not an integral lattice")
    return GramLattice.from_rows([[x // square for x in row] for row in gram])


def even_dual_kernel(G: GramLattice) -> List[List[int]]:
    """Basis of the sublattice {x in N : b(x, -) lies in 2 N*}.

    Concretely the condition is G x = 2 z for an integer z: the sublattice
    is the projection of the kernel of [G | -2 I] to its first n
    coordinates. Rows of the result are basis vectors in N coordinates.
    """
    n = G.rank
    stacked = [list(row) + [-2 * (i == j) for j in range(n)]
               for i, row in enumerate(G.gram)]
    return hermite_row_basis([v[:n] for v in integer_kernel(stacked)])


def signature(G: GramLattice) -> Tuple[int, int, int]:
    """Inertia (n+, n-, n0) of a symmetric integer form, computed exactly.

    Symmetric congruence reduction in integers: repeatedly split off a
    nonzero diagonal entry d, leaving d times its Schur complement
    (d A_ij - A_ip A_pj); when the diagonal vanishes but an off-diagonal
    entry survives, a hyperbolic pair (+1, -1) is split off. As in Bareiss
    elimination, each step divides exactly by the previous pivot, which
    keeps the entries minors of the form; the sign of that pivot says
    whether the stored block is the Schur complement or its negative.
    """
    A = [list(row) for row in G.gram]
    pos = neg = zero = 0
    prev = 1
    idx = list(range(G.rank))
    while idx:
        pivot = next((i for i in idx if A[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in idx for j in idx
                         if i != j and A[i][j] != 0), None)
            if pair is None:
                zero += len(idx)
                break
            i, j = pair
            # x_i -> x_i + x_j makes the (i,i) entry 2 A[i][j] != 0
            for k in idx:
                A[i][k] = A[i][k] + A[j][k]
            for k in idx:
                A[k][i] = A[k][i] + A[k][j]
            continue
        d = A[pivot][pivot]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        idx = [i for i in idx if i != pivot]
        for i in idx:
            for j in idx:
                A[i][j] = (d * A[i][j] - A[i][pivot] * A[pivot][j]) // prev
        prev = d
    return pos, neg, zero
