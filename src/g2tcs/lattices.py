"""Integral lattices, finite quotients and discriminant forms.

The central objects are integral symmetric bilinear forms (Gram matrices) and
the finite abelian groups they induce:

* ``cokernel_presentation`` — the quotient of Z^m by the column span of an
  integer matrix, presented through a Smith normal form with transforms, with
  exact projection and preimage solving.
* ``discriminant_form`` — the torsion group N*/N of a nondegenerate lattice
  together with its fractional pairing.
* Structure operations used by the gluing pipeline: radical quotients, glue
  overlattices, saturation of rational spans and the even "half-dual" kernel
  sublattice.

All computations are exact (integers and ``Fraction``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .exact import (
    RationalMatrix,
    hermite_row_basis,
    smith_normal_form,
    solve_integer_columns,
)

IntMatrix = List[List[int]]


def _gram_entry(x) -> int:
    """One Gram entry as an int; anything but an integral number is refused."""
    if type(x) is int:
        return x
    if (isinstance(x, bool) or not isinstance(x, numbers.Rational)
            or x.denominator != 1):
        raise ValueError(f"Gram entry {x!r} is not an integer")
    return int(x)


@dataclass(frozen=True)
class GramLattice:
    """An integral lattice given by its Gram matrix.

    Attributes:
        gram: symmetric integer Gram matrix (tuple of row tuples).
        basis: optional rational coordinates of the basis vectors inside an
            ambient space (rows), recorded by operations that build a lattice
            inside another one.
    """

    gram: Tuple[Tuple[int, ...], ...]
    basis: Optional[Tuple[Tuple[Fraction, ...], ...]] = None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], basis=None) -> "GramLattice":
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
        b = None
        if basis is not None:
            b = tuple(tuple(Fraction(x) for x in row) for row in basis)
        return cls(g, b)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def matrix(self) -> RationalMatrix:
        return RationalMatrix([list(row) for row in self.gram])

    def determinant(self) -> int:
        d = self.matrix().det()
        return int(d)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite-rank abelian group: invariant factors plus a free rank."""

    invariant_factors: Tuple[int, ...]
    free_rank: int = 0

    @property
    def torsion_order(self) -> int:
        order = 1
        for d in self.invariant_factors:
            order *= d
        return order

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class DiscriminantForm:
    """A finite abelian group with a Q/Z-valued symmetric pairing.

    Attributes:
        group: the underlying group (pure torsion).
        pairing: matrix of pairings of the invariant-factor generators,
            entries reduced to [0, 1).
    """

    group: FiniteAbelianGroup
    pairing: Tuple[Tuple[Fraction, ...], ...]


@dataclass
class CokernelPresentation:
    """Presentation of Z^m / A·Z^n through a Smith normal form D = P A Q.

    Attributes:
        group: invariant factors >= 2 and the free rank of the quotient.
        torsion_indices: indices i (in SNF coordinates) with d_i >= 2.
        free_indices: indices with d_i = 0 (or beyond the rank).
    """

    group: FiniteAbelianGroup
    A: IntMatrix
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

    def project(self, t: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Class of t in the quotient: (torsion coordinates, free coordinates)."""
        c = self.snf_coordinates(t)
        torsion = tuple(c[i] % self.diagonal(i) for i in self.torsion_indices)
        free = tuple(c[i] for i in self.free_indices)
        return torsion, free

    def diagonal(self, i: int) -> int:
        return self.D[i][i] if i < min(len(self.D), len(self.D[0]) if self.D else 0) else 0

    def order_of(self, t: Sequence[int]) -> Optional[int]:
        """Order of the class of t, or None if it has infinite order."""
        c = self.snf_coordinates(t)
        if any(c[i] != 0 for i in self.free_indices):
            return None
        k = 1
        for i in self.torsion_indices:
            d = self.diagonal(i)
            k = lcm(k, d // gcd(d, c[i] % d) if c[i] % d else 1)
        return k

    def minimal_multiple_preimage(self, t: Sequence[int]) -> Optional[Tuple[int, List[int]]]:
        """Smallest k > 0 with k·t in the image of A, plus x with A x = k t.

        Returns None when no positive multiple of t lies in the image (i.e.
        the class of t has a free component).
        """
        k = self.order_of(t)
        if k is None:
            return None
        kt = [k * v for v in t]
        x = solve_integer_columns(self.A, kt)
        if x is None:  # cannot happen if k is correct; defensive
            raise ArithmeticError("preimage solve failed for a torsion class")
        return k, x


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def cokernel_presentation(A: Sequence[Sequence[int]]) -> CokernelPresentation:
    """Present the quotient Z^m / (column span of A).

    Args:
        A: m×n integer matrix whose columns generate the subgroup.

    Returns:
        A ``CokernelPresentation`` exposing the group, torsion generators,
        class projection and minimal-multiple preimage solving.
    """
    A = [[int(x) for x in row] for row in A]
    m = len(A)
    n = len(A[0]) if m and A[0] else 0
    if m == 0:
        raise ValueError("empty matrix")
    if n == 0:
        D, P, Q = [[0] * 0 for _ in range(m)], _identity(m), []
        pres = CokernelPresentation(
            FiniteAbelianGroup((), m), A, D, P, Q, _identity(m), [], list(range(m))
        )
        return pres
    D, P, Q, Pinv = smith_normal_form(A)
    r = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    torsion = [i for i in range(r) if D[i][i] >= 2]
    free = list(range(r, m))
    group = FiniteAbelianGroup(tuple(D[i][i] for i in torsion), len(free))
    return CokernelPresentation(group, A, D, P, Q, Pinv, torsion, free)


def discriminant_form(G: GramLattice) -> DiscriminantForm:
    """Discriminant group N*/N of a nondegenerate lattice with its pairing.

    The group is the cokernel of the Gram matrix; pairings of generators are
    computed as x^T G^{-1} y mod 1 on integer representatives.
    """
    if G.matrix().det() == 0:
        raise ValueError("lattice is degenerate")
    pres = cokernel_presentation([list(row) for row in G.gram])
    gens = pres.generator_vectors()
    Ginv = G.matrix().inverse()
    pairing = []
    for x in gens:
        row = []
        for y in gens:
            v = sum(Fraction(xi) * c for xi, c in zip(x, Ginv.mul_vector(y)))
            row.append(v % 1)
        pairing.append(tuple(row))
    return DiscriminantForm(FiniteAbelianGroup(pres.group.invariant_factors, 0), tuple(pairing))


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
    pairing = tuple(
        tuple((2 * D.pairing[i][j]) % 1 for j in keep) for i in keep
    )
    return DiscriminantForm(FiniteAbelianGroup(tuple(orders), 0), pairing)


def radical_and_quotient(G: GramLattice) -> Tuple[List[List[int]], GramLattice]:
    """Radical of a possibly degenerate form and the induced quotient lattice.

    Returns:
        (radical_basis, reduced): a saturated integer basis of the radical
        {x : G x = 0}, and the nondegenerate Gram matrix induced on the
        quotient. The quotient lattice records coordinate representatives of
        its basis in the original coordinates.
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
    reduced = GramLattice.from_rows(reduced_gram, basis=[[Fraction(x) for x in row] for row in complement])
    return radical, reduced


def overlattice_from_glue(G: GramLattice, glue: Sequence[Sequence]) -> GramLattice:
    """Overlattice generated by the standard basis and rational glue vectors.

    Args:
        G: Gram matrix of the base lattice (coordinates = standard basis).
        glue: rational vectors, in base coordinates, to adjoin.

    Returns:
        The resulting lattice with its Gram matrix and basis (rows, in base
        coordinates). Raises ValueError if the result is not an integral even
        lattice.
    """
    n = G.rank
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows += [[Fraction(x) for x in v] for v in glue]
    return saturated_sum(G, rows)


def saturated_sum(ambient: GramLattice, generators: Sequence[Sequence]) -> GramLattice:
    """Lattice generated by rational vectors inside the span of ``ambient``.

    Args:
        ambient: Gram matrix of the coordinate lattice fixing the bilinear
            form on the ambient rational span.
        generators: rational vectors in ambient coordinates.

    Returns:
        GramLattice with the Gram matrix of a basis of the generated lattice;
        the basis rows are recorded. Raises ValueError with message
        "sum is not an integral lattice" if the induced form is not integral
        and even.
    """
    denom = 1
    gen_rows = [[Fraction(x) for x in v] for v in generators]
    for row in gen_rows:
        for x in row:
            denom = lcm(denom, x.denominator)
    int_rows = [[int(x * denom) for x in row] for row in gen_rows]
    basis_int = hermite_row_basis(int_rows)
    basis = [[Fraction(x, denom) for x in row] for row in basis_int]
    Gm = ambient.matrix()
    gram = []
    for u in basis:
        gu = Gm.mul_vector(u)
        gram.append([sum(a * b for a, b in zip(v, gu)) for v in basis])
    for i, row in enumerate(gram):
        for j, x in enumerate(row):
            if x.denominator != 1 or (i == j and int(x) % 2 != 0):
                raise ValueError("sum is not an integral lattice")
    return GramLattice.from_rows([[int(x) for x in row] for row in gram], basis=basis)


def even_dual_kernel(G: GramLattice) -> List[List[int]]:
    """Basis of the sublattice {x in N : b(x, -) lies in 2 N*}.

    Concretely the condition is G x = 0 mod 2; the sublattice is generated by
    lifts of the mod-2 kernel together with 2 N. Rows of the result are basis
    vectors in N coordinates.
    """
    n = G.rank
    # Mod-2 kernel via elimination over GF(2).
    rows = [[G.gram[i][j] % 2 for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free_cols = [c for c in range(n) if c not in pivots]
    kernel_lifts = []
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = rows[i][fc] % 2
        kernel_lifts.append(v)
    candidates = kernel_lifts + [[2 * int(i == j) for j in range(n)] for i in range(n)]
    return hermite_row_basis(candidates)


def signature(G: GramLattice) -> Tuple[int, int, int]:
    """Inertia (n+, n-, n0) of a symmetric integer form, computed exactly.

    Symmetric congruence reduction: repeatedly split off a nonzero diagonal
    entry; when the diagonal vanishes but an off-diagonal entry survives, a
    hyperbolic pair (+1, -1) is split off.
    """
    A = [[Fraction(G.gram[i][j]) for j in range(G.rank)] for i in range(G.rank)]
    pos = neg = zero = 0
    idx = list(range(G.rank))
    while idx:
        pivot = next((i for i in idx if A[i][i] != 0), None)
        if pivot is None:
            pair = None
            for i in idx:
                for j in idx:
                    if i != j and A[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
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
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx = [i for i in idx if i != pivot]
        for i in idx:
            f = A[i][pivot] / d
            if f != 0:
                for j in idx:
                    A[i][j] -= f * A[pivot][j]
                A[i][pivot] = Fraction(0)
        for j in idx:
            A[pivot][j] = Fraction(0)
    return pos, neg, zero
