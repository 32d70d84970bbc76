"""Exact linear algebra over the integers and rationals.

This module provides the arithmetic substrate for the lattice computations in
the rest of the package:

* ``RationalMatrix`` — a dense matrix of ``fractions.Fraction`` entries with
  exact Gaussian elimination (inverse, determinant, nullspace, rank) and a
  Faddeev–LeVerrier characteristic polynomial.
* Integer matrices — Smith normal form with unimodular transforms
  ``D = P A Q`` (and ``P^-1``) for cokernels, Hermite row bases, kernels by
  column Hermite elimination, a fraction-free (Bareiss) determinant, the
  adjugate and an integer characteristic polynomial.
* Lattice utilities — intersections of integer row lattices and clearing
  the denominators of rational rows.
* Polynomial helpers — integer roots in an interval, exact rational-root
  extraction, Sturm root counting in integers and a splitter for
  palindromic products of factors ``x^2 - t x + 1`` (the shape produced by
  form-preserving involution products).

Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

IntMatrix = List[List[int]]
FracVector = List[Fraction]


class RationalMatrix:
    """Dense matrix with exact rational entries.

    The class is deliberately small: just the operations needed by the
    lattice pipeline, all implemented with ``Fraction`` arithmetic.
    """

    def __init__(self, rows: Iterable[Iterable]):
        self.rows: List[FracVector] = [[Fraction(x) for x in row]
                                       for row in rows]
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * n for _ in range(m)])

    # -- basic accessors --------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix([[c * x for x in row] for row in self.rows])

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        ot = other.transpose().rows
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    # -- elimination-based operations ------------------------------------

    def _rref(self) -> Tuple[List[FracVector], List[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices)."""
        rows = [row[:] for row in self.rows]
        m, n = len(rows), self.ncols
        pivots: List[int] = []
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(m):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> List[FracVector]:
        """Basis (list of vectors) of the right kernel."""
        rows, pivots = self._rref()
        n = self.ncols
        free = [c for c in range(n) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * n
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(v)
        return basis

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        rows = [row[:] for row in self.rows]
        n = self.nrows
        result = Fraction(1)
        for c in range(n):
            pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                rows[c], rows[pivot] = rows[pivot], rows[c]
                result = -result
            result *= rows[c][c]
            inv = 1 / rows[c][c]
            for i in range(c + 1, n):
                if rows[i][c] != 0:
                    f = rows[i][c] * inv
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        return result

    def inverse(self) -> "RationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = RationalMatrix(
            [self.rows[i] + RationalMatrix.identity(n).rows[i] for i in range(n)]
        )
        rows, pivots = aug._rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix([row[n:] for row in rows])

    def charpoly(self) -> List[Fraction]:
        """Monic characteristic polynomial, coefficients highest degree first.

        Uses the Faddeev–LeVerrier recurrence, which stays in exact rational
        arithmetic and needs only matrix products and traces.
        """
        if self.nrows != self.ncols:
            raise ValueError("charpoly of non-square matrix")
        n = self.nrows
        coeffs = [Fraction(1)]
        M = RationalMatrix.zeros(n, n)
        ident = RationalMatrix.identity(n)
        c = Fraction(1)
        for k in range(1, n + 1):
            M = self * (M + ident.scaled(c))
            trace = sum(M.rows[i][i] for i in range(n))
            c = -trace / k
            coeffs.append(c)
        return coeffs

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def int_rows(self) -> IntMatrix:
        if not self.is_integer():
            raise ValueError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self.rows]


def clear_denominators(rows: Iterable[Iterable]) -> Tuple[int, IntMatrix]:
    """(d, d * rows) for the least d >= 1 making every entry (an int or a
    Fraction) an integer."""
    rows = [list(row) for row in rows]
    d = lcm(1, *(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row]
               for row in rows]


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def int_det(A: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty matrix).

    Fraction-free Bareiss elimination: every division is exact and every
    stored entry is a minor of the matrix, so no rationals are formed.
    """
    m = [list(row) for row in A]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def adjugate(A: Sequence[Sequence[int]]) -> IntMatrix:
    """Adjugate of a square integer matrix: adj(A) A = A adj(A) = det(A) I.

    Entry (i, j) is the cofactor of A at (j, i), an ``int_det`` minor.
    """
    n = len(A)
    return [[(-1) ** (i + j) * int_det([row[:i] + row[i + 1:]
                                        for k, row in enumerate(A) if k != j])
             for j in range(n)] for i in range(n)]


def transpose(A: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(col) for col in zip(*A)]


def int_matmul(A: Sequence[Sequence[int]],
               B: Sequence[Sequence[int]]) -> IntMatrix:
    """The product A B of integer matrices given by their rows."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in A]


def int_charpoly(A: Sequence[Sequence[int]]) -> List[int]:
    """Monic characteristic polynomial of a square integer matrix,
    coefficients highest degree first.

    Faddeev–LeVerrier: M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k.
    For an integer matrix every c_k is an integer, so each division is
    exact; a remainder raises ArithmeticError.
    """
    n = len(A)
    coeffs = [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        M = int_matmul(A, M)
        c, rem = divmod(-sum(M[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("inexact Faddeev-LeVerrier division")
        coeffs.append(c)
    return coeffs


def smith_normal_form(
    A: IntMatrix,
) -> Tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: D = P A Q.

    Args:
        A: an m×n integer matrix.

    Returns:
        Tuple (D, P, Q, Pinv) where P (m×m) and Q (n×n) are unimodular, D
        is diagonal with nonnegative entries d_1 | d_2 | ... and Pinv is
        the inverse of P, kept in step with it: each row operation on P is
        undone on the columns of Pinv.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    P = [[int(i == j) for j in range(m)] for i in range(m)]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [[int(i == j) for j in range(m)] for i in range(m)]

    def combine_columns(matrices, i, j, a, b, c, d):
        # columns i,j <- (a*col_i + b*col_j, c*col_i + d*col_j)
        for M in matrices:
            for row in M:
                x, y = row[i], row[j]
                row[i] = a * x + b * y
                row[j] = c * x + d * y

    def row_op(i, j, a, b, c, d):
        # rows i,j <- (a*row_i + b*row_j, c*row_i + d*row_j); applied to D
        # and P.  The 2x2 block E = [[a, b], [c, d]] has det e = +-1, so
        # E^-1 = e [[d, -b], [-c, a]], and Pinv <- Pinv E^-1.
        for M in (D, P):
            ri, rj = M[i], M[j]
            M[i] = [a * x + b * y for x, y in zip(ri, rj)]
            M[j] = [c * x + d * y for x, y in zip(ri, rj)]
        e = a * d - b * c
        combine_columns((Pinv,), i, j, e * d, -e * c, -e * b, e * a)

    def col_op(i, j, a, b, c, d):
        combine_columns((D, Q), i, j, a, b, c, d)

    t = 0
    while t < min(m, n):
        # find a pivot: nonzero entry of minimal absolute value in D[t:, t:]
        best = min(((abs(D[i][j]), i, j) for i in range(t, m)
                    for j in range(t, n) if D[i][j]), default=None)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_op(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            # clear column t
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    a, b = D[t][t], D[i][t]
                    if b % a == 0:
                        q = b // a
                        row_op(t, i, 1, 0, -q, 1)
                    else:
                        g, s, u = xgcd(a, b)
                        row_op(t, i, s, u, -(b // g), a // g)
            # clear row t (may reintroduce column entries; loop until stable)
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    a, b = D[t][t], D[t][j]
                    if b % a == 0:
                        q = b // a
                        col_op(t, j, 1, 0, -q, 1)
                    else:
                        g, s, u = xgcd(a, b)
                        col_op(t, j, s, u, -(b // g), a // g)
            if all(D[i][t] == 0 for i in range(t + 1, m)) and all(
                D[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        # enforce divisibility of the remaining block by D[t][t]
        offender = next((i for i in range(t + 1, m) if any(
            D[i][j] % D[t][t] for j in range(t + 1, n))), None)
        if offender is not None:
            row_op(t, offender, 1, 1, 0, 1)  # add offending row to pivot row
            continue  # redo elimination at the same t
        if D[t][t] < 0:
            for M in (D, P):
                M[t] = [-x for x in M[t]]
            for row in Pinv:
                row[t] = -row[t]
        t += 1
    return D, P, Q, Pinv


def hermite_row_basis(rows: IntMatrix) -> IntMatrix:
    """Canonical basis of the integer row lattice spanned by ``rows``.

    Row-style Hermite normal form: pivots positive, entries above each pivot
    reduced into [0, pivot). Zero rows are dropped.
    """
    work = [row[:] for row in rows if any(x != 0 for x in row)]
    if not work:
        return []
    n = len(work[0])
    basis: List[List[int]] = []
    r = 0
    for c in range(n):
        # gather rows with nonzero entry in column c (among remaining)
        idx = [i for i in range(r, len(work)) if work[i][c] != 0]
        if not idx:
            continue
        # reduce all rows against each other in column c via gcd steps
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(work[i][c]))
            i0 = idx[0]
            for i in idx[1:]:
                q = work[i][c] // work[i0][c]
                work[i] = [x - q * y for x, y in zip(work[i], work[i0])]
            idx = [i for i in idx if work[i][c] != 0]
        i0 = idx[0]
        work[r], work[i0] = work[i0], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        r += 1
    work = work[:r]
    # back-reduce entries above pivots
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in work]
    for i in range(len(work)):
        for k in range(i + 1, len(work)):
            pc = pivots[k]
            q = work[i][pc] // work[k][pc]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[k])]
    return work


def integer_kernel(A: IntMatrix) -> List[List[int]]:
    """Saturated basis of {x in Z^n : A x = 0} (as a list of vectors): the
    columns of U under the zero columns of the column echelon form A U, U
    unimodular and tracked alone (Cohen 1993, section 2.4.3)."""
    m, n = len(A), len(A[0]) if A else 0
    # Row j: column j of A U, then column j of U (U = I at the start).
    rows = [list(col) + [int(i == j) for i in range(n)]
            for j, col in enumerate(zip(*A))]
    r = 0  # rows[:r] hold the pivots of the echelon form
    for c in range(m):
        idx = [i for i in range(r, n) if rows[i][c]]
        while len(idx) > 1:
            p = rows[min(idx, key=lambda i: abs(rows[i][c]))]
            for i in idx:
                q = rows[i][c] // p[c]
                if rows[i] is not p:
                    rows[i] = [x - q * y for x, y in zip(rows[i], p)]
            idx = [i for i in idx if rows[i][c]]
        if idx:
            rows[r], rows[idx[0]] = rows[idx[0]], rows[r]
            r += 1
    return [row[m:] for row in rows[r:]]


def lattice_intersection(rows_a: IntMatrix, rows_b: IntMatrix) -> IntMatrix:
    """Basis of the intersection of two integer row lattices.

    A vector lies in both lattices iff it can be written as u·A = v·B; the
    coefficient pairs (u, v) form the kernel of the stacked matrix [A; -B]
    read column-wise.
    """
    if not rows_a or not rows_b:
        return []
    n = len(rows_a[0])
    stacked = [
        [rows_a[i][c] for i in range(len(rows_a))] + [-rows_b[j][c] for j in range(len(rows_b))]
        for c in range(n)
    ]
    combos = integer_kernel(stacked)
    vecs = []
    for combo in combos:
        u = combo[: len(rows_a)]
        vecs.append([sum(u[i] * rows_a[i][c] for i in range(len(rows_a))) for c in range(n)])
    return hermite_row_basis(vecs)


# ---------------------------------------------------------------------------
# Polynomial helpers
# ---------------------------------------------------------------------------


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_divmod(coeffs: Sequence[Fraction], divisor: Sequence[Fraction]):
    """Polynomial division (coefficients highest degree first)."""
    coeffs = [Fraction(c) for c in coeffs]
    divisor = [Fraction(c) for c in divisor]
    out = []
    while len(coeffs) >= len(divisor):
        factor = coeffs[0] / divisor[0]
        out.append(factor)
        for i, d in enumerate(divisor):
            coeffs[i] -= factor * d
        coeffs.pop(0)
    return out, coeffs


def _root_brackets(p: Sequence[int], lo: int, hi: int) -> set:
    """Integers t in [lo, hi] with each real root of p in [lo, hi] inside
    some [t, t + 1]. The derivative's brackets cut [lo, hi] into stretches
    where p is monotone; a sign change there is narrowed by bisection, so
    the work grows with the degree and the bit length of hi - lo only."""
    n = len(p) - 1
    if n < 1:
        return set()
    out = _root_brackets([c * (n - i) for i, c in enumerate(p[:-1])], lo, hi)
    marks = sorted({lo, hi} | out | {min(t + 1, hi) for t in out})
    for a, b in zip(marks, marks[1:]):
        fa = poly_eval(p, a)
        if fa and fa * poly_eval(p, b) > 0:
            continue
        while fa and b - a > 1:
            m = (a + b) // 2
            if fa * poly_eval(p, m) > 0:
                a = m
            else:
                b = m
        out.add(a)
    return out | {hi} if poly_eval(p, hi) == 0 else out


def integer_roots(coeffs: Sequence[int], lo: int, hi: int
                  ) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Integer roots in [lo, hi] of an integer polynomial (coefficients
    highest degree first): (roots, cofactor), the roots as ascending
    (root, multiplicity) pairs and the polynomial left once each is divided
    out by integer synthetic division."""
    p = list(coeffs)
    roots: List[Tuple[int, int]] = []
    brackets = _root_brackets(p, lo, hi)
    for y in sorted({b for t in brackets for b in (t, t + 1) if b <= hi}):
        mult = 0
        while len(p) > 1:
            quotient = [p[0]]
            for c in p[1:]:
                quotient.append(quotient[-1] * y + c)
            if quotient.pop():
                break
            p, mult = quotient, mult + 1
        if mult:
            roots.append((y, mult))
    return roots, p


def rational_roots(coeffs: Sequence[Fraction]) -> Tuple[List[Tuple[Fraction, int]], List[Fraction]]:
    """All rational roots (with multiplicity) of a rational polynomial.

    With its denominators cleared, a x^n + b x^(n-1) + ... + z has the
    roots y / a for the integer roots y of the monic
    y^n + b y^(n-1) + ... + z a^(n-1), all within its Cauchy bound.

    Args:
        coeffs: coefficients, highest degree first.

    Returns:
        (roots, remainder) where roots is a list of (root, multiplicity) and
        remainder is the monic rational-root-free cofactor polynomial.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return [], []
    _d, (ints,) = clear_denominators([coeffs])
    a = ints[0]
    monic = [1] + [c * a ** i for i, c in enumerate(ints[1:])]
    bound = max(abs(c) for c in monic) + 1
    roots, cofactor = integer_roots(monic, -bound, bound)
    return ([(Fraction(y, a), mult) for y, mult in roots],
            [Fraction(c, a ** i) for i, c in enumerate(cofactor)])


def palindromic_quadratic_split(
    coeffs: Sequence[Fraction],
) -> Tuple[List[Tuple[Fraction, int]], List[Fraction]]:
    """Split a polynomial into factors x^2 - t x + 1 with rational t.

    Such products are palindromic; substituting y = x + 1/x reduces the
    degree by half, and each rational root y0 of the reduced polynomial
    corresponds to a factor x^2 - y0 x + 1.

    Args:
        coeffs: coefficients (highest degree first) of a polynomial with no
            rational roots, expected to be a product of quadratics of the
            given shape.

    Returns:
        (factors, remainder): factors is a list of (t, multiplicity); the
        remainder polynomial (degree > 0 means some part resisted this
        factorisation, e.g. irrational t).
    """
    coeffs = [Fraction(c) for c in coeffs]
    factors: List[Tuple[Fraction, int]] = []
    while len(coeffs) > 1:
        deg = len(coeffs) - 1
        monic = [c / coeffs[0] for c in coeffs]
        if deg % 2 == 1 or monic != monic[::-1]:
            break  # not palindromic: no factors of the required shape remain
        # Reduce via y = x + 1/x: p(x)/x^h = s_0 + sum_{j>=1} s_j (x^j + x^-j)
        # and x^j + x^-j = T_j(y) with T_0 = 2, T_1 = y, T_j = y T_{j-1} - T_{j-2}.
        half = deg // 2
        s = [monic[half - j] for j in range(half + 1)]

        def add_aligned(target, poly, scale):
            off = len(target) - len(poly)
            for i, c in enumerate(poly):
                target[off + i] += scale * c

        T = [[Fraction(2)], [Fraction(1), Fraction(0)]]
        for j in range(2, half + 1):
            nxt = T[j - 1] + [Fraction(0)]
            add_aligned(nxt, T[j - 2], Fraction(-1))
            T.append(nxt)
        q = [Fraction(0)] * (half + 1)
        q[-1] = s[0]
        for j in range(1, half + 1):
            add_aligned(q, T[j], s[j])
        roots, _rem = rational_roots(q)
        progressed = False
        for t, mult in roots:
            for _ in range(mult):
                quo, r = poly_divmod(coeffs, [Fraction(1), -t, Fraction(1)])
                if any(x != 0 for x in r):
                    continue
                coeffs = quo
                factors.append((t, 1))
                progressed = True
        if not progressed:
            break
    # merge multiplicities
    merged = {}
    for t, m in factors:
        merged[t] = merged.get(t, 0) + m
    return sorted(merged.items()), coeffs


def sturm_count_roots(coeffs: Sequence[int], a: int, b: int) -> int:
    """Number of distinct real roots in (a, b] of an integer polynomial
    (highest degree first), for integers a <= b. Each member of the Sturm
    chain is the negated pseudo-remainder of the two before it, scaled by
    |lc|^k of the divisor, a positive factor, and divided by its content."""
    p = list(coeffs)
    while p and p[0] == 0:
        p.pop(0)
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while chain[-1]:
        rem, div = chain[-2], chain[-1]
        lead = abs(div[0])
        while len(rem) >= len(div):
            f = rem[0] * lead // div[0]  # the sign of div[0] times rem[0]
            rem = ([lead * x - f * y for x, y in zip(rem[1:], div[1:])]
                   + [lead * x for x in rem[len(div):]])
        while rem and rem[0] == 0:
            rem.pop(0)
        g = gcd(*rem)  # 0 for the empty remainder, which ends the chain
        chain.append([-(c // g) for c in rem])

    def sign_changes(x: int) -> int:
        values = [v for v in (poly_eval(q, x) for q in chain) if v]
        return sum((u > 0) != (v > 0) for u, v in zip(values, values[1:]))

    return sign_changes(a) - sign_changes(b)
