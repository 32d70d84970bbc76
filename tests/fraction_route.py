"""The rational route that the integer pencil replaced, kept as the oracle.

Everything here works in ``RationalMatrix`` and ``Fraction`` arithmetic:
the side compositions pi± pi∓ with their Faddeev–LeVerrier charpoly, its
rational roots, the Sturm chain and its check of [0, 1], eigenspaces as
nullspaces, the Fourier–Motzkin feasibility solve with midpoints, the glue
pushout, and the Fraction versions of the boundary matrix, the pure-angle
torsion, the discriminant pairing, the signature and nu_bar. ``routes_agree``
compares each of them with what the package computes, value for value or
exception type for exception type.
"""

from fractions import Fraction as F
from math import gcd
from typing import List, Optional

from g2tcs.configuration import (ANGLE_PI, ANGLE_ZERO, AngleSpectrum,
                                 ValidationReport, configuration_angles,
                                 d_theta, feasibility_cone_check,
                                 is_pure_angle, validate_configuration)
from g2tcs.exact import (RationalMatrix, clear_denominators,
                         hermite_row_basis, int_charpoly,
                         lattice_intersection, poly_divmod, poly_eval,
                         rational_roots)
from g2tcs.invariants import (PureTorsion, UnsupportedAngle, boundary_data,
                              pure_angle_torsion)
from g2tcs.lattices import (DiscriminantForm, FiniteAbelianGroup,
                            GramLattice, cokernel_presentation,
                            discriminant_form, even_dual_kernel,
                            quotient_by_2torsion, radical_and_quotient,
                            signature)

TORSION_ANGLES = (F(1, 2), F(3, 4))


def _matrix(rows) -> RationalMatrix:
    return RationalMatrix([list(r) for r in rows])


def mul_vector(M: RationalMatrix, v):
    """The product M v of a rational matrix and a vector of ints or
    Fractions."""
    if len(v) != M.ncols:
        raise ValueError("dimension mismatch")
    return [sum(a * F(b) for a, b in zip(row, v)) for row in M.rows]


def rational_signature(gram):
    """Inertia of a symmetric form by congruence reduction in Fractions."""
    n = len(gram)
    A = [[F(x) for x in row] for row in gram]
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        pivot = next((i for i in idx if A[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in idx for j in idx
                         if i != j and A[i][j] != 0), None)
            if pair is None:
                zero += len(idx)
                break
            i, j = pair
            for k in idx:
                A[i][k] += A[j][k]
            for k in idx:
                A[k][i] += A[k][j]
            continue
        d = A[pivot][pivot]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        idx = [i for i in idx if i != pivot]
        for i in idx:
            f = A[i][pivot] / d
            for j in idx:
                A[i][j] -= f * A[pivot][j]
    return pos, neg, zero


def _form_on(G: RationalMatrix, basis):
    """The Gram matrix of G on rational vectors."""
    return [[sum(a * b for a, b in zip(v, mul_vector(G, u))) for v in basis]
            for u in basis]


def _restricted_signature(G: RationalMatrix, basis):
    return rational_signature(_form_on(G, basis))


def glue_gram(base_gram, plus_basis, minus_basis):
    """The pushout Gram of rational glue bases in a base Gram, or None
    when a pairing is not an integer."""
    vs = [[F(x) for x in row] for row in (*plus_basis, *minus_basis)]
    gram = _form_on(_matrix(base_gram), vs)
    if any(x.denominator != 1 for row in gram for x in row):
        return None
    return [[int(x) for x in row] for row in gram]


def rational_discriminant_pairing(gram):
    """Pairings x^T G^-1 y mod 1 of the discriminant generators."""
    G = _matrix(gram)
    if G.det() == 0:
        raise ValueError("lattice is degenerate")
    gens = cokernel_presentation([list(r) for r in gram]).generator_vectors()
    Ginv = G.inverse()
    return tuple(tuple(sum(F(a) * b for a, b in zip(x, mul_vector(Ginv, y)))
                       % 1 for y in gens) for x in gens)


def _rational_saturated_gram(ambient, generators):
    """Gram of the lattice generated by rational vectors (old route)."""
    denom, int_rows = clear_denominators(generators)
    basis = [[F(x, denom) for x in row]
             for row in hermite_row_basis(int_rows)]
    gram = _form_on(_matrix(ambient), basis)
    for i, row in enumerate(gram):
        for j, x in enumerate(row):
            if x.denominator != 1 or (i == j and int(x) % 2 != 0):
                raise ValueError("sum is not an integral lattice")
    return [[int(x) for x in row] for row in gram]


# ------------------------------------------------------------ the angle

def charpoly(cfg):
    """Charpoly of m+ = pi+ pi- on N+ from the rational side compositions."""
    return cfg.side_compositions()[0].charpoly()


def eigenspace(cfg, side, c):
    M = cfg.side_compositions()[side]
    return (M - RationalMatrix.identity(M.nrows).scaled(c)).nullspace()


def _square_free(p):
    """p divided by gcd(p, p') (by Euclid's algorithm), made monic."""
    a = list(p)
    b = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while any(b):
        _, rem = poly_divmod(a, b)
        while rem and rem[0] == 0:
            rem.pop(0)
        a, b = b, rem
    q = poly_divmod(p, a)[0]
    return [c / q[0] for c in q]


def sturm_count_roots(coeffs, a, b) -> int:
    """Number of distinct real roots of a rational polynomial in (a, b]:
    the Sturm chain of negated remainders, in Fractions."""
    p = [F(c) for c in coeffs]
    while p and p[0] == 0:
        p.pop(0)
    if len(p) <= 1:
        return 0
    dp = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    chain = [p, dp]
    while True:
        _, rem = poly_divmod(chain[-2], chain[-1])
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        chain.append([-c for c in rem])

    def sign_changes(x) -> int:
        signs = []
        for q in chain:
            v = poly_eval(q, x)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return sign_changes(a) - sign_changes(b)


def in_unit_interval(p) -> bool:
    """All real roots of p in [0, 1], by two Sturm counts.

    The counts run on the square-free part of p: with a repeated root at 0
    or 1, every member of the Sturm sequence of p vanishes there, and the
    count of the roots in (a, b] goes wrong (the rational route before the
    integer pencil made this mistake, rejecting for instance the
    eigenvalues 0, 0, 1/2).
    """
    p = _square_free(p)
    bound = 1 + max((abs(c) for c in p), default=F(1))
    above = sturm_count_roots(p, F(1), bound)
    below = sturm_count_roots(p, -bound, F(0))
    if below and p[-1] == 0:
        below -= 1
    return above == 0 and below == 0


def validation(cfg) -> ValidationReport:
    problems, flags = [], []
    rp, rm = cfg.rho_plus, cfg.rho_minus
    W = cfg.pushout
    if W.rank != rp + rm:
        return ValidationReport(False, (
            f"pushout rank {W.rank} != rho+ + rho- = {rp + rm}",), ())
    if any(W.gram[i][:rp] != row for i, row in enumerate(cfg.plus.N.gram)):
        problems.append("leading diagonal block differs from N+")
    if any(W.gram[rp + i][rp:] != row
           for i, row in enumerate(cfg.minus.N.gram)):
        problems.append("trailing diagonal block differs from N-")
    if not W.is_even():
        problems.append("pushout must be an even lattice")
    if not problems:
        _radical, reduced = radical_and_quotient(cfg.pushout)
        pos, neg, zero = rational_signature(reduced.gram)
        if (pos, neg) != (2, reduced.rank - 2) or zero:
            problems.append(
                f"signature must be (2, rk-2); quotient has "
                f"({pos}, {neg}, {zero})")
        if not in_unit_interval(charpoly(cfg)):
            problems.append("eigenvalues of pi+ pi- must lie in [0, 1]")
        if reduced.rank > 11:
            flags.append("rank > 11: primitive embedding into the K3 "
                         "lattice not guaranteed")
    return ValidationReport(not problems, tuple(problems), tuple(flags))


def angles(cfg) -> AngleSpectrum:
    """The principal-angle spectrum from rational roots and nullspaces."""
    roots, remainder = rational_roots(charpoly(cfg))
    if len(remainder) > 1:
        raise ArithmeticError("algebraic angles unsupported")
    Gp, Gm = _matrix(cfg.plus.N.gram), _matrix(cfg.minus.N.gram)
    pp, pm = cfg.projections()
    pi_pos = pi_neg = zero_pos = zero_neg = accounted = 0
    pairs_plus, pairs_minus = [], []
    for c, mult in sorted(roots):
        if not 0 <= c <= 1:
            raise ArithmeticError("real eigenvalue other than +-1")
        space = eigenspace(cfg, 0, c)
        if len(space) != mult:
            raise ArithmeticError("not semisimple")
        pos, neg, zero = _restricted_signature(Gp, space)
        if zero:
            raise ArithmeticError("degenerate eigenspace")
        if c == 0:
            if any(any(mul_vector(pm, x)) for x in space):
                raise ArithmeticError("not semisimple")
            pi_pos, pi_neg = pos, neg
            accounted += mult
        elif c == 1:
            zero_pos, zero_neg = pos, neg
            accounted += mult
        else:
            pairs_plus.extend([(2 * c - 1, 1), (2 * c - 1, -1)] * pos)
            pairs_minus.extend([(2 * c - 1, 1), (2 * c - 1, -1)] * neg)
            accounted += 2 * mult
    minus_kernel = eigenspace(cfg, 1, F(0))
    if any(any(mul_vector(pp, y)) for y in minus_kernel):
        raise ArithmeticError("not semisimple")
    pos, neg, zero = _restricted_signature(Gm, minus_kernel)
    if zero:
        raise ArithmeticError("degenerate eigenspace")
    pi_pos, pi_neg = pi_pos + pos, pi_neg + neg
    accounted += len(minus_kernel)
    if accounted != radical_and_quotient(cfg.pushout)[1].rank:
        raise ArithmeticError("eigenstructure does not fill the space")
    alpha_plus = [ANGLE_PI] * pi_pos + [ANGLE_ZERO] * zero_pos + pairs_plus
    alpha_minus = ([ANGLE_PI] * pi_neg + [ANGLE_ZERO] * zero_neg
                   + pairs_minus)
    alpha_plus.extend([ANGLE_ZERO] * (3 - len(alpha_plus)))
    alpha_minus.extend([ANGLE_ZERO] * (19 - len(alpha_minus)))
    if len(alpha_plus) != 3 or len(alpha_minus) != 19:
        raise ArithmeticError("angle spectrum has wrong size")
    return AngleSpectrum(tuple(alpha_plus), tuple(alpha_minus))


# cos(|rho| pi) for rho = 1 - 2 theta (in units of pi) in nu_bar.
COS_RHO = {F(1, 2): F(0), F(1, 3): F(1, 2), F(2, 3): F(-1, 2)}


def nu_bar(angles: AngleSpectrum, theta, orientation: int = 1) -> int:
    """nu_bar by Fraction comparisons: with rho = pi - 2 theta, the
    minus-type angles on the boundary and interior of (pi - |rho|, pi]."""
    theta = abs(F(theta))
    rho = 1 - 2 * theta  # as a fraction of pi
    if rho == 0:
        return 0
    base = -72 * rho
    if base.denominator != 1:
        raise ValueError(f"unsupported theta {theta}*pi")
    sign_rho = 1 if rho > 0 else -1
    # cos(pi - |rho|) = -cos(|rho| * pi), rational for all our angles.
    cstar = -COS_RHO[abs(rho)]
    boundary = 0
    interior = 0
    for cos_a, s in angles.alpha_minus:
        if s == -1:
            continue  # each +- pair is counted once, at its + member
        if (cos_a, s) == ANGLE_PI:
            boundary += 1
        elif s == 1:
            if cos_a == cstar:
                boundary += 1
            elif -1 < cos_a < cstar:
                interior += 1
    value = int(base) + 3 * sign_rho * (boundary - 1 + 2 * interior)
    return orientation * value


def rational_d_theta(cfg) -> int:
    if cfg.angle.cos_squared == 0:
        C = _matrix(cfg.cross)
        return ((cfg.rho_plus - C.rank())
                + (cfg.rho_minus - C.transpose().rank()))
    return len(eigenspace(cfg, 0, cfg.angle.cos_squared))


def rational_is_pure(cfg) -> bool:
    c = cfg.angle.cos_squared
    return all(M == RationalMatrix.identity(M.nrows).scaled(c)
               for M in cfg.side_compositions())


def _fourier_motzkin_strict(rows: List[List[F]]) -> Optional[List[F]]:
    """A solution of the strict system (row . t) > 0 for all rows, or None.

    Eliminates the last variable repeatedly, then back-substitutes with
    interval midpoints.
    """
    if not rows:
        return []
    k = len(rows[0])
    if k == 0:
        return None
    if k == 1:
        if all(r[0] > 0 for r in rows):
            return [F(1)]
        if all(r[0] < 0 for r in rows):
            return [F(-1)]
        return None
    # Normalize on the last variable: a . t' + c * t_k > 0.
    lower, upper, rest = [], [], []
    for r in rows:
        c = r[-1]
        if c > 0:
            lower.append([F(-x, c) for x in r[:-1]])  # t_k > lower
        elif c < 0:
            upper.append([F(-x, c) for x in r[:-1]])  # t_k < upper
        else:
            rest.append(r[:-1])
    projected = list(rest)
    for lo in lower:
        for up in upper:
            # up(t') - lo(t') > 0
            projected.append([u - l for u, l in zip(up, lo)])
    if not projected:
        # Any t' works; recurse on a trivial system of one dimension less.
        tprime = [F(0)] * (k - 1)
    else:
        tprime = _fourier_motzkin_strict(projected)
        if tprime is None:
            return None
    los = [sum(a * b for a, b in zip(lo, tprime)) for lo in lower]
    ups = [sum(a * b for a, b in zip(up, tprime)) for up in upper]
    lo_val = max(los) if los else None
    up_val = min(ups) if ups else None
    if lo_val is not None and up_val is not None:
        if lo_val >= up_val:
            return None
        tk = (lo_val + up_val) / 2
    elif lo_val is not None:
        tk = lo_val + 1
    elif up_val is not None:
        tk = up_val - 1
    else:
        tk = F(1)
    return tprime + [tk]


def feasible(cfg) -> bool:
    """The feasibility verdict from the nullspace basis and pi-."""
    if cfg.angle.cos_squared == 0:
        return True
    plus = eigenspace(cfg, 0, cfg.angle.cos_squared)
    if not plus:
        return False
    pm = cfg.projections()[1]
    eps = cfg.angle.epsilon
    rows = [[v[i] for v in plus] for i in range(cfg.rho_plus)]
    rows += [[eps * sum(pm.rows[j][i] * v[i] for i in range(cfg.rho_plus))
              for v in plus] for j in range(cfg.rho_minus)]
    return _fourier_motzkin_strict(rows) is not None


# ---------------------------------------------------------- the torsion

def _torsion_angle(cfg):
    c2 = cfg.angle.cos_squared
    if c2 not in TORSION_ANGLES:
        raise UnsupportedAngle("unsupported angle")
    return c2


def boundary_matrix(cfg):
    """The boundary matrix with the 1/2 and 3/2 scales in Fractions."""
    c2 = _torsion_angle(cfg)
    rp, rm = cfg.rho_plus, cfg.rho_minus
    if cfg.plus.kind != "involution":
        raise ValueError("the plus block must carry an involution")
    if c2 == F(3, 4) and cfg.minus.kind != "involution":
        raise ValueError("hexagonal gluing needs involution blocks")
    Gp, Gm = _matrix(cfg.plus.N.gram), _matrix(cfg.minus.N.gram)
    C = _matrix(cfg.cross)
    if c2 == F(1, 2):
        minus_rows = [[int(i == j) for j in range(rm)] for i in range(rm)]
        scale = F(1)
    else:
        minus_rows = even_dual_kernel(cfg.minus.N)
        scale = F(3, 2)
    cols = [[v / 2 for v in mul_vector(Gp, x)]
            + mul_vector(C.transpose(), x)
            for x in even_dual_kernel(cfg.plus.N)]
    cols += [mul_vector(C, y) + [v * scale for v in mul_vector(Gm, y)]
             for y in minus_rows]
    if any(v.denominator != 1 for col in cols for v in col):
        raise ArithmeticError("boundary matrix entry is not integral")
    return tuple(tuple(int(col[i]) for col in cols) for i in range(rp + rm))


def pure_torsion(cfg) -> PureTorsion:
    """The pure-angle torsion from pi+ and pi- in Fractions."""
    c2 = _torsion_angle(cfg)
    if not rational_is_pure(cfg):
        raise ValueError("pure-angle shortcut requires a pure angle")
    rp, rm = cfg.rho_plus, cfg.rho_minus
    pi_plus, pi_minus = cfg.projections()
    gens = [[F(int(i == j)) for j in range(rp)] for i in range(rp)]
    gens += [[2 * pi_plus.rows[i][j] for i in range(rp)] for j in range(rm)]
    lam = _rational_saturated_gram(cfg.plus.N.gram, gens)
    pres = cokernel_presentation(lam)
    delta = DiscriminantForm(
        FiniteAbelianGroup(pres.group.invariant_factors, 0),
        rational_discriminant_pairing(lam))
    quotient = quotient_by_2torsion(delta)
    scale = F(1) if c2 == F(1, 2) else F(2, 3)
    denom, int_rows = clear_denominators(
        [scale * pi_minus.rows[j][i] for j in range(rm)] for i in range(rp))
    inter = lattice_intersection(
        int_rows, [[denom * int(i == j) for j in range(rm)]
                   for i in range(rm)])
    minus_factor = F(1) if c2 == F(1, 2) else F(1, 2)
    p_values = []
    for f in ([x // denom for x in row] for row in inter):
        val = (sum(F(c) * x for c, x
                   in zip(cfg.plus.c2bar, mul_vector(pi_plus, f)))
               + minus_factor * sum(c * x for c, x
                                    in zip(cfg.minus.c2bar, f)))
        if val.denominator != 1:
            raise ArithmeticError("p(M) evaluation is not integral")
        p_values.append(int(val))
    d_free = gcd(24, *(abs(v) for v in p_values)) if p_values else 24
    return PureTorsion(quotient.group, quotient.pairing, d_free,
                       tuple(p_values))


# ------------------------------------------------------------ the check

def outcome(fn, *args):
    """fn(*args), or the type of the ArithmeticError or ValueError it
    raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _feasible_verdict(cfg):
    return feasibility_cone_check(cfg)[0]


def _integer_boundary(cfg):
    return boundary_data(cfg).matrix


def _pairing(gram):
    return discriminant_form(GramLattice.from_rows(gram)).pairing


def routes_agree(cfg):
    """Assert that the integer and the rational route agree on cfg."""
    label = cfg.pushout.gram
    pairs = [
        (configuration_angles, angles),
        (validate_configuration, validation),
        (d_theta, rational_d_theta),
        (is_pure_angle, rational_is_pure),
        (_feasible_verdict, feasible),
        (_integer_boundary, boundary_matrix),
        (pure_angle_torsion, pure_torsion),
    ]
    for new, old in pairs:
        assert outcome(new, cfg) == outcome(old, cfg), (new.__name__, label)
    # charpoly(N+)(y) = s^n charpoly(m+)(y / s)
    pencil = cfg.pencil()
    scaled = [c * pencil.s ** i for i, c in enumerate(charpoly(cfg))]
    assert int_charpoly(pencil.N[0]) == scaled, label
    radical, reduced = radical_and_quotient(cfg.pushout)
    assert cfg.inertia()[2] == len(radical), label
    assert cfg.inertia()[:2] == rational_signature(reduced.gram)[:2], label
    for gram in (cfg.plus.N.gram, cfg.minus.N.gram, reduced.gram):
        assert signature(GramLattice.from_rows(gram)) == \
            rational_signature(gram), label
        assert outcome(_pairing, gram) == \
            outcome(rational_discriminant_pairing, gram), label
