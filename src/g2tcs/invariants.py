"""Topological invariants of a glued 7-manifold from its configuration.

Implements the invariant pipeline: Betti numbers, the boundary
presentation of H^4-torsion with its linking form (general route and the
pure-angle shortcut), divisibility of the spin characteristic class
p(M), the nu_bar invariant from the configuration angles, and the
comparison decision procedure for 2-connected results.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .configuration import (
    ANGLES,
    AngleSpectrum,
    Configuration,
    configuration_angles,
    d_theta,
    is_pure_angle,
    per_configuration,
    validate_configuration,
)
from .exact import int_matmul, lattice_intersection, transpose
from .lattices import (
    CokernelPresentation,
    FiniteAbelianGroup,
    GramLattice,
    cokernel_presentation,
    discriminant_form,
    even_dual_kernel,
    quotient_by_2torsion,
    saturated_sum,
)


class UnsupportedAngle(ValueError):
    """Raised when torsion computation is requested for an angle outside
    the implemented pi/4 and pi/6 families."""


def _require_torsion_angle(cfg: Configuration) -> int:
    """The torsion family of the angle: 4 (pi/4) or 6 (pi/6)."""
    if not cfg.angle.torsion:
        raise UnsupportedAngle(
            f"torsion computation supports only angles with cos^2 in "
            f"{{1/2, 3/4}}; got theta = {cfg.angle.describe()}")
    return cfg.angle.torsion


# ----------------------------------------------------------------- betti

def betti(cfg: Configuration) -> Tuple[int, int]:
    """(b2, b3) of the glued 7-manifold.

    b2 is the nullity n0 of the pushout's inertia, the rank of its radical
    (the intersection of the two polarising lattices); b3 combines the block
    contributions, with a side entering through b3+ when the gluing
    decision (``GluingAngle.roles``) uses it in its involution role.
    """
    cfg.angle.require_simply_connected()
    b2 = cfg.inertia()[2]
    side_b3 = sum(block.b3plus if role == "involution" else block.b3
                  for block, role in zip((cfg.plus, cfg.minus),
                                         cfg.angle.roles))
    b3 = 23 - cfg.rho_plus - cfg.rho_minus + b2 + side_b3 + d_theta(cfg)
    return b2, b3


# -------------------------------------------------------------- boundary

class BoundaryData(NamedTuple):
    """The boundary map presenting the torsion of H^4.

    matrix columns are indexed by the domain generators (a basis of the
    even-dual sublattice of N+ followed by a basis of N- or its
    even-dual sublattice); rows by the dual bases of N+* and N-*.
    domain_embedding expresses domain vectors in plain N+ (+) N-
    coordinates, which is what the linking pairing contracts against.
    """

    matrix: Tuple[Tuple[int, ...], ...]
    p_class: Tuple[int, ...]
    domain_embedding: Tuple[Tuple[int, ...], ...]


def boundary_data(cfg: Configuration) -> BoundaryData:
    """Boundary presentation of the torsion of H^4 with the p(M) class.

    For theta = pi/4 the domain is the even-dual sublattice of N+ plus
    all of N-, and p(M) maps to (c2bar+/2, -c2bar-); for pi/6 both
    sides contribute their even-dual sublattices and p(M) maps to
    (c2bar+/2, -c2bar-/2). The gluing decision (``GluingAngle``) has put
    involution blocks on those sides.
    """
    quarter = _require_torsion_angle(cfg) == 4
    rp, rm = cfg.rho_plus, cfg.rho_minus
    Gp, Gm = cfg.plus.N.gram, cfg.minus.N.gram
    C = cfg.cross
    Bp = even_dual_kernel(cfg.plus.N)  # rows: domain basis in N+ coords
    if quarter:
        minus_rows = [[int(i == j) for j in range(rm)] for i in range(rm)]
        p_minus = [-v for v in cfg.minus.c2bar]
    else:
        minus_rows = even_dual_kernel(cfg.minus.N)
        p_minus = [-v // 2 for v in cfg.minus.c2bar]

    def halved(column, factor=1):
        # The 1/2 and 3/2 scales of the columns, for an even column only.
        if any(v % 2 for v in column):
            raise ArithmeticError("boundary matrix entry is not integral; "
                                  "invariant violation")
        return [factor * v // 2 for v in column]
    # Rows x^T G+ = (G+ x)^T, x^T C = (C^T x)^T, and so on.
    cols = [halved(top) + bottom for top, bottom
            in zip(int_matmul(Bp, Gp), int_matmul(Bp, C))]
    cols += [top + (bottom if quarter else halved(bottom, 3))
             for top, bottom in zip(int_matmul(minus_rows, transpose(C)),
                                    int_matmul(minus_rows, Gm))]
    embed = ([list(x) + [0] * rm for x in Bp]
             + [[0] * rp + list(y) for y in minus_rows])
    p_class = tuple([v // 2 for v in cfg.plus.c2bar] + list(p_minus))
    return BoundaryData(
        matrix=tuple(zip(*cols)),
        p_class=p_class,
        domain_embedding=tuple(tuple(r) for r in embed),
    )


@per_configuration
def _boundary_cokernel(cfg: Configuration
                       ) -> Tuple[BoundaryData, CokernelPresentation]:
    """The boundary data and the presentation of its cokernel."""
    bd = boundary_data(cfg)
    return bd, cokernel_presentation([list(r) for r in bd.matrix])


class TorsionReport(NamedTuple):
    group: FiniteAbelianGroup
    linking: Tuple[Tuple[Fraction, ...], ...]


def torsion_report(cfg: Configuration) -> TorsionReport:
    """Torsion of H^4 with its linking form, via the boundary map.

    The torsion is the torsion of the cokernel of the boundary matrix. Its
    Smith transform Q holds a preimage of d_i times each torsion generator
    z_i; carried into N+ (+) N- by the domain embedding and paired against
    z_j, over d_i, it gives the linking of z_i and z_j.
    """
    bd, pres = _boundary_cokernel(cfg)
    pairing = pres.linking(bd.domain_embedding)
    if any(pairing[i][j] != pairing[j][i]
           for i in range(len(pairing)) for j in range(i)):
        raise ArithmeticError("linking form is not symmetric; "
                              "invariant violation")
    group = FiniteAbelianGroup(pres.group.invariant_factors, 0)
    return TorsionReport(group, pairing)


# ------------------------------------------------------------ pure route

class PureTorsion(NamedTuple):
    group: FiniteAbelianGroup
    linking: Tuple[Tuple[Fraction, ...], ...]
    d_free: int
    p_values: Tuple[int, ...]


def pure_angle_torsion(cfg: Configuration) -> PureTorsion:
    """Torsion, linking and free p-divisor via the pure-angle shortcut.

    The discriminant group of the overlattice N+ + 2 pi+ N- modulo its
    2-torsion carries the doubled discriminant pairing and equals the
    torsion of H^4; the free part of the boundary cokernel is the dual
    of pi- N+ intersect N- (pi/4) or (2/3) pi- N+ intersect N- (pi/6),
    where p(M) evaluates through the block c2bar classes.
    """
    quarter = _require_torsion_angle(cfg) == 4
    if not is_pure_angle(cfg):
        raise ValueError("pure-angle shortcut requires a pure angle")
    rp, rm = cfg.rho_plus, cfg.rho_minus
    pencil = cfg.pencil()
    det_plus, det_minus = cfg.gluing.det_plus, cfg.gluing.det_minus
    # N+ + 2 pi+ N- with pi+ = AC / det G+, over the denominator det G+.
    gens = [[det_plus * (i == j) for j in range(rp)] for i in range(rp)]
    gens += [[2 * row[j] for row in pencil.AC] for j in range(rm)]
    lam = saturated_sum(cfg.plus.N, gens, det_plus)
    delta = discriminant_form(GramLattice.from_rows(lam.gram))
    quotient = quotient_by_2torsion(delta)
    # Free part: (q pi- N+) meet N-, q = 1 (pi/4) or 2/3 (pi/6), with
    # pi- = BCt / det G-, scaled into Z^rm by den(q) |det G-|.
    num, den = (1, 1) if quarter else (2, 3)
    scale = den * abs(det_minus)
    images = [[num * row[i] for row in pencil.BCt] for i in range(rp)]
    scaled_identity = [[scale * int(i == j) for j in range(rm)]
                       for i in range(rm)]
    inter = lattice_intersection(images, scaled_identity)
    basis = [[x // scale for x in row] for row in inter]
    # p(M) on pi+ f + f is c2bar+ . AC f / det G+ + c2bar- . f / half
    # with half = 1 (pi/4) or 2 (pi/6).
    half = 1 if quarter else 2
    weights = int_matmul([list(cfg.plus.c2bar)], pencil.AC)[0]
    p_values = []
    for f in basis:
        val, rem = divmod(
            half * sum(w * x for w, x in zip(weights, f))
            + det_plus * sum(c * x for c, x in zip(cfg.minus.c2bar, f)),
            half * det_plus)
        if rem:
            raise ArithmeticError("p(M) evaluation is not integral; "
                                  "invariant violation")
        p_values.append(val)
    d_free = gcd(24, *(abs(v) for v in p_values)) if p_values else 24
    return PureTorsion(quotient.group, quotient.pairing, d_free,
                       tuple(p_values))


# -------------------------------------------------------------- p divisor

def p_divisor(cfg: Configuration) -> Tuple[int, int, bool]:
    """(d_free, d_full, clean): divisibility of p(M), gcd'd with 24.

    d_free is the greatest divisor of the image of p(M) in the free
    quotient of the boundary cokernel; d_full the greatest divisor in
    the full cokernel (torsion included); clean reports whether the two
    agree, i.e. whether p(M) can be moved entirely into the free
    summand.
    """
    bd, pres = _boundary_cokernel(cfg)
    coords = pres.snf_coordinates(list(bd.p_class))
    free_vals = [coords[i] for i in pres.free_indices]
    d_free = gcd(24, *(abs(v) for v in free_vals)) if free_vals else 24
    d_full = _full_divisor(d_free, [(coords[i], pres.diagonal(i))
                                    for i in pres.torsion_indices])
    return d_free, d_full, d_free == d_full


def _full_divisor(d_free: int, torsion: Sequence[Tuple[int, int]]) -> int:
    """The greatest divisor m of d_free with gcd(m, d_i) dividing c_i for
    each torsion coordinate c_i of order d_i: a divisor of 24 divides
    every free value of p(M) exactly when it divides d_free."""
    return next(m for m in range(d_free, 0, -1) if d_free % m == 0
                and all(c % gcd(m, d) == 0 for c, d in torsion))


# ----------------------------------------------------------------- nu_bar

def nu_bar(angles: AngleSpectrum, theta: Fraction,
           orientation: int = 1) -> int:
    """The integer refinement of the nu invariant from the angle data.

    With rho = pi - 2 theta, counts the minus-type configuration angles
    on the boundary and interior of (pi - |rho|, pi]: a cosine a/b is
    compared with theta's cut-off cos(pi - |rho|) = c/d in ``ANGLES`` by
    the sign of the integer a d - c b. theta is an int or Fraction of pi
    (negative for the reversed orientation); an inexact theta, or one
    outside the seven admissible angles, raises ValueError. The result
    changes sign with the orientation flag.
    """
    if not isinstance(theta, (int, Fraction)):
        raise ValueError(f"theta {theta!r} is not an exact fraction of pi")
    row = ANGLES.get((abs(theta.numerator), theta.denominator))
    if row is None:
        raise ValueError(f"unsupported theta {theta}*pi")
    base, sign_rho, cut_num, cut_den = row[2:]
    boundary = 0
    interior = 0
    for cos_a, s in angles.alpha_minus:
        num, den = cos_a.numerator, cos_a.denominator
        if s == 1:  # each +- pair is counted once, at its + member
            side = num * cut_den - cut_num * den
            if side == 0:
                boundary += 1
            elif side < 0 and -den < num:
                interior += 1
        elif s == 0 and num == -den:  # the angle pi
            boundary += 1
    value = base + 3 * sign_rho * (boundary - 1 + 2 * interior)
    return orientation * value


# -------------------------------------------------------- linking compare

def _checked_form(factors: Tuple[int, ...], b, name: str):
    """``b`` mod 1 as a symmetric k x k matrix of integer numerators.

    Entry (i, j) must be an int or a Fraction in (1/g)Z for
    g = gcd(d_i, d_j); it is returned as the numerator in [0, g) of its
    class mod 1 over g.
    """
    k = len(factors)
    try:
        rows = [list(row) for row in b]
    except TypeError:
        raise ValueError(f"{name} must be a {k}x{k} matrix") from None
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ValueError(f"{name} must be a {k}x{k} matrix")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise ValueError(f"{name}[{i}][{j}] = {x!r} is not an "
                                 f"int or a Fraction")
            g = gcd(factors[i], factors[j])
            num, den = x.numerator, x.denominator
            if g % den:
                raise ValueError(f"{name}[{i}][{j}] = {x} is not in "
                                 f"(1/{g})Z")
            row[j] = num * (g // den) % g
    for i in range(k):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"{name} is not symmetric at "
                                 f"({i}, {j})")
    return rows


def _valuation(d: int, p: int) -> int:
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


def _primes(factors: Sequence[int]) -> List[int]:
    """Primes dividing the group order, odd ones first and 2 last."""
    primes = set()
    for d in factors:
        p = 2
        while p * p <= d:
            if d % p == 0:
                primes.add(p)
                d //= p ** _valuation(d, p)
            p += 1
        if d > 1:
            primes.add(d)
    return sorted(primes, key=lambda p: (p == 2, p))


def _p_part(p: int, factors: Sequence[int], form) -> Tuple[List[int], list]:
    """The p-primary part of a form: exponents and scaled Gram.

    The generators are m_i g_i with m_i = d_i / p^e_i, of order p^e_i;
    entry (i, j) of the Gram is N * m_i m_j b(g_i, g_j) mod N for
    N = p^(max e_i), an integer: ``form`` holds the numerators a of
    b(g_i, g_j) = a / g, and g = gcd(d_i, d_j) divides N m_i m_j.
    """
    gens = []
    for i, d in enumerate(factors):
        e = _valuation(d, p)
        if e:
            gens.append((i, e, d // p ** e))
    n = p ** max(e for _, e, _ in gens)
    gram = [[form[i][j] * (n * mi * mj // gcd(factors[i], factors[j])) % n
             for j, _, mj in gens] for i, _, mi in gens]
    return [e for _, e, _ in gens], gram


def _jordan_blocks(p: int, exps: Sequence[int], gram):
    """Orthogonal splitting of a form on a p-group, or None if degenerate.

    Repeatedly takes the basis elements of the largest order p^K. One
    whose self-pairing has order p^K is split off, and every other basis
    element y becomes y - c x with b(y - c x, x) = 0; c is a multiple of
    p^K / ord(y), so the orders stay. Without such an x, two elements
    whose pairing has order p^K are used: for odd p, x + y then has a
    self-pairing of order p^K; for p = 2 the pair is split off as a 2x2
    block of odd determinant. When no pairing among them has order p^K,
    p^(K-1) x lies in the radical and the form is degenerate.

    Returns (K, u) per split-off element x, where b(x, x) = u / p^K, and
    (K, None) per 2x2 block.
    """
    n = p ** max(exps)
    a = [list(row) for row in gram]
    live = list(range(len(exps)))
    blocks = []
    while live:
        top_exp = max(exps[i] for i in live)
        q, scale = p ** top_exp, n // p ** top_exp
        top = [i for i in live if exps[i] == top_exp]
        pivots = next(([x] for x in top if a[x][x] // scale % p), None)
        if pivots is None:
            pivots = next(([x, y] for x, y in itertools.combinations(top, 2)
                           if a[x][y] // scale % p), None)
            if pivots is None:
                return None
            if p != 2:
                x, y = pivots
                for r in live:
                    a[x][r] = (a[x][r] + a[y][r]) % n
                for r in live:
                    a[r][x] = (a[r][x] + a[r][y]) % n
                pivots = [x]
        m = [[a[u][v] // scale for v in pivots] for u in pivots]
        if len(m) == 1:
            inv = [[pow(m[0][0], -1, q)]]
        else:
            (s, t), (_, w) = m
            det_inv = pow(s * w - t * t, -1, q)
            inv = [[w * det_inv, -t * det_inv], [-t * det_inv, s * det_inv]]
        live = [i for i in live if i not in pivots]
        for z in live:
            w_z = [a[z][v] // scale for v in pivots]
            c = [sum(f * g for f, g in zip(row, w_z)) % q for row in inv]
            for r in live:
                a[z][r] = (a[z][r] - sum(cv * a[v][r]
                                         for cv, v in zip(c, pivots))) % n
        blocks.append((top_exp, m[0][0] % q if len(m) == 1 else None))
    return blocks


def _wall_invariants(p: int, blocks) -> Dict[int, Tuple[int, int]]:
    """Per exponent K: the rank of the Z/p^K block and the Legendre
    symbol of the product of its diagonal units (odd p)."""
    invariants: Dict[int, Tuple[int, int]] = {}
    for exp, u in blocks:
        rank, sign = invariants.get(exp, (0, 1))
        square = pow(u, (p - 1) // 2, p) == 1
        invariants[exp] = (rank + 1, sign if square else -sign)
    return invariants


def _independent_mod_p(x, basis, p: int):
    """``basis`` in echelon form mod p extended by x, or None if x mod p
    lies in its span."""
    v = [c % p for c in x]
    for lead, row in basis:
        if v[lead]:
            f = v[lead]
            v = [(s - f * t) % p for s, t in zip(v, row)]
    lead = next((i for i, s in enumerate(v) if s), None)
    if lead is None:
        return None
    inv = pow(v[lead], -1, p)
    return basis + [(lead, [s * inv % p for s in v])]


def _element_classes(p: int, exps: Sequence[int], gram, elements):
    """Each element's pairing row, and the elements grouped by (e, norm,
    radical): order dividing p^e, self-pairing and radical membership.
    An isometry preserves all three, so the group sizes are invariants.
    """
    k = len(exps)
    n = p ** max(exps)
    rows = {x: [sum(x[s] * gram[s][r] for s in range(k)) % n
                for r in range(k)] for x in elements}
    classes: Dict[Tuple[int, int, bool], list] = {}
    for x, row in rows.items():
        key = (sum(s * t for s, t in zip(row, x)) % n, not any(row))
        for e in set(exps):
            if all(x[r] % p ** max(0, exps[r] - e) == 0 for r in range(k)):
                classes.setdefault((e,) + key, []).append(x)
    return rows, classes


def _p_part_isometric(p: int, exps: Sequence[int], gram1, gram2,
                      degenerate: bool) -> bool:
    """Whether an automorphism phi of the p-group carries gram2 onto
    gram1: b2(phi g_i, phi g_j) = b1(g_i, g_j).

    Images are assigned one generator at a time. A candidate for g_i has
    order dividing p^e_i, the self-pairing b1(g_i, g_i), radical
    membership as g_i, and the pairings b1(g_i, g_j) with the images
    already chosen. A form-preserving map of a nondegenerate b1 is
    injective, so only a degenerate b1 needs the images to stay
    independent in G/pG (which makes the map onto).
    """
    k = len(exps)
    n = p ** max(exps)
    elements = list(itertools.product(*(range(p ** e) for e in exps)))
    _, classes1 = _element_classes(p, exps, gram1, elements)
    rows, classes2 = _element_classes(p, exps, gram2, elements)
    if ({key: len(xs) for key, xs in classes1.items()}
            != {key: len(xs) for key, xs in classes2.items()}):
        return False
    candidates = [classes2.get((exps[i], gram1[i][i], not any(gram1[i])),
                               []) for i in range(k)]
    images: list = []

    def extend(i: int, basis) -> bool:
        if i == k:
            return True
        for x in candidates[i]:
            row = rows[x]
            if any(sum(s * t for s, t in zip(row, images[j])) % n
                   != gram1[i][j] for j in range(i)):
                continue
            if degenerate:
                grown = _independent_mod_p(x, basis, p)
                if grown is None:
                    continue
            else:
                grown = basis
            images.append(x)
            if extend(i + 1, grown):
                return True
            images.pop()
        return False

    return extend(0, [])


def linking_forms_equivalent(factors: Sequence[int],
                             b1: Sequence[Sequence[Fraction]],
                             b2: Sequence[Sequence[Fraction]]) -> bool:
    """Whether some automorphism phi of G = Z/d_1 + ... + Z/d_k has
    b2(phi g_i, phi g_j) = b1(g_i, g_j) for all generators g_i.

    Both forms are the k x k pairing matrices of the generators g_i of
    order d_i, with entry (i, j) an int or Fraction in
    (1/gcd(d_i, d_j))Z, read mod 1. A matrix of another shape or type,
    an entry outside that range, or an asymmetric matrix raises
    ValueError.

    The form splits orthogonally into p-primary parts, one per prime p
    dividing |G|, on the generators (d_i / p^e_i) g_i with p^e_i the
    exact power of p in d_i; the forms are equivalent exactly when every
    p-part is. For odd p, a nondegenerate part is diagonalised over
    Z/p^K, and the rank and the Legendre symbol of the determinant of
    each homogeneous Z/p^K block are its complete invariants (Wall,
    "Quadratic forms on finite groups", 1963). The 2-primary part, and a
    degenerate part for any p, are decided by a search over generator
    images of that part alone, pruned pairing by pairing. This is
    polynomial for odd nondegenerate forms; the 2-primary search stands
    in for the 2-adic invariants of Kawauchi-Kojima (1980).
    """
    factors = tuple(factors)
    for d in factors:
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise ValueError(f"group order {d!r} is not a positive int")
    f1 = _checked_form(factors, b1, "b1")
    f2 = _checked_form(factors, b2, "b2")
    if f1 == f2:
        return True
    for p in _primes(factors):
        exps, gram1 = _p_part(p, factors, f1)
        _, gram2 = _p_part(p, factors, f2)
        blocks1 = _jordan_blocks(p, exps, gram1)
        blocks2 = _jordan_blocks(p, exps, gram2)
        if (blocks1 is None) != (blocks2 is None):
            return False
        if p != 2 and blocks1 is not None:
            if _wall_invariants(p, blocks1) != _wall_invariants(p, blocks2):
                return False
        elif not _p_part_isometric(p, exps, gram1, gram2,
                                   degenerate=blocks1 is None):
            return False
    return True


def _negate_pairing(b: Sequence[Sequence[Fraction]]):
    return tuple(tuple(Fraction(-x.numerator % x.denominator, x.denominator)
                       for x in row) for row in b)


# ------------------------------------------------------------ full report

class InvariantReport(NamedTuple):
    pi1: str
    b2: int
    b3: int
    theta: Fraction
    orientation: int
    pure: bool
    torsion_supported: bool
    torsion: Optional[FiniteAbelianGroup]
    linking: Optional[Tuple[Tuple[Fraction, ...], ...]]
    d_free: Optional[int]
    d_full: Optional[int]
    p_torsion_clean: Optional[bool]
    angles: AngleSpectrum
    nu_bar: int
    nu: int

    @property
    def torsion_order(self) -> Optional[int]:
        return self.torsion.torsion_order if self.torsion else None


def full_report(cfg: Configuration) -> InvariantReport:
    """Complete invariant suite of a configuration.

    Cross-checks the two torsion routes on pure-angle configurations and
    asserts the parity relation between nu and the Betti numbers.
    """
    v = validate_configuration(cfg)
    if not v.ok:
        raise ValueError("invalid configuration: " + "; ".join(v.problems))
    b2, b3 = betti(cfg)
    angles = configuration_angles(cfg)
    nb = nu_bar(angles, cfg.angle.theta, cfg.angle.orientation)
    pure = is_pure_angle(cfg)
    supported = cfg.angle.torsion != 0
    torsion = linking = d_free = d_full = clean = None
    if supported:
        tr = torsion_report(cfg)
        torsion = tr.group
        linking = tr.linking
        d_free, d_full, clean = p_divisor(cfg)
        if pure:
            shortcut = pure_angle_torsion(cfg)
            if shortcut.group.invariant_factors != \
                    torsion.invariant_factors:
                raise ArithmeticError(
                    "pure-angle shortcut disagrees with the boundary "
                    "route on the torsion group")
            if not linking_forms_equivalent(
                    torsion.invariant_factors, linking, shortcut.linking):
                raise ArithmeticError(
                    "pure-angle shortcut disagrees with the boundary "
                    "route on the linking form")
            if shortcut.d_free != d_free:
                raise ArithmeticError(
                    "pure-angle shortcut disagrees with the boundary "
                    "route on the free p-divisor")
        if cfg.angle.orientation == -1:
            linking = _negate_pairing(linking)
    nu = (nb + 24) % 48
    if (nb + 24) % 2 != (1 + b2 + b3) % 2:
        raise ArithmeticError("parity relation between nu and the Betti "
                              "numbers violated")
    return InvariantReport(
        pi1=cfg.angle.pi1, b2=b2, b3=b3, theta=cfg.angle.theta,
        orientation=cfg.angle.orientation, pure=pure,
        torsion_supported=supported, torsion=torsion, linking=linking,
        d_free=d_free, d_full=d_full, p_torsion_clean=clean,
        angles=angles, nu_bar=nb, nu=nu,
    )


# ------------------------------------------------------------- comparison

class Comparison(NamedTuple):
    verdict: str  # "distinct" or "diffeo_candidate"
    caveats: Tuple[str, ...]
    orientation_reversal_match: bool
    detail: str


def compare_2connected(r1: InvariantReport,
                       r2: InvariantReport) -> Comparison:
    """Decide whether two 2-connected results are distinguishable.

    The classifying data are b3, the torsion group with its linking
    form (up to group automorphism) and the divisibility of p(M).
    The linking forms are compared by ``linking_forms_equivalent``:
    prime by prime, from Wall's invariants (rank and Legendre symbol of
    each homogeneous block) on the odd-order parts and by a search
    confined to the 2-primary part; a malformed linking matrix raises
    ValueError. orientation_reversal_match makes the same comparison
    with r2's form negated. When everything matches the verdict is a
    candidate for diffeomorphism, with caveats naming the invariants
    that the pipeline does not compute (quadratic refinement for
    2-torsion, Eells-Kuiper when 8 divides the p-divisor, xi when the
    p-divisor does not divide 112).
    """
    for r in (r1, r2):
        if r.pi1 != "simply_connected" or r.b2 != 0:
            raise ValueError("comparison requires 2-connected results "
                             "(trivial pi1 and b2 = 0)")
        if not r.torsion_supported:
            raise ValueError("comparison requires torsion data")
    factors = r1.torsion.invariant_factors
    if r1.b3 != r2.b3:
        detail = "b3 differs"
    elif factors != r2.torsion.invariant_factors:
        detail = "torsion group differs"
    elif (r1.d_free, r1.d_full) != (r2.d_free, r2.d_full):
        detail = "p(M) divisibility differs"
    else:
        detail = None
    # The same gates decide the match with r2's orientation reversed; the
    # direct comparison checks r2's form before it is negated.
    matched = detail is None and linking_forms_equivalent(
        factors, r1.linking, r2.linking)
    reversal = detail is None and linking_forms_equivalent(
        factors, r1.linking, _negate_pairing(r2.linking))
    if detail is None and not matched:
        detail = "no group automorphism matches the linking forms"
    if detail is not None:
        return Comparison("distinct", (), reversal, detail)
    caveats = []
    if any(d % 2 == 0 for d in factors):
        caveats.append("q")
    if r1.d_free % 8 == 0:
        caveats.append("mu")
    if 112 % r1.d_free != 0:
        caveats.append("xi")
    return Comparison("diffeo_candidate", tuple(caveats), reversal,
                      "all computed classifying invariants agree")

