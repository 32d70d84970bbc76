"""Gluing configurations: pushout lattices, angles, feasibility.

A configuration glues two building blocks along their K3 fibres after a
torus rotation by an angle theta. Lattice-theoretically it is a pair of
primitive embeddings of the polarising lattices N+ and N- into the K3
lattice, recorded here by the Gram matrix of the (possibly degenerate)
pushout presentation on the concatenated bases of N+ and N-.

``GluingAngle`` decides once, from the two block kinds and theta, which
quotient of each block is glued: the torus flags, side roles and pi1.
``Gluing`` adds the pair's det G± and adj G±, and a ``Configuration`` is a
gluing plus how N+ and N- meet: the cross block C of the pushout.

All angles are exact rational multiples of pi; cosines enter only
through the rational values cos^2(theta) and cos(2 psi).

The gluing angle is read off one integer matrix per configuration, the
pencil N+ = adj(G+) C adj(G-) C^T = s m+, s = det G+ det G- (``Pencil``):
its charpoly, eigenspaces and kernels decide validation, angles,
d_theta, purity and feasibility in integers; Fractions are left to the
reported cosines.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter, mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .catalog import BuildingBlock
from .exact import (IntMatrix, RationalMatrix, adjugate, clear_denominators,
                    int_charpoly, int_det, int_matmul, integer_kernel,
                    integer_roots, sturm_count_roots, transpose)
from .lattices import GramLattice, signature

# The seven admissible angles theta = p/q pi, by (p, q): cos^2(theta)
# and the integers a report reads off theta, namely the torsion family
# (4 for cos^2 = 1/2, 6 for cos^2 = 3/4, 0 where the torsion of H^4 is
# not computed) and, for rho = 1 - 2 theta in units of pi, nu_bar's base
# -72 rho, the sign of rho and the cut-off cos(pi - |rho| pi) = a / b.
#        (cos^2,        family, base, sign, a, b)
ANGLES = {
    (1, 6): (Fraction(3, 4), 6, -48, 1, 1, 2),
    (1, 4): (Fraction(1, 2), 4, -36, 1, 0, 1),
    (1, 3): (Fraction(1, 4), 0, -24, 1, -1, 2),
    (1, 2): (Fraction(0), 0, 0, 0, -1, 1),
    (2, 3): (Fraction(1, 4), 0, 24, -1, -1, 2),
    (3, 4): (Fraction(1, 2), 4, 36, -1, 0, 1),
    (5, 6): (Fraction(3, 4), 6, 48, -1, 1, 2),
}
# cos^2(q*pi) for the seven admissible angle fractions q.
COS_SQUARED = {Fraction(*key): row[0] for key, row in ANGLES.items()}


class ConfigurationError(ValueError):
    """Raised for malformed or inadmissible configuration input."""


def parse_theta(text) -> Tuple[Fraction, int]:
    """Parse an exact angle string like "1/4pi" or "-pi/6", or a Fraction
    of pi, which is read as its "p/qpi" string.

    Returns (theta, orientation) with theta a positive fraction of pi in
    (0, 1) and orientation -1 when the input was negative.
    """
    if not isinstance(text, str):
        q = Fraction(text)
        text = f"{q.numerator}/{q.denominator}pi"
    s = text.replace(" ", "").replace("*", "")
    orientation = 1
    if s.startswith("-"):
        orientation = -1
        s = s[1:]
    m = re.fullmatch(r"(?:(\d+)/(\d+))?pi(?:/(\d+))?", s)
    if not m:
        raise ConfigurationError(f"cannot parse angle {text!r}; use forms "
                                 f"like '1/4pi' or 'pi/4'")
    if m.group(1) and m.group(3):
        raise ConfigurationError(f"ambiguous angle {text!r}")
    denominator = int(m.group(2) or m.group(3) or 1)
    if denominator == 0:
        raise ConfigurationError(f"angle {text!r} has a zero denominator")
    theta = Fraction(int(m.group(1) or 1), denominator)
    if (theta.numerator, theta.denominator) not in ANGLES:
        raise ConfigurationError(f"angle {text!r} is not one of the seven "
                                 f"admissible fractions of pi")
    return theta, orientation


INVOLUTION, ORDINARY = "involution", "ordinary"
SIMPLY_CONNECTED = "simply_connected"

# The gluings at theta and at 1 - theta (fractions of pi), by (p, q) for
# the smaller angle p/q pi, in order of preference: the side roles, the
# torus flags (b+, b-) and the pi1 class.
# A side in its involution role needs an involution block; any block can
# take the ordinary role. A quarter-turn twists only the plus side, so the
# minus block takes its ordinary role even when it carries an involution.
_GLUINGS = {
    (1, 6): [((INVOLUTION, INVOLUTION), (1, 0), SIMPLY_CONNECTED)],
    (1, 4): [((INVOLUTION, ORDINARY), (1, 0), SIMPLY_CONNECTED)],
    (1, 3): [((INVOLUTION, INVOLUTION), (1, 1), SIMPLY_CONNECTED)],
    (1, 2): [((INVOLUTION, INVOLUTION), (1, 1), "pi1_Z2"),
             ((ORDINARY, ORDINARY), (0, 0), SIMPLY_CONNECTED)],
}


class _AngleFields(NamedTuple):
    kind_plus: str
    kind_minus: str
    theta: Fraction
    orientation: int
    roles: Tuple[str, str]
    b_plus: int
    b_minus: int
    pi1: str
    cos_squared: Fraction
    torsion: int


class GluingAngle(_AngleFields):
    """The gluing decision: an exact angle for two block kinds.

    theta is a fraction of pi in (0, 1); orientation records a negated
    input angle (it flips the sign of nu_bar only). From the kinds and
    theta the constructor takes the first gluing of ``_GLUINGS`` whose
    involution roles the kinds fill: the side ``roles``, the torus flags
    ``b_plus``/``b_minus`` and the ``pi1`` class. If none fits it raises
    ConfigurationError, so no angle with inconsistent flags exists. It
    also keeps theta's ``cos_squared`` and ``torsion`` family from
    ``ANGLES``. The record is a tuple of all ten fields, equal by fields
    and read-only.
    """

    __slots__ = ()

    def __new__(cls, kind_plus: str, kind_minus: str, theta: Fraction,
                orientation: int = 1):
        p, q = ((theta.numerator, theta.denominator)
                if isinstance(theta, Fraction) else (0, 0))
        if (p, q) not in ANGLES:
            raise ConfigurationError(f"inadmissible theta {theta}*pi")
        for roles, flags, pi1 in _GLUINGS[min(p, q - p), q]:
            if all(role == ORDINARY or kind == INVOLUTION
                   for role, kind in zip(roles, (kind_plus, kind_minus))):
                break
        else:
            family = "square" if q % 3 else "hexagonal"
            raise ConfigurationError(
                f"blocks ({kind_plus}, {kind_minus}) admit no "
                f"torus flags for the {family} family")
        if type(orientation) is not int or abs(orientation) != 1:
            raise ConfigurationError("orientation must be +1 or -1")
        return super().__new__(cls, kind_plus, kind_minus, theta,
                               orientation, roles, *flags, pi1,
                               *ANGLES[p, q][:2])

    def __getnewargs__(self):  # copy and pickle rebuild from the inputs
        return self[:4]

    def require_simply_connected(self) -> None:
        """Raise ValueError unless pi1 is trivial, as the invariants need."""
        if self.pi1 != SIMPLY_CONNECTED:
            raise ValueError(f"invariant pipeline covers simply connected "
                             f"gluings; got {self.pi1}")

    @property
    def epsilon(self) -> int:
        """Sign of cos(theta), read off 2 theta - 1 in integers."""
        twice = 2 * self.theta.numerator - self.theta.denominator
        return (twice < 0) - (twice > 0)

    def describe(self) -> str:
        sign = "-" if self.orientation < 0 else ""
        return f"{sign}{self.theta.numerator}/{self.theta.denominator}pi"


def per_configuration(fn):
    """Compute ``fn(cfg, *args)`` once per configuration and arguments.

    The value is kept on the configuration and handed to every later
    caller, which must not modify it. A call that raises stores nothing.
    """
    @functools.wraps(fn)
    def memoised(cfg, *args):
        key = (fn,) + args
        memo = cfg._memo
        if key not in memo:
            memo[key] = fn(cfg, *args)
        return memo[key]
    return memoised


class _GluingFields(NamedTuple):
    plus: BuildingBlock
    minus: BuildingBlock
    angle: GluingAngle
    det_plus: int
    det_minus: int
    adj_plus: IntMatrix
    adj_minus: IntMatrix


class Gluing(_GluingFields):
    """Two blocks, their gluing decision, and det G± and adj G± of N±.

    The constructor refuses an angle decided for other block kinds and a
    degenerate N+ or N-, and factors G± once for every cross block of the
    pair. Equal by fields; copy and pickle rebuild it from its inputs.
    """

    __slots__ = ()

    def __new__(cls, plus: BuildingBlock, minus: BuildingBlock,
                angle: GluingAngle):
        if (angle.kind_plus, angle.kind_minus) != (plus.kind, minus.kind):
            raise ConfigurationError(
                f"angle decided for blocks ({angle.kind_plus}, "
                f"{angle.kind_minus}), not ({plus.kind}, {minus.kind})")
        Gp, Gm = plus.N.gram, minus.N.gram
        det_plus, det_minus = int_det(Gp), int_det(Gm)
        if det_plus == 0 or det_minus == 0:
            raise ConfigurationError("gluing needs nondegenerate N+ and N-")
        return super().__new__(cls, plus, minus, angle, det_plus, det_minus,
                               adjugate(Gp), adjugate(Gm))

    def __getnewargs__(self):  # copy and pickle rebuild from the inputs
        return self[:3]


class Pencil(NamedTuple):
    """The gluing angle of a configuration as integer matrices.

    pi+ = G+^-1 C = AC / det G+ and pi- = G-^-1 C^T = BCt / det G-, so
    N = (AC BCt, BCt AC) = s (m+, m-) for m± = pi± pi∓, s = det G+ det G-.
    The eigenvalues of m+ are y / s for the roots y of the monic integer
    charpoly(N+), so the rational ones have integer y. ``roots`` holds the
    y between 0 and s as (y, multiplicity) by ascending y / s, and
    ``cofactor`` is the rest of the charpoly.
    """

    s: int
    AC: IntMatrix
    BCt: IntMatrix
    N: Tuple[IntMatrix, IntMatrix]
    roots: Tuple[Tuple[int, int], ...]
    cofactor: Tuple[int, ...]


class _ConfigurationFields(NamedTuple):
    gluing: Gluing
    cross: Tuple[Tuple[int, ...], ...]


class Configuration(_ConfigurationFields):
    """A gluing configuration: a ``Gluing`` and its cross block.

    ``cross`` holds the rho+ x rho- pairings C of the bases of N+ and N-
    as tuples; the constructor refuses another shape. The pushout,
    the (possibly degenerate) Gram matrix of both bases, and the other
    derived data (inertia, the integer pencil with its eigenspaces, the
    validation report, the boundary presentation) are computed once, on
    first use, by the ``per_configuration`` functions and kept in
    ``_memo``, outside equality, copies and pickles; fields and pushout
    are read-only. ``projections`` and ``side_compositions`` give pi±
    and m± as rational matrices; nothing in the package calls them.
    """

    plus = property(attrgetter("gluing.plus"))
    minus = property(attrgetter("gluing.minus"))
    angle = property(attrgetter("gluing.angle"))
    rho_plus = property(attrgetter("gluing.plus.rank"))
    rho_minus = property(attrgetter("gluing.minus.rank"))

    def __new__(cls, gluing: Gluing, cross: Sequence[Sequence[int]]):
        cross = tuple(map(tuple, cross))
        if list(map(len, cross)) != [gluing.minus.rank] * gluing.plus.rank:
            raise ConfigurationError("cross block is not rho+ x rho-")
        return super().__new__(cls, gluing, cross)

    def __reduce__(self):  # copy and pickle leave the memo out
        return type(self), tuple(self)

    @functools.cached_property
    def _memo(self) -> dict:
        """Values of the ``per_configuration`` functions, by call."""
        return {}

    @property
    @per_configuration
    def pushout(self) -> GramLattice:
        """The pushout Gram: N+ and N- on the diagonal, C and C^T off it."""
        C = self.cross
        rows = [(*p, *c) for p, c in zip(self.plus.N.gram, C)]
        rows += [(*c, *m) for c, m in zip(zip(*C), self.minus.N.gram)]
        return GramLattice(tuple(rows))

    @per_configuration
    def inertia(self) -> Tuple[int, int, int]:
        """(n+, n-, n0) of the pushout: n0 is the rank of its radical
        N+ meet N-, and n+ + n- the rank of the nondegenerate quotient."""
        return signature(self.pushout)

    @per_configuration
    def projections(self) -> Tuple[RationalMatrix, RationalMatrix]:
        """(pi_plus, pi_minus): orthogonal projections between the sides.

        pi_plus = G+^{-1} C maps N- coordinates to N+ coordinates and
        vice versa for pi_minus = G-^{-1} C^T.
        """
        C = RationalMatrix(self.cross)
        Gp = self.plus.N.matrix()
        Gm = self.minus.N.matrix()
        return Gp.inverse() * C, Gm.inverse() * C.transpose()

    @per_configuration
    def side_compositions(self) -> Tuple[RationalMatrix, RationalMatrix]:
        """(pi+ o pi-, pi- o pi+) acting on N+ resp. N- coordinates."""
        pp, pm = self.projections()
        return pp * pm, pm * pp

    @per_configuration
    def pencil(self) -> Pencil:
        """The integer pencil (see ``Pencil``), from the gluing's G±."""
        g = self.gluing
        AC = int_matmul(g.adj_plus, self.cross)
        BCt = int_matmul(g.adj_minus, transpose(self.cross))
        s = g.det_plus * g.det_minus
        N = (int_matmul(AC, BCt), int_matmul(BCt, AC))
        roots, cofactor = integer_roots(int_charpoly(N[0]),
                                        min(0, s), max(0, s))
        return Pencil(s, AC, BCt, N,
                      tuple(sorted(roots, key=lambda r: r[0] * s)),
                      tuple(cofactor))


def make_configuration(plus: BuildingBlock, minus: BuildingBlock,
                       theta, pushout_rows: Sequence[Sequence[int]],
                       orientation: Optional[int] = None) -> Configuration:
    """Build a configuration from blocks, an angle and a full pushout Gram.

    The one reader of a full pushout. theta is read by ``parse_theta``
    (negative for the reversed orientation, which ``orientation`` can
    override). It refuses, in this order: the angle; the gluing decision
    (``GluingAngle``, ``Gluing``); the Gram entries; and a Gram that is not
    N+ and N- glued by a cross block, naming each problem, joined by "; ".
    """
    theta, parsed = parse_theta(theta)
    angle = GluingAngle(plus.kind, minus.kind, theta,
                        parsed if orientation is None else orientation)
    gluing = Gluing(plus, minus, angle)
    W = GramLattice.from_rows(pushout_rows)
    rp, rm = plus.rank, minus.rank
    if W.rank != rp + rm:
        raise ConfigurationError(
            f"pushout rank {W.rank} != rho+ + rho- = {rp + rm}")
    problems = []
    if [row[:rp] for row in W.gram[:rp]] != list(plus.N.gram):
        problems.append("leading diagonal block differs from N+")
    if [row[rp:] for row in W.gram[rp:]] != list(minus.N.gram):
        problems.append("trailing diagonal block differs from N-")
    if not W.is_even():
        problems.append("pushout must be an even lattice")
    if problems:
        raise ConfigurationError("; ".join(problems))
    return Configuration(gluing, [row[rp:] for row in W.gram[:rp]])


def pushout_from_glue(base_gram: Sequence[Sequence],
                      plus_basis: Sequence[Sequence],
                      minus_basis: Sequence[Sequence]) -> List[List[int]]:
    """Full pushout Gram from rational bases inside a common base lattice.

    B must be a nonempty square Gram and each row of plus_basis and
    minus_basis a vector of its size, else ConfigurationError names the
    field. Denominators are cleared once, r B and q V integral for the
    stacked bases V; the pushout V B V^T is (qV)(rB)(qV)^T divided
    exactly by q^2 r, and a remainder is a non-integral pairing.
    """
    n = len(base_gram)
    if n == 0:
        raise ConfigurationError("glue field 'base_gram' has no rows")
    for name, rows in (("base_gram", base_gram), ("plus_basis", plus_basis),
                       ("minus_basis", minus_basis)):
        bad = next((len(row) for row in rows if len(row) != n), None)
        if bad is not None:
            raise ConfigurationError(
                f"glue field {name!r} has a row of length {bad}; the base "
                f"Gram has {n} rows")
    r, B = clear_denominators([Fraction(x) for x in row] for row in base_gram)
    q, V = clear_denominators([Fraction(x) for x in row]
                              for row in (*plus_basis, *minus_basis))
    scale = q * q * r
    gram = int_matmul(int_matmul(V, B), transpose(V))
    if any(x % scale for row in gram for x in row):
        raise ConfigurationError(
            "glue presentation has a non-integral pairing")
    return [[x // scale for x in row] for row in gram]


class ValidationReport(NamedTuple):
    ok: bool
    problems: Tuple[str, ...]
    flags: Tuple[str, ...]


@per_configuration
def _eigenspace(cfg: Configuration, side: int, y: int) -> List[List[int]]:
    """Integer basis of the y/s-eigenspace of m+ on N+ (side 0) or of m-
    on N- (side 1): the kernel of N+ - y I resp. N- - y I."""
    N = cfg.pencil().N[side]
    return integer_kernel([[x - y * (i == j) for j, x in enumerate(row)]
                           for i, row in enumerate(N)])


def _cos_squared_space(cfg: Configuration, side: int,
                       c: Fraction) -> List[List[int]]:
    """Integer basis of the c-eigenspace of m+ (side 0) or m- (side 1);
    empty unless y = s c is an integer."""
    y, rem = divmod(c.numerator * cfg.pencil().s, c.denominator)
    return [] if rem else _eigenspace(cfg, side, y)


def _roots_between_0_and_s(pencil: Pencil) -> bool:
    """True when every real root of charpoly(N+) lies between 0 and s,
    that is every eigenvalue of m+ in [0, 1]. The integer roots there
    are split off already; Sturm counts decide the cofactor."""
    q = pencil.cofactor
    if len(q) == 1:
        return True
    lo, hi = sorted((0, pencil.s))
    bound = 1 + max(abs(c) for c in q)
    # Sturm counts roots in (a, b]; q has no root at lo or hi.
    return (sturm_count_roots(q, -bound, lo) == 0
            and sturm_count_roots(q, hi, bound) == 0)


@per_configuration
def validate_configuration(cfg: Configuration) -> ValidationReport:
    """The checks of a configuration that vary with its cross block.

    Verifies signature (2, rk-2) of the nondegenerate quotient (n+ = 2 in
    the pushout's inertia) and eigenvalues of pi+ pi- inside [0, 1], and
    flags (does not fail) rk = n+ + n- > 11. The shape, the diagonal blocks
    and evenness hold by construction.
    """
    problems: List[str] = []
    flags: List[str] = []
    pos, neg, _zero = cfg.inertia()
    if pos != 2:
        problems.append(
            f"signature must be (2, rk-2); quotient has ({pos}, {neg}, 0)")
    if not _roots_between_0_and_s(cfg.pencil()):
        problems.append("eigenvalues of pi+ pi- must lie in [0, 1]")
    if pos + neg > 11:
        flags.append("rank > 11: primitive embedding into the K3 "
                     "lattice not guaranteed")
    return ValidationReport(not problems, tuple(problems), tuple(flags))


def angle_eigenspaces(cfg: Configuration, cos_squared: Fraction):
    """Eigenspace bases of the side compositions for one eigenvalue.

    Returns (plus_basis, minus_basis, multiplicity): saturated integer
    bases of the cos^2(psi)-eigenspaces of pi+ pi- on N+ and of pi- pi+
    on N- (the kernels of N± - s cos^2(psi) I of the pencil), and the
    plus-side dimension (the two agree for nonzero cos^2(psi)).
    """
    c = Fraction(cos_squared)
    plus = _cos_squared_space(cfg, 0, c)
    return plus, _cos_squared_space(cfg, 1, c), len(plus)


def is_pure_angle(cfg: Configuration) -> bool:
    """True when both side compositions equal cos^2(theta) times identity,
    that is den N± = num s I for cos^2(theta) = num / den."""
    c = cfg.angle.cos_squared
    pencil = cfg.pencil()
    diagonal = c.numerator * pencil.s
    return all(c.denominator * x == diagonal * (i == j)
               for N in pencil.N for i, row in enumerate(N)
               for j, x in enumerate(row))


def d_theta(cfg: Configuration) -> int:
    """Multiplicity term of the third Betti number for the gluing angle.

    For nonzero cos(theta) this is the dimension of the cos^2(theta)
    eigenspace; for theta = pi/2 it is the number of N+ directions
    orthogonal to all of N- (the kernel of C^T) plus the number of N-
    directions orthogonal to all of N+ (the kernel of C).
    """
    if cfg.angle.cos_squared.numerator == 0:
        C = cfg.cross
        return len(integer_kernel(transpose(C))) + len(integer_kernel(C))
    return len(_cos_squared_space(cfg, 0, cfg.angle.cos_squared))


# ------------------------------------------------------------------ angles

ANGLE_ZERO = (Fraction(1), 0)
ANGLE_PI = (Fraction(-1), 0)


class AngleSpectrum(NamedTuple):
    """Configuration angles: 3 plus-type and 19 minus-type entries.

    Each entry is (cos(alpha), sign) with sign 0 reserved for the exact
    angles 0 (cos = 1) and pi (cos = -1).
    """

    alpha_plus: Tuple[Tuple[Fraction, int], ...]
    alpha_minus: Tuple[Tuple[Fraction, int], ...]


def _restricted_signature(gram: Sequence[Sequence[int]],
                          basis: Sequence[Sequence[int]]):
    """Signature of an integer form on the span of integer vectors."""
    return signature(GramLattice.from_rows(
        int_matmul(int_matmul(basis, gram), transpose(basis))))


def configuration_angles(cfg: Configuration) -> AngleSpectrum:
    """The 3 + 19 configuration angles of the composed reflections.

    The product M = A+ A- of the reflections A± = 2 pi± - Id of the
    nondegenerate pushout quotient is fixed by the principal angles
    between N+ and N- (Jordan 1875; Halmos, "Two subspaces", 1969), that
    is by the eigenvalues c of m+ = pi+ pi- = G+^-1 C G-^-1 C^T on N+,
    which must be rational with eigenspaces E_c of full dimension. They
    are read off the integer pencil: c = y / s for the integer roots y of
    charpoly(N+), with E_c = ker(N+ - y I) (see ``Pencil``).

    - c = 0: E_c (with the kernel of m- = pi- pi+ on N-) is where
      M = -Id, angle pi;
    - c = 1: E_c is the intersection of N+ and N-, where M = Id, angle 0;
    - 0 < c < 1: for x in E_c the plane span{x, pi- x} is M-invariant,
      with trace 4c - 2 and determinant 1, so it carries a conjugate pair
      with cos(alpha) = 2c - 1; its form <x, x> [[1, c], [c, c]] is
      definite with the sign of <x, x>.

    Each piece goes to the plus or minus list by the signature of G+ on
    E_c (of G- on ker m-), which must be nondegenerate. Entries come as
    pi, then 0, then the pairs by ascending cosine; the orthogonal
    complement of the pushout in the K3 lattice contributes angle 0 with
    signature (1, 21 - rk). Irrational angles, eigenvalues outside
    [0, 1] (both leave a cofactor of positive degree) and defective or
    degenerate eigenspaces raise ArithmeticError.
    """
    pencil = cfg.pencil()
    if len(pencil.cofactor) > 1:
        raise ArithmeticError("algebraic angles unsupported")
    s = pencil.s
    C = cfg.cross
    pi_pos = pi_neg = zero_pos = zero_neg = 0
    pairs_plus: List[Tuple[Fraction, int]] = []
    pairs_minus: List[Tuple[Fraction, int]] = []
    accounted = 0
    for y, mult in pencil.roots:
        space = _eigenspace(cfg, 0, y)
        if len(space) != mult:
            raise ArithmeticError("composed reflection is not semisimple")
        pos, neg, zero = _restricted_signature(cfg.plus.N.gram, space)
        if zero:
            raise ArithmeticError("degenerate eigenspace; invariant "
                                  "violation")
        if y == 0:
            # M = -Id on E_0 only when E_0 is orthogonal to N-: C^T x = 0.
            if any(any(row) for row in int_matmul(space, C)):
                raise ArithmeticError("composed reflection is not "
                                      "semisimple")
            pi_pos, pi_neg = pos, neg
            accounted += mult
        elif y == s:
            zero_pos, zero_neg = pos, neg
            accounted += mult
        else:
            cos_a = Fraction(2 * y - s, s)
            pairs_plus.extend([(cos_a, 1), (cos_a, -1)] * pos)
            pairs_minus.extend([(cos_a, 1), (cos_a, -1)] * neg)
            accounted += 2 * mult
    minus_kernel = _eigenspace(cfg, 1, 0)
    if any(any(row) for row in int_matmul(minus_kernel, transpose(C))):
        raise ArithmeticError("composed reflection is not semisimple")
    pos, neg, zero = _restricted_signature(cfg.minus.N.gram, minus_kernel)
    if zero:
        raise ArithmeticError("degenerate eigenspace; invariant violation")
    pi_pos += pos
    pi_neg += neg
    accounted += len(minus_kernel)
    # Cross-check with the inertia: the pieces fill the quotient, of rank
    # r = n+ + n- = rho+ + rho- - dim(N+ meet N-).
    pos, neg, _zero = cfg.inertia()
    if accounted != pos + neg:
        raise ArithmeticError("eigenstructure does not fill the space")
    alpha_plus = ([ANGLE_PI] * pi_pos + [ANGLE_ZERO] * zero_pos
                  + pairs_plus)
    alpha_minus = ([ANGLE_PI] * pi_neg + [ANGLE_ZERO] * zero_neg
                   + pairs_minus)
    # Complement of the pushout in the K3 lattice: identity, angle 0,
    # signature (3 - 2, 19 - (r - 2)) = (1, 21 - r).
    alpha_plus.extend([ANGLE_ZERO] * (3 - len(alpha_plus)))
    alpha_minus.extend([ANGLE_ZERO] * (19 - len(alpha_minus)))
    if len(alpha_plus) != 3 or len(alpha_minus) != 19:
        raise ArithmeticError("angle spectrum has wrong size")
    return AngleSpectrum(tuple(alpha_plus), tuple(alpha_minus))


# ----------------------------------------------------------------- rank 1

class Rank1Pushout(NamedTuple):
    """Cross-term data of a rank-1 x rank-1 pushout."""

    gram: Tuple[Tuple[int, int], Tuple[int, int]]
    w: int
    m: Optional[int] = None
    q_plus: Optional[int] = None
    q_minus: Optional[int] = None


def rank1_pushout(n_plus: int, n_minus: int,
                  theta) -> Optional[Rank1Pushout]:
    """Cross-term of a rank-1 pushout at the given angle, if one exists.

    The generators have squares n+ and n-; the required cross pairing is
    cos(theta) * sqrt(n+ n-), which is an integer exactly when
    2 n+ n- (theta = pi/4) resp. 3 n+ n- / 4 (theta = pi/6) is a perfect
    square. For pi/4 the unique decomposition n+ = 2 m q+^2,
    n- = m q-^2 with coprime q± is returned as well.
    """
    theta = parse_theta(theta)[0]
    p, q = theta.numerator, theta.denominator
    return rank1_pushout_at(n_plus, n_minus, ANGLES[p, q][0],
                            1 if 2 * p < q else -1)


def rank1_pushout_at(n_plus: int, n_minus: int, cos_squared: Fraction,
                     sign: int) -> Optional[Rank1Pushout]:
    """``rank1_pushout`` in integers, for cos^2(theta) = num/den and the
    sign of cos(theta): num n+ n- / den must be a square w^2."""
    if n_plus <= 0 or n_minus <= 0 or n_plus % 2 or n_minus % 2:
        raise ValueError("generator squares must be positive even")
    num, den = cos_squared.numerator, cos_squared.denominator
    w2, rem = divmod(num * n_plus * n_minus, den)
    w = isqrt(w2)
    if rem or w * w != w2:
        return None
    gram = ((n_plus, sign * w), (sign * w, n_minus))
    if den != 2:
        return Rank1Pushout(gram, w)
    m = gcd(n_plus // 2, n_minus)
    return Rank1Pushout(gram, w, m=m, q_plus=isqrt(n_plus // 2 // m),
                        q_minus=isqrt(n_minus // m))


# ------------------------------------------------------------- feasibility

def _strict_solution(rows: List[List[int]], k: int) -> Optional[List[int]]:
    """A primitive integer t with row . t > 0 for each row (of k entries),
    or None if there is none.

    Fraction-free Fourier-Motzkin elimination (Schrijver, "Theory of
    Linear and Integer Programming", 1986, section 7): each row with last
    entry c > 0 is paired with each row with last entry c' < 0 as
    |c'| lower + c upper, divided by its gcd. The system is homogeneous,
    so a solution t of the projected system may be scaled. The last entry
    is the least integer above the lower bounds, if below the upper ones;
    else t is scaled by 2 lcm |c|: then each bound is an integer and each
    lower one 2 or more below each upper.
    """
    if k == 0:
        return None if rows else []
    lower = [r for r in rows if r[-1] > 0]
    upper = [r for r in rows if r[-1] < 0]
    projected = [r[:-1] for r in rows if r[-1] == 0]
    for lo in lower:
        for up in upper:
            row = [-up[-1] * a + lo[-1] * b
                   for a, b in zip(lo[:-1], up[:-1])]
            g = gcd(*row)
            if not g:  # the row reads 0 > 0
                return None
            projected.append([x // g for x in row])
    t = _strict_solution(projected, k - 1)
    if t is None:
        return None
    bounds = lower + upper
    for scale in (1, 2 * lcm(*(abs(r[-1]) for r in bounds))):
        t_scaled = [scale * x for x in t]
        # r[:-1] . t + c x > 0 for c = r[-1] bounds x below (c > 0) or
        # above (c < 0) by -(r[:-1] . t) / c.
        dots = [(sum(map(mul, r, t_scaled)), r[-1]) for r in bounds]
        x = (max(-d // c for d, c in dots if c > 0) + 1 if lower
             else min(-(d // c) for d, c in dots) - 1 if upper else 0)
        if all(d + c * x > 0 for d, c in dots):
            break
    t = t_scaled + [x]
    g = gcd(*t) or 1
    return [v // g for v in t]


def feasibility_cone_check(cfg: Configuration):
    """Decide the ample-cone compatibility condition of the matching.

    A common positive direction must exist: a vector v of the
    cos^2(theta)-eigenspace on the plus side with positive coordinates
    whose (sign cos theta)-scaled projection pi- v to the minus side also
    has positive coordinates. With pi- = BCt / det G-, the rows
    sign(det G-) (sign cos theta) BCt v are positive multiples of those
    coordinates, so they decide the same strict system on the integer
    eigenspace basis, solved in integers by ``_strict_solution``. Returns
    (True, an integer witness in N+ coordinates) or (False, None).
    """
    if cfg.angle.cos_squared.numerator == 0:
        # Orthogonal gluing: the two ample cones impose no joint
        # condition; any ample class works on each side.
        return True, [1] * cfg.rho_plus
    plus = _cos_squared_space(cfg, 0, cfg.angle.cos_squared)
    if not plus:
        return False, None
    sign = cfg.angle.epsilon * (1 if cfg.gluing.det_minus > 0 else -1)
    rows = transpose(plus)
    rows += [[sign * x for x in row]
             for row in int_matmul(cfg.pencil().BCt, rows)]
    t = _strict_solution(rows, len(plus))
    return (False, None) if t is None else (True, int_matmul([t], plus)[0])
