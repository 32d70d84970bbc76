"""Enumeration drivers that discover admissible matchings over the catalog.

Two closed-form searches cover rank-1 x rank-1 gluings (where the cross
term is determined up to sign by the generator squares, an integer test
per pair; only a match builds a ``Gluing`` and report).  For higher ranks
a bounded search screens integer cross-blocks exactly, building them row by
row for pure angles and otherwise solving an integer quadratic for the last
entry of each block.  Every search decides the gluing of its pair once
(``GluingAngle``, ``Gluing``), before it enumerates: a pair whose kinds admit
no torus flags, or whose gluing is not simply connected, fails at any bound.
"""

from fractions import Fraction
from itertools import permutations, product
from math import isqrt
from operator import mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import BuildingBlock, Catalog
from .configuration import (
    INVOLUTION,
    SIMPLY_CONNECTED,
    Configuration,
    ConfigurationError,
    Gluing,
    GluingAngle,
    d_theta,
    feasibility_cone_check,
    parse_theta,
    rank1_pushout_at,
    validate_configuration,
)
from .exact import adjugate, int_det
from .invariants import InvariantReport, full_report

__all__ = [
    "MatchCandidate",
    "rank1_candidate",
    "rank1_pi4_search",
    "rank1_pi6_search",
    "rank1_candidate_count",
    "cross_term_search",
]


class MatchCandidate(NamedTuple):
    """One admissible matching: blocks, angle, pushout and its invariants."""

    plus_id: str
    minus_id: str
    theta: Fraction
    pushout: Tuple[Tuple[int, ...], ...]
    rank1_decomposition: Optional[Tuple[int, int, int]]
    report: InvariantReport


def _rank1_pairs(catalog: Catalog, theta: Fraction, orientation: int = 1
                 ) -> List[Tuple[BuildingBlock, BuildingBlock, GluingAngle]]:
    """Ordered rank-1 block pairs scanned at the angle theta (a fraction of
    pi), each with its gluing decision: the pairs whose decision is simply
    connected, less those with a block in its ordinary role that is not
    ``ordinary_ok``. One ``GluingAngle`` is decided per pair of kinds."""
    rank1 = [b for b in catalog.blocks if b.rank == 1]
    angles = {}  # the decided angle of each pair of kinds the scan admits
    for kinds in product({b.kind for b in rank1}, repeat=2):
        try:
            angle = GluingAngle(*kinds, theta, orientation)
        except ConfigurationError:
            continue
        if angle.pi1 == SIMPLY_CONNECTED:
            angles[kinds] = angle
    return [(plus, minus, angle) for plus, minus in product(rank1, repeat=2)
            if (angle := angles.get((plus.kind, minus.kind))) is not None
            and all(role == INVOLUTION or block.ordinary_ok for block, role
                    in zip((plus, minus), angle.roles))]


def _rank1_match(plus: BuildingBlock, minus: BuildingBlock,
                 angle: GluingAngle) -> Optional[MatchCandidate]:
    """The match of one decided rank-1 pair, or None if the integer closed
    form finds no cross term; only a match builds a Gluing and report."""
    push = rank1_pushout_at(plus.N.gram[0][0], minus.N.gram[0][0],
                            angle.cos_squared, angle.epsilon)
    if push is None:
        return None
    report = full_report(Configuration(Gluing(plus, minus, angle),
                                       ((push.gram[0][1],),)))
    return MatchCandidate(plus_id=plus.id, minus_id=minus.id,
                          theta=report.theta, pushout=push.gram, report=report,
                          rank1_decomposition=None if push.m is None
                          else (push.m, push.q_plus, push.q_minus))


def rank1_candidate(plus: BuildingBlock, minus: BuildingBlock,
                    theta_text: str) -> Optional[MatchCandidate]:
    """The rank-1 pushout match of one ordered pair at an angle such as
    "1/4pi" or "-1/6pi", with its invariants, or None if the generator
    squares admit no integral cross term. The gluing decision comes first:
    kinds without torus flags raise ConfigurationError either way."""
    return _rank1_match(plus, minus, GluingAngle(
        plus.kind, minus.kind, *parse_theta(theta_text)))


def rank1_candidate_count(catalog: Catalog, theta) -> int:
    """Number of ordered rank-1 block pairs scanned at the given angle."""
    return len(_rank1_pairs(catalog, parse_theta(theta)[0]))


def _rank1_search(catalog: Catalog, theta_text: str) -> List[MatchCandidate]:
    """The matches of every scanned rank-1 pair, sorted by
    (b3, plus_id, minus_id); theta is parsed once per scan."""
    found = [_rank1_match(*pair) for pair
             in _rank1_pairs(catalog, *parse_theta(theta_text))]
    return sorted((c for c in found if c is not None),
                  key=lambda c: (c.report.b3, c.plus_id, c.minus_id))


def rank1_pi4_search(catalog: Catalog) -> List[MatchCandidate]:
    """All quarter-turn matchings of rank-1 blocks in the catalog.

    Scans involution x ordinary-role rank-1 pairs; a pair matches exactly
    when 2 n+ n- is a perfect square. Output is sorted by
    (b3, plus_id, minus_id).
    """
    return _rank1_search(catalog, "1/4pi")


def rank1_pi6_search(catalog: Catalog) -> List[MatchCandidate]:
    """All sixth-turn matchings of ordered rank-1 involution pairs.

    A pair matches exactly when 3 n+ n- is a perfect square (equivalently
    3 n+ n- / 4 with both squares even). Output is sorted by
    (b3, plus_id, minus_id).
    """
    return _rank1_search(catalog, "1/6pi")


def _gram_permutations(gram: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Basis permutations preserving a Gram matrix (hence the ample cone)."""
    n = len(gram)
    keep = []
    for perm in permutations(range(n)):
        if all(gram[perm[i]][perm[j]] == gram[i][j]
               for i in range(n) for j in range(n)):
            keep.append(perm)
    return keep


def _canonical_gram(rows: Sequence[Sequence[int]], rho_plus: int,
                    perms_plus: Sequence[Tuple[int, ...]],
                    perms_minus: Sequence[Tuple[int, ...]]):
    """Least relabelling of a pushout Gram under block-wise permutations."""
    n = len(rows)
    best = None
    for pp in perms_plus:
        for pm in perms_minus:
            order = list(pp) + [rho_plus + j for j in pm]
            key = tuple(tuple(rows[order[i]][order[j]] for j in range(n))
                        for i in range(n))
            if best is None or key < best:
                best = key
    return best


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


class _CrossScreen:
    """The eigen-angle screen of ``cross_term_search``, in integers.

    With d = det(G-), A = adj(G-) = d G-^{-1} and cos^2(theta) = num/den,
    the composition m+ = G+^{-1} C G-^{-1} C^T of a cross block C satisfies

        den d G+ (m+ - cos^2 I) = den C A C^T - num d G+ =: D(C).

    So theta is an eigen-angle (det(m+ - cos^2 I) = 0) exactly when the
    integer matrix D(C) is singular, and the angle is pure (m+ = cos^2 I)
    exactly when D(C) = 0.  Entry (i, j) of D(C) depends only on rows i and
    j of C: the pure screen runs row by row, and the singular screen fixes
    all rows but the last, on which det D(C) is an integer quadratic form.
    d and A are given: the search reads them off the pair's ``Gluing``.
    """

    def __init__(self, plus_gram: Sequence[Sequence[int]], det_minus: int,
                 adj_minus: Sequence[Sequence[int]], cos2: Fraction):
        # den * adj(G-); symmetric because G- is.
        self._adj = [[cos2.denominator * x for x in row] for row in adj_minus]
        self._target = [[cos2.numerator * det_minus * x for x in row]
                        for row in plus_gram]

    def _scaled(self, row: Sequence[int]) -> Tuple[int, ...]:
        """den * row * adj(G-) (the rows of adj(G-) are its columns)."""
        return tuple(_dot(row, adj_row) for adj_row in self._adj)

    def _deviation(self, scaled: Sequence[Sequence[int]],
                   cross: Sequence[Sequence[int]]) -> List[List[int]]:
        """D(C), or its leading block, from rows of C and their images."""
        return [[_dot(s, row) - t for row, t in zip(cross, target_row)]
                for s, target_row in zip(scaled, self._target)]

    def is_singular(self, cross: Sequence[Sequence[int]]) -> bool:
        """cos^2(theta) is an eigenvalue of m+ for this cross block."""
        deviation = self._deviation([self._scaled(r) for r in cross], cross)
        return int_det(deviation) == 0

    def blocks(self, bound: int, pure: bool
               ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        """Cross blocks with entries in [-bound, bound] that pass the screen.

        Blocks come in the row-major lexicographic order of the full box,
        and neither screen stores the box.  The pure screen keeps, for each
        row i, only the candidate rows meeting the diagonal equation
        D(C)_ii = 0 and backtracks on the off-diagonal ones; the singular
        screen solves for the last row (``_singular_blocks``).
        """
        target = self._target
        values = range(-bound, bound + 1)
        candidates = [(row, self._scaled(row))
                      for row in product(values, repeat=len(self._adj))]
        if not pure:
            return self._singular_blocks(candidates, values)
        kept = [[(row, s) for row, s in candidates if _dot(s, row) == t[i]]
                for i, t in enumerate(target)]

        def extend(chosen: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]):
            i = len(chosen)
            if i == len(target):
                yield tuple(row for row, _ in chosen)
                return
            for row, scaled in kept[i]:
                if any(_dot(prev, row) != target[j][i]
                       for j, (_, prev) in enumerate(chosen)):
                    continue
                chosen.append((row, scaled))
                yield from extend(chosen)
                chosen.pop()

        return extend([])

    def _singular_blocks(self, candidates: list, values: range) -> Iterator:
        """Fix the head H (all rows but the last), its scaled rows S and
        D' = D(H).  With (t, t_nn) the target's last column, the last row r
        has det D(C) = det D' (r A' r^T - t_nn) - (S r - t)^T adj D' (S r - t)
        (A' = den adj(G-); also for singular or empty D'), a quadratic form
        in (r, 1) that is solved exactly for the last entry of r."""
        m = len(self._adj)
        *t, t_nn = self._target[-1]
        bordered = [row + [0] for row in self._adj] + [[0] * m + [-t_nn]]
        neg_t = [-x for x in t]
        for head in product(candidates, repeat=len(t)):
            rows = tuple(row for row, _ in head)
            # The columns of (S | -t), the map (r, 1) -> S r - t.
            cols = [[s[k] for _, s in head] for k in range(m)] + [neg_t]
            dev = self._deviation([s for _, s in head], rows)
            det, adj = (int_det(dev) if dev else 1), adjugate(dev)
            adj_cols = [[_dot(a, col) for a in adj] for col in cols]
            quad = [[det * x - _dot(col, adj_col)
                     for x, adj_col in zip(row, adj_cols)]
                    for col, row in zip(cols, bordered)]
            for prefix in product(values, repeat=m - 1):
                v = prefix + (0, 1)
                c = sum(x * _dot(q, v) for x, q in zip(v, quad))
                for x in _integer_roots(quad[-2][-2], 2 * _dot(quad[-2], v),
                                        c, values):
                    yield rows + (prefix + (x,),)


def _integer_roots(a: int, b: int, c: int, values: range) -> Sequence[int]:
    """The x in ``values`` with a x^2 + b x + c = 0, ascending."""
    if a == 0 == b:
        return values if c == 0 else ()
    disc = b * b - 4 * a * c
    s = isqrt(max(disc, 0))
    if a and s * s != disc:
        return ()
    quotients = [(e - b, 2 * a) for e in (s, -s)] if a else [(-c, b)]
    return sorted({p // q for p, q in quotients
                   if p % q == 0 and p // q in values})


def cross_term_search(plus: BuildingBlock, minus: BuildingBlock, theta,
                      bound: int, pure: bool = False) -> List[MatchCandidate]:
    """Enumerate pushouts with integer cross-blocks of bounded entries.

    The gluing decision of the pair is made first: ConfigurationError when
    the kinds admit no torus flags, ValueError when pi1 is not trivial.
    Cross-blocks C with entries in [-bound, bound] are then screened in
    integers (see ``_CrossScreen``): cos^2(theta) must be an eigenvalue of
    m+ = G+^{-1} C G-^{-1} C^T, or its only eigenvalue when ``pure`` is set.
    Pure means m+ = cos^2 I and m- = cos^2 I; D(C) = 0 is the first, which
    gives the second for equal ranks.  For cos^2 != 0 and unequal ranks m±
    on the larger side has too small a rank, so a pure search returns [].
    The pure screen is a row-by-row enumeration that never visits most of
    the box; the general screen solves an integer quadratic for the last
    entry of each block.  Each surviving block C, as the configuration of
    C and the pair's ``Gluing``, must then pass validation, have the angle
    in its spectrum with multiplicity d_theta >= 1 (general case) and a
    feasible ample-cone compatibility system.  Equal Grams that differ only
    by basis permutations preserving both ample cones are deduplicated.
    Hits come in the row-major lexicographic order of the cross-block
    entries.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if plus.rank > 3 or minus.rank > 3:
        raise ValueError("cross-term search supports blocks of rank <= 3")
    angle = GluingAngle(plus.kind, minus.kind, *parse_theta(theta))
    angle.require_simply_connected()
    gluing = Gluing(plus, minus, angle)
    screen = _CrossScreen(plus.N.gram, gluing.det_minus, gluing.adj_minus,
                          angle.cos_squared)
    rp = plus.rank
    if pure and angle.cos_squared and rp != minus.rank:
        return []
    perms_plus = _gram_permutations(plus.N.gram)
    perms_minus = _gram_permutations(minus.N.gram)
    seen = set()
    out: List[MatchCandidate] = []
    for cross in screen.blocks(bound, pure):
        cfg = Configuration(gluing, cross)
        if not validate_configuration(cfg).ok:
            continue
        if not pure and d_theta(cfg) < 1:
            continue
        feasible, _witness = feasibility_cone_check(cfg)
        if not feasible:
            continue
        rows = cfg.pushout.gram
        key = _canonical_gram(rows, rp, perms_plus, perms_minus)
        if key in seen:
            continue
        report = full_report(cfg)
        seen.add(key)
        out.append(MatchCandidate(
            plus_id=plus.id, minus_id=minus.id, theta=report.theta,
            pushout=rows, rank1_decomposition=None, report=report))
    return out
