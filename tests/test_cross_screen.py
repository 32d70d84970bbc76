"""The integer cross-term screen against the original rational brute force.

``brute_force_search`` is the search as it was before the integer screen:
it walks the whole box of cross blocks in ``itertools.product`` order and
screens each block with ``Fraction`` matrix products.  It is kept here as
the oracle for ``cross_term_search``.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_route
from g2tcs import configuration, search
from g2tcs.catalog import load_catalog
from g2tcs.configuration import (COS_SQUARED, Configuration,
                                 ConfigurationError, Gluing, GluingAngle,
                                 Pencil, d_theta, feasibility_cone_check,
                                 make_configuration, parse_theta,
                                 validate_configuration)
from g2tcs.exact import (RationalMatrix, adjugate, int_charpoly, int_det,
                         int_matmul, integer_roots, transpose)
from g2tcs.fixtures import EXAMPLES
from g2tcs.invariants import UnsupportedAngle, full_report
from g2tcs.lattices import GramLattice
from g2tcs.search import (MatchCandidate, _canonical_gram, _CrossScreen,
                          _gram_permutations, _integer_roots,
                          cross_term_search)


def _cross_blocks(rho_plus, rho_minus, bound):
    values = range(-bound, bound + 1)
    for flat in product(values, repeat=rho_plus * rho_minus):
        yield tuple(flat[i * rho_minus:(i + 1) * rho_minus]
                    for i in range(rho_plus))


def _composition(plus, minus, cross):
    """m+ = G+^{-1} C G-^{-1} C^T in rationals."""
    C = RationalMatrix(cross)
    return (plus.N.matrix().inverse() * C * minus.N.matrix().inverse()
            * C.transpose())


def fraction_pure(plus, minus, cos2, cross):
    return _composition(plus, minus, cross) == \
        RationalMatrix.identity(plus.rank).scaled(cos2)


def fraction_pure_on_both_sides(plus, minus, cos2, cross):
    """m+ = cos^2 I on N+, and m- = G-^{-1} C^T G+^{-1} C = cos^2 I on N-."""
    C = RationalMatrix(cross)
    m_minus = (minus.N.matrix().inverse() * C.transpose()
               * plus.N.matrix().inverse() * C)
    return (fraction_pure(plus, minus, cos2, cross)
            and m_minus == RationalMatrix.identity(minus.rank).scaled(cos2))


def fraction_singular(plus, minus, cos2, cross):
    target = RationalMatrix.identity(plus.rank).scaled(cos2)
    return (_composition(plus, minus, cross) - target).det() == 0


def screen_for(plus, minus, cos2):
    """The screen of a block pair at any cos^2 value; the search reads
    det G- and adj G- off the pair's Gluing instead."""
    return _CrossScreen(plus.N.gram, int_det(minus.N.gram),
                        adjugate(minus.N.gram), cos2)


def integer_pure(screen, cross):
    """D(C) = 0 for the screen's integer deviation D."""
    deviation = screen._deviation([screen._scaled(r) for r in cross], cross)
    return not any(any(row) for row in deviation)


def _pushout_rows(plus, minus, cross):
    rows = [list(plus.N.gram[i]) + list(cross[i]) for i in range(plus.rank)]
    rows += [[cross[i][j] for i in range(plus.rank)] + list(minus.N.gram[j])
             for j in range(minus.rank)]
    return rows


def brute_force_search(plus, minus, theta_text, bound, pure):
    cos2 = COS_SQUARED[parse_theta(theta_text)[0]]
    rp, rm = plus.rank, minus.rank
    perms_plus = _gram_permutations(plus.N.gram)
    perms_minus = _gram_permutations(minus.N.gram)
    seen = set()
    out = []
    for cross in _cross_blocks(rp, rm, bound):
        screen = fraction_pure_on_both_sides if pure else fraction_singular
        if not screen(plus, minus, cos2, cross):
            continue
        rows = _pushout_rows(plus, minus, cross)
        cfg = make_configuration(plus, minus, theta_text, rows)
        if not validate_configuration(cfg).ok:
            continue
        if not pure and d_theta(cfg) < 1:
            continue
        if not feasibility_cone_check(cfg)[0]:
            continue
        key = _canonical_gram(rows, rp, perms_plus, perms_minus)
        if key in seen:
            continue
        try:
            report = full_report(cfg)
        except (ConfigurationError, UnsupportedAngle):
            continue
        seen.add(key)
        out.append(MatchCandidate(
            plus_id=plus.id, minus_id=minus.id, theta=report.theta,
            pushout=tuple(tuple(r) for r in rows),
            rank1_decomposition=None, report=report))
    return out


# ------------------------------------------------ hit lists vs brute force

# (plus, minus, theta, bound): shapes 1x2, 2x1 and 2x2, boxes of at most
# 625 blocks, each searched pure and non-pure.
ORACLE_CASES = [
    ("3.22_1", "3.9_10", "1/4pi", 4),     # 1x2, example 8.7
    ("3.22_3", "3.23_6", "1/4pi", 3),     # 1x2, example 8.11
    ("3.23_6", "3.8_2_3", "-1/4pi", 3),   # 2x1, example 8.12
    ("3.26_2", "3.22_3", "1/6pi", 5),     # 2x1, example 8.20
    ("3.28", "3.28", "1/6pi", 2),         # 2x2, example 8.16
    ("3.28", "3.9_3", "1/4pi", 2),        # 2x2, example 8.1
    ("3.28", "3.28", "1/6pi", 0),         # bound 0
    ("3.22_1", "3.9_10", "-1/4pi", 0),    # bound 0
]


@pytest.mark.parametrize("pure", [False, True], ids=["general", "pure"])
@pytest.mark.parametrize("plus_id,minus_id,theta,bound", ORACLE_CASES)
def test_hit_lists_match_brute_force(catalog, plus_id, minus_id, theta,
                                     bound, pure):
    plus, minus = catalog.get(plus_id), catalog.get(minus_id)
    assert (2 * bound + 1) ** (plus.rank * minus.rank) <= 625
    expected = brute_force_search(plus, minus, theta, bound, pure)
    if bound and not pure:  # each box holds its worked example
        assert expected
    assert cross_term_search(plus, minus, theta, bound, pure=pure) == expected


@pytest.mark.parametrize("plus_id,minus_id,theta,bound", ORACLE_CASES)
def test_feasibility_verdicts_match_the_fraction_route(catalog, plus_id,
                                                       minus_id, theta, bound):
    """The integer solve and the Fraction elimination agree on every block
    of the box that reaches feasibility, in the general and pure search;
    each box with a positive bound has blocks of both verdicts."""
    plus, minus = catalog.get(plus_id), catalog.get(minus_id)
    screen = _screen(plus, minus, theta)
    verdicts = []
    for pure in (False, True):
        for cross in screen.blocks(bound, pure):
            cfg = make_configuration(plus, minus, theta,
                                     _pushout_rows(plus, minus, cross))
            if validate_configuration(cfg).ok and (pure or d_theta(cfg)):
                verdicts.append(feasibility_cone_check(cfg)[0])
                assert verdicts[-1] == fraction_route.feasible(cfg), cross
    assert set(verdicts) == ({True, False} if bound else set())


# ------------------------------------------- predicates vs rational screen

_CATALOG = load_catalog()
_SMALL_BLOCKS = [b for b in _CATALOG.blocks if b.rank <= 3]


@st.composite
def screen_inputs(draw):
    plus = draw(st.sampled_from(_SMALL_BLOCKS))
    minus = draw(st.sampled_from(_SMALL_BLOCKS))
    cos2 = draw(st.sampled_from(sorted(set(COS_SQUARED.values()))))
    entry = st.integers(-6, 6)
    cross = tuple(tuple(draw(entry) for _ in range(minus.rank))
                  for _ in range(plus.rank))
    return plus, minus, cos2, cross


@given(screen_inputs())
@settings(max_examples=150, deadline=None)
def test_integer_predicates_match_fraction_screen(inputs):
    plus, minus, cos2, cross = inputs
    screen = screen_for(plus, minus, cos2)
    assert integer_pure(screen, cross) == \
        fraction_pure(plus, minus, cos2, cross)
    assert screen.is_singular(cross) == \
        fraction_singular(plus, minus, cos2, cross)


@pytest.mark.parametrize("name", sorted(
    n for n, ex in EXAMPLES.items()
    if _CATALOG.get(ex[0]).rank <= 3 and _CATALOG.get(ex[1]).rank <= 3))
def test_worked_cross_blocks_pass_screen(name):
    """Every worked example's own cross block passes the singular screen,
    and the pure screen agrees with the rational one on it."""
    plus_id, minus_id, theta, rows, _expected = EXAMPLES[name]
    plus, minus = _CATALOG.get(plus_id), _CATALOG.get(minus_id)
    cos2 = COS_SQUARED[parse_theta(theta)[0]]
    cross = tuple(tuple(row[plus.rank:]) for row in rows[:plus.rank])
    screen = screen_for(plus, minus, cos2)
    assert screen.is_singular(cross)
    assert integer_pure(screen, cross) == \
        fraction_pure(plus, minus, cos2, cross)


# ------------------------------------------------------- 3x3 pure search

def test_pure_3x3_search_rediscovers_example_8_6(catalog):
    plus_id, minus_id, _theta, rows, _expected = EXAMPLES["8.6"]
    plus, minus = catalog.get(plus_id), catalog.get(minus_id)
    hits = cross_term_search(plus, minus, "1/4pi", 2, pure=True)
    perms = (_gram_permutations(plus.N.gram), _gram_permutations(minus.N.gram))
    found = {_canonical_gram(hit.pushout, plus.rank, *perms) for hit in hits}
    assert _canonical_gram(rows, plus.rank, *perms) in found
    assert all(hit.report.pure for hit in hits)


@pytest.mark.parametrize("plus_id,minus_id,theta", [
    ("3.22_1", "3.9_10", "1/4pi"), ("3.23_6", "3.8_2_3", "-1/4pi"),
    ("3.26_2", "3.22_3", "1/6pi")])
def test_pure_search_of_unequal_ranks_enumerates_nothing(
        catalog, monkeypatch, plus_id, minus_id, theta):
    """For cos^2(theta) != 0 no configuration of blocks of unequal rank is
    pure on both sides, so the search returns [] before the screen runs;
    the gluing decision still comes first."""
    def no_blocks(self, bound, pure):
        raise AssertionError("the screen enumerated a box")

    monkeypatch.setattr(_CrossScreen, "blocks", no_blocks)
    plus, minus = catalog.get(plus_id), catalog.get(minus_id)
    assert cross_term_search(plus, minus, theta, 4, pure=True) == []
    with pytest.raises(AssertionError, match="enumerated"):
        cross_term_search(plus, minus, theta, 4)
    with pytest.raises(ConfigurationError, match="admit no torus flags"):
        cross_term_search(catalog.get("3.8_1_2"), catalog.get("3.9_10"),
                          "1/4pi", 4, pure=True)


def test_screen_rejects_degenerate_block(catalog):
    """The pair's Gluing makes the nondegeneracy check of the screen and
    of the pencil, once, before the search enumerates."""
    plus = catalog.get("3.22_1")
    minus = catalog.get("3.9_10")._replace(
        N=GramLattice.from_rows([[2, 2], [2, 2]]))
    with pytest.raises(ConfigurationError, match="nondegenerate"):
        Gluing(plus, minus, GluingAngle(plus.kind, minus.kind,
                                        Fraction(1, 4)))
    with pytest.raises(ConfigurationError, match="nondegenerate"):
        cross_term_search(plus, minus, "1/4pi", 1)


# ------------------------------------- general screen vs per-block oracle

def _screen(plus, minus, theta):
    return screen_for(plus, minus, COS_SQUARED[parse_theta(theta)[0]])


def _singular_stream(screen, plus, minus, bound):
    """The oracle stream: every block of the box with singular D(C), in
    the box's row-major order, one integer determinant per block."""
    return [cross for cross in _cross_blocks(plus.rank, minus.rank, bound)
            if screen.is_singular(cross)]


# (plus, minus, theta, bound): example 8.8's 2x2 box, a 3x3 box of 19 683
# blocks, and the 1x1, 1xk and kx1 shapes.
STREAM_CASES = [
    ("5.15_2", "3.9_27", "1/4pi", 3),     # 2x2, example 8.8
    ("5.15_3", "3.10", "1/4pi", 1),       # 3x3
    ("3.21", "3.8_1_18", "1/4pi", 6),     # 1x1
    ("3.22_1", "3.9_10", "1/4pi", 4),     # 1x2, example 8.7
    ("3.22_1", "3.10", "1/4pi", 2),       # 1x3
    ("3.23_6", "3.8_2_3", "-1/4pi", 3),   # 2x1, example 8.12
    ("3.10", "3.22_1", "1/4pi", 2),       # 3x1
]


@pytest.mark.parametrize("plus_id,minus_id,theta,bound", STREAM_CASES)
def test_general_screen_streams_the_singular_blocks_in_box_order(
        catalog, plus_id, minus_id, theta, bound):
    plus, minus = catalog.get(plus_id), catalog.get(minus_id)
    screen = _screen(plus, minus, theta)
    expected = _singular_stream(screen, plus, minus, bound)
    assert expected
    assert list(screen.blocks(bound, pure=False)) == expected


def test_general_screen_takes_the_whole_range_on_a_zero_quadratic(
        catalog, monkeypatch):
    """On 5.15_3 x 3.10 some prefixes of the last row leave det D(C) = 0
    for every value of its last entry."""
    zero = []

    def spy(a, b, c, values):
        if a == b == c == 0:
            zero.append(values)
        return _integer_roots(a, b, c, values)

    monkeypatch.setattr(search, "_integer_roots", spy)
    plus, minus = catalog.get("5.15_3"), catalog.get("3.10")
    screen = _screen(plus, minus, "1/4pi")
    blocks = list(screen.blocks(1, pure=False))
    assert zero and all(values == range(-1, 2) for values in zero)
    assert blocks == _singular_stream(screen, plus, minus, 1)


@st.composite
def screen_boxes(draw):
    """Blocks of rank <= 3, any cos^2 value, and a bound of 0-2 whose box
    holds at most 3^7 blocks."""
    plus = draw(st.sampled_from(_SMALL_BLOCKS))
    minus = draw(st.sampled_from(_SMALL_BLOCKS))
    cells = plus.rank * minus.rank
    top = max(b for b in range(3) if (2 * b + 1) ** cells <= 3 ** 7)
    cos2 = draw(st.sampled_from(sorted(set(COS_SQUARED.values()))))
    return plus, minus, cos2, draw(st.integers(0, top))


@given(screen_boxes())
@settings(max_examples=60, deadline=None)
def test_general_screen_matches_the_box_filter(box):
    plus, minus, cos2, bound = box
    screen = screen_for(plus, minus, cos2)
    assert list(screen.blocks(bound, pure=False)) == \
        _singular_stream(screen, plus, minus, bound)


def test_general_search_takes_no_determinant_per_block(catalog,
                                                       monkeypatch):
    """One search takes det and adj of each block Gram once, for the
    pair's Gluing, however many blocks it screens; after that int_det and
    adjugate run exactly once per head (the rows but the last), never once
    per block of the box."""
    calls = Counter()
    for module in (configuration, search):
        for fn in (int_det, adjugate):
            def counting(matrix, fn=fn):
                calls[fn.__name__, tuple(map(tuple, matrix))] += 1
                return fn(matrix)
            monkeypatch.setattr(module, fn.__name__, counting)
    screened = []

    def validating(cfg):
        screened.append(cfg.cross)
        return validate_configuration(cfg)

    monkeypatch.setattr(search, "validate_configuration", validating)
    # 2x2 box at bound 3: 49 heads, each taking int_det and adjugate once;
    # a rank-1 plus side has one empty head, whose det is 1 without int_det.
    for plus_id, minus_id, bound, per_head_calls in (
            ("5.15_2", "3.9_27", 3, {"int_det": 7 ** 2, "adjugate": 7 ** 2}),
            ("3.22_1", "3.9_10", 4, {"adjugate": 1})):
        plus, minus = catalog.get(plus_id), catalog.get(minus_id)
        calls.clear()
        screened.clear()
        assert cross_term_search(plus, minus, "1/4pi", bound)
        grams = {plus.N.gram, minus.N.gram}
        assert len(grams) == 2 and len(screened) > 2
        assert {key: n for key, n in calls.items() if key[1] in grams} == {
            (name, gram): 1 for name in ("int_det", "adjugate")
            for gram in grams}
        per_head = Counter(key[0] for key in calls.elements()
                           if key[1] not in grams)
        assert per_head == per_head_calls


def pencil_oracle(plus, minus, rows):
    """The pencil of ``Pencil``'s docstring from int_det and adjugate of
    the block Grams and the cross block of the full pushout rows."""
    Gp, Gm = plus.N.gram, minus.N.gram
    C = [list(row[plus.rank:]) for row in rows[:plus.rank]]
    s = int_det(Gp) * int_det(Gm)
    AC = int_matmul(adjugate(Gp), C)
    BCt = int_matmul(adjugate(Gm), transpose(C))
    N = (int_matmul(AC, BCt), int_matmul(BCt, AC))
    roots, cofactor = integer_roots(int_charpoly(N[0]), min(0, s), max(0, s))
    return Pencil(s, AC, BCt, N, tuple(sorted(roots, key=lambda r: r[0] * s)),
                  tuple(cofactor))


def test_pencil_of_the_gluing_matches_a_per_block_factorisation(catalog):
    """The pencil read off the gluing's det and adj equals the one that
    factors the blocks again, on the worked examples and on every block
    that the screens of the boxes above pass, as the search builds them."""
    for plus_id, minus_id, theta, rows, _expected in EXAMPLES.values():
        plus, minus = catalog.get(plus_id), catalog.get(minus_id)
        cfg = make_configuration(plus, minus, theta, [list(r) for r in rows])
        assert cfg.pencil() == pencil_oracle(plus, minus, rows)
    boxes = {case[:4] for case in ORACLE_CASES + STREAM_CASES}
    seen = 0
    for plus_id, minus_id, theta, bound in sorted(boxes):
        plus, minus = catalog.get(plus_id), catalog.get(minus_id)
        try:
            angle = GluingAngle(plus.kind, minus.kind, *parse_theta(theta))
        except ConfigurationError:  # 3.10 x 3.22_1: no search gets here
            continue
        gluing = Gluing(plus, minus, angle)
        screen = _screen(plus, minus, theta)
        for pure in (False, True):
            for cross in screen.blocks(bound, pure):
                cfg = Configuration(gluing, cross)
                rows = _pushout_rows(plus, minus, cross)
                assert cfg.pushout.gram == tuple(map(tuple, rows))
                assert cfg.pencil() == pencil_oracle(plus, minus, rows)
                seen += 1
    assert seen > 1000


# ------------------------------------------------- the quadratic root step

def _brute_roots(a, b, c, values):
    return [x for x in values if a * x * x + b * x + c == 0]


@pytest.mark.parametrize("a", [0, 3])
@pytest.mark.parametrize("b", [0, -6])
@pytest.mark.parametrize("c", [0, -9])
def test_integer_roots_with_zero_coefficients(a, b, c):
    values = range(-5, 6)
    assert list(_integer_roots(a, b, c, values)) == \
        _brute_roots(a, b, c, values)


BIG = 2 ** 64
_COEFF = st.one_of(st.just(0), st.integers(-20, 20),
                   st.integers(-BIG ** 2, BIG ** 2))


@st.composite
def quadratics(draw):
    """(a, b, c, values): free coefficients, or k (x - r1)(x - r2) and
    k x - k r1 with k up to 2^128 so that roots are hit."""
    lo = draw(st.integers(-12, 12))
    values = range(lo, lo + draw(st.integers(0, 12)))
    root = st.integers(-15, 15)
    k = draw(st.one_of(st.integers(-20, 20), st.integers(-BIG ** 2, BIG ** 2)))
    r1, r2 = draw(root), draw(root)
    return draw(st.one_of(
        st.tuples(_COEFF, _COEFF, _COEFF),
        st.just((k, -k * (r1 + r2), k * r1 * r2)),
        st.just((0, k, -k * r1)))) + (values,)


@given(quadratics())
@settings(max_examples=400, deadline=None)
@example((1, 0, 1, range(-5, 6)))              # negative discriminant
@example((1, 0, -2, range(-5, 6)))             # non-square discriminant
@example((4, 0, -1, range(-5, 6)))             # square disc, roots +-1/2
@example((BIG, -2 * BIG * 3, 9 * BIG, range(-5, 6)))  # double root 3
@example((-BIG, BIG * 5, BIG * 14, range(-10, 10)))   # a < 0: -2 and 7
@example((0, 3, 2, range(-5, 6)))              # linear, no integer root
@example((0, 0, 0, range(0, 0)))               # empty range
def test_integer_roots_match_brute_force(quadratic):
    a, b, c, values = quadratic
    assert list(_integer_roots(a, b, c, values)) == \
        _brute_roots(a, b, c, values)
