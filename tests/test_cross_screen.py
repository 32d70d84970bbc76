"""The integer cross-term screen against the original rational brute force.

``brute_force_search`` is the search as it was before the integer screen:
it walks the whole box of cross blocks in ``itertools.product`` order and
screens each block with ``Fraction`` matrix products.  It is kept here as
the oracle for ``cross_term_search``.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tcs.catalog import load_catalog
from g2tcs.configuration import (COS_SQUARED, ConfigurationError, d_theta,
                                 feasibility_cone_check, make_configuration,
                                 parse_theta, validate_configuration)
from g2tcs.exact import RationalMatrix
from g2tcs.fixtures import EXAMPLES
from g2tcs.invariants import UnsupportedAngle, full_report
from g2tcs.search import (MatchCandidate, _canonical_gram, _CrossScreen,
                          _gram_permutations, cross_term_search)


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


def fraction_singular(plus, minus, cos2, cross):
    target = RationalMatrix.identity(plus.rank).scaled(cos2)
    return (_composition(plus, minus, cross) - target).det() == 0


def brute_force_search(plus, minus, theta_text, bound, pure):
    cos2 = COS_SQUARED[parse_theta(theta_text)[0]]
    rp, rm = plus.rank, minus.rank
    perms_plus = _gram_permutations(plus.N.gram)
    perms_minus = _gram_permutations(minus.N.gram)
    seen = set()
    out = []
    for cross in _cross_blocks(rp, rm, bound):
        screen = fraction_pure if pure else fraction_singular
        if not screen(plus, minus, cos2, cross):
            continue
        rows = [list(plus.N.gram[i]) + list(cross[i]) for i in range(rp)]
        rows += [[cross[i][j] for i in range(rp)] + list(minus.N.gram[j])
                 for j in range(rm)]
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
    screen = _CrossScreen(plus.N.gram, minus.N.gram, cos2)
    assert screen.is_pure(cross) == fraction_pure(plus, minus, cos2, cross)
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
    screen = _CrossScreen(plus.N.gram, minus.N.gram, cos2)
    assert screen.is_singular(cross)
    assert screen.is_pure(cross) == fraction_pure(plus, minus, cos2, cross)


# ------------------------------------------------------- 3x3 pure search

def test_pure_3x3_search_rediscovers_example_8_6(catalog):
    plus_id, minus_id, _theta, rows, _expected = EXAMPLES["8.6"]
    plus, minus = catalog.get(plus_id), catalog.get(minus_id)
    hits = cross_term_search(plus, minus, "1/4pi", 2, pure=True)
    perms = (_gram_permutations(plus.N.gram), _gram_permutations(minus.N.gram))
    found = {_canonical_gram(hit.pushout, plus.rank, *perms) for hit in hits}
    assert _canonical_gram(rows, plus.rank, *perms) in found
    assert all(hit.report.pure for hit in hits)


def test_screen_rejects_degenerate_block():
    with pytest.raises(ValueError):
        _CrossScreen([[2]], [[2, 2], [2, 2]], Fraction(1, 2))
