from collections import Counter

import pytest

from g2tcs import configuration, search
from g2tcs.configuration import COS_SQUARED, rank1_pushout
from g2tcs.fixtures import TABLE4
from g2tcs.search import (cross_term_search, rank1_candidate,
                          rank1_candidate_count, rank1_pi4_search,
                          rank1_pi6_search)


@pytest.fixture(scope="session")
def pi4_matches(catalog):
    return rank1_pi4_search(catalog)


@pytest.fixture(scope="session")
def pi6_matches(catalog):
    return rank1_pi6_search(catalog)


# -------------------------------------------------------------- rank-1 scan

def test_candidate_census(catalog):
    # 7 rank-1 involution blocks x 18 rank-1 ordinary-role blocks
    assert rank1_candidate_count(catalog, "1/4pi") == 126
    # 7 x 7 ordered involution pairs
    assert rank1_candidate_count(catalog, "1/6pi") == 49


def test_quarter_search_reproduces_listing(pi4_matches):
    assert len(pi4_matches) == 25
    for match, row in zip(pi4_matches, TABLE4):
        plus_id, minus_id, b3, d, factors, linking = row
        assert (match.plus_id, match.minus_id) == (plus_id, minus_id)
        assert match.report.b3 == b3
        assert match.report.d_free == match.report.d_full == d
        got = tuple(f for f in match.report.torsion.invariant_factors
                    if f > 1)
        assert got == factors
        assert match.report.linking == linking or factors == ()


def test_quarter_search_decompositions(pi4_matches):
    by_pair = {(m.plus_id, m.minus_id): m for m in pi4_matches}
    m = by_pair[("3.22_2", "3.8_1_18")]
    assert m.rank1_decomposition == (2, 1, 3)  # (m, q+, q-)
    assert m.pushout == ((4, 6), (6, 18))
    m = by_pair[("3.22_4", "3.8_2_2")]  # n+ = 8, n- = 4
    assert m.rank1_decomposition == (4, 1, 1)
    m = by_pair[("5.15_1", "3.8_1_16")]  # n+ = 2, n- = 16
    assert m.rank1_decomposition == (1, 1, 4)


def test_sixth_search_matches(pi6_matches):
    assert len(pi6_matches) == 6
    rows = [(m.plus_id, m.minus_id, m.report.b3, m.report.d_free,
             m.report.torsion_order or 1) for m in pi6_matches]
    assert rows == [
        ("3.22_3", "3.22_4", 54, 2, 3),
        ("3.22_4", "3.22_3", 54, 6, 1),
        ("3.22_3", "5.15_1", 76, 24, 3),
        ("5.15_1", "3.22_3", 76, 6, 1),
        ("3.22_1", "3.22_3", 86, 6, 1),
        ("3.22_3", "3.22_1", 86, 4, 3),
    ]


def test_searches_are_deterministic(catalog, pi4_matches, pi6_matches):
    assert rank1_pi4_search(catalog) == pi4_matches
    assert rank1_pi6_search(catalog) == pi6_matches


def test_quarter_scan_decides_once(catalog, monkeypatch):
    """The scan parses theta once and decides each pair of kinds once;
    only its 25 matches build a Gluing and a report."""
    calls = Counter()
    kinds = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "GluingAngle":
                kinds[args[:2]] += 1
            return fn(*args, **kwargs)
        return counted
    for module in (configuration, search):
        monkeypatch.setattr(module, "parse_theta",
                            counting("parse_theta", module.parse_theta))
    for name in ("GluingAngle", "Gluing", "full_report"):
        monkeypatch.setattr(search, name,
                            counting(name, getattr(search, name)))
    assert len(rank1_pi4_search(catalog)) == 25
    assert calls["parse_theta"] == 1
    assert kinds and max(kinds.values()) == 1
    assert calls["Gluing"] == calls["full_report"] == 25


def test_rank1_scan_candidate_and_pushout_agree(catalog):
    """Every ordered rank-1 pair at the seven angles, both orientations:
    the scan's match, ``rank1_candidate`` and ``rank1_pushout`` give the
    same pushout and (m, q+, q-), and the scan covers its scanned pairs."""
    rank1 = [b for b in catalog.blocks if b.rank == 1]
    for theta in COS_SQUARED:
        for sign in ("", "-"):
            text = f"{sign}{theta.numerator}/{theta.denominator}pi"
            scan = {(m.plus_id, m.minus_id): m
                    for m in search._rank1_search(catalog, text)}
            scanned = {(p.id, m.id) for p, m, _angle
                       in search._rank1_pairs(catalog, theta)}
            assert set(scan) <= scanned
            for plus in rank1:
                for minus in rank1:
                    pair = (plus.id, minus.id)
                    push = rank1_pushout(plus.N.gram[0][0],
                                         minus.N.gram[0][0], text)
                    try:
                        cand = rank1_candidate(plus, minus, text)
                    except ValueError:  # no flags, or pi1 not trivial
                        assert pair not in scanned, (pair, text)
                        continue
                    if pair in scanned:
                        assert scan.get(pair) == cand, (pair, text)
                    if push is None:
                        assert cand is None, (pair, text)
                        continue
                    decomposition = (None if push.m is None
                                     else (push.m, push.q_plus, push.q_minus))
                    assert (cand.pushout, cand.rank1_decomposition) == \
                        (push.gram, decomposition), (pair, text)


# --------------------------------------------------------------- cross term

def test_cross_search_distinguishes_divisors(catalog):
    block = catalog.get("3.28")
    hits = cross_term_search(block, block, "1/6pi", 3, pure=True)
    divisors = sorted(m.report.d_free for m in hits)
    assert divisors == [2, 2, 8]
    for m in hits:
        assert m.report.b3 == 109


def test_cross_search_unique_small_pushout(catalog):
    hits = cross_term_search(catalog.get("3.22_1"), catalog.get("3.8_1_4"),
                             "1/4pi", 2, pure=True)
    assert len(hits) == 1
    assert [list(r) for r in hits[0].pushout] == [[2, 2], [2, 4]]
    assert hits[0].report.d_free == 6


def test_cross_search_bound_zero_empty(catalog):
    hits = cross_term_search(catalog.get("3.22_1"), catalog.get("3.8_1_4"),
                             "1/4pi", 0, pure=True)
    assert hits == []


def test_cross_search_rejects_negative_bound(catalog):
    with pytest.raises(ValueError):
        cross_term_search(catalog.get("3.22_1"), catalog.get("3.8_1_4"),
                          "1/4pi", -1)


def test_cross_search_rediscovers_worked_pushout(catalog, example_configs):
    cfg, expected = example_configs["8.7"]
    hits = cross_term_search(catalog.get("3.22_1"), catalog.get("3.9_10"),
                             "1/4pi", 4)
    wanted = [list(r) for r in cfg.pushout.gram]
    found = [m for m in hits if [list(r) for r in m.pushout] == wanted]
    assert found
    assert found[0].report.b3 == expected[1]
    assert found[0].report.d_free == expected[3]
