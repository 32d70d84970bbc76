"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Everything here is exact integer/rational
arithmetic; no tolerances apply anywhere.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from g2tcs.catalog import load_catalog, verify_catalog
from g2tcs.configuration import make_configuration
from g2tcs.exact import RationalMatrix
from g2tcs.fixtures import EXAMPLES, TABLE4, TABLE5, table5_pushout
from g2tcs.invariants import (compare_2connected, full_report,
                              linking_forms_equivalent, p_divisor,
                              pure_angle_torsion, torsion_report)
from g2tcs.lattices import (GramLattice, cokernel_presentation,
                            discriminant_form, signature)
from g2tcs.search import (cross_term_search, rank1_pi4_search,
                          rank1_pi6_search)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


@pytest.fixture(scope="module")
def pi4(cat):
    return rank1_pi4_search(cat)


@pytest.fixture(scope="module")
def pi6(cat):
    return rank1_pi6_search(cat)


@pytest.fixture(scope="module")
def reports(cat):
    out = {}
    for name, (plus, minus, theta, rows, expected) in EXAMPLES.items():
        cfg = make_configuration(cat.get(plus), cat.get(minus), theta,
                                 [list(r) for r in rows])
        out[name] = (cfg, full_report(cfg), expected)
    return out


def _factors(report):
    if report.torsion is None:
        return ()
    return tuple(d for d in report.torsion.invariant_factors if d > 1)


# --------------------------------------------------------------------------

def test_criterion_1_quarter_listing_reproduction(pi4):
    """25 rank-1 quarter-angle matches, row-for-row."""
    assert len(pi4) == 25
    for match, row in zip(pi4, TABLE4):
        plus_id, minus_id, b3, d, factors, linking = row
        r = match.report
        assert (match.plus_id, match.minus_id) == (plus_id, minus_id)
        assert r.b3 == b3
        assert r.d_free == r.d_full == d
        assert _factors(r) == factors
        if factors:
            assert linking_forms_equivalent(factors, r.linking, linking)
    by_pair = {(m.plus_id, m.minus_id): m.report for m in pi4}
    r = by_pair[("3.22_4", "3.8_1_16")]
    assert (r.b3, r.d_free, _factors(r), r.linking) == \
        (60, 24, (4,), ((F(1, 4),),))
    r = by_pair[("3.21", "3.8_1_18")]
    assert (r.b3, r.d_free, _factors(r)) == (64, 24, (2,))


def test_criterion_2_sixth_and_worked_listing_reproduction(cat):
    """All 23 published configuration rows, including the reversed angle."""
    assert len(TABLE5) == 23
    for row in TABLE5:
        example, theta, plus_id, minus_id, b3, d, factors, linking, nb = row
        push = table5_pushout(row)
        cfg = make_configuration(cat.get(plus_id), cat.get(minus_id),
                                 theta, [list(r) for r in push])
        r = full_report(cfg)
        assert r.b3 == b3, example
        assert r.d_free == r.d_full == d, example
        assert _factors(r) == factors, example
        if factors:
            assert linking_forms_equivalent(factors, r.linking,
                                            linking), example
        assert r.nu_bar == nb, example
        if example == "8.12":
            assert r.orientation == -1 and r.nu_bar == 36


def test_criterion_3_nu_bar_regression(reports, pi4, pi6):
    """Every published nu_bar value from the closed-form evaluation."""
    for m in pi4:
        assert m.report.nu_bar == -39, (m.plus_id, m.minus_id)
    for m in pi6:
        assert m.report.nu_bar == -51, (m.plus_id, m.minus_id)
    expected = {
        "8.1": -36, "8.2": -36, "8.3": -36, "8.4": -36, "8.5": -36,
        "8.6": -33, "8.7": -36, "8.8": -33, "8.9": -33, "8.10": -39,
        "8.11": -36, "8.12": 36, "8.14": -39, "8.15a": -51, "8.15b": -51,
        "8.16": -48, "8.17": -48, "8.18": -48, "8.19": -48, "8.20": -48,
    }
    for name, value in expected.items():
        _cfg, report, _exp = reports[name]
        assert report.nu_bar == value, name


def test_criterion_4_catalog_self_consistency(cat):
    """Every stored block datum re-derives from its construction recipe."""
    assert len(cat.blocks) == 66
    assert verify_catalog(cat) == []


def test_criterion_5_pure_vs_general_torsion_oracle(cat, pi4, pi6):
    """The two independent torsion routes agree on all pure output."""
    configs = []
    for m in pi4 + pi6:
        configs.append(make_configuration(
            cat.get(m.plus_id), cat.get(m.minus_id), f"{m.theta}pi",
            [list(r) for r in m.pushout]))
    for plus_id, minus_id, theta, bound in (
            ("3.28", "3.28", "1/6pi", 3),
            ("3.22_1", "3.8_1_4", "1/4pi", 2)):
        for m in cross_term_search(cat.get(plus_id), cat.get(minus_id),
                                   theta, bound, pure=True):
            configs.append(make_configuration(
                cat.get(m.plus_id), cat.get(m.minus_id), f"{m.theta}pi",
                [list(r) for r in m.pushout]))
    assert len(configs) >= 35
    for cfg in configs:
        boundary = torsion_report(cfg)
        shortcut = pure_angle_torsion(cfg)
        assert (boundary.group.invariant_factors
                == shortcut.group.invariant_factors)
        assert linking_forms_equivalent(boundary.group.invariant_factors,
                                        boundary.linking, shortcut.linking)
        d_free, d_full, clean = p_divisor(cfg)
        assert shortcut.d_free == d_free
        assert clean and d_full == d_free


def _minor_gcd_factors(A, n):
    """Invariant factors from determinantal divisors (independent route)."""
    from math import gcd
    d = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                g = gcd(g, int(RationalMatrix(sub).det()))
        d.append(abs(g))
    return [d[k] // d[k - 1] for k in range(1, n + 1)]


def _brute_force_classes(A, span):
    """Number of classes of Z^n / A Z^n among the points of [0, span)^n.

    t - t' lies in A Z^n exactly when A^-1 (t - t') is integral, that is
    when adj(A) (t - t') = det(A) A^-1 (t - t') is 0 mod |det A|; so
    adj(A) t mod |det A| keys the class of t.
    """
    from itertools import product as iproduct
    n = len(A)
    det = abs(int(RationalMatrix(A).det()))
    adj = [[(-1) ** (i + j) * int(RationalMatrix(
        [row[:i] + row[i + 1:] for k, row in enumerate(A) if k != j]).det())
        for j in range(n)] for i in range(n)]
    keys = {tuple(sum(a * x for a, x in zip(row, t)) % det for row in adj)
            for t in iproduct(range(span), repeat=n)}
    return len(keys)


def test_criterion_6_lattice_core_oracles():
    """Cokernel, discriminant order, and signature against independent
    elementary computations."""
    rng = random.Random(2026)
    done = 0
    while done < 200:
        n = rng.randint(1, 3)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = int(RationalMatrix(A).det())
        if det == 0 or abs(det) > 200:
            continue
        pres = cokernel_presentation(A)
        assert pres.group.free_rank == 0
        assert pres.group.torsion_order == abs(det)
        got = sorted(f for f in pres.group.invariant_factors if f > 1)
        indep = sorted(f for f in _minor_gcd_factors(A, n) if f > 1)
        assert got == indep, A
        if abs(det) <= 12:
            assert _brute_force_classes(A, abs(det)) == abs(det), A
        done += 1
    done = 0
    while done < 200:
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                G[i][j] = G[j][i] = rng.randint(-4, 4)
            G[i][i] = 2 * rng.randint(-3, 3)
        det = int(RationalMatrix(G).det())
        if det == 0:
            continue
        disc = discriminant_form(GramLattice.from_rows(G))
        assert disc.group.torsion_order == abs(det), G
        done += 1
    for _ in range(100):
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.randint(-5, 5)
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        for _k in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    U[i][k] += c * U[j][k]
        Um = RationalMatrix(U)
        G2 = (Um * RationalMatrix(G) * Um.transpose()).int_rows()
        assert signature(GramLattice.from_rows(G2)) == \
            signature(GramLattice.from_rows(G))


def test_criterion_7_parity_invariant(pi4, pi6, cat):
    """(nu_bar + 24) == 1 + b2 + b3 mod 2 on every produced report."""
    produced = [m.report for m in pi4 + pi6]
    for row in TABLE5:
        push = table5_pushout(row)
        cfg = make_configuration(cat.get(row[2]), cat.get(row[3]),
                                 row[1], [list(r) for r in push])
        produced.append(full_report(cfg))
    assert len(produced) == 25 + 6 + 23
    for r in produced:
        assert r.pi1 == "simply_connected"
        assert (r.nu_bar + 24) % 2 == (1 + r.b2 + r.b3) % 2


def test_criterion_8_comparison_logic(reports, cat):
    """Distinguishing and identifying the published result pairs."""
    r = {name: rep for name, (_c, rep, _e) in reports.items()}
    cmp = compare_2connected(r["8.3"], r["8.4"])
    assert cmp.verdict == "distinct" and "linking" in cmp.detail
    cmp = compare_2connected(r["8.9"], r["8.10"])
    assert cmp.verdict == "diffeo_candidate"
    # the worked configuration behind 8.12, taken at the positive angle:
    # distinct from 8.11 as oriented results, matching after reversal
    cfg12, _rep, _exp = reports["8.12"]
    forward = make_configuration(cat.get(cfg12.plus.id),
                                 cat.get(cfg12.minus.id), "1/4pi",
                                 [list(row) for row in cfg12.pushout.gram])
    cmp = compare_2connected(r["8.11"], full_report(forward))
    assert cmp.verdict == "distinct"
    assert cmp.orientation_reversal_match
    # the reversed-angle result itself carries the same oriented
    # invariants as 8.11; only nu_bar separates them
    cmp = compare_2connected(r["8.11"], r["8.12"])
    assert cmp.verdict == "diffeo_candidate"
    assert (r["8.11"].nu_bar, r["8.12"].nu_bar) == (-36, 36)
    cmp = compare_2connected(r["8.2"], r["8.18"])
    assert cmp.verdict == "diffeo_candidate"
    assert cmp.detail == "all computed classifying invariants agree"
