"""The integer report core against the rational route it replaced.

``fraction_route`` keeps the rational computation of every quantity the
integer pencil now decides; the two must agree on every fixture
configuration and on two hand-built ones whose characteristic polynomial
keeps an irrational pair of roots, which only the Sturm check decides.
The random-pushout property of ``test_angles`` runs the same comparison.
"""

import time

import pytest

import fraction_route
from g2tcs.configuration import (configuration_angles, make_configuration,
                                 validate_configuration)
from g2tcs.exact import RationalMatrix, int_charpoly, integer_roots
from g2tcs.fixtures import EXAMPLES, TABLE5, table5_pushout
from g2tcs.invariants import full_report
from g2tcs.search import rank1_pi4_search
from test_angles import _config, _fixture_configs


def test_integer_route_matches_fraction_route_on_fixtures(catalog,
                                                          example_configs):
    configs = _fixture_configs(catalog, example_configs)
    assert len(configs) >= 79
    for cfg in configs:
        fraction_route.routes_agree(cfg)


# y^2 - 60 y + 720 is left of charpoly(N+), s = 80: roots 30 +- sqrt(180),
# both between 0 and s, so the configuration is valid but its angles are
# irrational.
IRRATIONAL_INSIDE = ("3.26_4", "3.28", "1/4pi",
                     [[8, 6, 4, -3], [6, 2, 1, 0], [4, 1, 2, 2],
                      [-3, 0, 2, 0]])
# y^2 + 240 y + 768 is left, s = 48: both roots are negative.
IRRATIONAL_OUTSIDE = ("3.25_3", "5.14", "1/4pi",
                      [[6, 6, 0, -2], [6, 4, 2, 3], [0, 2, 0, 2],
                       [-2, 3, 2, 0]])


@pytest.mark.parametrize("case,cofactor,ok", [
    (IRRATIONAL_INSIDE, (1, -60, 720), True),
    (IRRATIONAL_OUTSIDE, (1, 240, 768), False),
])
def test_irrational_pairs_go_to_the_sturm_check(catalog, case, cofactor,
                                                 ok):
    cfg = _config(catalog, *case)
    assert cfg.pencil().cofactor == cofactor
    report = validate_configuration(cfg)
    assert report.ok == ok
    if not ok:
        assert report.problems == (
            "eigenvalues of pi+ pi- must lie in [0, 1]",)
    with pytest.raises(ArithmeticError):
        configuration_angles(cfg)
    fraction_route.routes_agree(cfg)


def test_a_repeated_eigenvalue_0_is_inside_the_unit_interval(catalog):
    # m+ has the eigenvalues 0, 0, 1/2. The rational route counted the
    # roots of charpoly(m+) = c^2 (c - 1/2) with a Sturm sequence that
    # vanishes at the double root 0 and rejected the configuration.
    cfg = _config(catalog, "5.15_3", "3.9_3", "1/4pi",
                  [[2, 2, 2, 0, 0], [2, 0, 2, 0, 0], [2, 2, 0, 0, 1],
                   [0, 0, 0, 4, 2], [0, 0, 1, 2, 0]])
    pencil = cfg.pencil()
    assert (pencil.s, pencil.roots) == (-32, ((0, 2), (-16, 1)))
    assert validate_configuration(cfg).ok
    fraction_route.routes_agree(cfg)


def test_integer_charpoly_matches_sympy(catalog, example_configs):
    sympy = pytest.importorskip("sympy")
    configs = _fixture_configs(catalog, example_configs)
    configs += [_config(catalog, *IRRATIONAL_INSIDE),
                _config(catalog, *IRRATIONAL_OUTSIDE)]
    for cfg in configs:
        for N in cfg.pencil().N:
            expected = sympy.Matrix(N).charpoly().all_coeffs()
            assert int_charpoly(N) == [int(c) for c in expected], N


def test_integer_roots_take_the_multiplicities_and_leave_the_rest():
    # (y - 3)^2 (y + 2) (y^2 - 2)
    p = [1, -4, -5, 26, 6, -36]
    assert integer_roots(p, 0, 10) == ([(3, 2)], [1, 2, -2, -4])
    assert integer_roots(p, -10, 10) == ([(-2, 1), (3, 2)], [1, 0, -2])
    assert integer_roots(p, 4, 10) == ([], p)


def test_integer_roots_do_not_walk_a_large_interval():
    # Roots 0 and 10^30 - 1 in an interval of width 10^30: bisection
    # takes about a hundred steps where a scan would never end.
    big = 10 ** 30 - 1
    start = time.perf_counter()
    roots, rest = integer_roots([1, -big, 0], 0, 10 ** 30)
    assert roots == [(0, 1), (big, 1)] and rest == [1]
    assert time.perf_counter() - start < 1


def test_full_report_builds_no_rational_matrix(catalog, monkeypatch):
    """The report path stays in integers: with RationalMatrix unusable,
    every worked example, TABLE5 row and TABLE4 match still reports."""
    configs = [make_configuration(catalog.get(plus), catalog.get(minus),
                                  theta, [list(r) for r in rows])
               for plus, minus, theta, rows, _expected in EXAMPLES.values()]
    configs += [make_configuration(catalog.get(row[2]), catalog.get(row[3]),
                                   row[1], [list(r) for r in
                                            table5_pushout(row, catalog)])
                for row in TABLE5]

    def refuse(self, rows):
        raise AssertionError("RationalMatrix built on the report path")
    monkeypatch.setattr(RationalMatrix, "__init__", refuse)
    for cfg in configs:
        full_report(cfg)
    assert len(configs) == 43
    assert len(rank1_pi4_search(catalog)) == 25
