"""The principal-angle route of ``configuration_angles`` against the
reflection route it replaced, which is kept here as the oracle.

The oracle builds both reflections A± = 2 pi± - Id on the nondegenerate
quotient of the pushout, takes the characteristic polynomial of their
product and splits it into the eigenvalues +-1 and palindromic quadratic
factors x^2 - t x + 1, each piece signed by the form on its eigenspace.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_route
from g2tcs.catalog import load_catalog
from g2tcs.configuration import (ANGLE_PI, ANGLE_ZERO, AngleSpectrum,
                                 ConfigurationError, configuration_angles,
                                 make_configuration, validate_configuration)
from g2tcs.exact import (RationalMatrix, palindromic_quadratic_split,
                         rational_roots, smith_normal_form)
from g2tcs.fixtures import TABLE5, table5_pushout
from g2tcs.invariants import full_report
from g2tcs.lattices import GramLattice, radical_and_quotient, signature
from g2tcs.search import (_gram_permutations, cross_term_search,
                          rank1_pi4_search, rank1_pi6_search)


def _form_signature(G, basis):
    gram = [[sum(a * b for a, b in zip(v, fraction_route.mul_vector(G, u)))
             for v in basis] for u in basis]
    denom = 1
    for row in gram:
        for x in row:
            denom = denom * x.denominator
    return signature(GramLattice.from_rows(
        [[int(x * denom) for x in row] for row in gram]))


def _from_columns(cols) -> RationalMatrix:
    """The matrix whose columns are the given vectors."""
    return RationalMatrix([list(row) for row in zip(*cols)])


def reflection_angles(cfg) -> AngleSpectrum:
    """Configuration angles from the eigenstructure of A+ A-."""
    _radical, reduced = radical_and_quotient(cfg.pushout)
    r = reduced.rank
    Ghat = reduced.matrix()
    n = cfg.pushout.rank
    # The columns of the Smith transform Q: the complement basis on which
    # ``reduced`` is the Gram matrix, then the radical.
    _D, _P, Q, _Pinv = smith_normal_form(
        [list(row) for row in cfg.pushout.gram])
    full = RationalMatrix(Q)
    inv = full.inverse()
    imgs = [fraction_route.mul_vector(
        inv, [F(int(i == j)) for i in range(n)])[:r] for j in range(n)]
    Bp = _from_columns(imgs[:cfg.rho_plus])
    Bm = _from_columns(imgs[cfg.rho_plus:])

    def reflection(B):
        P = B * (B.transpose() * Ghat * B).inverse() * B.transpose() * Ghat
        return P.scaled(2) - RationalMatrix.identity(r)

    M = reflection(Bp) * reflection(Bm)
    I = RationalMatrix.identity(r)
    roots, remainder = rational_roots(M.charpoly())
    alpha_plus, alpha_minus = [], []
    accounted = 0
    for value, mult in sorted(roots):
        if value not in (1, -1):
            raise ArithmeticError("rational eigenvalue other than +-1")
        space = (M - I.scaled(value)).nullspace()
        if len(space) != mult:
            raise ArithmeticError("not semisimple")
        pos, neg, zero = _form_signature(Ghat, space)
        if zero:
            raise ArithmeticError("degenerate eigenspace")
        token = ANGLE_ZERO if value == 1 else ANGLE_PI
        alpha_plus.extend([token] * pos)
        alpha_minus.extend([token] * neg)
        accounted += mult
    if len(remainder) > 1:
        factors, leftover = palindromic_quadratic_split(remainder)
        if len(leftover) > 1:
            raise ArithmeticError("algebraic angles unsupported")
        for t, mult in factors:
            plane = (M * M - M.scaled(t) + I).nullspace()
            if len(plane) != 2 * mult:
                raise ArithmeticError("not semisimple")
            pos, neg, zero = _form_signature(Ghat, plane)
            if zero or pos % 2 or neg % 2:
                raise ArithmeticError("indefinite invariant 2-plane")
            alpha_plus.extend([(t / 2, 1), (t / 2, -1)] * (pos // 2))
            alpha_minus.extend([(t / 2, 1), (t / 2, -1)] * (neg // 2))
            accounted += 2 * mult
    if accounted != r:
        raise ArithmeticError("eigenstructure does not fill the space")
    alpha_plus.extend([ANGLE_ZERO] * (3 - len(alpha_plus)))
    alpha_minus.extend([ANGLE_ZERO] * (19 - len(alpha_minus)))
    if len(alpha_plus) != 3 or len(alpha_minus) != 19:
        raise ArithmeticError("angle spectrum has wrong size")
    return AngleSpectrum(tuple(alpha_plus), tuple(alpha_minus))


def _outcome(route, cfg):
    """The spectrum, or the type of the exception the route raised."""
    try:
        return route(cfg)
    except ArithmeticError as exc:
        return type(exc)


def _config(catalog, plus_id, minus_id, theta, rows):
    return make_configuration(catalog.get(plus_id), catalog.get(minus_id),
                              theta, [list(r) for r in rows])


def _fixture_configs(catalog, example_configs):
    configs = [cfg for cfg, _expected in example_configs.values()]
    configs += [_config(catalog, row[2], row[3], row[1], table5_pushout(row))
                for row in TABLE5]
    for m in rank1_pi4_search(catalog) + rank1_pi6_search(catalog):
        configs.append(_config(catalog, m.plus_id, m.minus_id,
                               f"{m.theta}pi", m.pushout))
    for plus_id, minus_id, theta, bound, pure in (
            ("3.28", "3.28", "1/6pi", 3, True),
            ("3.22_1", "3.8_1_4", "1/4pi", 2, True),
            ("3.28", "3.9_3", "1/4pi", 2, False)):
        for m in cross_term_search(catalog.get(plus_id),
                                   catalog.get(minus_id), theta, bound,
                                   pure=pure):
            configs.append(_config(catalog, m.plus_id, m.minus_id,
                                   f"{m.theta}pi", m.pushout))
    return configs


def test_principal_angles_match_reflections_on_fixtures(catalog,
                                                        example_configs):
    configs = _fixture_configs(catalog, example_configs)
    assert len(configs) >= 79
    spectra = set()
    for cfg in configs:
        expected = reflection_angles(cfg)
        assert configuration_angles(cfg) == expected, cfg.pushout.gram
        spectra.add(expected)
    # the fixtures exercise pi entries, 0 entries and conjugate pairs
    entries = {e for spec in spectra for e in spec.alpha_minus}
    assert ANGLE_PI in entries
    assert any(s != 0 for _c, s in entries)


_BLOCKS = [b for b in load_catalog().blocks if b.rank <= 3]
_THETAS = ["1/4pi", "1/6pi", "1/3pi", "1/2pi", "2/3pi", "3/4pi", "5/6pi"]


@st.composite
def pushouts(draw):
    """A configuration from two catalog blocks of rank <= 3, an angle the
    block kinds admit and cross entries in [-4, 4]."""
    plus = draw(st.sampled_from(_BLOCKS))
    minus = draw(st.sampled_from(_BLOCKS))
    theta = draw(st.sampled_from(_THETAS))
    rp, rm = plus.rank, minus.rank
    cross = draw(st.lists(st.lists(st.integers(-4, 4), min_size=rm,
                                   max_size=rm), min_size=rp, max_size=rp))
    rows = [list(plus.N.gram[i]) + cross[i] for i in range(rp)]
    rows += [[cross[i][j] for i in range(rp)] + list(minus.N.gram[j])
             for j in range(rm)]
    try:
        return make_configuration(plus, minus, theta, rows)
    except ConfigurationError:
        return None


@given(pushouts())
@settings(max_examples=300, deadline=None)
def test_principal_angles_match_reflections_on_random_pushouts(cfg):
    if cfg is None:
        return
    new = _outcome(configuration_angles, cfg)
    old = _outcome(reflection_angles, cfg)
    if isinstance(old, AngleSpectrum) and any(
            abs(c) > 1 for c, _s in old.alpha_plus + old.alpha_minus):
        # An invariant plane with |trace| > 2 carries real eigenvalues
        # other than +-1, not an angle. The reflection route still signs
        # it when the form there is split; only an invalid configuration
        # (an eigenvalue of pi+ pi- outside [0, 1]) gets there.
        assert not validate_configuration(cfg).ok
        assert new is ArithmeticError
    else:
        assert new == old, cfg.pushout.gram
    # The integer pencil agrees with the rational route it replaced.
    fraction_route.routes_agree(cfg)


def test_hyperbolic_plane_is_not_an_angle(catalog):
    cfg = _config(catalog, "3.27_4", "5.15_2", "1/4pi",
                  [[8, 4, -2, 4], [4, 0, 2, 4], [-2, 2, 2, 2], [4, 4, 2, 0]])
    assert (F(-5), 1) in reflection_angles(cfg).alpha_plus
    assert _outcome(configuration_angles, cfg) is ArithmeticError


def test_kernel_not_orthogonal_to_the_other_side_is_rejected(catalog):
    # ker m+ holds an x with pi- x != 0 (isotropic, orthogonal to N+), so
    # A+ A- has a Jordan block at -1; every eigenspace of m+ and m- is of
    # full dimension and nondegenerate all the same.
    cfg = _config(catalog, "5.14", "5.15_2", "1/4pi",
                  [[0, 2, 0, 0], [2, 0, 1, 0], [0, 1, 2, 2], [0, 0, 2, 0]])
    assert validate_configuration(cfg).ok
    assert _outcome(reflection_angles, cfg) is ArithmeticError
    assert _outcome(configuration_angles, cfg) is ArithmeticError


def test_reversing_orientation_negates_nu_bar_and_linking(catalog,
                                                          example_configs):
    checked = 0
    for name, (cfg, _expected) in example_configs.items():
        theta = f"{cfg.angle.theta.numerator}/{cfg.angle.theta.denominator}pi"
        rows = cfg.pushout.gram
        forward = full_report(_config(catalog, cfg.plus.id, cfg.minus.id,
                                      theta, rows))
        reverse = full_report(_config(catalog, cfg.plus.id, cfg.minus.id,
                                      "-" + theta, rows))
        assert reverse.nu_bar == -forward.nu_bar, name
        assert reverse.angles == forward.angles, name
        assert (reverse.b2, reverse.b3) == (forward.b2, forward.b3), name
        if forward.linking is not None:
            assert reverse.linking == tuple(
                tuple((-x) % 1 for x in row) for row in forward.linking), name
            checked += any(x not in (0, F(1, 2)) for row in forward.linking
                           for x in row)
    assert checked >= 3


def test_relabelling_the_bases_keeps_the_angles(catalog, example_configs):
    """A basis permutation preserving G+ and G- preserves the spectrum."""
    relabelled = 0
    for cfg, _expected in example_configs.values():
        rp, gram = cfg.rho_plus, cfg.pushout.gram
        spectrum = configuration_angles(cfg)
        for pp in _gram_permutations(cfg.plus.N.gram):
            for pm in _gram_permutations(cfg.minus.N.gram):
                order = list(pp) + [rp + j for j in pm]
                rows = [[gram[i][j] for j in order] for i in order]
                if rows == [list(r) for r in gram]:
                    continue
                moved = _config(catalog, cfg.plus.id, cfg.minus.id,
                                f"{cfg.angle.theta}pi", rows)
                assert configuration_angles(moved) == spectrum
                relabelled += 1
    assert relabelled >= 5
