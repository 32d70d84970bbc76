from fractions import Fraction as F

import pytest

from g2tcs.configuration import (ConfigurationError, GluingAngle,
                                 admissible_angle, configuration_angles,
                                 d_theta, feasibility_cone_check,
                                 infer_family, is_pure_angle,
                                 make_configuration, parse_theta,
                                 pushout_from_glue, rank1_pushout,
                                 validate_configuration)


# ------------------------------------------------------------------- angles

def test_parse_theta():
    assert parse_theta("1/4pi") == (F(1, 4), 1)
    assert parse_theta("-1/4pi") == (F(1, 4), -1)
    assert parse_theta("1/2pi") == (F(1, 2), 1)
    with pytest.raises(ConfigurationError):
        parse_theta("0.25pi")
    with pytest.raises(ConfigurationError):
        parse_theta("1/5pi")
    for text in ("1/0pi", "pi/0", "-0/0pi"):
        with pytest.raises(ConfigurationError, match="zero denominator"):
            parse_theta(text)


def test_infer_family():
    assert infer_family(F(1, 4)) == "square"
    assert infer_family(F(1, 2)) == "square"
    assert infer_family(F(1, 6)) == "hexagonal"
    assert infer_family(F(1, 3)) == "hexagonal"


def test_gluing_angle_parity():
    GluingAngle("square", F(1, 4), 1, 0, 1)  # 2k = 1, b+ + b- = 1: OK
    with pytest.raises(ConfigurationError):
        GluingAngle("square", F(1, 4), 1, 1, 1)  # parity violated
    with pytest.raises(ConfigurationError):
        GluingAngle("square", F(1, 6), 1, 0, 1)  # not a square angle


def test_admissible_angle_cases():
    adm = admissible_angle
    assert adm("involution", "ordinary", "square", F(1, 4)) == \
        "simply_connected"
    assert adm("involution", "involution", "square", F(1, 4)) == \
        "simply_connected"
    assert adm("ordinary", "ordinary", "square", F(1, 4)) == "inadmissible"
    assert adm("ordinary", "ordinary", "square", F(1, 2)) == \
        "simply_connected"
    assert adm("involution", "involution", "square", F(1, 2)) == "pi1_Z2"
    assert adm("involution", "involution", "hexagonal", F(1, 3)) == \
        "simply_connected"
    assert adm("involution", "involution", "hexagonal", F(1, 6)) == \
        "simply_connected"
    assert adm("involution", "involution", "hexagonal", F(1, 2)) == "pi1_Z2"
    assert adm("involution", "involution", "hexagonal", F(1, 3), 0, 0) == \
        "pi1_Z3"
    assert adm("involution", "ordinary", "hexagonal", F(1, 6)) == \
        "inadmissible"


def test_square_role_flags_ignore_minus_involution(catalog):
    # a quarter-turn gluing of two involution blocks uses the minus block
    # in its ordinary role: flags (1, 0), simply connected
    cfg = make_configuration(catalog.get("3.22_3"), catalog.get("3.23_6"),
                             "1/4pi", [[6, 3, 3], [3, 2, 4], [3, 4, 2]])
    assert (cfg.angle.b_plus, cfg.angle.b_minus) == (1, 0)
    assert cfg.pi1() == "simply_connected"


# ----------------------------------------------------------------- validate

def test_validate_accepts_worked_configurations(example_configs):
    for name, (cfg, _expected) in example_configs.items():
        report = validate_configuration(cfg)
        assert report.ok, (name, report.problems)


def test_validate_rejects_wrong_diagonal(catalog):
    cfg = make_configuration(catalog.get("3.22_1"), catalog.get("3.9_10"),
                             "1/4pi", [[4, 3, 1], [3, 8, 4], [1, 4, 0]])
    report = validate_configuration(cfg)
    assert not report.ok
    assert any("diagonal" in p for p in report.problems)


def test_validate_rejects_bad_signature(catalog):
    # cross term large enough to flip the form indefinite with a single
    # positive direction
    cfg = make_configuration(catalog.get("3.22_1"), catalog.get("3.8_1_2"),
                             "1/4pi", [[2, 3], [3, 2]])
    report = validate_configuration(cfg)
    assert not report.ok
    assert any("signature" in p for p in report.problems)


def test_validate_flags_large_rank(catalog):
    # two rank-? blocks cannot exceed 11 here; simulate via the flag logic
    # with the largest catalog blocks (3 + 3 = 6, no flag expected)
    cfg = make_configuration(catalog.get("5.15_3"), catalog.get("3.10"),
                             "1/4pi",
                             [[2, 2, 2, 1, 1, 2], [2, 0, 2, 1, 1, 0],
                              [2, 2, 0, 0, 2, 2], [1, 1, 0, 0, 2, 2],
                              [1, 1, 2, 2, 0, 2], [2, 0, 2, 2, 2, 0]])
    report = validate_configuration(cfg)
    assert report.ok and report.flags == ()


# -------------------------------------------------------------- pure angles

def test_pure_angle_and_multiplicity(example_configs):
    pure_cases = {"8.1", "8.5", "8.15a", "8.15b", "8.16", "8.17"}
    for name in pure_cases:
        cfg, _ = example_configs[name]
        assert is_pure_angle(cfg), name
        assert d_theta(cfg) == cfg.rho_plus
    non_pure = {"8.7", "8.14", "8.20"}
    for name in non_pure:
        cfg, _ = example_configs[name]
        assert not is_pure_angle(cfg), name
        assert d_theta(cfg) == 1


def test_configuration_angles_rank1(example_configs):
    cfg, _ = example_configs["8.15a"]
    spec = configuration_angles(cfg)
    # pure rank-1 gluing: every exterior angle is zero
    assert all(c == 1 and s == 0 for c, s in spec.alpha_minus)


def test_configuration_angles_with_pi(example_configs):
    cfg, _ = example_configs["8.7"]
    spec = configuration_angles(cfg)
    cosines = [c for c, _s in spec.alpha_minus]
    assert F(-1) in cosines  # one angle equal to pi
    plus = sorted(spec.alpha_plus)
    assert (F(0), 1) in spec.alpha_plus and (F(0), -1) in spec.alpha_plus


# ------------------------------------------------------------ rank-1 pushout

def test_rank1_pushout_quarter():
    push = rank1_pushout(4, 18, "1/4pi")
    assert push.gram == ((4, 6), (6, 18))
    assert (push.w, push.m, push.q_plus, push.q_minus) == (6, 2, 1, 3)


def test_rank1_pushout_sixth():
    push = rank1_pushout(2, 6, "1/6pi")
    assert push.gram == ((2, 3), (3, 6))
    assert push.m is None


def test_rank1_pushout_rectangular():
    push = rank1_pushout(4, 6, "1/2pi")
    assert push.gram == ((4, 0), (0, 6))


def test_rank1_pushout_no_match():
    assert rank1_pushout(2, 6, "1/4pi") is None
    assert rank1_pushout(4, 2, "1/6pi") is None


def test_rank1_pushout_rejects_odd():
    with pytest.raises(ValueError):
        rank1_pushout(3, 4, "1/4pi")


# -------------------------------------------------------------- feasibility

def test_feasibility_witness(example_configs):
    for name in ("8.7", "8.11", "8.16"):
        cfg, _ = example_configs[name]
        feasible, witness = feasibility_cone_check(cfg)
        assert feasible, name
        assert witness is not None


def test_feasibility_rejects_negative_cross(catalog):
    # flipping the sign of the cross term reverses the cone condition
    cfg = make_configuration(catalog.get("3.22_1"), catalog.get("3.8_1_4"),
                             "1/4pi", [[2, -2], [-2, 4]])
    feasible, _witness = feasibility_cone_check(cfg)
    assert not feasible


# ------------------------------------------------------------------- glue

def test_pushout_from_glue_reproduces_degenerate_presentation():
    base = [[196, 0, 98], [0, -98, 0], [98, 0, 98]]
    plus = [[F(9, 49), F(8, 49), 0], [F(5, 49), F(-1, 49), 0]]
    minus = [[0, F(-1, 14), F(3, 14)], [0, F(3, 14), F(5, 14)]]
    rows = pushout_from_glue(base, plus, minus)
    assert rows == [[4, 4, 5, 3], [4, 2, 2, 4], [5, 2, 4, 9], [3, 4, 9, 8]]


def test_pushout_from_glue_rejects_fractional_pairing():
    with pytest.raises(ValueError):
        pushout_from_glue([[2]], [[F(1, 2)]], [[1]])
