from fractions import Fraction as F

import pytest

import g2tcs.configuration
import g2tcs.exact
import g2tcs.invariants
import g2tcs.lattices
from g2tcs.configuration import make_configuration, validate_configuration
from g2tcs.fixtures import EXAMPLES
from g2tcs.invariants import (UnsupportedAngle, betti, compare_2connected,
                              full_report, linking_forms_equivalent,
                              nu_bar, p_divisor, pure_angle_torsion,
                              torsion_report)


# ------------------------------------------------------------- full report

def test_full_report_matches_expected(example_reports):
    for name, (report, expected) in example_reports.items():
        b2, b3, torsion_order, d_free, d_full, nb = expected
        got = (report.b2, report.b3, report.torsion_order or 1,
               report.d_free, report.d_full, report.nu_bar)
        assert got == (b2, b3, torsion_order, d_free, d_full, nb), name
        assert report.pi1 == "simply_connected", name
        assert report.p_torsion_clean, name
        assert report.nu == (nb + 24) % 48, name


def test_full_report_takes_smith_forms_only_for_cokernels(catalog,
                                                          monkeypatch):
    """Kernels come from a column Hermite elimination, so every Smith form
    a report takes presents a cokernel (the boundary torsion or a
    discriminant form), for each worked example."""
    smith = g2tcs.exact.smith_normal_form
    present = g2tcs.lattices.cokernel_presentation
    depth, calls = [0], []

    def counted(A):
        calls.append(depth[0])
        return smith(A)

    def presenting(A):
        depth[0] += 1
        try:
            return present(A)
        finally:
            depth[0] -= 1
    for module in (g2tcs.exact, g2tcs.lattices, g2tcs.configuration,
                   g2tcs.invariants):
        for name, fn in (("smith_normal_form", counted),
                         ("cokernel_presentation", presenting)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    total = 0
    for name, (plus, minus, theta, rows, _expected) in EXAMPLES.items():
        calls.clear()
        full_report(make_configuration(catalog.get(plus), catalog.get(minus),
                                       theta, [list(r) for r in rows]))
        assert all(calls), name
        total += len(calls)
    assert total


def test_full_report_reuses_the_validation(catalog, monkeypatch):
    # Each validation builds one ValidationReport; a second validation
    # would build another.
    built = []
    report_type = g2tcs.configuration.ValidationReport

    def counted(*args):
        built.append(args)
        return report_type(*args)
    monkeypatch.setattr(g2tcs.configuration, "ValidationReport", counted)
    plus, minus, theta, rows, _expected = EXAMPLES["8.7"]
    cfg = make_configuration(catalog.get(plus), catalog.get(minus), theta,
                             [list(r) for r in rows])
    assert validate_configuration(cfg).ok
    full_report(cfg)
    assert len(built) == 1


def test_betti_agrees_with_report(example_configs, example_reports):
    for name, (cfg, _) in example_configs.items():
        report, _ = example_reports[name]
        assert betti(cfg) == (report.b2, report.b3), name


def test_nu_bar_regression_values(example_reports):
    expected = {"8.10": -39, "8.1": -36, "8.6": -33, "8.16": -48,
                "8.15a": -51, "8.12": 36}
    for name, value in expected.items():
        report, _ = example_reports[name]
        assert report.nu_bar == value, name


def test_orientation_reversal_flips_nu_bar(example_configs):
    cfg, _ = example_configs["8.12"]
    spec_angles = full_report(cfg).angles
    assert nu_bar(spec_angles, cfg.angle.theta, 1) == -36
    assert nu_bar(spec_angles, cfg.angle.theta, -1) == 36


# ------------------------------------------------------- torsion dual route

def test_pure_route_agrees_with_boundary_route(example_configs):
    for name in ("8.1", "8.3", "8.5", "8.15a", "8.15b", "8.16", "8.17"):
        cfg, _ = example_configs[name]
        boundary = torsion_report(cfg)
        shortcut = pure_angle_torsion(cfg)
        assert (boundary.group.invariant_factors
                == shortcut.group.invariant_factors), name
        assert linking_forms_equivalent(boundary.group.invariant_factors,
                                        boundary.linking,
                                        shortcut.linking), name
        d_free, d_full, clean = p_divisor(cfg)
        assert shortcut.d_free == d_free, name
        assert clean, name


def test_pure_route_rejects_general_angle(example_configs):
    cfg, _ = example_configs["8.7"]
    with pytest.raises(ValueError):
        pure_angle_torsion(cfg)


def test_torsion_rejects_rectangular_angle(catalog):
    cfg = make_configuration(catalog.get("3.8_1_4"), catalog.get("3.8_1_16"),
                             "1/2pi", [[4, 0], [0, 16]])
    with pytest.raises(UnsupportedAngle):
        torsion_report(cfg)
    report = full_report(cfg)
    assert not report.torsion_supported
    assert report.torsion is None and report.d_free is None
    assert report.nu_bar == 0


def test_known_torsion_groups(example_reports):
    report, _ = example_reports["8.5"]
    assert report.torsion.invariant_factors == (7,)
    assert report.linking == ((F(6, 7),),)
    report, _ = example_reports["8.3"]
    assert report.torsion.invariant_factors == (2, 2)
    report, _ = example_reports["8.15b"]
    assert report.torsion.invariant_factors == (3,)
    assert report.linking == ((F(1, 3),),)


# --------------------------------------------------------- linking compare

def test_linking_equivalence_cyclic():
    # squares mod 7 are {1, 2, 4}: 6/7 ~ 3/7 but not ~ 1/7
    assert linking_forms_equivalent((7,), ((F(6, 7),),), ((F(3, 7),),))
    assert not linking_forms_equivalent((7,), ((F(6, 7),),), ((F(1, 7),),))
    # the two order-3 classes are not related by an automorphism
    assert not linking_forms_equivalent((3,), ((F(1, 3),),), ((F(2, 3),),))
    assert linking_forms_equivalent((3,), ((F(1, 3),),), ((F(1, 3),),))


def test_linking_equivalence_2x2():
    diag = ((F(1, 2), F(0)), (F(0), F(1, 2)))
    anti = ((F(0), F(1, 2)), (F(1, 2), F(0)))
    assert not linking_forms_equivalent((2, 2), diag, anti)
    assert linking_forms_equivalent((2, 2), anti, anti)


# ----------------------------------------------------------------- compare

def test_compare_distinct_by_linking(example_reports):
    r3, _ = example_reports["8.3"]
    r4, _ = example_reports["8.4"]
    cmp = compare_2connected(r3, r4)
    assert cmp.verdict == "distinct"
    assert "linking" in cmp.detail


def test_compare_candidate_pair(example_reports):
    r9, _ = example_reports["8.9"]
    r10, _ = example_reports["8.10"]
    cmp = compare_2connected(r9, r10)
    assert cmp.verdict == "diffeo_candidate"


def test_compare_orientation_reversal(example_reports, example_configs,
                                      catalog):
    # with the reversed angle the two results carry the same oriented
    # invariants; only nu_bar tells the structures apart
    r11, _ = example_reports["8.11"]
    r12, _ = example_reports["8.12"]
    cmp = compare_2connected(r11, r12)
    assert cmp.verdict == "diffeo_candidate"
    assert (r11.nu_bar, r12.nu_bar) == (-36, 36)
    # the same configuration at the positive angle is the mirror image:
    # distinct as oriented results, identical after reversing one side
    cfg12, _ = example_configs["8.12"]
    forward = make_configuration(catalog.get(cfg12.plus.id),
                                 catalog.get(cfg12.minus.id), "1/4pi",
                                 [list(r) for r in cfg12.pushout.gram])
    r12f = full_report(forward)
    assert r12f.nu_bar == -36
    cmp = compare_2connected(r11, r12f)
    assert cmp.verdict == "distinct"
    assert cmp.orientation_reversal_match


def test_compare_across_angles(example_reports):
    r2, _ = example_reports["8.2"]
    r18, _ = example_reports["8.18"]
    cmp = compare_2connected(r2, r18)
    assert cmp.verdict == "diffeo_candidate"


def test_compare_rejects_non_2connected(example_reports):
    r14, _ = example_reports["8.14"]  # b2 = 1
    r1, _ = example_reports["8.1"]
    with pytest.raises(ValueError):
        compare_2connected(r14, r1)
