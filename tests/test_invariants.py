import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

import fraction_route
import g2tcs.configuration
import g2tcs.exact
import g2tcs.invariants
import g2tcs.lattices
from g2tcs.configuration import (ANGLE_PI, ANGLE_ZERO, COS_SQUARED,
                                 AngleSpectrum, Configuration, Gluing,
                                 GluingAngle, configuration_angles,
                                 make_configuration, rank1_pushout,
                                 validate_configuration)
from g2tcs.fixtures import EXAMPLES
from g2tcs.invariants import (UnsupportedAngle, _full_divisor, betti,
                              compare_2connected, full_report,
                              linking_forms_equivalent, nu_bar, p_divisor,
                              pure_angle_torsion, torsion_report)


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


def _random_spectrum(rng):
    """A spectrum of 19 minus-type entries: angles 0 and pi, and +- pairs
    whose cosines include the ends -1 and 1, the cut-offs -1/2, 0 and 1/2,
    and other fractions."""
    minus = []
    while len(minus) < 19:
        if len(minus) == 18 or rng.random() < 0.3:
            minus.append(rng.choice([ANGLE_PI, ANGLE_ZERO]))
        else:
            den = rng.choice([1, 2, 2, 3, 4, 6, rng.randint(1, 50)])
            cos_a = F(rng.randint(-den, den), den)
            minus += [(cos_a, 1), (cos_a, -1)]
    return AngleSpectrum((ANGLE_ZERO,) * 3, tuple(minus))


def test_nu_bar_matches_the_fraction_route(dataset_configs):
    """The integer counts equal the Fraction comparisons on the spectrum
    of every dataset row and on seeded random spectra, at the seven
    angles (also negated) and both orientations."""
    spectra = [configuration_angles(cfg) for cfg in dataset_configs]
    rng = random.Random(45)
    spectra += [_random_spectrum(rng) for _ in range(300)]
    for spectrum in spectra:
        for theta in COS_SQUARED:
            for t in (theta, -theta):
                for orientation in (1, -1):
                    assert nu_bar(spectrum, t, orientation) == \
                        fraction_route.nu_bar(spectrum, t, orientation), \
                        (spectrum, t, orientation)


@pytest.mark.parametrize("theta", [F(1, 8), 0, 1, F(0), F(1), F(3, 2),
                                   F(-3, 2), F(5, 4), 0.25, -0.25, 0.5])
def test_nu_bar_refuses_an_unsupported_theta(example_reports, theta):
    report, _ = example_reports["8.12"]
    with pytest.raises(ValueError, match="theta"):
        nu_bar(report.angles, theta)


def test_full_report_builds_fractions_only_for_reported_values(
        catalog, monkeypatch):
    """One report of the rank-1 pair 3.21 x 3.8_1_18 at 1/4pi builds four
    Fractions: its one cosine and one linking entry, and the two pairings
    of the pure-angle route that cross-check that entry. It compares and
    hashes none, and nu_bar touches none. Before the per-angle integers
    the report made 24 ``__new__``, 37 ``__eq__`` and 8 ``__hash__``
    calls, 7, 21 and 1 of them in nu_bar."""
    plus, minus = catalog.get("3.21"), catalog.get("3.8_1_18")
    push = rank1_pushout(plus.N.gram[0][0], minus.N.gram[0][0], "1/4pi")
    cfg = Configuration(Gluing(plus, minus, GluingAngle(
        plus.kind, minus.kind, F(1, 4))), ((push.gram[0][1],),))
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    for name in ("__new__", "__eq__", "__hash__"):
        fn = counting(name, getattr(F, name))
        monkeypatch.setattr(F, name,
                            staticmethod(fn) if name == "__new__" else fn)
    report = full_report(cfg)
    assert calls == Counter({"__new__": 4})
    calls.clear()
    nu_bar(report.angles, report.theta, report.orientation)
    assert not calls
    monkeypatch.undo()
    assert (report.b3, report.torsion.invariant_factors, report.linking,
            report.nu_bar) == (64, (2,), ((F(1, 2),),), -39)


# ------------------------------------------------------------- p divisor

def _d_full_by_divisors_of_24(free_values, torsion):
    """d_full as the search over the eight divisors of 24 finds it."""
    return max(m for m in range(1, 25) if 24 % m == 0
               and all(c % gcd(m, d) == 0 for c, d in torsion)
               and all(v % m == 0 for v in free_values))


def test_full_divisor_matches_the_divisors_of_24(dataset_configs):
    """d_full read off the divisors of d_free equals the search over the
    divisors of 24, on every dataset row (each at pi/4 or pi/6) and on
    random Smith coordinates."""
    for cfg in dataset_configs:
        bd, pres = g2tcs.invariants._boundary_cokernel(cfg)
        coords = pres.snf_coordinates(list(bd.p_class))
        torsion = [(coords[i], pres.diagonal(i)) for i in pres.torsion_indices]
        free = [coords[i] for i in pres.free_indices]
        assert p_divisor(cfg)[1] == _d_full_by_divisors_of_24(free, torsion)
    rng = random.Random(24)
    for _ in range(3000):
        free = [rng.randint(-72, 72) for _ in range(rng.randint(0, 3))]
        torsion = [(rng.randint(-50, 50),
                    rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 48]))
                   for _ in range(rng.randint(0, 3))]
        d_free = gcd(24, *(abs(v) for v in free))
        assert _full_divisor(d_free, torsion) == \
            _d_full_by_divisors_of_24(free, torsion), (free, torsion)


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


@pytest.mark.parametrize("linking", [(("1/2", 0), (0, "1/2")),
                                     ((0.5, 0.0), (0.0, 0.5)),
                                     ((F(1, 2),),), None])
def test_compare_refuses_a_malformed_linking_form(example_reports, linking):
    report, _ = example_reports["8.3"]
    assert report.torsion.invariant_factors == (2, 2)
    bad = report._replace(linking=linking)
    for pair in ((report, bad), (bad, report)):
        with pytest.raises(ValueError):
            compare_2connected(*pair)
