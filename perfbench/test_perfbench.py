"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(11) == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail_percentile(10)
    samples = list(range(100, 0, -1))
    value = run.percentile(samples, run.tail_percentile(len(samples)))
    assert value == pytest.approx(90.1)
    assert sum(1 for x in samples if x > value) == 10
    assert run.percentile([3, 1, 2, 10], 50) == 2.5
    assert run.percentile([7], 99) == 7


def test_self_time_subtracts_children_on_hand_built_tree():
    tree = [
        ("invariants.full_report", 0, 100, -1, "pass:0"),
        ("configuration.configuration_angles", 10, 30, 0, "pass:0"),
        ("exact.RationalMatrix.inverse", 40, 70, 0, "pass:0"),
        ("exact.RationalMatrix.__mul__", 45, 50, 2, "pass:0"),
        ("exact.RationalMatrix.__mul__", 60, 62, 2, "pass:0"),
        ("cli.main", 200, 260, -1, "cli reproduce"),
        ("invariants.full_report", 210, 250, 5, "cli reproduce"),
    ]
    assert spans.self_times(tree) == [50, 20, 23, 5, 2, 20, 40]
    m = spans.layer_metrics(tree, lambda op: op.startswith("pass:"))
    assert m["invariants.full_report.calls"] == 1
    assert m["invariants.full_report.self_s"] == pytest.approx(50e-9)
    assert m["exact.RationalMatrix.__mul__.calls"] == 2
    assert m["exact.RationalMatrix.__mul__.self_s"] == pytest.approx(7e-9)
    assert m["exact.self_s"] == pytest.approx(30e-9)
    assert m["configuration.self_s"] == pytest.approx(20e-9)
    assert m["cli.main.calls"] == 0
    # Overlapping children cover their union once.
    overlap = [("a", 0, 10, -1, None), ("b", 2, 6, 0, None),
               ("c", 4, 8, 0, None)]
    assert spans.self_times(overlap) == [4, 4, 4]


def test_funnel_arithmetic_on_one_small_box():
    import g2tcs
    from g2tcs import invariants, search

    cat = g2tcs.load_catalog()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = "pass:0"
        # Worked example 8.7: a 1x2 cross block, bound 3, 49 blocks.
        hits = search.cross_term_search(cat.get("3.22_1"),
                                        cat.get("3.9_10"), "1/4pi", 3)
    finally:
        tracer.uninstall()
    assert search.full_report is invariants.full_report
    f = spans.funnel_metrics(tracer.funnel)
    assert f["search.enumerated"] == 7 ** 2
    assert f["search.reported"] == len(hits) >= 1
    assert (f["search.enumerated"] >= f["search.screened"]
            >= f["search.valid"] >= f["search.d_theta_pass"]
            >= f["search.feasible"] >= f["search.reported"])
    assert f["search.hit_ratio"] == f["search.reported"] / 49
    m = spans.layer_metrics(tracer.spans, lambda op: True)
    assert m["search.cross_term_search.calls"] == 1
    assert m["configuration.make_configuration.calls"] == f["search.screened"]
    # full_report validates each block it reports on a second time.
    assert (m["configuration.validate_configuration.calls"]
            == f["search.screened"] + m["invariants.full_report.calls"])
    # The screen makes three products per enumerated block.
    assert m["exact.RationalMatrix.__mul__.calls"] >= 3 * 49


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
