"""Benchmark of the g2tcs package, run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each op starts when the previous
one returned.  A run builds its inputs from ``--seed``, checks the CLI's
JSON output once (untimed), runs one warm-up pass over the workload's op
set (for cross_search the CLI check, which runs the same searches) and
then times whole passes over it; every op of every pass is checked
against its reference.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes instead and reports the per-layer metrics, writing the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; without it the
run exits with code 2.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("reproduce", "cross_search", "linking")
# Time of one pass at the commit that defined the benchmark (2-vCPU Xeon
# VM, Python 3.11.7).  A run times round(seconds / this) passes, and
# at least MIN_PASSES, so its sample count, and with it the tail
# percentile, is the same on every commit however fast the code gets.
NOMINAL_PASS_S = {"reproduce": 0.68, "cross_search": 7.8, "linking": 9.7}
# With n = passes x ops samples, the tail percentile 100 (n - 10) / n then
# falls on one of the slowest ops (cross_search: near its third slowest
# search; linking: its fourth slowest decision), and each op's mean
# latency has passes to average over.
MIN_PASSES = {"reproduce": 1, "cross_search": 5, "linking": 3}
# cross_search's CLI check has just run its 12 searches through
# ``g2tcs match``: that is its warm-up pass.
WARMED_BY_CLI_CHECK = ("cross_search",)
# The traced run alternates untraced and traced passes this many times;
# trace.overhead_ratio is the median of the pairs' ratios.
TRACE_PAIRS = 3
SETUP_REPEATS = 15
SETUP_CODE = ("import time; t = time.perf_counter(); import g2tcs; "
              "g2tcs.load_catalog(); print(time.perf_counter() - t)")
TAIL_BEYOND = 10


def tail_percentile(n, beyond=TAIL_BEYOND):
    """The highest percentile of n samples that has at least ``beyond`` of
    them above it."""
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{beyond} beyond it")
    return 100.0 * (n - beyond) / n


def percentile(values, pct):
    """Linear interpolation between order statistics; the median at 50."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(repeats=SETUP_REPEATS):
    """Median time of ``import g2tcs`` plus ``load_catalog()`` in a fresh
    interpreter; one untimed start first fills the bytecode cache, as an
    installed package has it."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("G2TCS_CATALOG", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


class Run:
    """Runs passes over a workload's ops and counts the ops attempted and
    failed.  Each op's result is checked after its pass, untimed."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.problems = []

    def do_pass(self, tracer=None, tag="pass"):
        """One pass over the ops; (wall seconds, op latencies in ns).
        With a tracer, op i gets the op id ``<tag>:<i>``."""
        latencies, results = [], []
        start = time.perf_counter()
        for i, (_label, fn, args, _check) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = f"{tag}:{i}"
            t0 = time.perf_counter_ns()
            try:
                result, error = fn(*args), None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, exc
            latencies.append(time.perf_counter_ns() - t0)
            results.append((result, error))
        wall = time.perf_counter() - start
        for (label, _fn, _args, check), (result, error) in zip(self.ops,
                                                                results):
            problem = (f"raised {error!r}" if error is not None
                       else check(result))
            if problem:
                self.failed += 1
                self.problems.append(f"{label}: {problem}")
        self.attempted += len(self.ops)
        return wall, latencies


def end_to_end(run, workload, seconds, blocks):
    passes = max(round(seconds / NOMINAL_PASS_S[workload]),
                 MIN_PASSES[workload])
    samples = passes * len(run.ops)
    tail_pct = tail_percentile(samples)
    if workload not in WARMED_BY_CLI_CHECK:
        run.do_pass()
    walls = []
    op_totals = [0] * len(run.ops)
    for _ in range(passes):
        wall, latencies = run.do_pass()
        walls.append(wall)
        op_totals = [t + x for t, x in zip(op_totals, latencies)]
    # Each op's samples replaced by their mean: on a shared VM the CPU's
    # speed switches between levels for seconds at a time, and a quantile
    # of the raw samples jumps with the share of them taken at each level,
    # where means move smoothly with it.
    smoothed = [t / passes for t in op_totals] * passes
    total = sum(walls)
    print(f"{passes} timed passes of {len(run.ops)} ops, wall_s min "
          f"{min(walls):.4f} max {max(walls):.4f}; op_tail_ms is "
          f"p{tail_pct:.3f}, ten of the {samples} samples beyond it")
    if blocks:
        print(f"blocks_per_s {blocks * passes / total:.1f} "
              f"({blocks} search-box blocks per pass)")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (measure_setup(), "s"),
        "wall_s": (total / passes, "s"),
        "ops_per_s": (samples / total, "1/s"),
        "op_p50_ms": (percentile(smoothed, 50) / 1e6, "ms"),
        "op_tail_ms": (percentile(smoothed, tail_pct) / 1e6, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def per_layer(run, workload, seed, tracer, spans):
    if workload not in WARMED_BY_CLI_CHECK:
        run.do_pass()
    tracer.funnel.clear()
    ratios = []
    for k in range(TRACE_PAIRS):
        plain_wall, _ = run.do_pass()
        tracer.install()
        try:
            traced_wall, _ = run.do_pass(tracer, tag=f"traced{k}")
        finally:
            tracer.uninstall()
        ratios.append(traced_wall / plain_wall)
        if k == 0:
            funnel = spans.funnel_metrics(tracer.funnel)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans.write_spans(out_dir / f"spans-{workload}-seed{seed}.tsv.gz",
                      tracer.spans)
    # Calls, self time and funnel describe the first traced pass.
    metrics = spans.layer_metrics(tracer.spans,
                                  lambda op: op.startswith("traced0:"))
    cli_metrics = spans.layer_metrics(tracer.spans,
                                      lambda op: op.startswith("cli "))
    for key, value in cli_metrics.items():
        if key.startswith("cli."):
            metrics[key] = value
    metrics.update(funnel)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    top = sorted((v, k) for k, v in metrics.items()
                 if k.endswith(".self_s") and k.count(".") > 1)[-8:]
    for value, key in reversed(top):
        print(f"{key:55s} {value:9.4f} s")
    return {key: (value, _unit(key)) for key, value in metrics.items()}


def _unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "g2tcs" / "__init__.py").is_file():
        print(f"error: no g2tcs package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("G2TCS_CATALOG", None)
    sys.path.insert(0, str(SRC))
    import cli_check
    import spans
    import workloads

    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    ops, setup_problems = workloads.build(args.workload, args.seed, ref)
    run = Run(ops)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        cli_problems = cli_check.check(ref, args.workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.trace:
        metrics = per_layer(run, args.workload, args.seed, tracer, spans)
    else:
        metrics = end_to_end(run, args.workload, args.seconds,
                             workloads.pass_blocks(ops))
    problems = setup_problems + cli_problems + run.problems
    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    print(f"fail_ratio {run.failed}/{run.attempted}; "
          f"{len(cli_problems)} CLI output mismatches; "
          f"{len(setup_problems)} set-up mismatches")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
