"""Outside-in layer trace: wrappers, in-memory spans, self time, funnel.

The benchmark measures each layer of ``g2tcs`` from outside the package.
``Tracer.install`` replaces the listed public functions and methods with
wrappers that record one span per call, at every ``g2tcs`` module
namespace that binds the function (``search`` calls ``full_report``
through its own import, so that binding is wrapped too).  Spans stay in
memory until the run ends and are then written out by ``write_spans``.

The search funnel is counted at the names ``g2tcs.search`` looks up,
while a ``cross_term_search`` span is open.
"""

import functools
import gzip
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

# layer -> names in g2tcs.<layer>; a dotted name is a method of a class.
TRACED = {
    "exact": ["RationalMatrix.__mul__", "RationalMatrix.inverse",
              "RationalMatrix.det", "RationalMatrix.charpoly",
              "RationalMatrix.nullspace", "smith_normal_form",
              "hermite_row_basis", "lattice_intersection", "rational_roots",
              "palindromic_quadratic_split", "sturm_count_roots"],
    "lattices": ["radical_and_quotient", "cokernel_presentation",
                 "signature", "discriminant_form", "saturated_sum",
                 "even_dual_kernel"],
    "configuration": ["make_configuration", "validate_configuration",
                      "configuration_angles", "is_pure_angle", "d_theta",
                      "angle_eigenspaces", "feasibility_cone_check",
                      "Configuration.projections",
                      "Configuration.side_compositions"],
    "invariants": ["full_report", "betti", "boundary_data",
                   "torsion_report", "p_divisor", "pure_angle_torsion",
                   "nu_bar", "linking_forms_equivalent",
                   "compare_2connected"],
    "search": ["cross_term_search", "rank1_pi4_search"],
    "catalog": ["load_catalog"],
}
# The CLI layer is timed around each CliRunner invocation of ``main``.
CLI_SPAN = "cli.main"
LAYERS = list(TRACED) + ["cli"]
SPAN_NAMES = [f"{layer}.{name}" for layer, names in TRACED.items()
              for name in names] + [CLI_SPAN]

CROSS_SEARCH = "search.cross_term_search"
FUNNEL = ["enumerated", "screened", "valid", "d_theta_pass", "feasible",
          "reported"]
# The exception types cross_term_search swallows around full_report.
REPORT_ERRORS = ["ConfigurationError", "UnsupportedAngle"]


class Tracer:
    """Records spans as (name, start_ns, end_ns, parent index, op id)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.funnel = Counter()
        self._open = []  # (span index, name) of the spans not yet closed
        self._restore = []

    def span(self, name, fn, *args, observe=None, **kwargs):
        """Call ``fn`` inside a span named ``name``.

        ``observe(tracer, args, kwargs, result, exc)`` runs once the call
        returned or raised, while the spans enclosing this one are open.
        """
        idx = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append((idx, name))
        result = exc = None
        returned = False
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            returned = True
        except Exception as err:
            exc = err
            raise
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
            if observe is not None and (returned or exc is not None):
                observe(self, args, kwargs, result, exc)
        return result

    def in_cross_search(self) -> bool:
        return any(name == CROSS_SEARCH for _idx, name in self._open)

    def _wrapper(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, observe=observe, **kwargs)
        return wrapper

    def install(self):
        """Wrap every traced name wherever a loaded g2tcs module binds it."""
        for mod_name in ("g2tcs", "g2tcs.cli", "g2tcs.fixtures"):
            importlib.import_module(mod_name)
        modules = [mod for mod_name, mod in sorted(sys.modules.items())
                   if mod_name == "g2tcs" or mod_name.startswith("g2tcs.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"g2tcs.{layer}"]
            for name in names:
                span_name = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrapper(span_name, orig))
                    self._restore.append((cls, attr, orig))
                    continue
                orig = getattr(home, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is not orig:
                            continue
                        observe = _observer(span_name, mod.__name__, attr,
                                            orig)
                        setattr(mod, attr,
                                self._wrapper(span_name, orig, observe))
                        self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


# ------------------------------------------------------------- funnel

def _observer(span_name, module_name, attr, orig):
    """Funnel hook for one wrapped binding, or None."""
    if span_name == CROSS_SEARCH:
        signature = inspect.signature(orig)

        def on_search(tracer, args, kwargs, result, exc):
            if exc is not None:
                return
            bound = signature.bind(*args, **kwargs).arguments
            cells = bound["plus"].rank * bound["minus"].rank
            tracer.funnel["enumerated"] += (2 * bound["bound"] + 1) ** cells
            tracer.funnel["reported"] += len(result)
        return on_search
    if module_name != "g2tcs.search":
        return None
    if attr == "full_report":
        def on_report(tracer, args, kwargs, result, exc):
            if exc is not None and tracer.in_cross_search():
                tracer.funnel[f"report_errors.{type(exc).__name__}"] += 1
        return on_report
    count = _SEARCH_COUNTS.get(attr)
    if count is None:
        return None

    def on_call(tracer, args, kwargs, result, exc):
        if exc is None and tracer.in_cross_search():
            tracer.funnel[count[0]] += count[1](result)
    return on_call


# name looked up by g2tcs.search -> (funnel key, increment from result)
_SEARCH_COUNTS = {
    "make_configuration": ("screened", lambda cfg: 1),
    "validate_configuration": ("valid", lambda report: int(report.ok)),
    "d_theta": ("d_theta_fail", lambda d: int(d < 1)),
    "feasibility_cone_check": ("feasible", lambda res: int(res[0])),
}


def funnel_metrics(funnel):
    """The search funnel as per-layer metrics (counts and hit ratio)."""
    out = {f"search.{key}": funnel[key] for key in FUNNEL
           if key != "d_theta_pass"}
    # d_theta is skipped for pure searches; every valid block passes then.
    out["search.d_theta_pass"] = funnel["valid"] - funnel["d_theta_fail"]
    for name in REPORT_ERRORS:
        out[f"search.report_errors.{name}"] = funnel[f"report_errors.{name}"]
    enumerated = funnel["enumerated"]
    out["search.hit_ratio"] = (funnel["reported"] / enumerated
                               if enumerated else 0.0)
    return out


# ---------------------------------------------------------- self time

def self_times(spans):
    """Self time of each span in ns: its duration minus the part of its
    interval that its direct children cover."""
    children = [[] for _ in spans]
    for idx, (_name, _start, _end, parent, _op) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, keep):
    """``<name>.calls``, ``<name>.self_s`` and ``<layer>.self_s`` over the
    spans whose op id satisfies ``keep``."""
    calls = Counter()
    self_ns = Counter()
    for span, own in zip(spans, self_times(spans)):
        if keep(span[4]):
            calls[span[0]] += 1
            self_ns[span[0]] += own
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_ns[name] for name in SPAN_NAMES
            if name.startswith(layer + ".")) / 1e9
    return out


def write_spans(path, spans):
    """Write spans as gzipped tab-separated lines with a header."""
    with gzip.open(path, "wt") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
        for idx, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{idx}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
