import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import g2tcs

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_gen_catalog_reproduces_the_shipped_catalog():
    spec = importlib.util.spec_from_file_location(
        "gen_catalog", TOOLS / "gen_catalog.py")
    gen_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_catalog)
    shipped = Path(g2tcs.__file__).parent / "data" / "catalog.json"
    assert gen_catalog.render().encode() == shipped.read_bytes()


SRC = Path(g2tcs.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The screen predicate that only tests/test_cross_screen.py calls: it is
# checked against the Fraction screen, as the reference for ``blocks``.
UNUSED_ALLOWED = {"search._CrossScreen.is_singular"}


def _definitions(tree):
    """(qualified name, name, first line, last line) of each module-level
    function or class and each method, less dunders and click commands."""
    def exempt(node):
        return (node.name.startswith("__") and node.name.endswith("__")) or any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
            and d.func.attr in ("command", "group") for d in node.decorator_list)

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        members = [(f"{node.name}.{m.name}", m) for m in node.body
                   if isinstance(m, defs)] if isinstance(node, ast.ClassDef) else []
        for qualname, item in [(node.name, node)] + members:
            if not exempt(item):
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                yield qualname, item.name, first, item.end_lineno


def test_every_src_definition_has_a_caller():
    """Each definition in src/g2tcs is named outside its own body: in the
    package, in ``g2tcs.__all__`` or in the benchmark's spans or workloads.
    A name used only inside definitions that are themselves unused counts
    as unused. Uses are matched by name alone, so same-named methods of
    two classes share theirs."""
    defs, uses = [], []  # (file, qualified name, name, first, last line)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [(path.name, f"{path.stem}.{q}", name, first, last)
                 for q, name, first, last in _definitions(tree)]
        uses += [(path.name, n.lineno, n.id if isinstance(n, ast.Name) else n.attr)
                 for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]
    outside = set(g2tcs.__all__)
    for name in ("spans.py", "workloads.py"):
        outside |= set(re.findall(r"\w+", (PERFBENCH / name).read_text()))

    def inside(fname, line, bodies):
        return any(f == fname and first <= line <= last for f, first, last in bodies)

    dead = set()
    while True:
        dead_bodies = [(f, first, last) for f, q, _n, first, last in defs if q in dead]
        newly = {q for f, q, name, first, last in defs if q not in dead
                 and name not in outside and not any(
                     n == name and not inside(uf, line, [(f, first, last)] + dead_bodies)
                     for uf, line, n in uses)}
        if not newly:
            break
        dead |= newly
    unused = sorted(dead - UNUSED_ALLOWED)
    assert not unused, "no caller: " + ", ".join(unused)


def test_every_traced_name_resolves():
    """``perfbench/run.py --trace 1`` wraps each name of ``TRACED`` in
    ``perfbench/spans.py`` where ``Tracer.install`` looks it up: a plain
    name on ``g2tcs.<layer>``, a dotted one in its class's ``__dict__``. A
    name that a refactor moves ends that run with AttributeError or
    KeyError."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["TRACED"])
    assert "configuration" in traced and "search" in traced
    for layer, names in traced.items():
        module = importlib.import_module(f"g2tcs.{layer}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                assert attr in getattr(module, cls_name).__dict__, name
            else:
                assert callable(getattr(module, name)), name


def test_every_benchmark_library_name_resolves():
    """Each attribute that ``perfbench/workloads.py`` and
    ``perfbench/cli_check.py`` read off a module imported ``from g2tcs``
    (``fixtures.table5_pushout``, ``search._canonical_gram``, ...)
    exists, so a refactor that renames one fails here and not first in a
    benchmark run."""
    read = set()
    for name in ("workloads.py", "cli_check.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "g2tcs" for alias in node.names}
        read |= {(n.value.id, n.attr) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id in modules}
    assert ("fixtures", "table5_pushout") in read
    assert ("search", "_canonical_gram") in read
    for module, attr in sorted(read):
        assert hasattr(importlib.import_module(f"g2tcs.{module}"), attr), \
            f"{module}.{attr}"


_STARTUP_CODE = """
import json, sys
before = set(sys.modules)
import g2tcs
g2tcs.load_catalog()
core = set(sys.modules) - before
import g2tcs.cli
print(json.dumps([sorted(core), sorted(set(sys.modules) - before)]))
"""


def test_import_loads_no_dataclasses_machinery():
    """Each CLI call starts a fresh interpreter and pays for the import.
    ``import g2tcs`` plus ``load_catalog()`` loads none of dataclasses,
    inspect, ast and dis, and ``import g2tcs.cli`` (click loads inspect)
    not dataclasses; checked by module, not by clock."""
    env = {k: v for k, v in os.environ.items() if k != "G2TCS_CATALOG"}
    env["PYTHONPATH"] = str(SRC.parent)
    done = subprocess.run([sys.executable, "-c", _STARTUP_CODE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    core, with_cli = json.loads(done.stdout)
    assert "g2tcs.catalog" in core and "g2tcs.cli" in with_cli
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(core)
    assert "dataclasses" not in with_cli
