import importlib.util
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
