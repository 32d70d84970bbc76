import pytest

from g2tcs.catalog import load_catalog
from g2tcs.configuration import make_configuration
from g2tcs.fixtures import EXAMPLES, TABLE5, table5_pushout
from g2tcs.invariants import full_report
from g2tcs.search import rank1_pi4_search


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def example_configs(catalog):
    """name -> (Configuration, expected tuple) for every worked example."""
    out = {}
    for name, (plus, minus, theta, rows, expected) in EXAMPLES.items():
        cfg = make_configuration(catalog.get(plus), catalog.get(minus),
                                 theta, [list(r) for r in rows])
        out[name] = (cfg, expected)
    return out


@pytest.fixture(scope="session")
def example_reports(example_configs):
    """name -> (InvariantReport, expected tuple); computed once per session."""
    return {name: (full_report(cfg), expected)
            for name, (cfg, expected) in example_configs.items()}


@pytest.fixture(scope="session")
def dataset_configs(catalog):
    """The configurations of the 68 rows of table4, table5 and the worked
    examples, in that order."""
    rows = [(m.plus_id, m.minus_id, m.theta, m.pushout)
            for m in rank1_pi4_search(catalog)]
    rows += [(r[2], r[3], r[1], table5_pushout(r, catalog)) for r in TABLE5]
    rows += [case[:4] for case in EXAMPLES.values()]
    return [make_configuration(catalog.get(plus), catalog.get(minus), theta,
                               [list(r) for r in gram])
            for plus, minus, theta, gram in rows]
