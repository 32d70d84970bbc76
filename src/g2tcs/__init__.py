"""Exact lattice arithmetic for extra-twisted connected sums.

The package computes matchings of algebraic building blocks glued at
rational angles, together with the full integral topology of the
resulting 7-manifolds: Betti numbers, torsion linking form, spin
characteristic class divisibility, and the nu-invariants.
"""

from .catalog import (BuildingBlock, Catalog, CatalogError, load_catalog,
                      verify_catalog)
from .configuration import (Configuration, ConfigurationError, Gluing,
                            GluingAngle, make_configuration,
                            pushout_from_glue, rank1_pushout,
                            validate_configuration)
from .invariants import (InvariantReport, compare_2connected, full_report,
                         nu_bar)
from .search import (MatchCandidate, cross_term_search, rank1_pi4_search,
                     rank1_pi6_search)

__version__ = "1.0.0"

__all__ = [
    "BuildingBlock", "Catalog", "CatalogError", "load_catalog",
    "verify_catalog", "Configuration", "ConfigurationError", "Gluing",
    "GluingAngle", "make_configuration", "pushout_from_glue",
    "rank1_pushout", "validate_configuration", "InvariantReport",
    "compare_2connected", "full_report", "nu_bar", "MatchCandidate",
    "cross_term_search", "rank1_pi4_search", "rank1_pi6_search",
]
