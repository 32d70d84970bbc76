"""Building-block catalog: loading, validation, and derivation formulas.

A building block is a closed Kaehler 3-fold Z with an anticanonical K3
divisor, summarised here by the data the gluing construction consumes:
the polarising lattice N (Gram matrix of the restriction of the
intersection form), the reduced second Chern class c2bar in the basis
dual to the rows of N, the third Betti number b3(Z), and -- for blocks
carrying an anti-holomorphic involution -- the invariant part b3plus and
the Euler characteristic of the fixed curve.

The shipped catalog (data/catalog.json) stores each block together with
the raw input data of the formula that produced its derived fields, so
``verify_catalog`` can recompute every derived value independently.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .lattices import GramLattice, signature

DEFAULT_CATALOG_ENV = "G2TCS_CATALOG"


class CatalogError(ValueError):
    """Raised when a catalog document fails structural validation."""


class BuildingBlock(NamedTuple):
    """One building block of the gluing construction."""

    id: str
    kind: str  # "ordinary" or "involution"
    rank: int
    N: GramLattice
    c2bar: Tuple[int, ...]
    b3: int
    provenance: str
    pleasant: bool = True
    k_trivial: bool = True
    b3plus: Optional[int] = None
    chiC: Optional[int] = None
    ordinary_ok: bool = True
    derivation: Optional[Mapping] = None

    @property
    def is_involution(self) -> bool:
        return self.kind == "involution"

    def validate(self) -> List[str]:
        """Return a list of invariant violations (empty when valid)."""
        problems: List[str] = []
        G = self.N
        if G.rank != self.rank:
            problems.append(f"{self.id}: rank field {self.rank} != Gram "
                            f"size {G.rank}")
        if not G.is_even():
            problems.append(f"{self.id}: Gram diagonal must be even")
        pos, neg, zero = signature(G)
        if (pos, neg, zero) != (1, self.rank - 1, 0):
            problems.append(f"{self.id}: signature {(pos, neg, zero)} is "
                            f"not (1, rank-1, 0)")
        if len(self.c2bar) != self.rank:
            problems.append(f"{self.id}: c2bar length != rank")
        if any(v % 2 for v in self.c2bar):
            problems.append(f"{self.id}: c2bar entries must be even")
        if self.b3 < 0:
            problems.append(f"{self.id}: negative b3")
        if self.is_involution:
            if self.b3plus is None or self.chiC is None:
                problems.append(f"{self.id}: involution block needs "
                                f"b3plus and chiC")
            else:
                if self.b3plus % 2:
                    problems.append(f"{self.id}: b3plus must be even")
                if not 0 <= self.b3plus <= self.b3:
                    problems.append(f"{self.id}: b3plus outside [0, b3]")
            rows = G.gram
            if any(v % 2 for row in rows for v in row):
                problems.append(f"{self.id}: involution Gram must have "
                                f"all entries even")
        return problems


class Catalog:
    """An ordered collection of building blocks, indexed by id; ``blocks``
    keeps the document order, and the index is built once, for ``get``."""

    __slots__ = ("blocks", "source", "_index")

    def __init__(self, blocks: Tuple[BuildingBlock, ...], source="<memory>"):
        self.blocks = blocks
        self.source = source
        self._index = {b.id: b for b in blocks}

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._index

    def get(self, block_id: str) -> BuildingBlock:
        try:
            return self._index[block_id]
        except KeyError:
            raise KeyError(f"unknown building block id {block_id!r}") \
                from None


# The exact JSON type of each field of a record (a list holds integers):
# 71.9 is not read as 71, nor "false" as true.
_FIELD_TYPES = {"id": str, "kind": str, "provenance": str, "rank": int,
                "b3": int, "b3plus": int, "chiC": int, "pleasant": bool,
                "k_trivial": bool, "ordinary_ok": bool, "c2bar": list}
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false",
               list: "an array of integers", dict: "an object"}


def _typed(value, kind) -> bool:
    return type(value) is kind and (
        kind is not list or all(type(v) is int for v in value))


def _block_from_record(rec: Mapping) -> BuildingBlock:
    if not isinstance(rec, dict):
        raise CatalogError("every block record must be a JSON object")
    required = ["id", "kind", "rank", "N", "c2bar", "b3", "provenance",
                "pleasant", "k_trivial"]
    missing = [k for k in required if k not in rec]
    if missing:
        raise CatalogError(f"record {rec.get('id', '<no id>')!r} missing "
                           f"fields {missing}")
    for name, kind in _FIELD_TYPES.items():
        if name in rec and not _typed(rec[name], kind):
            raise CatalogError(f"{rec['id']}: field {name!r} must be "
                               f"{_TYPE_NAMES[kind]}")
    bid = rec["id"]
    if rec["kind"] not in ("ordinary", "involution"):
        raise CatalogError(f"{bid}: unknown kind {rec['kind']!r}")
    try:
        gram = GramLattice.from_rows(rec["N"])
    except ValueError as exc:
        raise CatalogError(f"{bid}: bad Gram matrix: {exc}") from None
    try:
        if "derivation" in rec:
            _derived_fields(rec["derivation"])
    except ValueError as exc:
        raise CatalogError(f"{bid}: derivation: {exc}") from None
    return BuildingBlock(
        id=bid,
        kind=rec["kind"],
        rank=rec["rank"],
        N=gram,
        c2bar=tuple(rec["c2bar"]),
        b3=rec["b3"],
        provenance=rec["provenance"],
        pleasant=rec["pleasant"],
        k_trivial=rec["k_trivial"],
        b3plus=rec.get("b3plus"),
        chiC=rec.get("chiC"),
        ordinary_ok=rec.get("ordinary_ok", True),
        derivation=rec.get("derivation"),
    )


def default_catalog_path() -> str:
    """Path of the catalog to load: env override, else the packaged file."""
    env = os.environ.get(DEFAULT_CATALOG_ENV)
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "catalog.json")


def load_catalog(path: Optional[str] = None) -> Catalog:
    """Load and validate a block catalog from a JSON document.

    Raises CatalogError for structural problems (bad schema, duplicate
    ids, or violated block invariants).
    """
    path = path or default_catalog_path()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path!r}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer of too many digits
        raise CatalogError(f"catalog {path!r} is not valid JSON: "
                           f"{exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != \
            "g2tcs-block-catalog":
        raise CatalogError(f"{path!r} is not a block-catalog document")
    if not _typed(doc.get("version"), int):
        raise CatalogError(f"{path!r}: 'version' must be an integer")
    records = doc.get("blocks")
    if not isinstance(records, list):
        raise CatalogError(f"{path!r}: 'blocks' must be a list")
    blocks = [_block_from_record(rec) for rec in records]
    seen = set()
    problems: List[str] = []
    for block in blocks:
        if block.id in seen:
            problems.append(f"duplicate block id {block.id!r}")
        seen.add(block.id)
        problems.extend(block.validate())
    if problems:
        raise CatalogError("catalog validation failed:\n  " +
                           "\n  ".join(problems))
    return Catalog(blocks=tuple(blocks), source=path)


# --------------------------------------------------------------------------
# Derivation formulas.  Each returns the derived topological data from the
# raw classification inputs, raising ValueError for inconsistent inputs.
# --------------------------------------------------------------------------

def derive_rank1_fano(r: int, minusK3: int, b3Y: int) -> Dict[str, int]:
    """Block data for a rank-one (Picard rank 1) Fano 3-fold of index r.

    Blowing up the base locus of a generic anticanonical pencil of the
    Fano Y gives a block with N generated by the pullback of the
    primitive ample class: the generator has square -K^3 / r^2, the
    pairing of c2bar with it is (24 - K^3)/r, and
    b3(Z) = b3(Y) - K^3 + 2.
    """
    if not 1 <= r <= 4:
        raise ValueError("inconsistent Fano data: index must be 1..4")
    if minusK3 <= 0 or b3Y < 0:
        raise ValueError("inconsistent Fano data: -K^3 must be positive")
    if minusK3 % (r ** 2) != 0 or (24 + minusK3) % r != 0:
        raise ValueError("inconsistent Fano data: divisibility by the "
                         "index fails")
    return {
        "n": minusK3 // r ** 2,
        "c2bar": (24 + minusK3) // r,
        "b3": b3Y + minusK3 + 2,
    }


def derive_lemma_blowup(b3Y: int, minusK3: int) -> int:
    """b3 of an anticanonical-pencil blow-up block: b3(Y) - K^3 + 2."""
    if b3Y < 0 or minusK3 < 0:
        raise ValueError("b3(Y) and -K^3 must be nonnegative")
    return b3Y + minusK3 + 2


def derive_double_cover(b3X: int, b1C: int, rho: int) -> Tuple[int, int]:
    """(b3, b3plus) of an anti-holomorphic double cover block.

    X is the quotient block, C the branch curve, rho the Picard rank of
    the polarising lattice: b3(Z) = b1(C) + 2 b3(X) + 22 - 2 rho and
    b3plus(Z) = b1(C) + b3(X).
    """
    if b3X < 0 or b1C < 0 or rho < 1:
        raise ValueError("invalid double-cover data")
    b3 = b1C + 2 * b3X + 22 - 2 * rho
    return b3, b1C + b3X


def derive_c2bar_cover(c2barX: Sequence[int],
                       minus_k_row: Sequence[int]) -> Tuple[int, ...]:
    """c2bar of a double cover: 2 c2bar(X) - 3 b(-K_Y, .) componentwise."""
    if len(c2barX) != len(minus_k_row):
        raise ValueError("c2bar and -K pairing rows have different length")
    return tuple(2 * c - 3 * k for c, k in zip(c2barX, minus_k_row))


def derive_smoothed(r: int) -> Tuple[int, int]:
    """(b3, b3plus) of a smoothed anti-holomorphic cone block.

    r is the rank of the polarising lattice of the underlying singular
    quotient: b3 = 12 (10 - r), b3plus = 40 - 4 r.
    """
    if not 1 <= r <= 9:
        raise ValueError("rank must be in 1..9")
    return 12 * (10 - r), 40 - 4 * r


# --------------------------------------------------------------------------
# Independent re-derivation of the shipped catalog.
# --------------------------------------------------------------------------

def _derived_fields(der) -> Dict[str, object]:
    """Derived fields of a derivation record: an object with a known method
    and that method's typed fields (else ValueError, as for bad data)."""
    if type(der) is not dict:
        raise CatalogError("must be an object")

    def get(key, kind=int, rec=der):
        if not _typed(rec.get(key), kind):
            raise CatalogError(f"field {key!r} must be {_TYPE_NAMES[kind]}")
        return rec[key]

    out: Dict[str, object] = {}
    method = get("method", str)
    if method == "rank1_fano":
        data = derive_rank1_fano(get("r"), get("minusK3"), get("b3Y"))
        out["b3"] = data["b3"]
        out["c2bar"] = (data["c2bar"],)
        out["N"] = ((data["n"],),)
    elif method == "lemma_blowup":
        out["b3"] = derive_lemma_blowup(get("b3Y"), get("minusK3"))
    elif method == "double_cover":
        b3, b3plus = derive_double_cover(get("b3X"), get("b1C"), get("rho"))
        out["b3"] = b3
        out["b3plus"] = b3plus
        c2 = get("c2", dict) if "c2" in der else None
        c2_method = None if c2 is None else get("method", str, c2)
        if c2_method == "rank1_fano":
            out["c2bar"] = (derive_rank1_fano(
                get("r", int, c2), get("minusK3", int, c2), 0)["c2bar"],)
        elif c2_method == "cover_c2":
            out["c2bar"] = derive_c2bar_cover(get("c2barX", list, c2),
                                              get("minus_k_row", list, c2))
        elif c2 is not None:
            raise CatalogError(f"unknown c2 method {c2_method!r}")
    elif method == "smoothed":
        b3, b3plus = derive_smoothed(get("r"))
        out["b3"] = b3
        out["b3plus"] = b3plus
        out["c2bar"] = tuple(3 * v for v in get("minus_k_row", list))
    else:
        raise CatalogError(f"unknown derivation method {method!r}")
    return out


class CatalogMismatch(NamedTuple):
    block_id: str
    field: str
    stored: object
    derived: object


def verify_catalog(catalog: Catalog) -> List[CatalogMismatch]:
    """Recompute derived fields of every block from its derivation record
    and report all disagreements with the stored values.  A block without
    a derivation record is reported with field "derivation": it was not
    re-derived.  An empty report means the catalog is self-consistent."""
    mismatches: List[CatalogMismatch] = []
    for block in catalog:
        if block.derivation is None:
            mismatches.append(CatalogMismatch(block.id, "derivation",
                                              None, None))
            continue
        derived = _derived_fields(block.derivation)
        stored = {
            "b3": block.b3,
            "b3plus": block.b3plus,
            "c2bar": block.c2bar,
            "N": block.N.gram,
        }
        for name, value in derived.items():
            if stored[name] != value:
                mismatches.append(CatalogMismatch(
                    block_id=block.id, field=name,
                    stored=stored[name], derived=value))
    return mismatches
