import json

import pytest

from g2tcs.catalog import (CatalogError, default_catalog_path,
                           derive_double_cover, derive_lemma_blowup,
                           derive_rank1_fano, derive_smoothed, load_catalog,
                           verify_catalog)


def test_catalog_counts(catalog):
    assert len(catalog.blocks) == 66
    kinds = [b.kind for b in catalog.blocks]
    assert kinds.count("ordinary") == 39
    assert kinds.count("involution") == 27


def test_catalog_lookup(catalog):
    block = catalog.get("3.22_3")
    assert block.N.gram == ((6,),)
    assert block.c2bar == (30,)
    assert block.b3 == 48
    assert block.b3plus == 18
    with pytest.raises(KeyError):
        catalog.get("nosuch")


def test_every_block_is_self_consistent(catalog):
    for block in catalog.blocks:
        block.validate()


def test_verify_catalog_clean(catalog):
    assert verify_catalog(catalog) == []


def test_load_rejects_duplicate_ids(tmp_path):
    doc = json.load(open(default_catalog_path()))
    doc["blocks"].append(dict(doc["blocks"][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError):
        load_catalog(str(path))


def test_load_rejects_odd_gram(tmp_path):
    doc = json.load(open(default_catalog_path()))
    doc["blocks"][0]["N"] = [[3]]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError):
        load_catalog(str(path))


def test_catalog_env_override(tmp_path, monkeypatch):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(
        {"format": "g2tcs-block-catalog", "version": 1, "blocks": []}))
    monkeypatch.setenv("G2TCS_CATALOG", str(path))
    assert len(load_catalog().blocks) == 0


def test_schema_validates_shipped_catalog():
    jsonschema = pytest.importorskip("jsonschema")
    import os
    data_dir = os.path.dirname(default_catalog_path())
    schema = json.load(open(os.path.join(data_dir, "catalog.schema.json")))
    doc = json.load(open(default_catalog_path()))
    jsonschema.validate(doc, schema)


# ---------------------------------------------------------------- derivations

def test_derive_rank1_fano():
    d = derive_rank1_fano(2, 40, 0)
    assert d == {"n": 10, "c2bar": 32, "b3": 42}


def test_derive_lemma_blowup():
    assert derive_lemma_blowup(2, 8) == 12  # b3(Y) + (-K^3) + 2


def test_derive_double_cover():
    b3, b3plus = derive_double_cover(0, 18, 1)
    assert (b3, b3plus) == (38, 18)


def test_derive_smoothed():
    b3, b3plus = derive_smoothed(2)
    assert (b3, b3plus) == (96, 32)

