import functools
import hashlib
import json
import random
import re
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tcs import catalog as catalog_module
from g2tcs.catalog import CatalogError, default_catalog_path, load_catalog
from g2tcs.cli import main
from g2tcs.configuration import GluingAngle, parse_theta
from g2tcs.fixtures import EXAMPLES
from g2tcs.search import cross_term_search


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), catch_exceptions=False, **kw)


# ------------------------------------------------------------------ catalog

def test_catalog_list(runner):
    result = invoke(runner, "catalog", "list")
    assert result.exit_code == 0
    assert "3.22_3" in result.output
    assert len(result.output.strip().splitlines()) >= 66


def test_catalog_show(runner):
    result = invoke(runner, "catalog", "show", "3.22_3")
    assert result.exit_code == 0
    assert "involution" in result.output
    assert "48" in result.output  # b3


def test_catalog_show_unknown_id(runner):
    result = invoke(runner, "catalog", "show", "nosuch")
    assert result.exit_code == 3


def test_catalog_validate(runner):
    result = invoke(runner, "catalog", "validate")
    assert result.exit_code == 0
    assert result.output == "66 blocks OK\n"


def test_catalog_override_missing_file(runner):
    result = invoke(runner, "--catalog", "/nonexistent/cat.json",
                    "catalog", "list")
    assert result.exit_code == 2


# -------------------------------------------------------------------- match

def test_match_rank1(runner):
    result = invoke(runner, "match", "--plus", "3.21",
                    "--minus", "3.8_1_18", "--theta", "1/4pi")
    assert result.exit_code == 0
    assert "64" in result.output and "24" in result.output


def test_match_json_deterministic(runner):
    args = ("match", "--plus", "3.21", "--minus", "3.8_1_18",
            "--theta", "1/4pi", "--format", "json")
    out1 = invoke(runner, *args)
    out2 = invoke(runner, *args)
    assert out1.exit_code == 0
    assert out1.output == out2.output
    doc = json.loads(out1.output)
    assert doc[0]["report"]["b3"] == 64


# sha256 of ``match --format json`` output for rank-1 pairs, recorded
# before the rank-1 branch of ``match`` was folded into
# ``search.rank1_candidate``.
RANK1_MATCH_DIGESTS = [
    ("3.21", "3.8_1_18", "1/4pi",
     "a1a6ca742a6904644416b848d795515aea1296f21343112e40313896a2c3f454"),
    ("3.22_4", "3.8_1_16", "1/4pi",
     "43247a254809a3902a475e4b80721ccd6c3a757acf9b93e92f996daa1e45a6d8"),
    ("3.22_1", "3.22_3", "1/6pi",
     "dd5ecd6b030f516391dbcb32386628aa4144a3db6597d53ac4bfc05d5b3bbf1c"),
    ("3.22_3", "3.22_1", "-1/6pi",
     "09ba3aeb33d6a94eb38a09b39707cf69c20717a1f4279bc1bf02996821482223"),
    ("3.21", "3.8_1_18", "-1/4pi",
     "bc89dea104fd4d87750e3b1b51a985d4b89e9fa57c9eb66917f5854cf1e24ba2"),
    ("3.21", "3.8_1_2", "1/4pi",
     "bc67d63c0384c3b7e0ebb73685949001261f6771b9afeb582ca07666e3a6e131"),
    ("3.22_1", "3.8_1_4", "1/2pi",
     "26fe187b014b7d6a030abf9d285ef5ec2fd60d70a1e8fe2791e1cca8d8e85dc4"),
]


@pytest.mark.parametrize("plus,minus,theta,digest", RANK1_MATCH_DIGESTS)
def test_match_rank1_json_bytes(runner, plus, minus, theta, digest):
    result = invoke(runner, "match", "--plus", plus, "--minus", minus,
                    "--theta", theta, "--format", "json")
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# sha256 of ``match --format json`` at the four angles that no other pin
# covers, recorded while nu_bar still compared its cut-off cosines
# (-1/2, -1/2, 0, +1/2) as Fractions; each pair has one match.
ANGLE_MATCH_DIGESTS = [
    ("3.21", "3.22_2", "1/3pi",
     "f9f3d19221d628184f53bf26241525af8608ab3e2b6ad197ab3931ad450220fc"),
    ("3.22_2", "3.21", "2/3pi",
     "52835c7dbec7eb557cfd479f8f992b035f0d377aa67aded3e59a8fceaf58842c"),
    ("3.21", "3.8_1_18", "3/4pi",
     "840eb40fcc1a8c23696d00e3459228d9efd6e389a016b4b941bc09626b640ee6"),
    ("3.22_3", "5.15_1", "5/6pi",
     "5e41da36e9a5cabcb00e9f19077675bc2d3e28978dbfbb544cab782520e5925b"),
]


@pytest.mark.parametrize("plus,minus,theta,digest", ANGLE_MATCH_DIGESTS)
def test_match_json_bytes_at_unpinned_angles(runner, plus, minus, theta,
                                             digest):
    result = invoke(runner, "match", "--plus", plus, "--minus", minus,
                    "--theta", theta, "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


# sha256 of ``match --bound b --format json`` without --pure, recorded
# while the general screen still took one determinant per block.
GENERAL_MATCH_DIGESTS = [
    ("5.15_2", "3.9_27", "1/4pi", 3,
     "a19c831fb5a6811a7f335ec316f00026b703669cba6946b7d4bb37c3421c9021"),
    ("3.26_2", "3.22_3", "1/6pi", 5,
     "388c2a31d67b5fe100819ca0d51e32b3d4495fcc3b5b821ba64bedb5ceb8f17e"),
    ("5.15_3", "3.10", "1/4pi", 1,  # "[]"
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
]


@pytest.mark.parametrize("plus,minus,theta,bound,digest",
                         GENERAL_MATCH_DIGESTS)
def test_match_general_json_bytes(runner, plus, minus, theta, bound, digest):
    result = invoke(runner, "match", "--plus", plus, "--minus", minus,
                    "--theta", theta, "--bound", str(bound),
                    "--format", "json")
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("plus,minus,theta,message", [
    ("3.22_1", "3.8_1_4", "1/3pi",
     "blocks (involution, ordinary) admit no torus flags for the hexagonal "
     "family"),
    ("3.8_1_2", "3.8_1_6", "1/4pi",
     "blocks (ordinary, ordinary) admit no torus flags for the square "
     "family"),
], ids=["3.22_1-3.8_1_4-1/3pi", "3.8_1_2-3.8_1_6-1/4pi"])
def test_match_refuses_a_rank1_pair_before_its_pushout(runner, plus, minus,
                                                        theta, message):
    # Neither pair has an integral cross term at its angle; the gluing
    # decision refuses them all the same, as it does at any --bound.
    result = invoke(runner, "match", "--plus", plus, "--minus", minus,
                    "--theta", theta, "--format", "json")
    assert result.exit_code == 4
    assert result.stderr == f"error: {message}\n"


def test_match_inadmissible_pair(runner):
    result = invoke(runner, "match", "--plus", "3.8_1_4",
                    "--minus", "3.8_1_2", "--theta", "1/4pi")
    assert result.exit_code == 4


def test_match_refuses_an_inadmissible_pair_at_every_bound(runner):
    # The plus block of a quarter-turn gluing must carry an involution;
    # the refusal comes before the first block is enumerated.
    for bound in ("0", "1", "2"):
        result = invoke(runner, "match", "--plus", "3.9_3", "--minus",
                        "3.23_6", "--theta", "1/4pi", "--bound", bound)
        assert result.exit_code == 4, bound
        assert result.stderr == ("error: blocks (ordinary, involution) "
                                 "admit no torus flags for the square "
                                 "family\n"), bound


_THETAS = ["1/6pi", "1/4pi", "1/3pi", "1/2pi", "2/3pi", "3/4pi", "5/6pi"]


def _search_verdict(plus, minus, theta, bound):
    try:
        return "ok", len(cross_term_search(plus, minus, theta, bound))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_census_sample_verdicts_agree_with_the_gluing_decision():
    # 300 seeded (pair, angle) searches of catalog blocks at bounds 0 and
    # 1: a search refuses exactly the pairs the gluing decision refuses
    # (no torus flags, or pi1 != 1), with the decision's message at both
    # bounds. Otherwise the two bounds agree, unless a report of a block
    # found at bound 1 raises ArithmeticError (a non-semisimple composed
    # reflection or an irrational angle).
    blocks = [b for b in load_catalog().blocks if b.rank <= 3]
    rng = random.Random(2028)
    cases = [(rng.choice(blocks), rng.choice(blocks), rng.choice(_THETAS))
             for _ in range(300)]
    start = time.perf_counter()
    refused = 0
    for plus, minus, theta in cases:
        try:
            GluingAngle(plus.kind, minus.kind,
                        *parse_theta(theta)).require_simply_connected()
            decision = None
        except ValueError as exc:
            decision = type(exc).__name__, str(exc)
        verdicts = [_search_verdict(plus, minus, theta, bound)
                    for bound in (0, 1)]
        case = (plus.id, minus.id, theta)
        if decision is not None:
            refused += 1
            assert verdicts == [decision, decision], case
        elif verdicts[1][0] != "ArithmeticError":
            assert verdicts[0][0] == verdicts[1][0] == "ok", case
    assert time.perf_counter() - start < 2
    assert refused == 204


def test_match_cross_term(runner):
    result = invoke(runner, "match", "--plus", "3.28", "--minus", "3.28",
                    "--theta", "1/6pi", "--bound", "3", "--pure",
                    "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert sorted(m["report"]["d_free"] for m in doc) == [2, 2, 8]


def test_match_pure_3x3(runner):
    result = invoke(runner, "match", "--plus", "5.15_3", "--minus", "3.10",
                    "--theta", "1/4pi", "--bound", "2", "--pure",
                    "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc and all(m["report"]["pure"] for m in doc)


def test_match_pure_needs_purity_on_both_sides(runner):
    # D(C) = 0 holds here (m+ = I/2 on the rank-1 side) but m- on the
    # rank-3 side has rank 1: the hit that used to be listed reports
    # "pure": false.
    result = invoke(runner, "match", "--plus", "3.22_1", "--minus", "5.14",
                    "--theta", "1/4pi", "--bound", "1", "--pure",
                    "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output) == []
    result = invoke(runner, "match", "--plus", "3.22_1", "--minus", "5.14",
                    "--theta", "1/4pi", "--bound", "1", "--format", "json")
    hits = json.loads(result.output)
    assert result.exit_code == 0 and hits
    assert not any(m["report"]["pure"] for m in hits)


def test_match_rank2_requires_bound(runner):
    result = invoke(runner, "match", "--plus", "3.28", "--minus", "3.28",
                    "--theta", "1/6pi")
    assert result.exit_code == 4


@pytest.mark.parametrize("theta,pair,bound", [
    ("1/0pi", ("3.28", "3.28"), ["--bound", "1"]),
    ("pi/0", ("3.28", "3.28"), ["--bound", "1"]),
    ("1/0pi", ("3.21", "3.8_1_18"), []),
    ("-pi/0", ("3.21", "3.8_1_18"), []),
])
def test_match_zero_denominator_angle(runner, theta, pair, bound):
    result = invoke(runner, "match", "--plus", pair[0], "--minus", pair[1],
                    "--theta", theta, *bound)
    assert result.exit_code == 4
    assert repr(theta) in result.stderr and "zero denominator" in result.stderr


def test_match_reports_an_inadmissible_angle_before_the_bound(runner):
    result = invoke(runner, "match", "--plus", "3.28", "--minus", "3.28",
                    "--theta", "1/5pi")
    assert result.exit_code == 4
    assert "'1/5pi' is not one of the seven admissible" in result.stderr


def test_match_maps_an_arithmetic_error_of_a_report_to_exit_4(runner):
    # A feasible block of this box has a composed reflection that is not
    # semisimple; its report raises ArithmeticError inside the search.
    result = invoke(runner, "match", "--plus", "3.8_2_5", "--minus", "3.27_4",
                    "--theta", "1/2pi", "--bound", "1")
    assert result.exit_code == 4
    assert "composed reflection is not semisimple" in result.stderr
    assert "Traceback" not in result.output + result.stderr


def test_match_unknown_block(runner):
    result = invoke(runner, "match", "--plus", "nosuch",
                    "--minus", "3.28", "--theta", "1/6pi")
    assert result.exit_code == 3


# --------------------------------------------------------------- invariants

def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_invariants_pushout_config(runner, tmp_path):
    path = _write_config(tmp_path, {
        "plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",
        "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]]})
    result = invoke(runner, "invariants", "--config", path,
                    "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert (doc["b3"], doc["d_free"], doc["nu_bar"]) == (71, 6, -36)
    assert doc["torsion_factors"] == [3]


def test_invariants_glue_config(runner, tmp_path):
    path = _write_config(tmp_path, {
        "plus": "3.23_8", "minus": "3.11", "theta": "1/4pi",
        "base_gram": [[196, 0, 98], [0, -98, 0], [98, 0, 98]],
        "plus_basis": [["9/49", "8/49", "0"], ["5/49", "-1/49", "0"]],
        "minus_basis": [["0", "-1/14", "3/14"], ["0", "3/14", "5/14"]]})
    result = invoke(runner, "invariants", "--config", path,
                    "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert (doc["b2"], doc["b3"], doc["d_free"]) == (1, 49, 12)


# sha256 of ``invariants --config <doc> --format json`` for each worked
# example, recorded before the linking pairings were read off the Smith
# transforms and b2 off the pushout's inertia: the JSON report carries the
# linking matrix, d_full and the angles that ``reproduce`` only summarises.
EXAMPLE_INVARIANTS_DIGESTS = {
    "8.1": "c51822cd33e72c4d37523d6cc8a54f5b8304f077b15738b41725213164156ba9",
    "8.2": "7d0f2269432ee5322221cb0162fe8ff3a7e228bde9bc89205be7e96e2e48955f",
    "8.3": "004754d44fcc385779477eefb55ea8b92f8ba9ca1b29c69fdbfa97522a90934d",
    "8.4": "d0acf4dfe9dc13b593138d609024c9e64dd0cb7dc812736396d833f6d391d835",
    "8.5": "d3cd9f76cd68c98afd87e9207a2f9f296ded9133f33dbccdc8e72ab2d6ab9737",
    "8.6": "ca3fae232dd210e9faec37b8ae31c1a678c81a341b8309d4c57ed5b0c1494b96",
    "8.7": "2219e4b74bfecaea49765735552ade9a999580549724de9bd8f3708ca8b841c5",
    "8.8": "2fffcaf68e6332c2f4034c89a73b355f456606c70181daa4a0fd1a6640a772a8",
    "8.9": "98020789db6ebd02e72579bcb3b17286561ae8b2b6aeb1f234f1d7b7d0504912",
    "8.10": "235e73929c2134d987ba313dbf58b8febbf9116b39c2118826e61fd662eb9f8f",
    "8.11": "b16c33de065c00692e59a12325035425e71e5211e0a3f797b6b05852c9ecb16a",
    "8.12": "5940060baf78840fa527061bf982394c2c0fd3866cbda962a4a0998a26c83e5c",
    "8.14": "d002f7bc99f177e656167380617b9d9811acb44d56f86762a668385ae6c13026",
    "8.15a": "c4296e76207453124ee347ee06856239796df4c3f44cf4fafc42c40ed71adb41",
    "8.15b": "2b26de1a91bae665dc7f023f4adb425630e75124e9d0ce091f8ab1e390d8be46",
    "8.16": "0550c4e739bfc7f25ebb5d2ec95815a79e2b19a410f7dbcc6901f52ada3d46a7",
    "8.17": "3ca044f2f81151e4119eb58d63a4a19ce00715a131d604b4d858e7edc99eede5",
    "8.18": "86d0c6b9065925d10046be3a3e4d8b78efec67ce2aee3b48be2091d0b3586074",
    "8.19": "737332457093bef94309a3299953b82bf35ae945808154688b890f9b6804c0cd",
    "8.20": "b629df16b7bd10795b865ff5de4ac225164e0bf2dcc784db5f7267fba1f95f13",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_INVARIANTS_DIGESTS))
def test_invariants_example_json_bytes(runner, tmp_path, name):
    plus, minus, theta, rows, _expected = EXAMPLES[name]
    path = _write_config(tmp_path, {
        "plus": plus, "minus": minus, "theta": theta,
        "pushout": [list(r) for r in rows]})
    result = invoke(runner, "invariants", "--config", path,
                    "--format", "json")
    assert result.exit_code == 0
    assert (hashlib.sha256(result.stdout_bytes).hexdigest()
            == EXAMPLE_INVARIANTS_DIGESTS[name])


def test_invariants_invalid_config(runner, tmp_path):
    path = _write_config(tmp_path, {
        "plus": "3.22_1", "minus": "3.9_10", "theta": "1/4pi",
        "pushout": [[4, 3, 1], [3, 8, 4], [1, 4, 0]]})
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4


# Pushouts of 3.22_1 x 3.9_10 at 1/4pi whose structure is refused, with the
# stderr that the command printed when validation reported the problems.
STRUCTURE_REFUSALS = [
    ([[2, 3], [3, 8]], b"error: pushout rank 2 != rho+ + rho- = 3\n"),
    ([[2, 3, 1, 0], [3, 8, 4, 0], [1, 4, 0, 0], [0, 0, 0, 2]],
     b"error: pushout rank 4 != rho+ + rho- = 3\n"),
    ([[4, 3, 1], [3, 8, 4], [1, 4, 0]],
     b"error: leading diagonal block differs from N+\n"),
    ([[2, 3, 1], [3, 6, 4], [1, 4, 0]],
     b"error: trailing diagonal block differs from N-\n"),
    ([[4, 3, 1], [3, 6, 4], [1, 4, 0]],
     b"error: leading diagonal block differs from N+; trailing diagonal "
     b"block differs from N-\n"),
    ([[4, 3, 1], [3, 7, 4], [1, 4, 0]],
     b"error: leading diagonal block differs from N+; trailing diagonal "
     b"block differs from N-; pushout must be an even lattice\n"),
    ([[3, 3, 1], [3, 8, 4], [1, 4, 0]],
     b"error: leading diagonal block differs from N+; pushout must be an "
     b"even lattice\n"),
]


@pytest.mark.parametrize("rows,stderr", STRUCTURE_REFUSALS)
def test_invariants_refuses_a_pushout_that_is_no_gluing(runner, tmp_path,
                                                        rows, stderr):
    path = _write_config(tmp_path, {
        "plus": "3.22_1", "minus": "3.9_10", "theta": "1/4pi",
        "pushout": rows})
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert result.stderr_bytes == stderr and result.stdout == ""


@pytest.mark.parametrize("bad", [3.7, 3.0, "3", True])
def test_invariants_rejects_non_integer_entries(runner, tmp_path, bad):
    # With 3.7 truncated to 3 this would be the valid 8.11 pushout.
    path = _write_config(tmp_path, {
        "plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",
        "pushout": [[6, bad, 3], [3, 2, 4], [3, 4, 2]]})
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert "not an integer" in result.stderr


@pytest.mark.parametrize("doc,field", [
    ({"plus": "3.22_3", "minus": "3.23_6",
      "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]]}, "'theta'"),
    ({"minus": "3.23_6", "theta": "1/4pi",
      "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]]}, "'plus'"),
    ({"plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi"}, "'base_gram'"),
    ({"plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",
      "pushout": 6}, "'pushout'"),
    ({"plus": ["3.22_3"], "minus": "3.23_6", "theta": "1/4pi",
      "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]]}, "'plus'"),
    ([["3.22_3", "3.23_6"]], "JSON object"),
    (None, "got null"),
    ("3.22_3", "got string"),
    (3, "got number"),
    (True, "got boolean"),
    ([], "got array"),
])
def test_invariants_malformed_document(runner, tmp_path, doc, field):
    path = _write_config(tmp_path, doc)
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert field in result.stderr


PUSHOUT_DOC = {
    "plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",
    "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]]}
GLUE_DOC = {
    "plus": "3.23_8", "minus": "3.11", "theta": "1/4pi",
    "base_gram": [[196, 0, 98], [0, -98, 0], [98, 0, 98]],
    "plus_basis": [["9/49", "8/49", "0"], ["5/49", "-1/49", "0"]],
    "minus_basis": [["0", "-1/14", "3/14"], ["0", "3/14", "5/14"]]}


@pytest.mark.parametrize("field,row", [
    ("plus_basis", [["9/49"], "8/49", "0"]),
    ("plus_basis", [{"n": 9}, "8/49", "0"]),
    ("minus_basis", ["0", ["-1/14"], "3/14"]),
    ("minus_basis", "0"),
    ("base_gram", [196.0, 0, 98]),
    ("base_gram", [196, None, 98]),
    ("base_gram", [196, True, 98]),
    ("plus_basis", [0.5, "8/49", "0"]),
    ("plus_basis", ["9/49", "3/0", "0"]),
    ("minus_basis", ["0", "-1/0", "3/14"]),
    ("base_gram", [196, "3/0", 98]),
    ("base_gram", [196, "x", 98]),
    ("base_gram", [196, 0]),
    ("plus_basis", ["9/49", "8/49"]),
    ("minus_basis", ["0", "-1/14", "3/14", "0"]),
    pytest.param("base_gram", {
        "plus": "3.22_1", "minus": "3.8_1_4", "theta": "1/4pi",
        "base_gram": [], "plus_basis": [[]], "minus_basis": [[]]},
        id="base_gram-empty"),
])
def test_invariants_rejects_malformed_glue_entries(runner, tmp_path, field,
                                                    row):
    # ``row`` replaces the first row of ``field`` in GLUE_DOC; a dict is a
    # whole document.
    doc = json.loads(json.dumps(GLUE_DOC))
    if isinstance(row, dict):
        doc = row
    else:
        doc[field][0] = row
    path = _write_config(tmp_path, doc)
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert repr(field) in result.stderr
    assert "Traceback" not in result.output


def test_invariants_refuses_a_base_gram_that_is_not_square(runner, tmp_path):
    # Read row by row against the basis rows, this 2x3 Gram used to pass
    # as [[2, 2], [2, 4]] and print a report with b3 134.
    path = _write_config(tmp_path, {
        "plus": "3.22_1", "minus": "3.8_1_4", "theta": "1/4pi",
        "base_gram": [[2, 2, 0], [2, 4, 0]],
        "plus_basis": [[1, 0, 0]], "minus_basis": [[0, 1, 0]]})
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert result.stderr == ("error: glue field 'base_gram' has a row of "
                             "length 3; the base Gram has 2 rows\n")
    assert result.stdout == ""


@pytest.mark.parametrize("theta", ["pi/0", "1/0pi"])
def test_invariants_zero_denominator_angle(runner, tmp_path, theta):
    path = _write_config(tmp_path, {
        "plus": "3.22_3", "minus": "3.23_6", "theta": theta,
        "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]]})
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert repr(theta) in result.stderr and "zero denominator" in result.stderr


def test_invariants_rejects_an_exponent_glue_entry_at_once(runner,
                                                          tmp_path):
    # Fraction reads "1e999999999" as 10^999999999, which would not fit in
    # memory; only "[-]p" and "[-]p/q" strings are glue entries.
    doc = json.loads(json.dumps(GLUE_DOC))
    doc["plus_basis"][0][0] = "1e999999999"
    path = _write_config(tmp_path, doc)
    start = time.perf_counter()
    result = invoke(runner, "invariants", "--config", path)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 4
    assert "'plus_basis'" in result.stderr


def test_invariants_rejects_an_integer_of_too_many_digits(runner, tmp_path):
    # json.load refuses integers of more than 4300 digits with ValueError.
    path = tmp_path / "config.json"
    path.write_text('{"plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",'
                    ' "pushout": [[' + "6" * 5000 + ', 3, 3], [3, 2, 4],'
                    ' [3, 4, 2]]}')
    result = invoke(runner, "invariants", "--config", str(path))
    assert result.exit_code == 4
    assert "bad config document" in result.stderr


def test_invariants_rejects_a_document_that_is_not_utf8(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'\xff\xfe{"plus": "3.22_3"}')
    result = invoke(runner, "invariants", "--config", str(path))
    assert result.exit_code == 4
    assert "bad config document" in result.stderr


def test_catalog_rejects_an_integer_of_too_many_digits(runner, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text('{"format": "g2tcs-block-catalog", "blocks": [],'
                    ' "size": ' + "1" * 5000 + '}')
    result = invoke(runner, "--catalog", str(path), "catalog", "list")
    assert result.exit_code == 4
    assert "bad catalog" in result.stderr


@pytest.mark.parametrize("orientation", [True, False, 1.0, -1.0, "1", 2])
def test_invariants_rejects_an_orientation_other_than_int_1_or_minus_1(
        runner, tmp_path, orientation):
    path = _write_config(tmp_path, {
        "plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",
        "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]],
        "orientation": orientation})
    result = invoke(runner, "invariants", "--config", path)
    assert result.exit_code == 4
    assert "orientation must be +1 or -1" in result.stderr


def test_invariants_takes_an_integer_orientation(runner, tmp_path):
    path = _write_config(tmp_path, {
        "plus": "3.22_3", "minus": "3.23_6", "theta": "1/4pi",
        "pushout": [[6, 3, 3], [3, 2, 4], [3, 4, 2]], "orientation": -1})
    result = invoke(runner, "invariants", "--config", path,
                    "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert (doc["orientation"], doc["nu_bar"]) == (-1, 36)


def test_invariants_glue_entries_may_be_integers(runner, tmp_path):
    doc = json.loads(json.dumps(GLUE_DOC))
    doc["plus_basis"][0][2] = 0
    path = _write_config(tmp_path, doc)
    result = invoke(runner, "invariants", "--config", path,
                    "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["b3"] == 49


_ENTRY = st.one_of(
    st.integers(-8, 8), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["1/2", "9/49", "-1/14", "3/0", "-1/0", "x", ""]))
_VALUE = st.recursive(_ENTRY, lambda inner: st.lists(inner, max_size=4),
                      max_leaves=12)
_MATRIX = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
# Symmetric integer matrices get past the field checks to the pipeline.
_GRAM = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.integers(-8, 8), min_size=n * n, max_size=n * n).map(
        lambda xs: [[xs[min(i, j) * n + max(i, j)] for j in range(n)]
                    for i in range(n)]))
_IDS = st.sampled_from(["3.22_3", "3.23_6", "3.23_8", "3.11", "3.21",
                        "3.8_1_18", "3.28", "nosuch"])
_FIELD_VALUES = {
    "plus": st.one_of(_IDS, _VALUE),
    "minus": st.one_of(_IDS, _VALUE),
    "theta": st.one_of(st.sampled_from([
        "1/4pi", "-1/4pi", "1/6pi", "pi/2", "1/0pi", "pi/0", "-pi/0",
        "1/5pi"]), _VALUE),
}
_FIELD_VALUES.update(dict.fromkeys(
    ["pushout", "base_gram", "plus_basis", "minus_basis"],
    st.one_of(_GRAM, _MATRIX, _VALUE)))
_DOCUMENT = st.fixed_dictionaries({}, optional=_FIELD_VALUES)
# A working document with one field replaced.
_CHANGED = st.sampled_from(sorted(_FIELD_VALUES)).flatmap(
    lambda name: st.tuples(st.just(name), _FIELD_VALUES[name]))
_MUTANT = st.builds(lambda doc, change: {**doc, change[0]: change[1]},
                    st.sampled_from([PUSHOUT_DOC, GLUE_DOC]), _CHANGED)
# Words a user should never see: a traceback, a Fraction repr, a Python
# type or an exception class ("list" is left out: "a list of rows" is
# English).
_LEAK = re.compile(r"Traceback|Fraction\(|<class|\b(NoneType|str|int|float"
                   r"|bool|dict|tuple)\b|\w+(Error|Exception)\b")


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(_MUTANT, _DOCUMENT, _VALUE))
def test_invariants_fuzzed_documents(tmp_path_factory, doc):
    path = _write_config(tmp_path_factory.getbasetemp(), doc)
    result = CliRunner().invoke(main, ["invariants", "--config", path])
    assert result.exit_code in (0, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit)
    assert not _LEAK.search(result.output), result.output



with open(default_catalog_path()) as _fh:
    _SHIPPED_CATALOG = json.load(_fh)
_REMOVED = object()


def _write_catalog_mutant(directory, index, field, value):
    """The shipped catalog with one field of block ``index`` replaced
    (or removed, for ``_REMOVED``).  A dotted field such as
    "derivation.c2.r" names a field of a nested object, made if absent."""
    doc = json.loads(json.dumps(_SHIPPED_CATALOG))
    *parents, field = field.split(".")
    record = doc["blocks"][index]
    for name in parents:
        if not isinstance(record.get(name), dict):
            record[name] = {}
        record = record[name]
    if value is _REMOVED:
        record.pop(field, None)
    else:
        record[field] = value
    path = directory / "catalog.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _block_index(block_id):
    return next(i for i, rec in enumerate(_SHIPPED_CATALOG["blocks"])
                if rec["id"] == block_id)


@pytest.mark.parametrize("block_id,field,value", [
    ("3.22_3", "b3", 71.9),
    ("3.22_3", "rank", 1.9),
    ("3.22_3", "c2bar", [30.5]),
    ("3.22_3", "pleasant", "false"),
    ("3.22_3", "chiC", "y"),
    ("3.21", "b3plus", "x"),
])
def test_catalog_rejects_a_mistyped_record_field(runner, tmp_path, block_id,
                                                 field, value):
    path = _write_catalog_mutant(tmp_path, _block_index(block_id), field,
                                 value)
    result = invoke(runner, "--catalog", path, "catalog", "list")
    assert result.exit_code == 4
    assert f"{block_id}: field {field!r}" in result.stderr


_MALFORMED_DERIVATIONS = ["x", {"method": 5}, None, [1],
                          {"method": "rank1_fano"},
                          {"method": "smoothed", "r": 2,
                           "minus_k_row": ["2"]},
                          {"method": "smoothed", "r": 12,
                           "minus_k_row": [2]}]


@pytest.mark.parametrize("value", _MALFORMED_DERIVATIONS)
@pytest.mark.parametrize("command", ["list", "validate"])
def test_catalog_rejects_a_malformed_derivation(runner, tmp_path, value,
                                                command):
    path = _write_catalog_mutant(tmp_path, _block_index("3.22_3"),
                                 "derivation", value)
    result = invoke(runner, "--catalog", path, "catalog", command)
    assert result.exit_code == 4
    assert "3.22_3: derivation: " in result.stderr


def test_catalog_validate_names_a_block_it_did_not_rederive(runner,
                                                            tmp_path):
    path = _write_catalog_mutant(tmp_path, _block_index("3.22_3"),
                                 "derivation", _REMOVED)
    assert invoke(runner, "--catalog", path, "catalog", "list").exit_code == 0
    result = invoke(runner, "--catalog", path, "catalog", "validate")
    assert result.exit_code == 1
    assert result.stdout == "3.22_3: no derivation, not re-derived\n"
    assert "blocks OK" not in result.output


# Strings over this alphabet cannot spell a word that _LEAK looks for.
_RECORD_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="xyz0123456789 ./-", max_size=6))
_RECORD_VALUE = st.recursive(
    _RECORD_SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(alphabet="xyz", max_size=3), inner, max_size=3),
    max_leaves=8)
_RECORD_FIELDS = sorted({k for rec in _SHIPPED_CATALOG["blocks"]
                         for k in rec})


def _paths(obj, prefix):
    for key, value in obj.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


# The fields of the derivation records, nested ones included.
_DERIVATION_FIELDS = sorted({p for rec in _SHIPPED_CATALOG["blocks"]
                             for p in _paths(rec["derivation"],
                                             "derivation.")})


@settings(max_examples=120, deadline=None)
@given(index=st.integers(0, len(_SHIPPED_CATALOG["blocks"]) - 1),
       field=st.sampled_from(_RECORD_FIELDS + _DERIVATION_FIELDS),
       value=st.one_of(_RECORD_VALUE, st.just(_REMOVED)))
def test_catalog_fuzzed_record_fields(tmp_path_factory, index, field, value):
    path = _write_catalog_mutant(tmp_path_factory.getbasetemp(), index,
                                 field, value)
    codes = []
    for command, allowed in (("list", (0, 4)), ("validate", (0, 1, 4))):
        result = CliRunner().invoke(main, ["--catalog", path, "catalog",
                                           command])
        assert result.exit_code in allowed, result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert not _LEAK.search(result.output), result.output
        codes.append(result.exit_code)
    assert (codes[0] == 4) == (codes[1] == 4)
    if field == "derivation" and value is _REMOVED:
        assert codes[1] == 1

@functools.lru_cache(maxsize=None)
def _catalog_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(catalog_module.__file__).parent / "data" / \
        "catalog.schema.json"
    return jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))


def _schema_accepts(doc):
    return _catalog_schema().is_valid(doc)


def _loader_accepts(path):
    try:
        load_catalog(path)
    except CatalogError:
        return False
    return True


def _integral_float(value):
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, (list, dict)):
        items = value.values() if isinstance(value, dict) else value
        return any(map(_integral_float, items))
    return False


def _formula_refuses(derivation):
    try:
        catalog_module._derived_fields(derivation)
    except CatalogError:  # a missing or mistyped field
        return False
    except ValueError:  # data that a derivation formula rejects
        return True
    return False


def _assert_schema_agrees_with_loader(directory, index, field, value):
    """Whether the schema accepts a catalog mutant, after checking that it
    refuses the mutant exactly when the loader does,
    except for two kinds of mutant that only the loader refuses. JSON
    Schema's "integer" is a number with no fractional part, so it takes
    an integral float such as 3.0, which the loader reads as a float. And
    a schema cannot state the formulas' arithmetic conditions, such as
    -K^3 divisible by the square of the index or equal row lengths."""
    path = _write_catalog_mutant(directory, index, field, value)
    doc = json.loads(Path(path).read_text())
    record = doc["blocks"][index]
    # The other records are the shipped ones, which the schema accepts.
    schema_ok = _schema_accepts(dict(doc, blocks=[record]))
    loader_ok = _loader_accepts(path)
    if schema_ok and not loader_ok:
        derivation = record.get("derivation")
        assert _integral_float(value) or _formula_refuses(derivation), (
            field, value)
    else:
        assert schema_ok == loader_ok, (field, value)
    return schema_ok


@pytest.mark.parametrize("value", _MALFORMED_DERIVATIONS)
def test_schema_and_loader_refuse_the_malformed_derivations(tmp_path, value):
    assert not _assert_schema_agrees_with_loader(
        tmp_path, _block_index("3.22_3"), "derivation", value)


@pytest.mark.parametrize("block_id,field,value,schema_ok", [
    ("3.8_2_4", "derivation.r", 2.0, True),  # integral float
    ("3.8_2_4", "derivation.minusK3", 30, True),  # not divisible by r^2
    ("3.23_6", "derivation.c2.c2barX", [1], True),  # unequal lengths
    ("3.8_2_4", "derivation.r", 5, False),
    ("3.21", "derivation.c2.method", "smoothed", False),
    ("3.21", "derivation.rho", 0, False),
    ("3.21", "derivation.c2", _REMOVED, True),
])
def test_schema_and_loader_on_typed_derivation_fields(tmp_path, block_id,
                                                      field, value,
                                                      schema_ok):
    assert _assert_schema_agrees_with_loader(
        tmp_path, _block_index(block_id), field, value) == schema_ok


@settings(max_examples=120, deadline=None)
@given(index=st.integers(0, len(_SHIPPED_CATALOG["blocks"]) - 1),
       field=st.sampled_from(_DERIVATION_FIELDS),
       value=st.one_of(_RECORD_VALUE, st.just(_REMOVED)))
def test_schema_and_loader_agree_on_fuzzed_derivation_fields(
        tmp_path_factory, index, field, value):
    _assert_schema_agrees_with_loader(tmp_path_factory.getbasetemp(), index,
                                      field, value)


def test_schema_and_loader_require_a_version(tmp_path):
    doc = json.loads(json.dumps(_SHIPPED_CATALOG))
    del doc["version"]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert not _schema_accepts(doc)
    assert not _loader_accepts(str(path))


def test_invariants_missing_file(runner):
    result = invoke(runner, "invariants", "--config", "/nonexistent.json")
    assert result.exit_code == 2


# ---------------------------------------------------------------- reproduce

@pytest.mark.parametrize("target,needle", [
    ("table4", "25"), ("table5", "23"), ("examples", "20")])
def test_reproduce_targets(runner, target, needle):
    result = invoke(runner, "reproduce", target)
    assert result.exit_code == 0, result.output
    assert needle in result.output


def test_check_row_compares_2_torsion_linking_forms(catalog):
    from g2tcs.cli import _check_row
    from g2tcs.configuration import make_configuration
    from g2tcs.fixtures import TABLE5, table5_pushout
    from g2tcs.invariants import full_report

    rows = {row[0]: row for row in TABLE5}
    row = rows["8.3"]
    report = full_report(make_configuration(
        catalog.get(row[2]), catalog.get(row[3]), row[1],
        [list(r) for r in table5_pushout(row)]))
    b3, d, factors = row[4:7]
    assert _check_row(report, b3, d, factors, row[7]) is None
    problem = _check_row(report, b3, d, factors, rows["8.4"][7])
    assert problem is not None and problem.startswith("linking")


def test_reproduce_table5_reads_only_the_given_catalog(runner, tmp_path,
                                                       monkeypatch):
    import g2tcs.catalog
    from g2tcs.catalog import default_catalog_path
    path = tmp_path / "catalog.json"
    with open(default_catalog_path()) as fh:
        path.write_text(fh.read())

    def refuse(*_args, **_kw):
        raise AssertionError("the default catalog was loaded")
    # table5_pushout imports load_catalog from g2tcs.catalog when it needs
    # a catalog; the CLI loads --catalog through its own binding.
    monkeypatch.setattr(g2tcs.catalog, "load_catalog", refuse)
    result = invoke(runner, "--catalog", str(path), "reproduce", "table5",
                    "--format", "json")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["ok"]


def test_table5_pushout_uses_the_catalog_passed_in(catalog):
    from g2tcs.fixtures import TABLE5, table5_pushout

    class Recording:
        def __init__(self):
            self.read = []

        def get(self, block_id):
            self.read.append(block_id)
            return catalog.get(block_id)

    row = next(r for r in TABLE5 if r[2:4] == ("3.22_4", "3.22_3"))
    cat = Recording()
    assert table5_pushout(row, cat) == table5_pushout(row)
    assert cat.read == ["3.22_4", "3.22_3"]
