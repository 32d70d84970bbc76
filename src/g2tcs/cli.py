"""Command-line front end: catalog queries, matching, invariants, tables.

Exit codes: 0 success, 1 reproduction mismatch, 2 I/O error, 3 lookup
error, 4 validation error.
"""

import json
import re
import sys
from fractions import Fraction

import click

from .catalog import CatalogError, load_catalog, verify_catalog
from .configuration import (make_configuration, parse_theta,
                            pushout_from_glue, validate_configuration)
from .fixtures import EXAMPLES, TABLE4, TABLE5, table5_pushout
from .invariants import (InvariantReport, full_report,
                         linking_forms_equivalent)
from .search import (MatchCandidate, cross_term_search, rank1_candidate,
                     rank1_candidate_count, rank1_pi4_search)

EXIT_MISMATCH = 1
EXIT_IO = 2
EXIT_LOOKUP = 3
EXIT_VALIDATION = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(catalog_path):
    try:
        return load_catalog(catalog_path)
    except FileNotFoundError as exc:
        _fail(EXIT_IO, f"catalog not found: {exc}")
    except (CatalogError, json.JSONDecodeError) as exc:
        _fail(EXIT_VALIDATION, f"bad catalog: {exc}")


def _frac(value) -> str:
    return str(Fraction(value))


def _torsion_factors(report: InvariantReport):
    if report.torsion is None:
        return ()
    return tuple(d for d in report.torsion.invariant_factors if d > 1)


def _torsion_text(report: InvariantReport) -> str:
    return "x".join(str(d) for d in _torsion_factors(report))


def _linking_text(report: InvariantReport) -> str:
    if not report.linking or max(_torsion_factors(report), default=1) <= 2:
        return ""
    return ";".join(",".join(_frac(x) for x in row) for row in report.linking)


def _report_doc(report: InvariantReport) -> dict:
    return {
        "pi1": report.pi1,
        "b2": report.b2,
        "b3": report.b3,
        "theta": f"{report.theta}pi",
        "orientation": report.orientation,
        "pure": report.pure,
        "torsion_supported": report.torsion_supported,
        "torsion_factors": list(_torsion_factors(report)),
        "linking": ([[_frac(x) for x in row] for row in report.linking]
                    if report.linking is not None else None),
        "d_free": report.d_free,
        "d_full": report.d_full,
        "p_torsion_clean": report.p_torsion_clean,
        "alpha_plus": [[_frac(c), s] for c, s in report.angles.alpha_plus],
        "alpha_minus": [[_frac(c), s] for c, s in report.angles.alpha_minus],
        "nu_bar": report.nu_bar,
        "nu": report.nu,
    }


def _candidate_doc(cand: MatchCandidate) -> dict:
    doc = {
        "plus": cand.plus_id,
        "minus": cand.minus_id,
        "theta": f"{cand.theta}pi",
        "pushout": [list(row) for row in cand.pushout],
        "rank1_decomposition": (list(cand.rank1_decomposition)
                                if cand.rank1_decomposition else None),
        "report": _report_doc(cand.report),
    }
    return doc


def _emit_json(payload):
    click.echo(json.dumps(payload, indent=1, sort_keys=True))


_TABLE_HEADER = ("Z+", "Z-", "b3", "d", "TH4", "b", "nu_bar")


def _report_row(plus_id: str, minus_id: str, report: InvariantReport):
    return (plus_id, minus_id, str(report.b3), str(report.d_free),
            _torsion_text(report), _linking_text(report), str(report.nu_bar))


def _emit_table(rows, header=_TABLE_HEADER):
    rows = list(rows)
    widths = [max([len(header[i])] + [len(row[i]) for row in rows])
              for i in range(len(header))]
    for line in [header] + rows:
        click.echo("  ".join(cell.ljust(w)
                             for cell, w in zip(line, widths)).rstrip())


@click.group()
@click.option("--catalog", "catalog_path", default=None, type=click.Path(),
              help="Catalog file (defaults to the shipped catalog, "
                   "overridable via G2TCS_CATALOG).")
@click.pass_context
def main(ctx, catalog_path):
    """Exact lattice arithmetic for twisted-connected-sum matchings."""
    ctx.ensure_object(dict)
    ctx.obj["catalog_path"] = catalog_path


@main.group()
def catalog():
    """Inspect and validate the building-block catalog."""


@catalog.command("list")
@click.pass_context
def catalog_list(ctx):
    """One line per block: id, kind, rank, b3."""
    cat = _load(ctx.obj["catalog_path"])
    for block in cat.blocks:
        click.echo(f"{block.id}\t{block.kind}\t{block.rank}\t{block.b3}")


@catalog.command("show")
@click.argument("block_id")
@click.pass_context
def catalog_show(ctx, block_id):
    """Full record of one block."""
    cat = _load(ctx.obj["catalog_path"])
    try:
        block = cat.get(block_id)
    except KeyError:
        _fail(EXIT_LOOKUP, f"unknown block id {block_id!r}")
    doc = {
        "id": block.id,
        "kind": block.kind,
        "rank": block.rank,
        "N": [list(row) for row in block.N.gram],
        "c2bar": list(block.c2bar),
        "b3": block.b3,
        "pleasant": block.pleasant,
        "k_trivial": block.k_trivial,
        "provenance": block.provenance,
    }
    if block.kind == "involution":
        doc["b3plus"] = block.b3plus
        doc["chiC"] = block.chiC
        doc["ordinary_ok"] = block.ordinary_ok
    _emit_json(doc)


@catalog.command("validate")
@click.pass_context
def catalog_validate(ctx):
    """Recompute derived fields and compare with the stored ones."""
    cat = _load(ctx.obj["catalog_path"])
    mismatches = verify_catalog(cat)
    for mm in mismatches:
        click.echo(f"{mm.block_id}: no derivation, not re-derived"
                   if mm.field == "derivation" else f"{mm.block_id}: "
                   f"{mm.field} stored {mm.stored} derived {mm.derived}")
    if mismatches:
        _fail(EXIT_MISMATCH, f"{len(mismatches)} catalog mismatches")
    click.echo(f"{len(cat.blocks)} blocks OK")


@main.command()
@click.option("--plus", "plus_id", required=True)
@click.option("--minus", "minus_id", required=True)
@click.option("--theta", required=True, help='Angle, e.g. "1/4pi".')
@click.option("--pure", is_flag=True, default=False,
              help="Keep only configurations pure on both sides (pi+ pi- and "
                   "pi- pi+ = cos^2 theta); none for unequal ranks off pi/2.")
@click.option("--bound", type=int, default=None,
              help="Cross-term entry bound. Enables the bounded search: "
                   "an integer eigen-angle screen over every cross block "
                   "with entries in [-bound, bound], built row by row with "
                   "--pure. Without it both blocks must have rank 1.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table")
@click.pass_context
def match(ctx, plus_id, minus_id, theta, pure, bound, fmt):
    """Find admissible matchings of two blocks at a given angle."""
    cat = _load(ctx.obj["catalog_path"])
    try:
        plus = cat.get(plus_id)
        minus = cat.get(minus_id)
    except KeyError as exc:
        _fail(EXIT_LOOKUP, str(exc.args[0]))
    try:
        parse_theta(theta)
        if bound is not None:
            candidates = cross_term_search(plus, minus, theta, bound,
                                           pure=pure)
        else:
            if plus.rank != 1 or minus.rank != 1:
                _fail(EXIT_VALIDATION,
                      "blocks of rank > 1 need an explicit --bound")
            cand = rank1_candidate(plus, minus, theta)
            candidates = [] if cand is None else [cand]
    except (ArithmeticError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if fmt == "json":
        _emit_json([_candidate_doc(c) for c in candidates])
    else:
        _emit_table([_report_row(c.plus_id, c.minus_id, c.report)
                     for c in candidates])


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number",
               float: "number", str: "string", list: "array"}


def _is_exact(x) -> bool:
    """Whether x is an int or a string "[-]p" or "[-]p/q" with q != 0."""
    if type(x) is int:
        return True
    match = isinstance(x, str) and re.fullmatch(r"-?[0-9]+(?:/([0-9]+))?", x)
    return bool(match) and (match.group(1) or "1").strip("0") != ""


def _check_config_fields(doc):
    """Exit with a validation error naming the first absent or mistyped field."""
    if not isinstance(doc, dict):
        _fail(EXIT_VALIDATION, "bad config document: expected a JSON object, "
                               f"got {_JSON_TYPES[type(doc)]}")
    fields = {"plus": str, "minus": str, "theta": str}
    grams = (["pushout"] if "pushout" in doc
             else ["base_gram", "plus_basis", "minus_basis"])
    fields.update(dict.fromkeys(grams, list))
    for name, kind in fields.items():
        if name not in doc:
            _fail(EXIT_VALIDATION, f"config document lacks field {name!r}")
        if not isinstance(doc[name], kind):
            label = "a string" if kind is str else "an array"
            _fail(EXIT_VALIDATION, f"config field {name!r} must be {label}")
    if "pushout" in doc:
        return
    # Glue rows are read with Fraction: only ints and "p/q" strings are
    # exact (a float would be taken as a binary fraction).
    for name in grams:
        if any(not isinstance(row, list) or not all(map(_is_exact, row))
               for row in doc[name]):
            _fail(EXIT_VALIDATION, f"config field {name!r} must be an array "
                                   "of rows of integers or \"p/q\" strings "
                                   "with q != 0")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Configuration document (JSON).")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="json")
@click.pass_context
def invariants(ctx, config_path, fmt):
    """Compute the invariant suite of one configuration document.

    The document carries "plus", "minus", "theta" and either a full
    integer "pushout" Gram or a glue presentation ("base_gram" plus
    rational "plus_basis"/"minus_basis" rows, rationals as "p/q").
    """
    cat = _load(ctx.obj["catalog_path"])
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        _fail(EXIT_IO, f"config not found: {config_path}")
    except ValueError as exc:  # bad JSON, or an integer of too many digits
        _fail(EXIT_VALIDATION, f"bad config document: {exc}")
    _check_config_fields(doc)
    try:
        plus = cat.get(doc["plus"])
        minus = cat.get(doc["minus"])
    except KeyError as exc:
        _fail(EXIT_LOOKUP, f"unknown block id: {exc}")
    try:
        if "pushout" in doc:
            rows = doc["pushout"]
        else:
            rows = pushout_from_glue(doc["base_gram"], doc["plus_basis"],
                                     doc["minus_basis"])
        cfg = make_configuration(plus, minus, doc["theta"], rows,
                                 orientation=doc.get("orientation"))
        check = validate_configuration(cfg)
        if not check.ok:
            _fail(EXIT_VALIDATION, "; ".join(check.problems))
        report = full_report(cfg)
    except (ArithmeticError, ValueError) as exc:
        _fail(EXIT_VALIDATION, str(exc))
    if fmt == "json":
        _emit_json(_report_doc(report))
    else:
        _emit_table([_report_row(doc["plus"], doc["minus"], report)])


def _check_row(report, b3, d, torsion_factors, linking):
    got = (report.b3, report.d_free, _torsion_factors(report))
    if got != (b3, d, torsion_factors):
        return f"got b3={got[0]} d={got[1]} torsion={got[2]}"
    if torsion_factors and not linking_forms_equivalent(
            torsion_factors, linking, report.linking):
        return f"linking {report.linking} != expected {linking}"
    return None


def _fixture_report(cat, plus_id, minus_id, theta, rows) -> InvariantReport:
    """The invariants of one shipped reference configuration."""
    return full_report(make_configuration(
        cat.get(plus_id), cat.get(minus_id), theta, [list(r) for r in rows]))


@main.command()
@click.argument("target", type=click.Choice(["table4", "table5", "examples"]))
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table")
@click.pass_context
def reproduce(ctx, target, fmt):
    """Recompute a shipped reference dataset and diff it row by row."""
    cat = _load(ctx.obj["catalog_path"])
    failures = []
    lines = []
    if target == "table4":
        matches = rank1_pi4_search(cat)
        scanned = rank1_candidate_count(cat, "1/4pi")
        if len(matches) != len(TABLE4):
            failures.append(
                f"expected {len(TABLE4)} matches, found {len(matches)}")
        for cand, row in zip(matches, TABLE4):
            plus_id, minus_id, b3, d, tf, link = row
            label = f"{plus_id} x {minus_id}"
            if (cand.plus_id, cand.minus_id) != (plus_id, minus_id):
                failures.append(
                    f"{label}: got pair {cand.plus_id} x {cand.minus_id}")
                continue
            problem = _check_row(cand.report, b3, d, tf, link)
            if problem:
                failures.append(f"{label}: {problem}")
            lines.append(_report_row(plus_id, minus_id, cand.report))
        lines_note = (f"{scanned} pairs scanned, {len(matches)} matches, "
                      f"{len(matches) - len(failures)} rows match")
    elif target == "table5":
        for row in TABLE5:
            example, theta, plus_id, minus_id, b3, d, tf, link, nb = row
            label = f"{example} {plus_id} x {minus_id}"
            report = _fixture_report(cat, plus_id, minus_id, theta,
                                     table5_pushout(row, cat))
            problem = _check_row(report, b3, d, tf, link)
            if problem is None and report.nu_bar != nb:
                problem = f"nu_bar {report.nu_bar} != {nb}"
            if problem:
                failures.append(f"{label}: {problem}")
            lines.append(_report_row(plus_id, minus_id, report))
        lines_note = (f"{len(TABLE5) - len(failures)}/{len(TABLE5)} "
                      "rows match")
    else:
        for name in sorted(EXAMPLES):
            plus_id, minus_id, theta, rows, expected = EXAMPLES[name]
            report = _fixture_report(cat, plus_id, minus_id, theta, rows)
            got = (report.b2, report.b3, report.torsion_order,
                   report.d_free, report.d_full, report.nu_bar)
            problem = (None if got == expected
                       else f"got {got} expected {expected}")
            if problem:
                failures.append(f"{name}: {problem}")
            lines.append(_report_row(plus_id, minus_id, report))
        lines_note = (f"{len(EXAMPLES) - len(failures)}/{len(EXAMPLES)} "
                      "examples match")
    if fmt == "json":
        _emit_json({"target": target, "ok": not failures,
                    "summary": lines_note, "failures": failures})
    else:
        _emit_table(lines)
        click.echo(lines_note)
        for failure in failures:
            click.echo(f"MISMATCH {failure}")
    if failures:
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
