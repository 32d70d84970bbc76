"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit that defines the reference:

    python3 perfbench/record.py

It rewrites perfbench/reference.json: a digest of every dataset report
and search hit list (linking matrices kept apart, as they are compared
up to equivalence), each cross_search case's purity, and a digest of the
JSON output of every CLI command the benchmark checks.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("G2TCS_CATALOG", None)

from g2tcs import catalog  # noqa: E402

import cli_check  # noqa: E402
import workloads as w  # noqa: E402


def main():
    cat = catalog.load_catalog()
    reports = {"table4": [], "table5": [], "examples": {}}
    for kind, key, report in w.dataset_reports(cat):
        entry = {"digest": w.digest(w.report_doc(report)),
                 "linking": w.linking_doc(report)}
        if kind == "examples":
            reports[kind][key] = entry
        else:
            reports[kind].append(entry)
    cases = w.cross_cases(cat)
    ref = {"reports": reports,
           "cross_search_cases": [case["name"] for case in cases],
           "cross_search": {}}
    for case in cases:
        case["pure"] = w.example_report(cat, case["name"]).pure
        hits = w.cross_search(cat, case)
        ref["cross_search"][case["name"]] = {
            "plus": case["plus"], "minus": case["minus"],
            "theta": case["theta"], "bound": case["bound"],
            "box": case["box"], "pure": case["pure"], "hits": len(hits),
            "digest": w.digest(w.hits_doc(hits)),
            "linking": [w.linking_doc(hit.report) for hit in hits]}
    ref["cli"] = {" ".join(args): sha for args, sha, _code
                  in cli_check.run_commands(cli_check.commands(ref))}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
