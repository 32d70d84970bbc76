"""Byte check of the CLI's JSON output, run in-process via CliRunner."""

import hashlib

from click.testing import CliRunner

from g2tcs import cli


def commands(ref, workload=None):
    """The CLI commands whose output a workload's library calls produce:
    one ``match`` per case for cross_search, the three reproduce targets
    (which also yield the linking workload's reports) otherwise.  With no
    workload, all of them."""
    reproduce = [["reproduce", target, "--format", "json"]
                 for target in ("table4", "table5", "examples")]
    match = []
    for name in ref["cross_search_cases"]:
        case = ref["cross_search"][name]
        args = ["match", "--plus", case["plus"], "--minus", case["minus"],
                "--theta", case["theta"], "--bound", str(case["bound"])]
        if case["pure"]:
            args.append("--pure")
        match.append(args + ["--format", "json"])
    if workload is None:
        return reproduce + match
    return match if workload == "cross_search" else reproduce


def run_commands(command_list, tracer=None):
    """(args, sha256 of stdout, exit code) per command.

    With a tracer, each invocation of ``cli.main`` is one span.
    """
    runner = CliRunner(env={"G2TCS_CATALOG": None})
    out = []
    for args in command_list:
        if tracer is None:
            result = runner.invoke(cli.main, args)
        else:
            tracer.op = "cli " + " ".join(args)
            result = tracer.span("cli.main", runner.invoke, cli.main, args)
        out.append((args, hashlib.sha256(result.stdout_bytes).hexdigest(),
                    result.exit_code))
    return out


def check(ref, workload, tracer=None):
    """Mismatch messages; empty when every command's bytes are unchanged."""
    problems = []
    for args, sha, code in run_commands(commands(ref, workload), tracer):
        key = " ".join(args)
        if code != 0:
            problems.append(f"{key}: exit code {code}")
        elif sha != ref["cli"].get(key):
            problems.append(f"{key}: output bytes changed")
    return problems
