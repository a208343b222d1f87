"""Self-test of the benchmark's checkers: genuine outputs must pass, and
each output corrupted on purpose must be counted as failed.

    python3 bench/run.py --self-test
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import random


def _cli_output(args) -> tuple[int, str]:
    from cdtsep.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def _set(data, graph, check, **changes):
    data = copy.deepcopy(data)
    for r in data["reports"]:
        for c in r["checks"]:
            if r["graph"] == graph and c["name"] == check:
                c.update(changes)
    return data


def cases():
    """(label, expected to pass, problems found) for every case."""
    import checks
    import run
    from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
    from cdtsep.report import report_from_json, report_to_json, run_report

    names = [CdtName.K4, CdtName.K33, CdtName.PETERSEN, CdtName.DESARGUES]
    rows = {n.value: cdt_parameters(n) for n in CdtName}
    oracles = {n.value: checks.graph_oracle(build_cdt(n)[0], vf2=n in names) for n in CdtName}

    report = run_report(names)
    text = report_to_json(report)
    data = json.loads(text)
    yield "genuine report", True, checks.verify_pass_problems(
        text, report, text, report_from_json, oracles, rows)
    yield "JSON differs between passes", False, checks.verify_pass_problems(
        text, report, text.replace('"k4"', '"K4"'), report_from_json, oracles, rows)
    wrong_chi = _set(data, "k4", "euler-characteristic", actual=0)
    yield "wrong chi", False, checks.report_problems(wrong_chi, oracles, rows)
    extra = _set(data, "petersen", "hamiltonian", status="mismatch")
    yield "extra mismatch", False, checks.report_problems(extra, oracles, rows)
    unflagged = _set(data, "desargues", "transposition-edge-count", status="match")
    yield "missing flag", False, checks.report_problems(unflagged, oracles, rows)
    skipped = _set(data, "k33", "automorphism-order", status="skipped")
    yield "skipped check", False, checks.report_problems(skipped, oracles, rows)
    wrong_aut = _set(data, "desargues", "automorphism-order", actual=480)
    yield "wrong automorphism order", False, checks.report_problems(wrong_aut, oracles, rows)

    rng = random.Random(7)
    for name in ("k4", "petersen", "desargues"):
        g = run.relabel(build_cdt(CdtName.from_string(name))[0], rng)
        edges = {frozenset(e) for e in g.edges()}
        rec, cycles, outcome = run.separate(g, rows[name].k)

        def verdict(rec=rec, cycles=cycles, outcome=outcome):
            return checks.separate_problems(rec, cycles, outcome, edges, oracles[name],
                                            rows[name])

        yield f"genuine relabeled {name}", True, verdict()
        if rec["solved"]:
            yield f"{name} wrong separator order", False, verdict(rec={**rec, "order": 1})
            yield f"{name} wrong chi", False, verdict(rec={**rec, "chi": rec["chi"] - 2})
            flips = (not outcome.flips[0],) + outcome.flips[1:]
            yield f"{name} broken assignment", False, verdict(
                outcome=dataclasses.replace(outcome, flips=flips))
        else:
            parities = (not outcome.parities[0],) + outcome.parities[1:]
            yield f"{name} witness parity flipped", False, verdict(
                outcome=dataclasses.replace(outcome, parities=parities))
            yield f"{name} witness path dropped", False, verdict(
                outcome=dataclasses.replace(outcome, paths=outcome.paths[1:],
                                            cycle_ids=outcome.cycle_ids[1:],
                                            parities=outcome.parities[1:]))
        yield f"{name} cycle missing", False, verdict(cycles=cycles[1:])
    labelings = [run.separate(run.relabel(build_cdt(CdtName.K33)[0], rng), 3)[0]
                 for _ in range(2)]
    same = checks.invariants(labelings[0]) == checks.invariants(labelings[1])
    yield "invariants agree across labelings", True, [] if same else ["differ"]
    changed = checks.invariants({**labelings[1], "alternates": [9, 12, 0, 0]})
    yield "changed invariant detected", False, (
        [] if changed == checks.invariants(labelings[0]) else ["differ"])

    names_12 = [n.value for n in CdtName]
    graph6 = run.make_inputs("cli-cold", 3)["graph6"]
    for call, args in run.CLI_MIX:
        args = [a if a is not None else graph6 for a in args]
        code, out = _cli_output(args)
        yield f"genuine cli {call}", True, checks.cli_problems(call, code, out, oracles, rows,
                                                               names_12)
        yield f"cli {call} wrong exit code", False, checks.cli_problems(
            call, 2, out, oracles, rows, names_12)
        if call == "catalog":
            short = "\n".join(out.splitlines()[:-1])
            yield "catalog row missing", False, checks.cli_problems(
                call, code, short, oracles, rows, names_12)
            # Petersen's row with k 3 -> 4 and aut 120 -> 240: consistent
            # with each other, but not with the catalog's k.
            wrong_k = out.replace(" 10  2  5  3   12   120", " 10  2  5  4   12   240")
            yield "catalog wrong k and matching aut", False, checks.cli_problems(
                call, code, wrong_k, oracles, rows, names_12)
            wrong_kappa = "\n".join(out.splitlines()[:-1] + [out.splitlines()[-1][:-1] + "9"])
            yield "catalog wrong kappa", False, checks.cli_problems(
                call, code, wrong_kappa, oracles, rows, names_12)
        if call == "separator-desargues":
            yield "desargues vertices 121", False, checks.cli_problems(
                call, code, out.replace("vertices 120", "vertices 121"), oracles, rows, names_12)
        if call == "verify-graph6":
            yield "graph6 verify wrong k", False, checks.cli_problems(
                call, code, out.replace("'k': 3", "'k': 4"), oracles, rows, names_12)
        if call == "orient-petersen":
            yield "petersen witness parity", False, checks.cli_problems(
                call, code, out.replace("(even)", "(odd)", 1), oracles, rows, names_12)


def main() -> int:
    import run

    run.load_cdtsep()
    bad = 0
    for label, should_pass, problems in cases():
        ok = (not problems) == should_pass
        bad += not ok
        print(f"self-test {'ok  ' if ok else 'FAIL'} {label}"
              + ("" if ok else f": {problems[:3] or 'corruption not detected'}"))
    print(f"self-test: {bad} of the checker cases wrong")
    return 1 if bad else 0
