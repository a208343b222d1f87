#!/usr/bin/env python3
"""Benchmark of cdtsep: three workloads, each checked against an
independent oracle, reporting end-to-end and per-layer metrics.

    python3 bench/run.py --workload catalog-verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test   # the checkers must reject corrupted outputs
    python3 bench/run.py --smoke       # self-test, then every workload briefly

Run it from the root of a checkout: cdtsep is imported from ./src and
from nowhere else.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, measured with tracing off;
with --trace 1 they are its per-layer metrics, from a run that alternates
untraced and traced passes (the ratio of their medians is the tracing
overhead).  Spans of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from machine import Sampler, calibrate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("catalog-verify", "relabel-separate", "cli-cold")
SETUP_PROBES = 15
CHILD_TIMEOUT = 150
# The cdtsep console script, spelled out so no installation is needed.
CLI_CODE = "import sys; from cdtsep.cli import main; sys.exit(main())"
# The cli-cold mix; None stands for the graph6 text of a seeded
# relabeling of the Petersen graph.
CLI_MIX = (
    ("catalog", ("catalog",)),
    ("orient-tutte", ("orient", "tutte")),
    ("orient-petersen", ("orient", "petersen")),
    ("separator-desargues", ("separator", "desargues")),
    ("verify-k4-json", ("verify", "k4", "--json")),
    ("verify-graph6", ("verify", None)),
)
IMPORTS = ("cdtsep", "sympy", "networkx")
END_TO_END = ("pass_s", "ops_per_s", "import_s", "peak_rss_mb", "setup_s")


def load_cdtsep():
    """Import cdtsep from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cdtsep

    if Path(cdtsep.__file__).resolve().parent != SRC / "cdtsep":
        raise SystemExit(f"cdtsep was imported from {cdtsep.__file__}, not from {SRC}")
    return cdtsep


def relabel(g, rng: random.Random):
    """A uniformly random vertex relabeling of g."""
    from cdtsep.graphs import build_graph

    perm = list(range(g.order))
    rng.shuffle(perm)
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload feeds the program, made from the seed alone."""
    from cdtsep.catalog import CdtName, build_cdt, cdt_parameters
    from cdtsep.graph6 import write_graph6

    rng = random.Random(seed)
    names = list(CdtName)
    rows = {n.value: cdt_parameters(n) for n in names}
    if workload == "catalog-verify":
        return {"names": names, "rows": rows}
    if workload == "relabel-separate":
        base = {n.value: build_cdt(n)[0] for n in names}
        return {"base": base, "rows": rows, "rng": rng}
    petersen, _ = build_cdt(CdtName.PETERSEN)
    return {"rows": rows, "graph6": write_graph6(relabel(petersen, rng)),
            "names": [n.value for n in names]}


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: time importing cdtsep and
    making the inputs in this fresh interpreter, calibrating the machine
    just before and after."""
    before = calibrate()
    t0 = time.perf_counter()
    load_cdtsep()
    t1 = time.perf_counter()
    make_inputs(workload, seed)
    t2 = time.perf_counter()
    after = calibrate()
    if sys._xoptions.get("importtime"):
        # Records the lazy import is_planar pays, for import.networkx_s.
        import networkx  # noqa: F401

    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "calibration": (before + after) / 2}))


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(cmd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_child_env(),
                          timeout=CHILD_TIMEOUT)


def setup_probe(workload: str, seed: int, importtime: bool) -> dict:
    """Set-up time in a fresh interpreter that imports cdtsep and makes this
    run's inputs; with importtime, also the -X importtime cumulative times
    of cdtsep, sympy and networkx."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(HERE / "run.py"),
           "--probe-setup", "--workload", workload, "--seed", str(seed)]
    p = _run_child(cmd)
    if p.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{p.stderr[-2000:]}")
    probe = json.loads(p.stdout.splitlines()[-1])
    for line in p.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, package = line.split("|")
            if package.strip() in IMPORTS:
                probe.setdefault(f"import.{package.strip()}_s", int(cumulative) / 1e6)
    factor = scale(probe["calibration"])
    return {k: v * factor if k.endswith("_s") else v for k, v in probe.items()}


@dataclass
class Pass:
    """One pass: its wall time, the same in reference seconds (see
    machine.py) with the mean calibration behind that, its operations and
    failed operations, the spans of a traced pass, and per-call reference
    seconds (cli-cold)."""

    wall: float
    seconds: float
    calibration: float
    ops: int
    failed: int
    traced: bool = False
    spans: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads.  Each returns run_pass(tracer) -> Pass, the tracer being None on
# untraced passes.  Outputs are checked right after each timed call, outside
# the timed region.


def catalog_verify(inputs: dict, oracles: dict, problems: list):
    """The twelve-graph verification `cdtsep verify --all --json` runs."""
    import checks
    from cdtsep.report import report_from_json, report_to_json, run_report
    from spans import patched

    first: list[str] = []

    def run_pass(tracer) -> Pass:
        with patched(tracer), Sampler() as sampler:
            t0 = time.perf_counter()
            report = run_report(inputs["names"])
            text = report_to_json(report)
            wall = time.perf_counter() - t0
        found = checks.verify_pass_problems(text, report, first[0] if first else None,
                                            report_from_json, oracles, inputs["rows"])
        if not first:
            first.append(text)
        problems.extend(found)
        c = sampler.calibration
        return Pass(wall, wall * scale(c), c, 1, int(bool(found)))

    return run_pass


def separate(g, k: int):
    """The chain `cdtsep orient` and `cdtsep separator` run, with the
    graph passed through graph6 first."""
    from cdtsep.cycles import enumerate_girth_cycles, fastening_profile
    from cdtsep.graph6 import parse_graph6, write_graph6
    from cdtsep.graphs import distances, girth, is_planar
    from cdtsep.orient import OddWitness, build_constraints, classify_kappa, solve
    from cdtsep.separator import alternate_census, build_separator
    from cdtsep.topology import euler, face_complex

    h = parse_graph6(write_graph6(g))
    table = distances(h)
    glen = girth(h)
    cs = enumerate_girth_cycles(h)
    profile = fastening_profile(h, cs, k)
    outcome = solve(build_constraints(h, cs, k))
    solved = not isinstance(outcome, OddWitness)
    rec = {"n": h.order, "d": table.diameter, "g": glen, "eta": len(cs),
           "uniform": profile.uniform, "solved": solved,
           "kappa": classify_kappa(solved, is_planar(h), glen, k),
           "same_edges": h.edges() == g.edges()}
    if solved:
        s = build_separator(h, cs, k, outcome)
        census = alternate_census(s, max_r=4)
        surface = euler(face_complex(s, census))
        rec.update(order=s.order, oriented=s.oriented_cycle_count,
                   alternates=[census.simple_count(r) for r in range(1, 5)],
                   lengths=[sorted(census.simple_lengths(r)) for r in range(1, 5)],
                   chi=surface.chi, genus=surface.genus, orientable=surface.orientable,
                   faces=surface.faces)
    else:
        rec["witness_paths"] = len(outcome.paths)
    return rec, cs.cycles, outcome


def relabel_separate(inputs: dict, oracles: dict, problems: list):
    """Fresh seeded relabelings of all twelve graphs, one per graph per
    pass, each through graph6 and the orient/separator chain."""
    import checks
    from spans import patched

    rows, rng = inputs["rows"], inputs["rng"]
    seen: dict[str, tuple] = {}

    def run_pass(tracer) -> Pass:
        graphs = [(name, relabel(g, rng)) for name, g in inputs["base"].items()]
        wall, failed = 0.0, 0
        with Sampler() as sampler:
            for name, g in graphs:
                with patched(tracer):
                    t0 = time.perf_counter()
                    rec, cycles, outcome = separate(g, rows[name].k)
                    wall += time.perf_counter() - t0
                failed += _check_separate(name, g, rec, cycles, outcome)
        c = sampler.calibration
        return Pass(wall, wall * scale(c), c, len(graphs), failed)

    def _check_separate(name, g, rec, cycles, outcome) -> int:
        edges = {frozenset(e) for e in g.edges()}
        found = checks.separate_problems(rec, cycles, outcome, edges, oracles[name], rows[name])
        inv = checks.invariants(rec)
        if seen.setdefault(name, inv) != inv:
            found.append(f"invariants differ from the first labeling: {inv}")
        problems.extend(f"{name}: {p}" for p in found)
        return int(bool(found))

    return run_pass


def cli_cold(inputs: dict, oracles: dict, problems: list):
    """The CLI mix, each call in a fresh interpreter, one at a time."""
    import checks
    from spans import SPAN_MARK

    calls = [(name, [a if a is not None else inputs["graph6"] for a in args])
             for name, args in CLI_MIX]

    def run_pass(tracer) -> Pass:
        # Calibrated between calls only: a calibration running beside a
        # busy child would compete with it for a core.
        walls, scaled, cals, failed = {}, {}, [calibrate()], 0
        for name, args in calls:
            if tracer is None:
                cmd = [sys.executable, "-c", CLI_CODE, *args]
            else:
                cmd = [sys.executable, str(HERE / "spans.py"), *args]
            t0 = time.perf_counter()
            p = _run_child(cmd)
            walls[name] = time.perf_counter() - t0
            cals.append(calibrate())
            scaled[name] = walls[name] * scale((cals[-2] + cals[-1]) / 2)
            err = p.stderr.splitlines()
            if tracer is not None and err and err[-1].startswith(SPAN_MARK):
                tracer.extend(json.loads(err.pop()[len(SPAN_MARK):]))
            found = checks.cli_problems(name, p.returncode, p.stdout, oracles, inputs["rows"],
                                        inputs["names"])
            if err:
                found.append(f"stderr: {err[-1]}")
            problems.extend(f"{name}: {x}" for x in found)
            failed += bool(found)
        return Pass(sum(walls.values()), sum(scaled.values()), statistics.fmean(cals),
                    len(calls), failed, calls=scaled)

    return run_pass


def make_oracles(workload: str, inputs: dict) -> dict:
    import checks
    from cdtsep.catalog import CdtName, build_cdt

    if workload == "relabel-separate":
        return {name: checks.graph_oracle(g) for name, g in inputs["base"].items()}
    vf2 = workload == "catalog-verify"
    return {n.value: checks.graph_oracle(build_cdt(n)[0], vf2=vf2 or n is CdtName.K4)
            for n in CdtName}


WORKLOAD_PASSES = {
    "catalog-verify": catalog_verify,
    "relabel-separate": relabel_separate,
    "cli-cold": cli_cold,
}


def closed_loop(run_pass, probe, seconds: float, trace: bool) -> tuple[list[Pass], list[dict]]:
    """Passes one after another until `seconds` of wall time have been
    measured.  A traced run alternates untraced and traced passes, at
    least one each.  The SETUP_PROBES set-up probes run between passes,
    spread evenly over the run, so that they sample the machine at
    different moments."""
    from spans import Tracer

    passes: list[Pass] = []
    probes: list[dict] = []
    measured = 0.0
    while measured < seconds or (trace and len(passes) < 2):
        while len(probes) < SETUP_PROBES and measured >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        p = run_pass(tracer)
        if tracer is not None:
            p.traced, p.spans = True, tracer.spans
        passes.append(p)
        measured += p.wall
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return passes, probes


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(workload: str, passes: list[Pass], probes: list[dict]) -> dict:
    pass_s = statistics.median(p.seconds for p in passes)
    if workload == "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "pass_s": pass_s,
        "ops_per_s": passes[0].ops / pass_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def layer_names() -> set[str]:
    """Every per-layer metric the traced run can produce."""
    from cdtsep.catalog import CdtName
    from spans import TARGETS, span_name

    names = {f"{span_name(o, a)}_s" for o, a, _c, _f in TARGETS} - {"report_s"}
    names |= {f"report.{n.value}_s" for n in CdtName}
    names |= {count for *_rest, count, _f in TARGETS if count}
    names |= {f"cli.{call}_s" for call, _args in CLI_MIX}
    names |= {f"import.{package}_s" for package in IMPORTS}
    return names | {"trace.overhead_ratio", "bench.calibration_s"}


def per_layer(passes: list[Pass], probes: list[dict]) -> dict:
    """Medians over the traced passes of each pass total, times in
    reference seconds; CLI call times and the tracing overhead from the
    untraced passes of the same run."""
    from spans import pass_totals

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    totals = []
    for p in traced:
        factor = scale(p.calibration)
        totals.append({n: v * factor if n.endswith("_s") else v
                       for n, v in pass_totals(p.spans).items()})
    names = set().union(*totals)
    values = {n: statistics.median(t.get(n, 0.0) for t in totals) for n in names}
    for call in untraced[0].calls:
        values[f"cli.{call}_s"] = statistics.median(p.calls[call] for p in untraced)
    values["bench.calibration_s"] = statistics.median(p.calibration for p in passes)
    for package in IMPORTS:
        key = f"import.{package}_s"
        values[key] = statistics.median(p.get(key, 0.0) for p in probes)
    values["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                      / statistics.median(p.seconds for p in untraced))
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_cdtsep()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    known = layer_names() if trace else set(END_TO_END)
    if known != {m["name"] for m in wanted}:
        raise SystemExit(f"BENCHMARK.json and the benchmark disagree on the metric names:"
                         f" {sorted(known ^ {m['name'] for m in wanted})}")
    inputs = make_inputs(workload, seed)
    oracles = make_oracles(workload, inputs)
    problems: list[str] = []
    passes, probes = closed_loop(WORKLOAD_PASSES[workload](inputs, oracles, problems),
                                 lambda: setup_probe(workload, seed, importtime=trace),
                                 seconds, trace)
    if trace:
        values = per_layer(passes, probes)
        OUT.mkdir(exist_ok=True)
        spans = [p.spans for p in passes if p.traced]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        values = end_to_end(workload, passes, probes)
    # A layer the workload never calls reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def smoke() -> int:
    """Self-test, then each workload briefly, untraced and traced."""
    import selftest

    if selftest.main() != 0:
        return 1
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            lines = p.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = p.returncode == 0 and result.get("correct") and result.get("failed") == 0
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"attempted={result.get('attempted')}")
            if not ok:
                print(p.stderr[-2000:], file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
