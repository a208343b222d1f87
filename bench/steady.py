#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same checkout, each
run with its own seed, compared metric by metric against the bounds in
BENCHMARK.json.

    python3 bench/steady.py

runs SETS sets of RUNS runs of every workload.
For each workload and end-to-end metric it prints the median of each set
and the spread of each set (distance between the first and third
quartile over the median).  A metric agrees when both spreads are within
its bound and the two medians differ by at most the bound, in either
direction, as a share of the first; a workload agrees when, in addition,
the share of failed operations is the same in both sets.  Raw results go
to .bench_out/steady.json.  Exit code 0 when everything agrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                r = run_once(spec, w, seed=1000 * s + i + 1)
                results[w][s].append(r)
                print(f"set {s + 1} {w} run {i + 1}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    agree = True
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len(set(shares)) == 1
        agree &= correct and same_share
        print(f"\n{w}: correct={correct} failed share per set={shares}")
        print(f"  {'metric':14} {'bound':>6} " + " ".join(
            f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}" for s in range(SETS))
            + "  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            ok = all(x <= bound for x in spreads)
            ok &= abs(medians[1] - medians[0]) / medians[0] <= bound
            agree &= ok
            cells = " ".join(f"{md:11.5g} {sp:8.3f}" for md, sp in zip(medians, spreads))
            print(f"  {name:14} {bound:6.2f} {cells}  {'ok' if ok else 'DISAGREE'}"
                  f"  (widest spread {max(spreads) / bound:.2f} of bound)")
    print("\nsteady" if agree else "\nNOT steady")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
