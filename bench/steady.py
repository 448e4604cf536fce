"""Show that the benchmark is steady: two sets of runs of the same commit.

    python3 bench/steady.py [--workloads random,tables]

Runs the command of ``BENCHMARK.json`` once per seed and workload: set 1 on
seeds 1-10, set 2 on seeds 11-20.  The two sets are interleaved seed by
seed, and which set runs first alternates (1 2 2 1 1 2 ...), so that a slow
or fast period of the machine falls on both sets rather than on one.
For every workload and end-to-end metric it reports each set's median and
quartiles, the spread (distance between the quartiles over the median, from
``statistics.quantiles(values, n=4)``) against the metric's bound, and the
shift: how far set 2's median moved from set 1's in the worse direction.
It also reports each set's share of failed operations, which must be equal.
The table is printed as markdown; the raw runs go to ``bench/out/steady.json``.
Exits 1 if any spread or the size of any shift exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set and workload
SET_SEEDS = (range(1, 1 + RUNS), range(1 + RUNS, 1 + 2 * RUNS))
RUN_TIMEOUT_S = 900


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs: dict[str, list[list[dict]]] = {w: [[], []] for w in names}
    started = time.perf_counter()
    for i in range(RUNS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for w in names:
            for s in order:
                runs[w][s].append(run_once(bench["command"], w, SET_SEEDS[s][i],
                                           bench["run_seconds"]))
        print(f"seed pair {i + 1}/{RUNS}: {time.perf_counter() - started:.0f} s", file=sys.stderr)

    report, ok = {}, True
    lines = ["| workload | metric | bound | set 1 median [q1, q3] | spread "
             "| set 2 median [q1, q3] | spread | shift |", "|" + "---|" * 8]
    for w in names:
        report[w] = {}
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs[w]]
        report[w]["failed_share"] = shares
        ok &= shares[0] == shares[1]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarise([r["metrics"][name]["value"] for r in rs]) for rs in runs[w]]
            first, second = sets[0]["median"], sets[1]["median"]
            shift = (second - first) / first if m["better"] == "lower" else (first - second) / first
            report[w][name] = {"sets": sets, "shift": shift, "bound": bound}
            ok &= all(st["spread"] <= bound for st in sets) and abs(shift) <= bound
            cells = " | ".join(f"{st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] | {st['spread']:.3f}"
                               for st in sets)
            lines.append(f"| {w} | {name} | {bound} | {cells} | {shift:+.3f} |")
        lines.append(f"| {w} | failed share | - | {shares[0]:.4g} | - | {shares[1]:.4g} | - | - |")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"runs": runs, "report": report, "steady": ok}, fh, indent=1)
    print("\n".join(lines))
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
