"""Reference figures for the README, not metrics of the benchmark.

    python3 bench/compare.py [--seed 1]

1. Measured ``smart`` against ``direct`` seconds on the same circuits: both
   methods once on every circuit of each circuit workload's seeded input
   list, summed per class, with the count of circuits on which ``smart``
   was faster.
2. Tracing overhead: traced and untraced passes over each workload's
   operations, alternated in one process and timed at the calibration
   kernel's reference speed, so that a drift of the machine's speed does
   not enter the comparison.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

import run

OVERHEAD_ROUNDS = 5


def smart_vs_direct(workload: str, seed: int) -> None:
    import workloads
    from zxcut import simulate_amplitude
    rows: dict[str, list[tuple[float, float]]] = {}
    for label, circ, a, b in workloads.circuit_inputs(workload, seed):
        secs = []
        for method in ("smart", "direct"):
            t0 = time.perf_counter()
            simulate_amplitude(circ, a, b, method)
            secs.append(time.perf_counter() - t0)
        rows.setdefault(label.split("/")[0], []).append(tuple(secs))
    for name, secs in rows.items():
        smart = sum(s for s, _ in secs)
        direct = sum(d for _, d in secs)
        faster = sum(1 for s, d in secs if s < d)
        print(f"| {workload} | {name} | {len(secs)} | {smart:.3f} | {direct:.3f} | "
              f"{faster}/{len(secs)} |")


def tracing_overhead(workload: str, seed: int) -> None:
    import calibrate
    from spans import Tracer
    items = run.setup(workload, seed)
    for item in items:
        item.attach_reference()
    kernel = calibrate.kernel_for(workload)

    def pass_s(tracer=None) -> float:
        m = run.measure(items, 0, tracer, kernel)
        return sum(t for ts in m.scaled.values() for t in ts)

    plain, traced = [], []
    for _ in range(OVERHEAD_ROUNDS):
        plain.append(pass_s())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(pass_s(tracer))
        finally:
            tracer.uninstall()
    p, t = statistics.median(plain), statistics.median(traced)
    print(f"| {workload} | {p:.3f} | {t:.3f} | {100 * (t / p - 1):+.1f}% |")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    run.import_program()
    sys.path.insert(0, run.HERE)

    print("| workload | class | circuits | smart s | direct s | smart faster |")
    print("|---|---|---|---|---|---|")
    for workload in ("random", "direct", "compound"):
        smart_vs_direct(workload, args.seed)
    print(f"\nTracing overhead, median of {OVERHEAD_ROUNDS} alternated passes:\n")
    print("| workload | untraced pass s (scaled) | traced pass s (scaled) | overhead |")
    print("|---|---|---|---|")
    for workload in ("random", "direct", "compound", "tables"):
        tracing_overhead(workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
