"""Build the frozen circuit pool ``catalog.json`` of the circuit workloads.

    python3 bench/catalog.py

For every class this script draws (generator seed, input plug, output plug)
candidates from a fixed stream, keeps those whose T-count after Clifford
simplification falls in the class window, and times each kept candidate
with the workload's method (the fastest of ``TIMINGS`` calls, the one least
disturbed by other work on the machine).  The candidates of all classes of a
workload are then sorted by that time together, the slowest tenth is
dropped (so that no single outlier decides the total of a run), and the
rest is cut into strata of ``STRATUM`` consecutive entries.  A benchmark
run picks one entry per stratum from its seed: a stratified sample of the
workload's time distribution, so its total and its median operation vary
little from seed to seed.

The pool is frozen on purpose.  The T-count and the time that choose an
entry come from the code as it was when the pool was built, so a later
change to simplification or planning cannot change which circuits a seed
selects: both sides of a comparison run the same inputs.  A plain random
draw of circuits, whose cost is exponential in the T-count, would vary far
more from seed to seed than the program varies from run to run.
"""
from __future__ import annotations

import json
import sys
import time

import run

run.import_program()

from numpy.random import default_rng  # noqa: E402

from zxcut import clifford_simplify, diagram_from_circuit, plug, simulate_amplitude  # noqa: E402

from workloads import CATALOG, build_circuit  # noqa: E402

STRATUM = 2  # entries per stratum; a run uses one of each
TIMINGS = 3  # calls per candidate; its time is the fastest

# name, generator parameters, T-count window after simplification, and the
# number of candidates the class adds to its workload's pool
CLASSES = {
    "random": ("smart", [
        dict(name="r12x150s0.5", kind="clifford_t", qubits=12, depth=150, sigma=0.5,
             t_window=[10, 12], candidates=24),
        dict(name="r14x200s1", kind="clifford_t", qubits=14, depth=200, sigma=1.0,
             t_window=[16, 18], candidates=40),
        dict(name="r14x200sinf", kind="clifford_t", qubits=14, depth=200, sigma="inf",
             t_window=[20, 22], candidates=28),
        dict(name="r16x300s1", kind="clifford_t", qubits=16, depth=300, sigma=1.0,
             t_window=[22, 24], candidates=28),
    ]),
    "direct": ("direct", [
        dict(name="d14x250sinf", kind="clifford_t", qubits=14, depth=250, sigma="inf",
             t_window=[26, 27], candidates=40),
        dict(name="d16x300s1", kind="clifford_t", qubits=16, depth=300, sigma=1.0,
             t_window=[26, 27], candidates=40),
    ]),
    "compound": ("smart", [
        dict(name="c3x4x100", kind="compound", blocks=3, qubits_per_block=4,
             depth_per_block=100, external_cnots=2, block_sigma=1.0,
             t_window=[28, 31], candidates=40),
        dict(name="c4x3x80", kind="compound", blocks=4, qubits_per_block=3,
             depth_per_block=80, external_cnots=2, block_sigma=1.0,
             t_window=[24, 28], candidates=40),
    ]),
}


def n_qubits(cls: dict) -> int:
    if cls["kind"] == "clifford_t":
        return cls["qubits"]
    return cls["blocks"] * cls["qubits_per_block"]


def best_time(circ, in_spec: str, out_spec: str, method: str) -> float:
    """Fastest of ``TIMINGS`` calls, so that entries of one stratum cost
    nearly the same."""
    times = []
    for _ in range(TIMINGS):
        started = time.perf_counter()
        simulate_amplitude(circ, in_spec, out_spec, method)
        times.append(time.perf_counter() - started)
    return min(times)


def screen_class(cls: dict, method: str, stream: int, index: int) -> list[list]:
    """Timed candidates [class index, generator seed, plugs, T-count, s]."""
    rng = default_rng([2024, stream])
    n = n_qubits(cls)
    lo, hi = cls["t_window"]
    pool, screened = [], 0
    while len(pool) < cls["candidates"]:
        screened += 1
        gen_seed = int(rng.integers(2 ** 31))
        in_spec = "".join("01+"[int(x)] for x in rng.integers(3, size=n))
        out_spec = "".join("01+"[int(x)] for x in rng.integers(3, size=n))
        circ = build_circuit(cls, gen_seed)
        t = clifford_simplify(plug(diagram_from_circuit(circ), in_spec, out_spec)).t_count()
        if not lo <= t <= hi:
            continue
        pool.append([index, gen_seed, in_spec, out_spec, t,
                     round(best_time(circ, in_spec, out_spec, method), 4)])
    mean = sum(e[5] for e in pool) / len(pool)
    print(f"{cls['name']}: {len(pool)} of {screened} in the T window, "
          f"mean {mean:.3f} s ({method})", file=sys.stderr)
    return pool


def main() -> int:
    catalog = {}
    stream = 0
    for workload, (method, classes) in CLASSES.items():
        pool = []
        for index, cls in enumerate(classes):
            pool += screen_class(cls, method, stream, index)
            stream += 1
        kept = len(pool) * 9 // 10 // STRATUM * STRATUM
        pool = sorted(pool, key=lambda e: e[5])[:kept]
        catalog[workload] = {
            "method": method, "classes": classes,
            "strata": [pool[i:i + STRATUM] for i in range(0, kept, STRATUM)],
        }
        print(f"{workload}: {kept // STRATUM} strata, about "
              f"{sum(e[5] for e in pool) / STRATUM:.2f} s per pass", file=sys.stderr)
    with open(CATALOG, "w") as fh:
        json.dump(catalog, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
