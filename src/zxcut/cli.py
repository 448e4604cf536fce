"""Command-line surface: simulate, plan, calibrate, and the benchmark
sweeps.  CSV/JSON output only; plotting is out of process.

Exit codes: 0 success, 2 parse/usage error, 3 resource cap exceeded.
Wall-clock report fields (wallSeconds, overheadSeconds) are the only
non-deterministic output for a fixed seed; sweeps in --estimate-only mode
are byte-reproducible.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time

from numpy.random import default_rng

from .circuits import Circuit, CircuitParseError, parse_circuit
from .costmodel import CostModel
from .diagram import ZxDiagram, diagram_from_circuit, plug
from .engine import (METHODS, ResourceCapError, ResourceCaps, decompose_first,
                     method_seconds, run_plan, simulate_amplitude)
from .generators import CircuitSpec, CompoundSpec, gen_clifford_t, gen_compound
from .partition import choose_k, unsplit_plan
from .regroup import Segment, regroup_all
from .simplify import clifford_simplify

EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _parse_sigma(text: str, option: str) -> float:
    """A CNOT spread: a non-negative number or inf; ``option`` names the
    flag in the error."""
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0:  # also refuses nan
        raise ValueError(f"{option} must be a non-negative number or inf, not {text!r}")
    return value


def _parse_range(text: str, option: str) -> list[int]:
    """'a..b' or 'a..b:step' (inclusive, step at least 1), or a single
    integer; ``option`` names the flag in the error for an empty range."""
    body, colon, step_s = text.partition(":")
    lo, dots, hi = body.partition("..")
    try:
        step = int(step_s) if colon else 1
        first = int(lo)
        last = int(hi) if dots else first
    except ValueError:
        raise ValueError(f"{option} must be a..b[:step] or an integer, not {text!r}") from None
    if step < 1:
        raise ValueError(f"{option} step must be at least 1, not {step}")
    if last < first:
        raise ValueError(f"{option} range {text!r} is empty")
    return list(range(first, last + 1, step))


# the fields of a --spec entry in the order of the --random and --compound values
_SPEC_FIELDS = {"random": ("qubits", "depth", "sigma", "seed"),
                "compound": ("blocks", "qubitsPerBlock", "depthPerBlock", "externalCnots",
                             "blockSigma", "seed")}
_SPEC_DEFAULTS = {"sigma": "inf", "blockSigma": 1.0, "seed": 0}


def _load_circuit(args) -> Circuit:
    spec_json = getattr(args, "spec", None)
    sources = [bool(args.circuit), bool(args.random), bool(args.compound),
               bool(spec_json)]
    if sum(sources) != 1:
        raise CircuitParseError(
            "exactly one of --circuit, --random, --compound, --spec is required")
    if args.circuit:
        with open(args.circuit) as fh:
            return parse_circuit(fh.read())
    if spec_json:
        with open(spec_json) as fh:
            doc = json.load(fh)
        kind = next((k for k in _SPEC_FIELDS if isinstance(doc, dict) and k in doc), None)
        entry = doc[kind] if kind else None
        if not isinstance(entry, dict):
            raise CircuitParseError("spec JSON needs a 'random' or 'compound' object")
        for name in _SPEC_FIELDS[kind]:
            if name not in entry and name not in _SPEC_DEFAULTS:
                raise CircuitParseError(f"spec JSON {kind!r} object needs {name!r}")
        parts = [str(entry.get(name, _SPEC_DEFAULTS.get(name))) for name in _SPEC_FIELDS[kind]]
    else:
        kind = "random" if args.random else "compound"
        parts = (args.random or args.compound).split(",")
    if kind == "random":
        if len(parts) != 4:
            raise CircuitParseError("--random needs n,d,sigma,seed")
        n, d, sigma, seed = parts
        sigma = _parse_sigma(sigma, "--spec sigma" if spec_json else "--random sigma")
        return gen_clifford_t(CircuitSpec(int(n), int(d), sigma, int(seed)))
    if len(parts) != 6:
        raise CircuitParseError("--compound needs k,q,d,next,sigmab,seed")
    k, q, d, ext, sigmab, seed = parts
    sigmab = _parse_sigma(sigmab, "--spec blockSigma" if spec_json else "--compound sigmab")
    return gen_compound(CompoundSpec(int(k), int(q), int(d), int(ext), sigmab, int(seed)))


def _plugs(args, n: int) -> tuple[str, str]:
    if args.plus:
        return "+" * n, "+" * n
    if args.inbits is None or args.outbits is None:
        raise CircuitParseError("need --in and --out bitstrings, or --plus")
    return args.inbits, args.outbits


def _load_cost_model(args) -> CostModel:
    path = args.config or os.environ.get("ZXCUT_CONFIG")
    return CostModel.load(path) if path else CostModel()


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", help="circuit text file")
    p.add_argument("--random", metavar="n,d,sigma,seed",
                   help="random Clifford+T circuit")
    p.add_argument("--compound", metavar="k,q,d,next,sigmab,seed",
                   help="compound circuit of k blocks")
    p.add_argument("--spec", help="generator spec as JSON "
                   '({"random": {...}} or {"compound": {...}})')
    p.add_argument("--in", dest="inbits", help="input bitstring (0/1/+ per qubit)")
    p.add_argument("--out", dest="outbits", help="output bitstring")
    p.add_argument("--plus", action="store_true",
                   help="plug all inputs and outputs with |+>")
    p.add_argument("--config", help="cost model config (JSON or key=value)")
    p.add_argument("--seed", type=int, default=0, help="partitioner seed")
    p.add_argument("--force-partition", action="store_true",
                   help="plan every component with the full planner and require "
                        "k >= 2 in plan selection; a smart run then skips its "
                        "per-component leaf budget, and direct ignores it")


def cmd_simulate(args) -> int:
    circ = _load_circuit(args)
    ins, outs = _plugs(args, circ.n_qubits)
    cm = _load_cost_model(args)
    trace = None
    if args.trace:
        from .simplify import Trace
        trace = Trace()
    amp, report = simulate_amplitude(
        circ, ins, outs, args.method, cm, seed=args.seed,
        force_partition=args.force_partition, plan_only=args.plan_only,
        trace=trace)
    if trace is not None:
        with open(args.trace, "w") as fh:
            for step in trace.steps:
                fh.write(json.dumps(step) + "\n")
    doc = report.to_json_dict()
    if args.json or args.plan_only:
        print(json.dumps(doc, indent=2))
    else:
        print(f"amplitude: {amp.real:+.12g}{amp.imag:+.12g}i")
        print(f"|amplitude|^2: {abs(amp) ** 2:.12g}")
        print(json.dumps(doc["counts"] | {"method": args.method,
                                          "k": doc["plan"]["k"]}, indent=2))
    return 0


def cmd_plan(args) -> int:
    circ = _load_circuit(args)
    ins, outs = _plugs(args, circ.n_qubits)
    cm = _load_cost_model(args)
    _, report = simulate_amplitude(circ, ins, outs, "smart", cm, seed=args.seed,
                                   force_partition=args.force_partition,
                                   plan_only=True)
    print(json.dumps(report.plan.to_json_dict(), indent=2))
    return 0


def _cell_seed(base: int, *parts: int) -> int:
    seed = base
    for p in parts:
        seed = (seed * 1_000_003 + p) % (2 ** 63)
    return seed


def _sigma_key(sigma: float) -> int:
    return 10 ** 9 if math.isinf(sigma) else int(round(sigma * 1000))


def _measure_cell(circ: Circuit, cm: CostModel, seed: int, estimate_only: bool,
                  force_partition: bool) -> dict[str, float]:
    """log2 seconds per method for one circuit: the projection, replaced by a
    real measured run when the projection is below the threshold.  A
    measured method's seconds are build and its run as ``zxcut simulate``
    makes it, planning included: ``decompose_first`` for an unforced
    ``smart`` run, which plans only the components that overrun, and
    otherwise ``run_plan`` on the projections' ``choose_k`` plan (for
    ``direct`` the unsplit plan, which takes no planning)."""
    plus = "+" * circ.n_qubits
    started = time.perf_counter()
    g = clifford_simplify(plug(diagram_from_circuit(circ), plus, plus))
    built = time.perf_counter() - started
    plan = choose_k(g, cm, seed=seed, force_partition=force_partition)
    out = {}
    for method, seconds in method_seconds(plan, cm).items():
        if not estimate_only and seconds < cm.real_run_threshold_secs:
            try:
                if method == "smart" and not force_partition:
                    run = decompose_first(g, cm, ResourceCaps(), seed)
                    seconds = built + run.wall_seconds
                else:
                    run_on = unsplit_plan(g, cm) if method == "direct" else plan
                    run = run_plan(g, run_on, method, cm, ResourceCaps())
                    seconds = built + run_on.overhead_seconds + run.wall_seconds
            except ResourceCapError:
                pass
        out[method] = cm.log2_seconds(seconds)
    return out


def _sweep_cell(args, cm: CostModel, n: int, d: int, sigma: float,
                force_partition: bool) -> list[list]:
    """[method, mean, std dev, samples] of log2 seconds per method over the
    cell's seeded random circuits."""
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, not {args.samples}")
    per_method: dict[str, list[float]] = {m: [] for m in METHODS}
    for i in range(args.samples):
        seed = _cell_seed(args.seed, n, d, _sigma_key(sigma), i)
        circ = gen_clifford_t(CircuitSpec(n, d, sigma, seed))
        cell = _measure_cell(circ, cm, args.seed, args.estimate_only, force_partition)
        for m, v in cell.items():
            per_method[m].append(v)
    return [[m, f"{statistics.fmean(vals):.6f}", f"{statistics.pstdev(vals):.6f}",
             len(vals)] for m, vals in per_method.items()]


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def cmd_sweep_heatmap(args) -> int:
    cm = _load_cost_model(args)
    sigma = _parse_sigma(args.sigma, "--sigma")
    depths = _parse_range(args.depths, "--depths")
    rows = []
    for n in _parse_range(args.qubits, "--qubits"):
        for d in depths:
            rows += [[n, d, *row] for row in
                     _sweep_cell(args, cm, n, d, sigma, force_partition=False)]
    _write_csv(args.out, ["n", "d", "method", "mean_log2_seconds",
                          "std_log2_seconds", "samples"], rows)
    return 0


def cmd_sweep_sigma(args) -> int:
    cm = _load_cost_model(args)
    rows = []
    for sigma_text in args.sigmas.split(","):
        sigma = _parse_sigma(sigma_text, "--sigmas")
        rows += [[sigma_text, *row] for row in
                 _sweep_cell(args, cm, args.qubits, args.depth, sigma,
                             args.force_partition)]
    _write_csv(args.out, ["sigma", "method", "mean_log2_seconds",
                          "std_log2_seconds", "samples"], rows)
    return 0


def _leaf_rate(reports) -> float:
    """Projected leaves (each plan's ``s_decomp``) per second of the reports'
    run time outside planning, so that the cost model reproduces the seconds
    the runs took.  The leaves actually evaluated would not: a tree that
    ends in dense leaves evaluates far fewer than ``2^(alpha*t)``."""
    leaves = sum(r.plan.s_decomp for r in reports)
    seconds = sum(r.wall_seconds - r.overhead_seconds for r in reports)
    return max(leaves / max(seconds, 1e-9), 1e-6)


# calibration circuits: the direct workload's 14-qubit shape, with simplified
# T-counts above decompose.DENSE_MAX_SPIDERS, so that every run's tree
# branches and its nodes, not one dense leaf, outweigh its set-up
CALIBRATE_QUBITS, CALIBRATE_DEPTH, CALIBRATE_SIGMA = 14, 250, math.inf
CALIBRATE_T = (27, 31)


def _calibration_diagrams(rng, count: int = 6) -> list[ZxDiagram]:
    """Simplified scalar diagrams of seeded circuits whose T-counts fall in
    ``CALIBRATE_T``; each candidate is simplified once."""
    plugs = "+" * CALIBRATE_QUBITS
    diagrams = []
    while len(diagrams) < count:
        circ = gen_clifford_t(CircuitSpec(CALIBRATE_QUBITS, CALIBRATE_DEPTH, CALIBRATE_SIGMA,
                                          int(rng.integers(2 ** 31))))
        g = clifford_simplify(plug(diagram_from_circuit(circ), plugs, plugs))
        if CALIBRATE_T[0] <= g.t_count() <= CALIBRATE_T[1]:
            diagrams.append(g)
    return diagrams


def cmd_calibrate(args) -> int:
    """Measure local calculation rates and write them as a config file.

    rDecomp is projected leaves, ``2^(alpha*t)`` at the configured alpha,
    per second of plain decomposition, read from the ``direct`` reports of
    ``run_plan`` on six simplified seeded diagrams with T-counts in
    ``CALIBRATE_T``; tOverhead is the mean time of ``choose_k`` on the same
    diagrams.  rCrossref times ``regroup_all`` on synthetic 2^10-entry
    tables.
    """
    cm = CostModel()
    rng = default_rng(args.seed)
    diagrams = _calibration_diagrams(rng)
    direct = [run_plan(g, unsplit_plan(g, cm), "direct", cm, ResourceCaps())
              for g in diagrams]
    plans = [choose_k(g, cm, seed=args.seed) for g in diagrams]

    tables = []
    for s in range(6):
        vals = rng.standard_normal(2 ** 10) + 1j * rng.standard_normal(2 ** 10)
        params = tuple(range(s, s + 10))
        tables.append(Segment.from_array(params, vals, 0))
    t0 = time.perf_counter()
    result = regroup_all(tables)
    r_crossref = max(result.s_crossref / max(time.perf_counter() - t0, 1e-9), 1e-6)

    calibrated = CostModel(
        alpha=cm.alpha,
        r_decomp=_leaf_rate(direct),
        r_crossref=r_crossref,
        t_overhead=statistics.fmean(p.overhead_seconds for p in plans),
        real_run_threshold_secs=cm.real_run_threshold_secs,
    )
    if args.out:
        calibrated.save(args.out)
    print(json.dumps(calibrated.to_config(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zxcut",
        description="Strong Clifford+T simulation by partitioned ZX reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="compute one amplitude")
    _add_circuit_args(p)
    p.add_argument("--method", choices=METHODS, default="smart")
    p.add_argument("--plan-only", action="store_true",
                   help="show the full planner's plan and estimate without running "
                        "(a run reports the plan it ran: an unforced smart run "
                        "plans only the components that overrun its leaf budget)")
    p.add_argument("--json", action="store_true", help="full JSON report")
    p.add_argument("--trace", metavar="FILE",
                   help="write the initial simplification's rewrite steps as JSON lines")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plan", help="print the full planner's partition plan as JSON "
                       "(an unforced smart run plans only the components that "
                       "overrun its leaf budget, and reports the plan it ran)")
    _add_circuit_args(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("calibrate", help="measure local calculation rates")
    p.add_argument("--out", help="write the measured config here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep-heatmap", help="depth x qubits grid of log2 runtimes")
    p.add_argument("--qubits", required=True, help="range a..b[:step]")
    p.add_argument("--depths", required=True, help="range a..b[:step]")
    p.add_argument("--sigma", default="inf")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--estimate-only", action="store_true")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep_heatmap)

    p = sub.add_parser("sweep-sigma", help="log2 runtimes against CNOT spread")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--sigmas", required=True, help="comma list, e.g. 0,1,2,inf")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--force-partition", action="store_true",
                   help="require k >= 2 in plan selection; a measured smart cell "
                        "then runs that plan without the per-component leaf budget")
    p.add_argument("--estimate-only", action="store_true")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep_sigma)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CircuitParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        print(json.dumps(exc.plan.to_json_dict(), indent=2))
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
