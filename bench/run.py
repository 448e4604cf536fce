"""The zxcut benchmark: one workload, one seed, one process on one thread.

    python3 bench/run.py --workload random --seed 1 --seconds 20 --trace 0

Runs whole passes over the workload's seeded operations, closed loop (the
next operation starts when the previous returns), until ``--seconds`` of
wall time have passed.  Every result is checked against an independent
computation outside the timed section; an exception or a mismatch counts
as a failed operation.  The last line of standard output of a run without
failures is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run with a failed operation prints no result and exits 1.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off, their times scaled to the reference speed of a calibration
kernel timed between operations (see ``calibrate``); with ``--trace 1``
they are the per-layer ones from spans around each layer's calls.  Both write a copy of the result, and the traced
run its spans, under ``bench/out/``.
"""
from __future__ import annotations

import os

# numpy's BLAS pool is pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def import_program():
    """Import zxcut from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "zxcut", "__init__.py")):
        raise ImportError(f"no zxcut sources under {src}")
    sys.path.insert(0, src)
    import zxcut
    if not os.path.abspath(zxcut.__file__).startswith(src + os.sep):
        raise ImportError(f"zxcut imported from {zxcut.__file__}, not {src}")


def setup(workload: str, seed: int):
    """Everything before the first timed operation: inputs and warm-up."""
    import workloads
    items = workloads.make_items(workload, seed)
    workloads.warm_up(workload)
    return items


def probe_setup(workload: str, seed: int, kernel) -> float:
    """Seconds from starting a fresh process until it is ready for its
    first timed operation (imports, input generation, warm-up), scaled to
    the reference speed by the calibration ``kernel`` run on either side."""
    k_before = kernel.seconds()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready * kernel.scale((k_before + kernel.seconds()) / 2)


class Measurement:
    def __init__(self):
        self.by_item: dict[str, list[float]] = {}  # wall s, successful operations only
        self.scaled: dict[str, list[float]] = {}  # the same at the kernel's reference speed
        self.kernel_s: list[float] = []
        self.timed_s = 0.0  # every attempt, failed ones too
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.passes = 0
        self.errors: list[str] = []


def measure(items, seconds: float, tracer=None, kernel=None) -> Measurement:
    """Whole passes over ``items`` until ``seconds`` have elapsed.  With a
    calibration ``kernel``, the kernel runs between operations, and each
    operation's time is also scaled by the mean of the kernel runs on
    either side of it (see ``calibrate``)."""
    m = Measurement()
    k_before = kernel.seconds() if kernel is not None else 0.0
    started = time.perf_counter()
    while True:
        for item in items:
            m.attempted += 1
            if tracer is not None:
                tracer.begin_op(item.label)
            t0 = time.perf_counter()
            try:
                value, projected = item.op()
            except Exception as exc:  # a failed operation is counted, the run goes on
                m.timed_s += time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op(False, None)
                m.failed += 1
                m.errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            m.timed_s += dt
            ok = item.check(value)
            if tracer is not None:
                tracer.end_op(ok, projected)
            if kernel is not None:
                k_after = kernel.seconds()
                k_s = (k_before + k_after) / 2
                k_before = k_after
                m.kernel_s.append(k_s)
            if ok:
                m.by_item.setdefault(item.label, []).append(dt)
                if kernel is not None:
                    m.scaled.setdefault(item.label, []).append(dt * kernel.scale(k_s))
            else:
                m.failed += 1
                m.mismatched += 1
                m.errors.append(f"{item.label}: got {value!r}, expected {item.expect!r}")
        m.passes += 1
        if time.perf_counter() - started >= seconds:
            return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(m: Measurement, setup_s: float) -> dict:
    """Times at the calibration kernel's reference speed; called on a run
    without failures, measured with a kernel."""
    times = [t for ts in m.scaled.values() for t in ts]
    return {
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        p.error("the following arguments are required: --seconds")
    return args


def main(argv=None) -> int:
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import calibrate
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s, kernel = 0.0, None
    if not args.trace:
        # set-up is imports and input generation: pure Python on every workload
        setup_kernel = calibrate.Kernel("python")
        setup_s = statistics.median(probe_setup(args.workload, args.seed, setup_kernel)
                                    for _ in range(SETUP_PROBES))
        kernel = calibrate.kernel_for(args.workload)
    items = setup(args.workload, args.seed)
    for item in items:
        item.attach_reference()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        m = measure(items, args.seconds, tracer, kernel)
    finally:
        if tracer is not None:
            tracer.uninstall()

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    n_ok = m.attempted - m.failed
    extra = {"passes": m.passes, "items": len(items), "timed_s": m.timed_s,
             "wall_ops_per_s": n_ok / m.timed_s if m.timed_s else 0.0,
             "errors": m.errors[:20], "op_s": m.by_item, "scaled_op_s": m.scaled,
             "kernel_s": m.kernel_s}
    if m.failed:
        # figures over a different mix of operations would not compare with
        # those of a whole run, so a run with a failed operation prints none
        with open(stem + ".json", "w") as fh:
            json.dump({"attempted": m.attempted, "failed": m.failed, "run": extra}, fh, indent=1)
        for err in m.errors[:5]:
            print(f"bench: failed: {err}", file=sys.stderr)
        print(f"bench: {m.failed} of {m.attempted} operations failed; no result", file=sys.stderr)
        return 1

    if tracer is not None:
        from spans import PER_LAYER_UNITS
        values = tracer.per_layer()
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        tracer.write_jsonl(stem + ".spans.jsonl")
        extra["precompute_leaves_per_s"] = tracer.precompute_rate()
    else:
        metrics = end_to_end(m, setup_s)
    result = {"correct": True, "attempted": m.attempted, "failed": 0, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "run": extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
