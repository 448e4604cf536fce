"""Tests of the benchmark itself: its checks catch wrong results, its
independent references agree with the repository's oracles, its inputs
depend on the seed alone, and its tracer leaves the program as it found it."""
from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import run

run.import_program()

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import zxcut  # noqa: E402
from zxcut import (Circuit, CircuitSpec, gen_clifford_t, naive_global_sum,  # noqa: E402
                   plan_schedule, regroup_all, statevector_amplitude)
from zxcut.regroup import NUMPY_TABLE_THRESHOLD  # noqa: E402


def small_circuit_item(method="smart"):
    circ = gen_clifford_t(CircuitSpec(6, 40, math.inf, 3))
    item = workloads.circuit_item("small", circ, "0+1+01", "+10+1+", method)
    item.attach_reference()
    return item


def small_table_item():
    rng = np.random.default_rng(5)
    segs = workloads.random_segments(workloads.network_param_sets("ring", 4, 2), rng)
    item = workloads.table_item("ring/4/2", segs)
    item.attach_reference()
    return item


def corrupt(item):
    op = item.op

    def wrong():
        value, projected = op()
        return value * 1.01 + 1e-6, projected
    item.op = wrong
    return item


@pytest.mark.parametrize("make", [small_circuit_item, small_table_item])
def test_correct_result_passes(make):
    m = run.measure([make()], seconds=0)
    assert (m.attempted, m.failed, m.mismatched, len(m.by_item)) == (1, 0, 0, 1)


@pytest.mark.parametrize("make", [small_circuit_item, small_table_item])
def test_corrupted_result_counts_as_failed(make):
    m = run.measure([corrupt(make())], seconds=0)
    assert (m.attempted, m.failed, m.mismatched, m.by_item) == (1, 1, 1, {})


def test_run_with_a_failed_operation_prints_no_result(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "make_items", lambda w, s: [corrupt(small_table_item())])
    monkeypatch.setattr(workloads, "warm_up", lambda w: None)
    code = run.main(["--workload", "tables", "--seed", "0", "--seconds", "0", "--trace", "1"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_amplitude_above_one_counts_as_failed():
    item = small_circuit_item()
    item.expect, item.tol = 1.5, 1.0
    assert not item.check(1.5 + 0j)


def test_exception_counts_as_failed_without_a_mismatch():
    item = small_circuit_item()

    def boom():
        raise zxcut.ResourceCapError("decompose", 2.0, 1.0, None)
    item.op = boom
    m = run.measure([item], seconds=0)
    assert (m.attempted, m.failed, m.mismatched) == (1, 1, 0)


@pytest.mark.parametrize("seed", range(4))
def test_dense_amplitude_matches_oracle(seed):
    circ = gen_clifford_t(CircuitSpec(7, 60, 1.0, seed))
    for g in ("H", "X", "Sdg", "Z"):
        circ.add(g, seed % 7)
    rng = np.random.default_rng(seed)
    a, b = ("".join("01+"[int(x)] for x in rng.integers(3, size=7)) for _ in range(2))
    assert abs(workloads.dense_amplitude(circ, a, b) - statevector_amplitude(circ, a, b)) < 1e-12


def test_dense_amplitude_bell_pair():
    circ = Circuit(2)
    circ.add("H", 0)
    circ.add("CNOT", 0, 1)
    assert abs(workloads.dense_amplitude(circ, "00", "11") - 1 / math.sqrt(2)) < 1e-15


@pytest.mark.parametrize("shape,m,w", [("ring", 4, 2), ("star", 3, 2), ("open", 4, 2)])
def test_einsum_reference_matches_naive_sum_and_regroup(shape, m, w):
    segs = workloads.random_segments(workloads.network_param_sets(shape, m, w),
                                     np.random.default_rng(m * w))
    value, tol = workloads.einsum_reference(segs)
    assert abs(value - naive_global_sum(segs)) <= tol
    assert abs(value - regroup_all(segs).value.to_complex()) <= tol


def test_networks_straddle_the_numpy_threshold():
    steps = [p for shape, m, w in workloads.NETWORKS
             for _, _, p in plan_schedule([set(ps) for ps in
                                           workloads.network_param_sets(shape, m, w)])[0]]
    assert min(2 ** p for p in steps) < NUMPY_TABLE_THRESHOLD <= max(2 ** p for p in steps)
    assert max(steps) <= 22


def test_inputs_depend_only_on_the_seed():
    labels = [i.label for i in workloads.make_items("random", 3)]
    assert labels == [i.label for i in workloads.make_items("random", 3)]
    assert labels != [i.label for i in workloads.make_items("random", 4)]
    a = workloads.make_items("tables", 3)[0].reference()
    assert a == workloads.make_items("tables", 3)[0].reference()


def test_tracer_records_layers_and_restores_the_program():
    original = zxcut.engine.choose_k
    item = small_circuit_item()
    tracer = spans.Tracer()
    tracer.install()
    try:
        m = run.measure([item], seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert zxcut.engine.choose_k is original
    assert m.failed == 0
    layer = tracer.per_layer()
    assert set(layer) == set(spans.PER_LAYER_UNITS)
    assert layer["simplify.calls"] >= 1 and layer["partition.s"] > 0
    assert layer["decompose.leaves"] >= 1
    for s in tracer.spans:
        assert s.self_s >= -1e-9


def test_benchmark_json_lists_the_metrics_the_runs_print():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS
    m = run.Measurement()
    m.scaled["one"] = [0.2, 0.1]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.end_to_end(m, 0.0))


def test_end_to_end_times_are_the_scaled_ones():
    m = run.Measurement()
    m.by_item = {"a": [9.0, 9.0], "b": [9.0]}
    m.scaled = {"a": [0.3, 0.1], "b": [0.4]}
    e2e = run.end_to_end(m, 0.5)
    assert e2e["op_s.p50"]["value"] == 0.3
    assert abs(e2e["ops_per_s"]["value"] - 3 / 0.8) < 1e-12


@pytest.mark.parametrize("workload,kind", [("random", "python"), ("tables", "numpy")])
def test_calibration_kernel_scales_to_its_reference(workload, kind):
    kernel = calibrate.kernel_for(workload)
    assert kernel.kind == kind
    assert kernel.scale(calibrate.REF_S[kind]) == 1.0
    assert kernel.scale(2 * calibrate.REF_S[kind]) == 0.5
    assert kernel.seconds() > 0


def test_measure_scales_each_operation_by_the_kernel_around_it():
    class FixedKernel:
        times = iter([1.0, 3.0, 5.0])

        def seconds(self):
            return next(self.times)

        def scale(self, kernel_s):
            return 1 / kernel_s
    items = [small_table_item(), small_table_item()]
    items[1].label = "second"
    m = run.measure(items, seconds=0, kernel=FixedKernel())
    assert m.kernel_s == [2.0, 4.0]
    assert m.scaled["ring/4/2"] == [m.by_item["ring/4/2"][0] / 2.0]
    assert m.scaled["second"] == [m.by_item["second"][0] / 4.0]
