import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

import zxcut
from zxcut.cli import main
from zxcut.partition import choose_k

SCHEMA_DIR = Path(zxcut.__file__).parent / "schemas"


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "zxcut.cli", *args],
                          capture_output=True, text=True, **kw)


def validator_for(name):
    schemas = {}
    for path in SCHEMA_DIR.glob("*.json"):
        schemas[path.name] = json.loads(path.read_text())
    registry = Registry().with_resources(
        (name_, Resource.from_contents(doc)) for name_, doc in schemas.items())
    return jsonschema.Draft7Validator(schemas[name], registry=registry)


def strip_wall_clock(doc):
    """Drop the documented wall-clock fields before byte comparison."""
    if isinstance(doc, dict):
        return {k: strip_wall_clock(v) for k, v in doc.items()
                if k not in ("wallSeconds", "overheadSeconds")}
    if isinstance(doc, list):
        return [strip_wall_clock(v) for v in doc]
    return doc


def test_simulate_identity(tmp_path):
    f = tmp_path / "id.zx"
    f.write_text("qubits 1\n")
    res = run_cli(["simulate", "--circuit", str(f), "--in", "0", "--out", "0"])
    assert res.returncode == 0
    assert "amplitude: +1+0i" in res.stdout


def test_methods_agree_on_random_circuit():
    amps = {}
    for method in ("direct", "naive", "smart"):
        res = run_cli(["simulate", "--random", "4,20,inf,7", "--plus",
                       "--method", method, "--json"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        amps[method] = complex(doc["amplitude"]["re"], doc["amplitude"]["im"])
    assert abs(amps["direct"] - amps["naive"]) < 1e-6
    assert abs(amps["direct"] - amps["smart"]) < 1e-6


def test_plan_only_compound_partitions():
    res = run_cli(["simulate", "--compound", "4,3,80,5,1,3", "--plus",
                   "--plan-only"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["plan"]["k"] >= 2
    assert doc["plan"]["sPrecomp"] > 0
    assert "sCrossref" in doc["plan"]
    validator_for("report.schema.json").validate(doc)


def test_plan_command_schema():
    res = run_cli(["plan", "--random", "6,60,0,3", "--plus"])
    assert res.returncode == 0
    validator_for("plan.schema.json").validate(json.loads(res.stdout))


def test_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.zx"
    f.write_text("RX 0 1.5\n")
    res = run_cli(["simulate", "--circuit", str(f), "--in", "0", "--out", "0"])
    assert res.returncode == 2


def test_missing_plug_exit_2(tmp_path):
    f = tmp_path / "id.zx"
    f.write_text("qubits 1\n")
    res = run_cli(["simulate", "--circuit", str(f)])
    assert res.returncode == 2


def test_config_with_the_removed_precompute_rate_exit_2(tmp_path):
    cfg = tmp_path / "rates.json"
    cfg.write_text('{"rDecomp": 1730, "rPrecomp": 21400}\n')
    res = run_cli(["simulate", "--random", "3,10,inf,1", "--plus",
                   "--config", str(cfg)])
    assert res.returncode == 2
    assert "rPrecomp" in res.stderr


def test_resource_cap_exit_3(tmp_path):
    cfg = tmp_path / "caps.json"
    # not a cost config: shrink caps via engine API is not CLI-exposed, so
    # instead drive a compound circuit big enough to trip the default caps
    res = run_cli(["simulate", "--compound", "5,6,230,8,1,1", "--plus",
                   "--method", "direct"])
    assert res.returncode == 3
    assert "resource cap" in res.stderr


def test_sweep_sigma_csv_schema(tmp_path):
    out = tmp_path / "s.csv"
    res = run_cli(["sweep-sigma", "--qubits", "8", "--depth", "40",
                   "--sigmas", "0,inf", "--samples", "2", "--estimate-only",
                   "--out", str(out)])
    assert res.returncode == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["sigma", "method", "mean_log2_seconds",
                       "std_log2_seconds", "samples"]
    assert len(rows) == 1 + 2 * 3


def test_sweep_heatmap_csv_schema(tmp_path):
    out = tmp_path / "h.csv"
    res = run_cli(["sweep-heatmap", "--qubits", "4..5", "--depths", "20..40:20",
                   "--sigma", "2", "--samples", "2", "--estimate-only",
                   "--out", str(out)])
    assert res.returncode == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "d", "method", "mean_log2_seconds",
                       "std_log2_seconds", "samples"]
    assert len(rows) == 1 + 4 * 3


def test_sweep_determinism_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep-sigma", "--qubits", "8", "--depth", "50", "--sigmas",
            "0,2,inf", "--samples", "3", "--estimate-only", "--seed", "5"]
    assert run_cli(args + ["--out", str(a)]).returncode == 0
    assert run_cli(args + ["--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


# projections of the sweep below, unchanged since each circuit has been
# planned once per cell
SWEEP_8_60_ESTIMATES = (
    "sigma,method,mean_log2_seconds,std_log2_seconds,samples\r\n"
    "0,direct,-10.756556,0.000000,3\r\n"
    "0,naive,-10.756556,0.000000,3\r\n"
    "0,smart,-10.756556,0.000000,3\r\n"
    "inf,direct,-7.343223,0.399110,3\r\n"
    "inf,naive,-7.637193,0.285081,3\r\n"
    "inf,smart,-7.637193,0.285081,3\r\n"
)


def test_sweep_plans_each_circuit_once(tmp_path, monkeypatch):
    # a measured cell runs every method on one plan: 6 circuits, 6 plans
    import zxcut.cli
    import zxcut.engine
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return choose_k(*args, **kwargs)

    for module in (zxcut.cli, zxcut.engine):
        monkeypatch.setattr(module, "choose_k", counting, raising=False)
    base = ["sweep-sigma", "--qubits", "8", "--depth", "60", "--sigmas", "0,inf",
            "--samples", "3"]
    assert main(base + ["--out", str(tmp_path / "measured.csv")]) == 0
    assert len(calls) == 6
    rows = list(csv.DictReader((tmp_path / "measured.csv").open()))
    assert len(rows) == 6 and all(math.isfinite(float(r["mean_log2_seconds"]))
                                  for r in rows)
    assert main(base + ["--estimate-only", "--out", str(tmp_path / "est.csv")]) == 0
    assert (tmp_path / "est.csv").read_bytes() == SWEEP_8_60_ESTIMATES.encode()


def test_simulate_json_determinism():
    docs = []
    for _ in range(2):
        res = run_cli(["simulate", "--random", "6,40,2,9", "--plus", "--json"])
        assert res.returncode == 0
        docs.append(strip_wall_clock(json.loads(res.stdout)))
    assert docs[0] == docs[1]


def test_smart_never_estimated_slower_than_direct(tmp_path):
    out = tmp_path / "h.csv"
    run_cli(["sweep-heatmap", "--qubits", "6..8", "--depths", "40..80:40",
             "--sigma", "inf", "--samples", "2", "--estimate-only",
             "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    cells = {}
    for r in rows:
        cells.setdefault((r["n"], r["d"]), {})[r["method"]] = float(
            r["mean_log2_seconds"])
    for cell in cells.values():
        assert cell["smart"] <= cell["direct"] + 1e-9


def test_force_partition_can_only_hurt(tmp_path):
    a, b = tmp_path / "free.csv", tmp_path / "forced.csv"
    base = ["sweep-sigma", "--qubits", "8", "--depth", "60", "--sigmas",
            "inf", "--samples", "3", "--estimate-only", "--seed", "2"]
    run_cli(base + ["--out", str(a)])
    run_cli(base + ["--force-partition", "--out", str(b)])
    free = {r["method"]: float(r["mean_log2_seconds"])
            for r in csv.DictReader(a.open())}
    forced = {r["method"]: float(r["mean_log2_seconds"])
              for r in csv.DictReader(b.open())}
    assert forced["naive"] >= free["naive"] - 1e-9
    assert forced["smart"] >= free["smart"] - 1e-9


def test_calibrate_writes_config(tmp_path):
    out = tmp_path / "rates.json"
    res = run_cli(["calibrate", "--out", str(out)])
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == sorted(("alpha", "rDecomp", "rCrossref", "tOverhead",
                                  "realRunThresholdSecs"))
    from zxcut.costmodel import CostModel
    cm = CostModel.load(str(out))
    assert cm.r_decomp > 0 and cm.r_crossref > 0
    assert cm.t_overhead >= 0


def test_calibrate_measures_in_the_random_t_window(tmp_path, monkeypatch):
    # the leaf rate comes from runs with enough leaves to outweigh set-up,
    # and tOverhead from planning the same diagrams
    import zxcut.cli as cli
    reports, plans = [], []
    real_run, real_plan = cli.run_plan, cli.choose_k

    def run_recording(*args, **kwargs):
        reports.append(real_run(*args, **kwargs))
        return reports[-1]

    def plan_recording(*args, **kwargs):
        plans.append(real_plan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(cli, "run_plan", run_recording)
    monkeypatch.setattr(cli, "choose_k", plan_recording)
    assert main(["calibrate", "--out", str(tmp_path / "rates.json")]) == 0
    assert len(reports) == len(plans) == 6
    for report, plan in zip(reports, plans):
        assert report.method == "direct"
        assert 12 <= report.t_count == plan.t_total <= 20


def test_calibrate_simplifies_each_candidate_once(tmp_path, monkeypatch):
    # seed 0 draws ten candidate circuits and keeps six; both measurements
    # run on the kept simplified diagrams, so nothing is simplified again,
    # and the direct runs evaluate the same leaves as when each run
    # simplified its circuit itself
    import zxcut.cli as cli
    import zxcut.engine as engine
    calls = []
    reports = []
    for module in (cli, engine):
        def counting(*args, _real=module.clifford_simplify, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "clifford_simplify", counting)
    real_run = cli.run_plan

    def run_recording(*args, **kwargs):
        reports.append(real_run(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_plan", run_recording)
    assert main(["calibrate", "--seed", "0", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 10
    assert [r.leaf_evals for r in reports] == [21, 29, 15, 17, 4, 50]
    assert [r.t_count for r in reports] == [16, 20, 13, 20, 14, 19]


def test_spec_json_input(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"random": {"qubits": 4, "depth": 20, "sigma": "inf", "seed": 7}}))
    a = run_cli(["simulate", "--spec", str(spec), "--plus", "--json"])
    b = run_cli(["simulate", "--random", "4,20,inf,7", "--plus", "--json"])
    assert a.returncode == 0
    assert (json.loads(a.stdout)["amplitude"] == json.loads(b.stdout)["amplitude"])


def test_spec_json_compound_input(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"compound": {"blocks": 2, "qubitsPerBlock": 3, "depthPerBlock": 40,
                      "externalCnots": 1, "blockSigma": 1, "seed": 5}}))
    a = run_cli(["simulate", "--spec", str(spec), "--plus", "--json"])
    b = run_cli(["simulate", "--compound", "2,3,40,1,1,5", "--plus", "--json"])
    assert a.returncode == b.returncode == 0
    assert (strip_wall_clock(json.loads(a.stdout))
            == strip_wall_clock(json.loads(b.stdout)))


def test_trace_jsonl(tmp_path):
    out = tmp_path / "trace.jsonl"
    res = run_cli(["simulate", "--random", "4,25,inf,3", "--plus",
                   "--trace", str(out)])
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        step = json.loads(line)
        assert {"rule", "spiders", "scalarDelta"} <= set(step)


def test_main_entry_in_process(capsys, tmp_path):
    f = tmp_path / "c.zx"
    f.write_text("qubits 2\nH 0\nCNOT 0 1\n")
    rc = main(["simulate", "--circuit", str(f), "--in", "00", "--out", "11"])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "amplitude" in outp


def test_trivial_sweep_cell_real_measured(tmp_path):
    # without --estimate-only a trivial cell runs for real: still one row
    # per method with finite values
    out = tmp_path / "t.csv"
    res = run_cli(["sweep-heatmap", "--qubits", "3", "--depths", "10",
                   "--sigma", "inf", "--samples", "1", "--out", str(out)])
    assert res.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    for r in rows:
        assert float(r["mean_log2_seconds"]) == float(r["mean_log2_seconds"])
