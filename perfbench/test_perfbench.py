"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import worker
from tracer import FUNCTION_LAYERS, LAYER_METRICS, OPTIMIZER_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit(trace, section):
    proc = run_bench("--workload", "sweep-cnot", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 + trace) * 3 * worker.SWEEP_INPUTS_PER_GATE
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = dict(want, **(OPTIMIZER_METRICS if trace else {}))
    for name, unit in printed.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    assert any(line.startswith("fail_frac 0 ") for line in lines)
    context = json.loads(lines[0])["context"]
    for key in ("python", "numpy", "scipy", "nproc", "seed", "ops_per_pass",
                "op_samples_beyond_p99"):
        assert key in context
    assert set(context["samples"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(worker.WORKLOADS)


def test_mesh_evaluate_at_tiny_size(monkeypatch):
    monkeypatch.setattr(worker, "MESH_OPS", 3)
    monkeypatch.setattr(worker, "MESH_BATCH", 2)
    ops = worker.mesh_evaluate_ops(seed=2, pass_index=0)
    out = worker.run_ops(ops)
    assert len(out["op_s"]) == 3 and out["failed"] == 0, out["errors"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "sweep-cnot", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- checks count a corrupted result as a failed operation ---------------------------


def _op_returning(result, check):
    return worker.Op("tampered", lambda: result, check)


def test_gate_report_check():
    from fredkinlab import analysis
    from fredkinlab.catalog import get_gate

    report = analysis.gate_report(get_gate("cnot-ralph"))
    assert worker.run_ops([_op_returning(report, worker.check_gate_report)])["failed"] == 0
    report.probabilities[2] += 1e-11
    out = worker.run_ops([_op_returning(report, worker.check_gate_report)])
    assert out["failed"] == 1 and "probability off" in out["errors"][0]
    assert len(out["op_s"]) == 1


def test_cnot_run_check():
    from fredkinlab.catalog import get_gate
    from fredkinlab.circuits import run
    from fredkinlab.fock import LogicalAmplitudes

    info = get_gate("cnot-pittman")
    circuit = info.build()
    amps = LogicalAmplitudes.random(2, np.random.default_rng(5))

    def outcome(tamper=None):
        res = run(circuit, amps)
        if tamper:
            tamper(res)
        check = lambda r: worker.check_cnot_run(info, circuit, amps, r)
        return worker.run_ops([_op_returning(res, check)])

    def nudge_amplitude(res):
        key = max(res.state.amps, key=lambda k: abs(res.state.amps[k]))
        res.state.amps[key] += 1e-8

    def set_probability(res):
        res.probability += 1e-11

    assert outcome()["failed"] == 0
    assert "amplitude off" in outcome(nudge_amplitude)["errors"][0]
    assert "probability" in outcome(set_probability)["errors"][0]


def test_mesh_evaluation_check():
    from fredkinlab import analysis

    batch = np.array([[0.3, -1.1, 2.0, 0.7], [-2.5, 0.4, 1.2, 1.1]])
    results = [analysis.PROBLEMS["simplified-cnot"].evaluate(x) for x in batch]
    check = lambda r: worker.check_mesh_evaluations(batch, r)
    assert worker.run_ops([_op_returning(results, check)])["failed"] == 0
    (p, fid) = results[1]
    for tampered in ((p + 1e-11, fid), (p, fid - 1e-11)):
        out = worker.run_ops([_op_returning([results[0], tampered], check)])
        assert out["failed"] == 1 and "evaluator off" in out["errors"][0]


def test_optimize_check():
    from fredkinlab import analysis
    from fredkinlab.circuits import SIMPLIFIED_CNOT_PARAMS

    def outcome(params):
        p, fid = analysis.PROBLEMS["simplified-cnot"].evaluate(np.array(params))
        out = analysis.OptimizeOutcome("simplified-cnot", np.array(params), p, fid,
                                       True, 1.0 - fid, 1, 0)
        return out, analysis.reverify_outcome(out)

    exact = outcome(SIMPLIFIED_CNOT_PARAMS)
    assert worker.run_ops([_op_returning(exact, worker.check_optimize)])["failed"] == 0
    off = outcome(np.array(SIMPLIFIED_CNOT_PARAMS) + [1e-7, 0, 0, 0])
    out = worker.run_ops([_op_returning(off, worker.check_optimize)])
    assert out["failed"] == 1


def test_raising_operation_is_timed_and_failed():
    def boom():
        raise ValueError("bad input")

    out = worker.run_ops([worker.Op("boom", boom, worker.check_gate_report)])
    assert out["failed"] == 1 and len(out["op_s"]) == 1
    assert "ValueError: bad input" in out["errors"][0]


def test_optimize_mesh_workload_runs_at_tiny_size():
    ops = worker.optimize_mesh_ops(seed=1, pass_index=0, restarts=1)
    out = worker.run_ops(ops)
    assert len(out["op_s"]) == 1 and out["wall_s"] > 0


# -- tracing ----------------------------------------------------------------------------


@pytest.fixture
def tracer():
    import fredkinlab.cli  # noqa: F401  -- loads every module the tracer binds into

    t = Tracer()
    yield t
    t.uninstall()


def test_aliases_share_one_wrapper(tracer):
    from fredkinlab import analysis, circuits, elements, engine

    original = elements.compose
    tracer.install()
    assert elements.compose is circuits.compose is analysis._compose
    assert elements.compose is not original
    assert engine.apply_unitary is circuits.apply_unitary
    tracer.uninstall()
    assert elements.compose is circuits.compose is analysis._compose is original


def test_nested_spans_and_counts(tracer):
    from fredkinlab import analysis, circuits
    from fredkinlab.catalog import get_gate
    from fredkinlab.fock import LogicalAmplitudes

    tracer.install()
    tracer.active = True
    circuit = get_gate("cnot-pittman").build()  # set-up: op is still -1
    tracer.op = 0
    circuits.run(circuit, LogicalAmplitudes.basis(2, 3))
    analysis.optimize_gate("identity", restarts=1)
    tracer.active = False

    spans = [s for s in tracer.spans if s is not None]
    by_index = dict(enumerate(tracer.spans))
    nested = [s for s in spans if s[0] == "engine.apply_unitary" and s[3] >= 0
              and by_index[s[3]][0] == "engine.measure_and_feedforward"]
    assert nested, "+/- basis rotation inside feed-forward is a child span"

    figures = tracer.layer_figures()
    assert set(figures) == set(LAYER_METRICS) | set(OPTIMIZER_METRICS)
    assert figures["circuits.run.calls"] == 1
    assert figures["catalog.build.self_s"] > 0
    assert figures["engine.measure_and_feedforward.branches"] > 0
    assert 0 < figures["engine.measure_and_feedforward.accepted_frac"] < 1
    assert figures["analysis.evaluate.calls"] > 0
    assert figures["analysis.evals_per_s"] > 0
    assert figures["analysis.optimize_gate.self_s"] > 0
    # set-up counts only as the whole of catalog.build, its compose included
    build = [s for s in spans if s[0] == "catalog.build"]
    assert len(build) == 1 and build[0][4] == -1
    assert figures["catalog.build.self_s"] == build[0][2] - build[0][1]
    setup_compose = [s for s in spans if s[0] == "elements.compose" and s[4] < 0]
    assert setup_compose
    assert figures["elements.compose.calls"] == sum(
        1 for s in spans if s[0] == "elements.compose") - len(setup_compose)
    total = sum(s[2] - s[1] for s in spans if s[3] < 0)
    self_total = sum(v for k, v in figures.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(total, rel=1e-9)


def test_missing_layer_reports_zero_calls(tracer):
    from fredkinlab import circuits
    from fredkinlab.catalog import get_gate
    from fredkinlab.fock import LogicalAmplitudes

    layers = [l for l in FUNCTION_LAYERS if l[0] != "engine.post_select_any"]
    layers.append(("engine.post_select_any", "fredkinlab.engine", "renamed_away"))
    found = tracer.install(layers)
    assert "engine.post_select_any" not in found
    tracer.active = True
    tracer.op = 0
    circuits.run(get_gate("cnot-ralph").build(), LogicalAmplitudes.basis(2, 0))
    figures = tracer.layer_figures()
    assert figures["engine.post_select_any.calls"] == 0
    assert figures["engine.post_select_any.kept_frac"] == 0.0
    assert figures["circuits.run.calls"] == 1

