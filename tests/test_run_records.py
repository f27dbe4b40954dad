"""The records of `tools/run_records.py` and their comparison."""

import importlib.util
import json
import math
import os

from fredkinlab import Hwp, LogicalAmplitudes, register_modes
from fredkinlab.catalog import get_gate
from fredkinlab.circuits import Circuit, Linear, run

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "run_records.py")
_spec = importlib.util.spec_from_file_location("run_records", _PATH)
run_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_records)


def _ralph():
    return list(run_records.records(["cnot-ralph"]))


def test_records_hold_every_run_at_every_cut_to_the_bit():
    lines = _ralph()
    keys = [line.split("\t", 1)[0] for line in lines]
    assert len(set(keys)) == len(keys)
    cuts = len(get_gate("cnot-ralph").build().stages)
    assert len(keys) == (4 + run_records.SUPERPOSITIONS) * cuts * 3 + 2
    assert keys[-2:] == ["known-target matrix", "report cnot-ralph"]
    records = dict(line.split("\t", 1) for line in lines)
    res = run(get_gate("cnot-ralph").build(), LogicalAmplitudes.basis(2, 2))
    key = "run cnot-ralph basis=10 cut=coincidence"
    assert float.fromhex(json.loads(records[f"{key} probability"])) == res.probability
    amps = json.loads(records[f"{key} amplitudes"])
    assert [(tuple(occ), complex(float.fromhex(re), float.fromhex(im)))
            for occ, (re, im) in amps] == list(res.state.amps.items())
    assert json.loads(records[f"{key} branches"]) == []


def test_a_cut_is_keyed_by_its_stage_label_or_else_its_stage_count():
    # an empty or repeated label gives no key of its own
    reg = register_modes(("c",))
    stages = tuple(Linear((Hwp("c", 22.5),), label) for label in ("a", "", "a", "b"))
    circuit = Circuit("labels", reg, 1, ("c",), ("c",), stages)
    assert run_records._cut_keys(circuit) == ["1", "2", "3", "b"]
    assert run_records._cut_keys(get_gate("cnot-pittman").build()) == [
        "bell-rotate", "parity-pbs", "d1-plate", "d1", "target-rpbs", "d2"]


def test_comparison_counts_each_differing_record_with_its_deviation():
    lines = _ralph()
    assert run_records.compare(lines, lines) == ([], len(lines))
    i = next(k for k, line in enumerate(lines) if line.split("\t", 1)[0].endswith("probability"))
    key, value = lines[i].split("\t", 1)
    p = float.fromhex(json.loads(value))
    moved = list(lines)
    moved[i] = f"{key}\t{json.dumps(math.nextafter(p, 2.0).hex())}"
    differing, total = run_records.compare(moved, lines)
    assert total == len(lines) and [k for k, _ in differing] == [key]
    assert differing[0][1] == (math.nextafter(p, 2.0) - p) / p
    # a record one side lacks, or whose text moves in more than its numbers
    dropped, total = run_records.compare(lines[1:], lines)
    assert dropped == [(lines[0].split("\t", 1)[0], math.inf)] and total == len(lines)
    assert run_records.deviation('k\t["accept"]', 'k\t["reject"]') == math.inf
    assert run_records.deviation('k\t["0x1.0p+0",[1]]', 'k\t["0x1.0p+1",[1]]') == 0.5
