"""No catalog step computes an amplitude that it then prunes.

The transfer rows keep no rounding residue (`engine.ROW_EPS`), so over the
catalog's basis inputs and seeded superpositions every stored row entry is a
real amplitude and every amplitude that a linear step or a measurement puts
out survives the pruning threshold.  Each step's outputs are worked out
again here from the tables the step filled, with the engine's arithmetic.
A catalog pass also stays within its budget of expansion work, counted by
`tools/work_counts.py`, and builds no `ModePlan` that no step applies.
"""

import importlib.util
import json
import os

import pytest

from fredkinlab import circuits, elements, engine
from fredkinlab.analysis import (
    LINEARITY_INPUTS, evaluate_known_target, gate_report, random_inputs,
)
from fredkinlab.catalog import CATALOG, gate_names, get_gate
from fredkinlab.fock import DEFAULT_PRUNE_EPS, LogicalAmplitudes

#: far below the smallest real entry of any catalog row (0.102) and far above
#: the largest residue (2.2e-16)
SMALLEST_ENTRY = 0.05


def _outputs(state, rows):
    """The amplitudes a step puts out: each term times its row, summed per output."""
    values = {}
    for occ, amp in state.amps.items():
        for out, t in rows[occ]:
            values[out] = values.get(out, 0.0) + amp * t
    return values


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_no_step_computes_an_amplitude_that_it_prunes(name, monkeypatch):
    put_out = []

    def apply_unitary(state, u, table):
        result = engine_apply(state, u, table)
        put_out.append(_outputs(state, table.rows))
        return result

    def measure_and_feedforward(state, detector, table, unitary, occupations):
        result = engine_measure(state, detector, table, unitary, occupations)
        put_out.append(_outputs(state, occupations.rows))
        return result

    engine_apply, engine_measure = circuits.apply_unitary, circuits.measure_and_feedforward
    monkeypatch.setattr(circuits, "apply_unitary", apply_unitary)
    monkeypatch.setattr(circuits, "measure_and_feedforward", measure_and_feedforward)
    info = get_gate(name)
    circuit = info.build()
    if info.kind == "known_target":
        evaluate_known_target(circuit)
    else:
        inputs = [LogicalAmplitudes.basis(info.n_qubits, i) for i in range(1 << info.n_qubits)]
        for amps in inputs + random_inputs(info.n_qubits, LINEARITY_INPUTS, 20260811):
            circuits.run(circuit, amps)

    assert put_out
    for values in put_out:
        assert min(map(abs, values.values())) >= DEFAULT_PRUNE_EPS
    steps = circuit.program(len(circuit.stages)).steps
    rows = [row for step in steps if step.unitary is not None
            for row in step.unitary.plan.rows.values()]
    rows += [row for step in steps
             for _, cut_rows in step.table.cuts.values() for row in cut_rows.values()]
    assert rows
    assert min(abs(t) for row in rows for _, t in row) >= SMALLEST_ENTRY


_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "work_counts.py")
_spec = importlib.util.spec_from_file_location("work_counts", _PATH)
work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counts)

#: the work of one `gate_report` per catalog gate, summed (`tools/work_counts.py`):
#: a folded post-selection expands only the photons it can keep
BUDGET = {"products": 1036, "entries": 337, "kept_checks": 112}


@pytest.fixture(scope="module")
def work():
    return work_counts.work_table()


@pytest.mark.parametrize("field", sorted(BUDGET))
def test_a_catalog_pass_stays_within_its_work_budget(work, field):
    assert work["total"][field] <= BUDGET[field]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_plan_built_in_a_report_belongs_to_a_step_that_runs(work, name):
    assert work[name]["plans_built"] == work[name]["plans_applied"] > 0


def test_products_replay_the_expansion():
    # two photons in mode 0, one in mode 1: 1 key times 2 entries, then 2 times
    # 2 (keys 2q0, q0+q1 and 2q1 after two photons), then 3 times 1
    cols = (((0, 0.6), (1, 0.8)), ((1, 1.0),))
    assert work_counts.products(cols, (2, 1)) == 2 + 2 * 2 + 3 * 1
    assert work_counts.products(cols, (0, 0)) == 0


def test_the_tool_prints_every_gate_and_their_total(capsys):
    assert work_counts.main(["--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert list(table) == [*gate_names(), "total"]
    for field in work_counts.FIELDS:
        assert table["total"][field] == sum(table[name][field] for name in gate_names())
    assert engine._transfer_row.__name__ == "_transfer_row"  # the wrappers are gone
    assert work_counts.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["gate", *work_counts.FIELDS]
    assert [line.split()[0] for line in lines[1:]] == [*gate_names(), "total"]


def test_a_catalog_pass_scans_no_detector_plate(monkeypatch):
    # a +/- detector's plate moves only the detector's beam, which placing the
    # ancillae counts anyway, so no pass compares the registry-sized plate
    # with the identity to find its active modes
    plates, scanned = [], []
    rotation, modes = engine.DetectorSpec.rotation, elements.ModeUnitary.modes

    def recorded_rotation(detector, registry):
        plate = rotation(detector, registry)
        plates.append(plate)
        return plate

    def counted_modes(u):
        if u._modes is None:
            scanned.append(u)
        return modes.fget(u)

    monkeypatch.setattr(engine.DetectorSpec, "rotation", recorded_rotation)
    monkeypatch.setattr(elements.ModeUnitary, "modes", property(counted_modes))
    for name in gate_names():
        gate_report(get_gate(name))
    assert any(plate is not None for plate in plates) and scanned
    assert [u for u in scanned if any(u is plate for plate in plates)] == []
