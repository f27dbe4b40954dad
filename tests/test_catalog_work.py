"""No catalog step computes an amplitude that it then prunes.

The transfer rows keep no rounding residue (`engine.ROW_EPS`), so over the
catalog's basis inputs and seeded superpositions every stored row entry is a
real amplitude and every amplitude that a linear step or a measurement puts
out survives the pruning threshold.  Each step's outputs are worked out
again here from the tables the step filled, with the engine's arithmetic.
"""

import pytest

from fredkinlab import circuits
from fredkinlab.analysis import LINEARITY_INPUTS, evaluate_known_target, random_inputs
from fredkinlab.catalog import CATALOG, get_gate
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

    def apply_unitary(state, u, kept=None):
        result = engine_apply(state, u, kept)
        put_out.append(_outputs(state, u.plan.full_rows if kept is None else kept.rows))
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
    assert rows
    assert min(abs(t) for row in rows for _, t in row) >= SMALLEST_ENTRY
