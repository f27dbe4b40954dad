import math

import numpy as np
import pytest

from fredkinlab.analysis import (
    AnalysisError,
    KNOWN_TARGET_IDEAL,
    PROBLEMS,
    OptimizationProblem,
    conditional_process_map,
    evaluate_known_target,
    gate_report,
    optimize_gate,
    process_fidelity,
    random_inputs,
    reverify_outcome,
    success_probability_sweep,
)
from fredkinlab.catalog import get_gate, ideal_cnot, ideal_fredkin
from fredkinlab.circuits import (
    SIMPLIFIED_PARAM_BOUNDS,
    Circuit,
    Linear,
    build_fredkin_postselected,
    build_simplified_cnot,
    simplified_mesh_sectors,
)
from fredkinlab.elements import Hwp
from fredkinlab.fock import register_modes


# -- ideal maps ------------------------------------------------------------------


def test_ideal_fredkin_is_correct_permutation():
    k = ideal_fredkin()
    # V-control block swaps the middle two basis states (|101> <-> |110>)
    expect = np.eye(8)
    expect[[5, 6]] = expect[[6, 5]]
    assert np.array_equal(k, expect)


def test_ideal_cnot_permutation():
    k = ideal_cnot()
    expect = np.eye(4)
    expect[[2, 3]] = expect[[3, 2]]
    assert np.array_equal(k, expect)


# -- process maps -----------------------------------------------------------------


def test_process_map_identity_circuit():
    reg = register_modes(["a", "b"])
    circ = Circuit("id", reg, 2, ("a", "b"), ("a", "b"),
                   (Linear((Hwp("a", 0.0), Hwp("a", 0.0))),))
    info = get_gate("cnot-ralph")  # reuse the ket builder with our own circuit
    kets = info.output_kets(circ)
    pm = conditional_process_map(circ, kets, d=4)
    assert process_fidelity(pm.matrix, np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert pm.leakage < 1e-12
    assert pm.superposition_residual < 1e-12


def test_process_map_heralded_fredkin_matches_permutation():
    info = get_gate("fredkin-postselected")
    circ = info.build()
    pm = conditional_process_map(circ, info.output_kets(circ), d=8)
    k = pm.matrix
    # proportional to the controlled-swap permutation with factor 1/(2 sqrt 2)
    assert np.max(np.abs(k - ideal_fredkin() / (2 * math.sqrt(2)))) < 1e-12
    assert pm.superposition_residual < 1e-12


def test_process_map_ralph_prefactor_one_third():
    info = get_gate("cnot-ralph")
    circ = info.build()
    pm = conditional_process_map(circ, info.output_kets(circ), d=4)
    assert np.max(np.abs(pm.matrix - ideal_cnot() / 3)) < 1e-12


def test_process_fidelity_properties(rng):
    ideal = ideal_cnot()
    assert process_fidelity(ideal, ideal) == pytest.approx(1.0)
    phase = np.exp(1j * 0.7)
    assert process_fidelity(phase * ideal / 3, ideal) == pytest.approx(1.0)
    # a different permutation scores below one
    assert process_fidelity(np.eye(4), ideal) < 1.0
    with pytest.raises(AnalysisError):
        process_fidelity(np.zeros((4, 4)), ideal)


def test_probability_fidelity_registered_values():
    # every cataloged uniform gate reproduces its registered numbers
    for name in ("fredkin-postselected", "cnot-pittman", "cnot-ralph", "cnot-sanaka"):
        report = gate_report(get_gate(name))
        assert report.process_fidelity >= 1 - 1e-9, name
        expected = float(report.expected_probability)
        for p in report.probabilities:
            assert abs(p - expected) < 1e-9, name


def test_sweep_input_independence(rng):
    info = get_gate("cnot-sanaka")
    circ = info.build()
    probs, spread = success_probability_sweep(circ, random_inputs(2, 20, 7))
    assert spread < 1e-10
    assert all(abs(p - 0.25) < 1e-10 for p in probs)


@pytest.mark.parametrize("name", [
    "fredkin-postselected", "fredkin-fig3", "fredkin-timebin",
    "cnot-pittman", "cnot-ralph", "cnot-sanaka",
])
def test_success_probability_uniform_over_20_random_inputs(name):
    info = get_gate(name)
    circ = info.build()
    probs, spread = success_probability_sweep(
        circ, random_inputs(info.n_qubits, 20, 5))
    assert spread < 1e-10, name
    assert abs(probs[0] - float(info.expected_probability)) < 1e-9, name


def test_tomography_consistency_random_inputs(rng):
    # the reconstructed map reproduces direct simulation on fresh inputs
    info = get_gate("cnot-ralph")
    circ = info.build()
    kets = info.output_kets(circ)
    pm = conditional_process_map(circ, kets, d=4)
    from fredkinlab.circuits import run
    for amps in random_inputs(2, 5, 99):
        res = run(circ, amps)
        got = np.array([res.state.amps.get(k, 0.0) for k in kets])
        assert np.max(np.abs(got - pm.matrix @ amps.as_vector())) < 1e-10


# -- known-target gate ------------------------------------------------------------------


def test_known_target_sector_probabilities():
    ev = evaluate_known_target(build_simplified_cnot())
    assert ev.p_by_input["H,V"] == pytest.approx(1 / 6, abs=1e-12)
    assert ev.p_by_input["V,V"] == pytest.approx(1 / 6, abs=1e-12)
    assert ev.p_by_input["H,vac"] == pytest.approx(1 / 3, abs=1e-12)
    assert ev.p_by_input["V,vac"] == pytest.approx(1 / 3, abs=1e-12)
    assert ev.fidelity == pytest.approx(1.0, abs=1e-12)
    assert ev.p_min == pytest.approx(1 / 6, abs=1e-12)


def test_known_target_error_amplitudes_vanish():
    ev = evaluate_known_target(build_simplified_cnot())
    k = ev.matrix
    # within the coincidence-legal output space, only the ideal entries survive
    mask = KNOWN_TARGET_IDEAL == 0
    assert np.max(np.abs(k[mask])) < 1e-12


def test_mesh_closed_form_matches_engine_run(rng):
    # the optimizer scores the mesh in closed form; the engine runs the circuit
    problem = PROBLEMS["simplified-cnot"]
    lo, hi = np.array(SIMPLIFIED_PARAM_BOUNDS).T
    for _ in range(60):
        x = lo + (hi - lo) * rng.random(4)
        ev = evaluate_known_target(build_simplified_cnot(x))
        k = ev.matrix
        k2, kv = simplified_mesh_sectors(x)
        assert np.max(np.abs(k[:4, [0, 2]] - k2)) <= 1e-12
        assert np.max(np.abs(k[4:, [1, 3]] - kv)) <= 1e-12
        p, fid = problem.evaluate(x)
        assert abs(p - ev.p_min) <= 1e-12
        assert abs(fid - ev.fidelity) <= 1e-12
        engine_residuals = [k[5, 3] - k[4, 1], k[1, 0], k[2, 2], k[0, 0] - k[3, 2]]
        assert np.max(np.abs(problem.residuals(x) - engine_residuals)) <= 1e-12


# -- optimizer ----------------------------------------------------------------------------


def test_optimizer_identity_problem():
    out = optimize_gate("identity", seed=1, restarts=2)
    assert out.probability == pytest.approx(1.0)
    assert out.feasible


def test_optimizer_unknown_problem():
    with pytest.raises(AnalysisError):
        optimize_gate("nope", seed=0)


@pytest.mark.parametrize("penalty", [0.0, -1.0, float("nan"), float("inf")])
def test_optimizer_rejects_bad_penalty_before_evaluating(penalty):
    # the penalty is unused, but a bad one is still an error, raised up front
    def evaluate(x):
        raise AssertionError("evaluated with a bad penalty")

    problem = OptimizationProblem(name="never", bounds=((0.0, 1.0),), evaluate=evaluate,
                                  residuals=evaluate)
    with pytest.raises(AnalysisError, match="penalty must be a positive finite number"):
        optimize_gate(problem, seed=0, restarts=1, penalty=penalty)


def test_optimizer_ralph_topology_converges_to_one_third():
    out = optimize_gate("ralph-topology", seed=0, restarts=6)
    assert out.feasible
    assert abs(out.parameters[0] - 1 / 3) <= 1e-12
    assert abs(out.probability - 1 / 9) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_optimizer_known_target_reaches_one_sixth(seed):
    out = optimize_gate("simplified-cnot", seed=seed, restarts=12)
    assert out.feasible
    assert abs(out.probability - 1 / 6) <= 1e-12
    assert np.linalg.norm(PROBLEMS["simplified-cnot"].residuals(out.parameters)) <= 1e-12
    assert out.residual_norm <= 1e-12
    assert out.fidelity >= 1 - 1e-8
    build_fredkin_postselected("fig3", out.parameters)


def test_optimizer_trivial_roots_end_after_bounded_starts(monkeypatch):
    # every root has p = 0, so no start is good: the search must give up
    import scipy.optimize

    starts = []
    least_squares = scipy.optimize.least_squares

    def counted(*args, **kwargs):
        starts.append(args[1])
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", counted)
    problem = OptimizationProblem(
        name="dark", bounds=((-1.0, 1.0),),
        evaluate=lambda x: (0.0, 1.0),
        residuals=lambda x: np.array([x[0]]))
    out = optimize_gate(problem, seed=0, restarts=3)
    assert len(starts) == 4 * 3
    assert out.probability == 0.0
    assert out.residual_norm == 0.0
    assert not out.feasible  # a root, but of a gate that never succeeds



def test_optimizer_feasibility_decided_by_residual_norm():
    # fidelity 1 everywhere, but the logic residual never vanishes: the
    # residual norm, not 1 - fidelity, must decide
    problem = OptimizationProblem(
        name="offset", bounds=((-1.0, 1.0),),
        evaluate=lambda x: (1.0, 1.0),
        residuals=lambda x: np.array([x[0], 1e-6]))
    out = optimize_gate(problem, seed=0, restarts=1)
    assert out.best_infidelity == 0.0
    assert not out.feasible
    assert out.logic_error[0] == "residual norm"
    assert out.logic_error[1] == pytest.approx(1e-6, rel=1e-6)
    assert optimize_gate("identity", seed=0, restarts=1).logic_error == ("residual norm", 0.0)


def test_optimizer_soundness_reverification():
    out = optimize_gate("simplified-cnot", seed=3, restarts=8)
    p2, f2 = reverify_outcome(out)
    assert abs(p2 - out.probability) < 1e-10
    assert abs(f2 - out.fidelity) < 1e-10


def test_optimizer_deterministic_per_seed():
    a = optimize_gate("ralph-topology", seed=5, restarts=4)
    b = optimize_gate("ralph-topology", seed=5, restarts=4)
    assert np.array_equal(a.parameters, b.parameters)
    assert a.probability == b.probability
