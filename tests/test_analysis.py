import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fredkinlab import analysis
from fredkinlab.analysis import (
    AnalysisError,
    KNOWN_TARGET_IDEAL,
    LINEARITY_INPUTS,
    PROBLEMS,
    OptimizationProblem,
    conditional_process_map,
    evaluate_known_target,
    gate_report,
    linearity_check,
    optimize_gate,
    phase_fixed_map_deviation,
    process_fidelity,
    random_inputs,
    reverify_outcome,
)
from fredkinlab.catalog import CATALOG, get_gate, ideal_cnot, ideal_fredkin
from fredkinlab.circuits import (
    SIMPLIFIED_CNOT_PARAMS,
    SIMPLIFIED_PARAM_BOUNDS,
    Circuit,
    Linear,
    build_fredkin_heralded,
    build_fredkin_postselected,
    build_simplified_cnot,
    run,
    simplified_mesh_sectors,
)
from fredkinlab.elements import Hwp, Phase, Rot
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
    pm = conditional_process_map(circ, kets)
    assert process_fidelity(pm.matrix, np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert pm.leakage < 1e-12
    residual, _ = linearity_check(circ, kets, pm.matrix, random_inputs(2, LINEARITY_INPUTS, 1))
    assert residual < 1e-12


def test_process_map_heralded_fredkin_matches_permutation():
    info = get_gate("fredkin-postselected")
    circ = info.build()
    kets = info.output_kets(circ)
    pm = conditional_process_map(circ, kets)
    k = pm.matrix
    # proportional to the controlled-swap permutation with factor 1/(2 sqrt 2)
    assert np.max(np.abs(k - ideal_fredkin() / (2 * math.sqrt(2)))) < 1e-12
    residual, _ = linearity_check(circ, kets, k, random_inputs(3, LINEARITY_INPUTS, 1))
    assert residual < 1e-12


def test_process_map_ralph_prefactor_one_third():
    info = get_gate("cnot-ralph")
    circ = info.build()
    pm = conditional_process_map(circ, info.output_kets(circ))
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


def test_phase_fixed_map_deviation_is_linear_in_an_amplitude_error():
    ideal = ideal_cnot()
    assert phase_fixed_map_deviation(np.exp(1j * 0.7) * ideal / 3, ideal / 2) < 1e-15
    off = ideal / 2
    off[0, 0] += 3e-5
    assert 1e-5 < phase_fixed_map_deviation(off, ideal) < 3e-5
    assert process_fidelity(off, ideal) > 1 - 1e-9  # the quadratic check misses it


def test_probability_fidelity_registered_values():
    # every cataloged uniform gate reproduces its registered numbers
    for name in ("fredkin-postselected", "cnot-pittman", "cnot-ralph", "cnot-sanaka"):
        report = gate_report(get_gate(name))
        assert report.process_fidelity >= 1 - 1e-9, name
        expected = float(report.expected_probability)
        for p in report.probabilities:
            assert abs(p - expected) < 1e-9, name


@pytest.mark.parametrize("name", [n for n in sorted(CATALOG)
                                  if CATALOG[n].kind != "known_target"])
def test_every_qubit_gate_passes_its_linearity_check(name):
    report = gate_report(get_gate(name))
    assert report.linearity_residual <= 1e-12
    assert report.matches_expectations()
    assert report.to_dict()["linearity_residual"] == report.linearity_residual


def test_linearity_residual_alone_fails_the_report():
    report = gate_report(get_gate("cnot-ralph"))
    assert report.matches_expectations(1e-9)
    report.linearity_residual = 2e-9  # every other figure is within the tolerance
    assert not report.matches_expectations(1e-9)
    assert report.matches_expectations(1e-8)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_catalog_map_is_its_ideal_up_to_phase(name):
    report = gate_report(get_gate(name))
    assert report.map_deviation <= 1e-15
    assert report.to_dict()["map_deviation"] == report.map_deviation


def test_map_deviation_alone_fails_the_report():
    report = gate_report(get_gate("cnot-ralph"))
    report.map_deviation = 2e-9  # every other figure is within the tolerance
    assert not report.matches_expectations(1e-9)
    assert report.matches_expectations(1e-8)


def test_a_small_output_phase_fails_only_on_the_map_deviation():
    # a 1e-5 rad phase on the target's V output: the fidelity misses it by
    # its square, the probabilities and the linearity check not at all
    info = get_gate("cnot-ralph")
    circuit = info.build()
    shifted = Linear((Phase(("t", "V"), 1e-5),), label="phase-error")
    circuit = dataclasses.replace(
        circuit, stages=circuit.stages[:-1] + (shifted,) + circuit.stages[-1:])
    report = gate_report(dataclasses.replace(info, build=lambda: circuit))
    assert report.process_fidelity >= 1 - 1e-10
    assert max(abs(p - float(report.expected_probability)) for p in report.probabilities) < 1e-15
    assert report.leakage <= 1e-15 and report.linearity_residual <= 1e-15
    assert 1e-6 < report.map_deviation < 1e-5
    assert not report.matches_expectations(1e-9)


def test_a_leaked_amplitude_of_1e_6_fails_on_the_leakage():
    # a 1e-6 rad rotation between the target beams' H modes before the
    # herald of the ideal-CNOT Fredkin sends an amplitude of about 1e-6 into
    # accepted outputs with two photons in one target beam; as a probability
    # (about 1e-12) that leak passed a 1e-9 tolerance
    def build(theta):
        circuit = build_fredkin_heralded("ideal")
        leak = Linear((Rot(theta, ("t1", "H"), ("t2", "H")),), label="leak")
        return dataclasses.replace(
            circuit, stages=circuit.stages[:-1] + (leak,) + circuit.stages[-1:])

    info = dataclasses.replace(get_gate("fredkin-heralded"), expected_probability=Fraction(1, 4))
    clean = gate_report(dataclasses.replace(info, build=lambda: build(0.0)))
    assert clean.leakage == 0.0 and clean.matches_expectations(1e-9)
    leaky = gate_report(dataclasses.replace(info, build=lambda: build(1e-6)))
    assert 5e-7 < leaky.leakage < 2e-6
    assert leaky.process_fidelity >= 1 - 1e-10 and leaky.map_deviation < 1e-11
    assert max(abs(p - 0.25) for p in leaky.probabilities) < 1e-11
    assert not leaky.matches_expectations(1e-9)
    assert leaky.matches_expectations(1e-5)


def test_catalog_gates_leak_nothing():
    for name in CATALOG:
        circuit = get_gate(name).build()
        if get_gate(name).kind == "qubit":
            assert conditional_process_map(circuit, get_gate(name).output_kets(circuit)).leakage == 0.0


def test_linearity_check_is_linear_in_an_amplitude_error():
    info = get_gate("cnot-ralph")
    circ = info.build()
    kets = info.output_kets(circ)
    k = conditional_process_map(circ, kets).matrix
    off = k.copy()
    off[0, 0] += 3e-7
    residual, _ = linearity_check(circ, kets, off, random_inputs(2, LINEARITY_INPUTS, 3))
    assert 1e-8 < residual < 3e-7
    assert process_fidelity(off, info.ideal) > 1 - 1e-9  # the quadratic figure misses it


@pytest.mark.parametrize("name, d", [("fredkin-postselected", 8), ("cnot-ralph", 4)])
@pytest.mark.parametrize("sweep", [0, 10])
def test_gate_report_runs_basis_inputs_and_one_batch_of_superpositions(
        monkeypatch, name, d, sweep):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return run(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", counted)
    report = gate_report(get_gate(name), sweep=sweep, sweep_seed=4)
    assert len(calls) == d + max(sweep, LINEARITY_INPUTS)
    assert len(report.probabilities) == (sweep or d)
    # the sweep's inputs are the first ones of the linearity batch
    assert calls[d:d + sweep] == random_inputs(d.bit_length() - 1, sweep, 4)


def test_sweep_input_independence(rng):
    info = get_gate("cnot-sanaka")
    circ = info.build()
    probs = [run(circ, amps).probability for amps in random_inputs(2, 20, 7)]
    assert max(probs) - min(probs) < 1e-10
    assert all(abs(p - 0.25) < 1e-10 for p in probs)


@pytest.mark.parametrize("name", [
    "fredkin-postselected", "fredkin-fig3", "fredkin-timebin",
    "cnot-pittman", "cnot-ralph", "cnot-sanaka",
])
def test_success_probability_uniform_over_20_random_inputs(name):
    info = get_gate(name)
    circ = info.build()
    probs = [run(circ, amps).probability for amps in random_inputs(info.n_qubits, 20, 5)]
    assert max(probs) - min(probs) < 1e-10, name
    assert abs(probs[0] - float(info.expected_probability)) < 1e-9, name


def test_tomography_consistency_random_inputs(rng):
    # the reconstructed map reproduces direct simulation on fresh inputs
    info = get_gate("cnot-ralph")
    circ = info.build()
    kets = info.output_kets(circ)
    pm = conditional_process_map(circ, kets)
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


def test_known_target_gate_report():
    info = get_gate("cnot-simplified")
    assert info.ideal is KNOWN_TARGET_IDEAL and info.ideal.shape == (6, 4)
    rep = gate_report(info)
    assert [(row["input"], row["output"]) for row in rep.truth_table] == [
        ("H,V", "H,V"), ("H,vac", "H,vac"), ("V,V", "V,H"), ("V,vac", "V,vac")]
    assert np.allclose(rep.probabilities, [1 / 6, 1 / 3, 1 / 6, 1 / 3], rtol=0, atol=1e-12)
    assert rep.spread == pytest.approx(1 / 6, abs=1e-12)
    assert rep.leakage == 0.0
    assert rep.metadata["uniform"] is False and rep.metadata["worst_case"] is True
    # its sectors differ in photon number, so it has no superposition inputs
    assert rep.linearity_residual is None and rep.to_dict()["linearity_residual"] is None
    assert rep.matches_expectations()


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


@pytest.mark.parametrize("seed", range(40))
def test_optimizer_known_target_reaches_one_sixth(seed):
    out = optimize_gate("simplified-cnot", seed=seed, restarts=12)
    assert out.feasible
    assert abs(out.probability - 1 / 6) <= 1e-12
    assert np.linalg.norm(PROBLEMS["simplified-cnot"].residuals(out.parameters)) <= 1e-12
    assert out.residual_norm <= 1e-12
    assert out.fidelity >= 1 - 1e-8
    build_fredkin_postselected("fig3", out.parameters)
    assert abs(reverify_outcome(out)[0] - 1 / 6) <= 1e-9


def test_mesh_jacobian_matches_central_differences(rng):
    problem = PROBLEMS["simplified-cnot"]
    lo, hi = np.array(SIMPLIFIED_PARAM_BOUNDS).T
    h = 1e-6
    points = [np.array(SIMPLIFIED_CNOT_PARAMS)] + [lo + (hi - lo) * rng.random(4)
                                                   for _ in range(60)]
    for x in points:
        numeric = np.column_stack([
            (problem.residuals(x + step) - problem.residuals(x - step)) / (2 * h)
            for step in h * np.eye(4)])
        analytic = problem.jacobian(x)
        assert analytic.shape == (4, 4)
        assert np.max(np.abs(analytic - numeric)) <= 1e-7, x


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


def test_optimizer_breaks_ties_in_p_by_the_earliest_start():
    # two good roots of equal p whose residual norms differ only far below
    # FEASIBILITY_TOL: the root of the earlier start wins, not the smaller norm
    problem = OptimizationProblem(
        name="twin", bounds=((0.0, 1.0),),
        evaluate=lambda x: (0.5, 1.0),
        residuals=lambda x: np.array([(x[0] - 0.25) * (x[0] - 0.75),
                                      1e-12 if x[0] > 0.5 else 1e-13]),
        jacobian=lambda x: np.array([[2.0 * x[0] - 1.0], [0.0]]))
    assert np.random.default_rng(0).random(2).tolist() == pytest.approx([0.637, 0.270], abs=1e-3)
    out = optimize_gate(problem, seed=0, restarts=2)
    assert out.feasible
    assert out.parameters[0] == pytest.approx(0.75, abs=1e-12)
    assert out.residual_norm == pytest.approx(1e-12, rel=1e-6)


def test_optimizer_names_the_bounds_for_a_root_outside_them():
    # the one root, x = 1.5, lies outside the bounds: they decided, not the norm
    problem = OptimizationProblem(
        name="beyond", bounds=((-1.0, 1.0),),
        evaluate=lambda x: (1.0, 1.0),
        residuals=lambda x: np.array([x[0] - 1.5]))
    out = optimize_gate(problem, seed=0, restarts=1)
    assert not out.feasible
    assert out.residual_norm <= 1e-12
    assert out.logic_error == ("outside the bounds by", pytest.approx(0.5, abs=1e-12))


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
