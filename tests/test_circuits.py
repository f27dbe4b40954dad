import gc
import io
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np
import pytest

from fredkinlab import LogicalAmplitudes, Polarization, TimeBin, state_fidelity
from fredkinlab.catalog import CATALOG, get_gate
from fredkinlab.circuits import (
    BellPair,
    SinglePhoton,
    Circuit,
    CircuitError,
    ControlFlipError,
    ControlledFlip,
    Linear,
    Measure,
    PostSelect,
    SIMPLIFIED_CNOT_PARAMS,
    TimeBinConfig,
    TimeBinConfigError,
    build_fredkin_heralded,
    build_fredkin_postselected,
    build_fredkin_timebin,
    build_pittman_cnot,
    build_ralph_cnot,
    build_sanaka_cnot,
    build_simplified_cnot,
    run,
    simplified_mesh_amplitudes,
)
from fredkinlab.elements import Hwp, compose
from fredkinlab.engine import (
    EngineError,
    FeedForwardError,
    FeedForwardTable,
    PostSelectionRule,
    apply_unitary,
    measure_and_feedforward,
    post_select_any,
)
from fredkinlab.fock import (
    FockError,
    PhotonicState,
    prepare_logical_input,
    register_modes,
    tensor,
)

from helpers import (
    assert_states_close,
    bits_of,
    cnot_vec,
    controlled_flip,
    fredkin_vec,
    phase_fixed_deviation,
    pol,
    qubit_ket,
    state_from_terms,
)

S2 = 1 / math.sqrt(2)


def random_amplitudes(n_qubits, rng):
    return LogicalAmplitudes.random(n_qubits, rng)


# -- ideal controlled flip -----------------------------------------------------------


def test_controlled_flip_matches_stated_rules(rng):
    reg = register_modes(["c", "x"])
    circ = Circuit("flip", reg, 2, ("c", "x"), ("c", "x"),
                   (ControlledFlip("c", "x"),))
    for cbit in (0, 1):
        for tbit in (0, 1):
            amps = LogicalAmplitudes.basis(2, (cbit << 1) | tbit)
            out = run(circ, amps).state
            expected_t = tbit ^ cbit
            assert out.amps == {qubit_ket(reg, ("c", "x"), (cbit, expected_t)): 1.0 + 0j}


def test_controlled_flip_vacuum_target_passes_through():
    reg = register_modes(["c", "x"])
    circ = Circuit("flip", reg, 1, ("c",), ("c",), (ControlledFlip("c", "x"),))
    out = run(circ, LogicalAmplitudes.basis(1, 1)).state
    assert out.amps == {qubit_ket(reg, ("c",), (1,)): 1.0 + 0j}


def test_controlled_flip_requires_single_control_photon():
    reg = register_modes(["c", "x"])
    circ = Circuit("flip", reg, 1, ("x",), ("x",), (ControlledFlip("c", "x"),))
    with pytest.raises(ControlFlipError):
        run(circ, LogicalAmplitudes.basis(1, 0))


# -- circuit invariants ----------------------------------------------------------------


def test_post_select_must_be_terminal():
    reg = register_modes(["a"])
    rule = PostSelectionRule.beam_counts(reg, {"a": 1})
    with pytest.raises(CircuitError):
        Circuit("bad", reg, 1, ("a",), ("a",),
                (PostSelect((rule,)), Linear((Hwp("a", 45.0),))))


def test_run_rejects_wrong_photon_count():
    reg = register_modes(["a", "b"])
    circ = Circuit("id", reg, 2, ("a", "b"), ("a", "b"), (Linear((Hwp("a", 0.0),)),))
    state = PhotonicState.from_occupation(reg, (1, 0, 0, 0))
    with pytest.raises(CircuitError):
        run(circ, state)


# -- heralded Fredkin -------------------------------------------------------------------


def test_heralded_ideal_intermediate_after_flips(rng):
    # after the splitters and the four conditional flips the state must be:
    # control pol kept, t1 photon on wire t1 (H input) or t2x (V input),
    # t2 photon on wire t2 (H) or t1x (V), polarizations flipped iff control V
    circ = build_fredkin_heralded("ideal")
    amps = random_amplitudes(3, rng)
    res = run(circ, amps, upto=circ.stage_prefix("cnot-4"))
    terms = []
    for i, a in enumerate(amps.values):
        if a == 0:
            continue
        c, x, y = bits_of(i, 3)
        terms.append((a, {
            "c": pol(c),
            ("t1" if x == 0 else "t2x"): pol(x ^ c),
            ("t2" if y == 0 else "t1x"): pol(y ^ c),
        }))
    assert_states_close(res.state, state_from_terms(circ.registry, terms))


def test_heralded_ideal_output_and_probability(rng):
    circ = build_fredkin_heralded("ideal")
    for _ in range(10):
        amps = random_amplitudes(3, rng)
        res = run(circ, amps)
        assert res.probability == pytest.approx(0.25, abs=1e-12)
        out_vec = 0.5 * fredkin_vec(amps.values)
        expected = state_from_terms(circ.registry, [
            (out_vec[j], {"c": pol(b[0]), "t1": pol(b[1]), "t2": pol(b[2])})
            for j in range(8) if abs(out_vec[j]) > 0
            for b in [bits_of(j, 3)]
        ])
        assert_states_close(res.state, expected)


def test_heralded_classical_swap():
    # V control swaps targets: (V, H, V) -> (V, V, H)
    circ = build_fredkin_heralded("ideal")
    amps = LogicalAmplitudes.basis(3, 0b101)
    res = run(circ, amps)
    ket = qubit_ket(circ.registry, ("c", "t1", "t2"), (1, 1, 0))
    assert set(res.state.amps) == {ket}


def test_heralded_pittman_probability_uniform(rng):
    circ = build_fredkin_heralded("pittman")
    for _ in range(3):
        amps = random_amplitudes(3, rng)
        res = run(circ, amps)
        assert res.probability == pytest.approx(0.25**5, abs=1e-12)


def test_heralded_pittman_output_matches_ideal_action(rng):
    circ = build_fredkin_heralded("pittman")
    amps = random_amplitudes(3, rng)
    res = run(circ, amps)
    expected = prepare_logical_input(
        circ.registry, LogicalAmplitudes(tuple(fredkin_vec(amps.values))),
        ("c", "t1", "t2"))
    assert state_fidelity(res.state, expected) == pytest.approx(1.0, abs=1e-10)
    assert phase_fixed_deviation(res.state, expected) <= 1e-9


def test_heralded_loses_photons_only_at_measurements(rng):
    # every cut holds all 11 photons but those detected so far, one per measurement
    circ = build_fredkin_heralded("pittman")
    amps = random_amplitudes(3, rng)
    count = 11
    for n_stages, st in enumerate(circ.stages, start=1):
        if isinstance(st, Measure):
            count -= 1
        res = run(circ, amps, upto=n_stages)
        assert res.state.photon_numbers() == {count}, st.label
    assert count == 3


# -- post-selected Fredkin ------------------------------------------------------------------


def test_postselected_ideal_intermediate_before_recombination(rng):
    # before the inner splitters: the two-CNOT wires carry the control-
    # entangled photon, the other target goes through its 67.5/22.5 plate
    # into an equal H+V superposition on its wire
    circ = build_fredkin_postselected("ideal")
    amps = random_amplitudes(3, rng)
    res = run(circ, amps, upto=circ.stage_prefix("target-plates"))
    terms = []
    for i, a in enumerate(amps.values):
        if a == 0:
            continue
        c, x, y = bits_of(i, 3)
        t1_wire = "t1" if x == 0 else "t2x"
        t1_pol = pol(x ^ c)
        t2_wire = "t2" if y == 0 else "t1x"
        for p2 in (Polarization.H, Polarization.V):
            terms.append((a * S2, {"c": pol(c), t1_wire: t1_pol, t2_wire: p2}))
    assert_states_close(res.state, state_from_terms(circ.registry, terms))


def test_postselected_ideal_output_and_probability(rng):
    circ = build_fredkin_postselected("ideal")
    for _ in range(10):
        amps = random_amplitudes(3, rng)
        res = run(circ, amps)
        assert res.probability == pytest.approx(1 / 8, abs=1e-12)
        out_vec = fredkin_vec(amps.values) / (2 * math.sqrt(2))
        expected = state_from_terms(circ.registry, [
            (out_vec[j], {"c": pol(b[0]), "t1": pol(b[1]), "t2": pol(b[2])})
            for j in range(8) if abs(out_vec[j]) > 0
            for b in [bits_of(j, 3)]
        ])
        assert_states_close(res.state, expected)


def test_heralded_and_postselected_conditional_outputs_agree(rng):
    h = build_fredkin_heralded("ideal")
    p = build_fredkin_postselected("ideal")
    for _ in range(50):
        amps = random_amplitudes(3, rng)
        out_h = run(h, amps).state.normalized()
        out_p = run(p, amps).state.normalized()
        # same logical content on the shared output beams
        vec_h = np.array([out_h.amps.get(qubit_ket(h.registry, ("c", "t1", "t2"), bits_of(j, 3)), 0.0)
                          for j in range(8)])
        vec_p = np.array([out_p.amps.get(qubit_ket(p.registry, ("c", "t1", "t2"), bits_of(j, 3)), 0.0)
                          for j in range(8)])
        fid = abs(np.vdot(vec_h, vec_p)) ** 2
        assert fid >= 1 - 1e-10


def test_fig3_probability_and_output(rng):
    circ = build_fredkin_postselected("fig3")
    for _ in range(4):
        amps = random_amplitudes(3, rng)
        res = run(circ, amps)
        assert res.probability == pytest.approx(1 / 192, abs=1e-12)
        expected = prepare_logical_input(
            circ.registry, LogicalAmplitudes(tuple(fredkin_vec(amps.values))),
            ("c", "t1", "t2"))
        assert state_fidelity(res.state, expected) == pytest.approx(1.0, abs=1e-9)
        assert phase_fixed_deviation(res.state, expected) <= 1e-9


def test_fig3_rejects_unbalanceable_mesh():
    # a mesh with a stronger two-photon than vacuum amplitude cannot be
    # balanced by attenuating the partner wire
    with pytest.raises(CircuitError):
        build_fredkin_postselected("fig3", mesh_params=(0.0, 0.0, 0.0, math.pi / 2))


# -- component CNOT gates ----------------------------------------------------------------------


def test_pittman_cnot_truth_table_and_probability():
    circ = build_pittman_cnot()
    for i in range(4):
        res = run(circ, LogicalAmplitudes.basis(2, i))
        assert res.probability == pytest.approx(0.25, abs=1e-12)
        j = int(np.argmax(np.abs(cnot_vec(LogicalAmplitudes.basis(2, i).values))))
        ket = qubit_ket(circ.registry, ("c", "t"), bits_of(j, 2))
        assert set(res.state.amps) == {ket}
        assert res.state.amps[ket] == pytest.approx(0.5, abs=1e-12)


def test_pittman_cnot_entangles_superposed_control(rng):
    circ = build_pittman_cnot()
    plus_h = LogicalAmplitudes((S2, 0, S2, 0))  # (|HH> + |VH>)/sqrt2
    res = run(circ, plus_h)
    out = res.state.normalized()
    # maximally entangled output: equal |HH> and |VV> weight
    hh = out.amps[qubit_ket(circ.registry, ("c", "t"), (0, 0))]
    vv = out.amps[qubit_ket(circ.registry, ("c", "t"), (1, 1))]
    assert abs(hh) == pytest.approx(S2, abs=1e-12)
    assert abs(vv) == pytest.approx(S2, abs=1e-12)
    # Schmidt coefficients 1/sqrt2 each: reduced purity 1/2
    rho = np.array([[abs(hh) ** 2, 0], [0, abs(vv) ** 2]])
    assert np.trace(rho @ rho) == pytest.approx(0.5, abs=1e-12)


def test_ralph_cnot_uniform_amplitude_one_third(rng):
    circ = build_ralph_cnot()
    for i in range(4):
        res = run(circ, LogicalAmplitudes.basis(2, i))
        assert res.probability == pytest.approx(1 / 9, abs=1e-12)
        j = int(np.argmax(np.abs(cnot_vec(LogicalAmplitudes.basis(2, i).values))))
        ket = qubit_ket(circ.registry, ("c", "t"), bits_of(j, 2))
        assert res.state.amps[ket] == pytest.approx(1 / 3, abs=1e-12)


def test_ralph_cnot_arbitrary_input(rng):
    circ = build_ralph_cnot()
    amps = random_amplitudes(2, rng)
    res = run(circ, amps)
    assert res.probability == pytest.approx(1 / 9, abs=1e-12)
    expected = prepare_logical_input(
        circ.registry, LogicalAmplitudes(tuple(cnot_vec(amps.values))), ("c", "t"))
    assert state_fidelity(res.state, expected) == pytest.approx(1.0, abs=1e-12)
    assert phase_fixed_deviation(res.state, expected) <= 1e-9


def test_simplified_mesh_canonical_amplitudes():
    lam_v, lam_2 = simplified_mesh_amplitudes(SIMPLIFIED_CNOT_PARAMS)
    assert lam_v == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert lam_2 == pytest.approx(1 / math.sqrt(6), abs=1e-12)


def test_simplified_mesh_unbalanced_error_states_mismatch():
    params = np.array(SIMPLIFIED_CNOT_PARAMS) + [0.0, 0.0, 0.0, 1e-6]
    with pytest.raises(CircuitError, match=r"unbalanced by \d\.\de-0[67]"):
        simplified_mesh_amplitudes(params)


def test_simplified_gate_failure_with_identity_parameters():
    # identity parameters leave the V target unflipped for a V control
    from fredkinlab.analysis import evaluate_known_target
    ev = evaluate_known_target(build_simplified_cnot((0.0, 0.0, 0.0, 0.0)))
    assert ev.fidelity < 1 - 1e-3


# -- time-bin gates ---------------------------------------------------------------------------


def test_time_bin_config_validation():
    TimeBinConfig(delta_l=1.0, l_spdc=0.1, l_pump=10.0, delta_t=0.5)
    with pytest.raises(TimeBinConfigError):
        TimeBinConfig(delta_l=0.05, l_spdc=0.1, l_pump=10.0, delta_t=0.01)
    with pytest.raises(TimeBinConfigError):
        TimeBinConfig(delta_l=20.0, l_spdc=0.1, l_pump=10.0, delta_t=0.5)
    with pytest.raises(TimeBinConfigError):
        TimeBinConfig(delta_l=1.0, l_spdc=0.1, l_pump=10.0, delta_t=2.0)
    with pytest.raises(TimeBinConfigError):
        TimeBinConfig(delta_l=1.0, l_spdc=0.1, l_pump=10.0, delta_t=0.5, speed=-1.0)


def test_sanaka_cnot_map_term_by_term(rng):
    circ = build_sanaka_cnot()
    for _ in range(10):
        b = random_amplitudes(2, rng)
        res = run(circ, b)
        assert res.probability == pytest.approx(0.25, abs=1e-12)
        # H control keeps the S bin and the target pol; V control moves both
        # photons to the L bin and flips the target pol
        terms = []
        for i, a in enumerate(b.values):
            if a == 0:
                continue
            cbit, tbit = bits_of(i, 2)
            tbin = TimeBin.L if cbit else TimeBin.S
            terms.append((0.5 * a, {
                "c": (pol(cbit), tbin),
                "t": (pol(tbit ^ cbit), tbin),
            }))
        assert_states_close(res.state, state_from_terms(circ.registry, terms))


def test_sanaka_control_h_never_reaches_long_bin():
    circ = build_sanaka_cnot()
    res = run(circ, LogicalAmplitudes.basis(2, 0))
    ket = qubit_ket(circ.registry, ("c", "t"), (0, 0), tbin=TimeBin.S)
    assert set(res.state.amps) == {ket}


def test_sanaka_rejects_invalid_config():
    with pytest.raises(TimeBinConfigError):
        build_sanaka_cnot(TimeBinConfig(delta_l=0.01, l_spdc=0.1, l_pump=10.0,
                                        delta_t=0.001))


def test_timebin_fredkin_output_and_probability(rng):
    circ = build_fredkin_timebin()
    for _ in range(5):
        amps = random_amplitudes(3, rng)
        res = run(circ, amps)
        assert res.probability == pytest.approx(1 / 64, abs=1e-12)
        out_vec = fredkin_vec(amps.values) / 8.0
        terms = []
        for j in range(8):
            if abs(out_vec[j]) == 0:
                continue
            c, x, y = bits_of(j, 3)
            tbin = TimeBin.L if c else TimeBin.S
            terms.append((out_vec[j], {
                "c": (pol(c), tbin), "t1": (pol(x), tbin), "t2": (pol(y), tbin)}))
        assert_states_close(res.state, state_from_terms(circ.registry, terms))


def test_timebin_fredkin_no_mixed_bins_survive(rng):
    circ = build_fredkin_timebin()
    amps = LogicalAmplitudes((0.5, 0, 0, 0.5, 0.5, 0, 0, 0.5))  # both sectors live
    res = run(circ, amps)
    reg = circ.registry
    for occ in res.state.amps:
        bins = set()
        for m, n in enumerate(occ):
            if n > 0:
                bins.add(reg.labels[m].bin)
        assert len(bins) == 1


def test_timebin_fredkin_classical_no_swap():
    # H control: (H, V, H) passes through in the S bin
    circ = build_fredkin_timebin()
    res = run(circ, LogicalAmplitudes.basis(3, 0b010))
    ket = qubit_ket(circ.registry, ("c", "t1", "t2"), (0, 1, 0), tbin=TimeBin.S)
    assert set(res.state.amps) == {ket}
    assert res.state.amps[ket] == pytest.approx(1 / 8, abs=1e-12)


def test_timebin_fredkin_rejects_invalid_config():
    with pytest.raises(TimeBinConfigError):
        build_fredkin_timebin(TimeBinConfig(delta_t=5.0))


# -- Bell ancilla preparation ---------------------------------------------------------------


def test_bell_pair_states():
    reg = register_modes(["a", "b"])
    psi = BellPair("a", "b", "psi_plus").state(reg)
    assert psi.amps[(1, 0, 0, 1)] == pytest.approx(S2)
    assert psi.amps[(0, 1, 1, 0)] == pytest.approx(S2)
    phi = BellPair("a", "b", "phi_plus").state(reg)
    assert phi.amps[(1, 0, 1, 0)] == pytest.approx(S2)
    assert phi.amps[(0, 1, 0, 1)] == pytest.approx(S2)
    with pytest.raises(CircuitError):
        BellPair("a", "b", "nope").state(reg)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_run_composes_nothing(name, monkeypatch):
    from fredkinlab import circuits, elements

    circuit = get_gate(name).build()
    n = len(circuit.qubit_beams)
    inputs = [LogicalAmplitudes.basis(n, (1 << n) - 1),
              LogicalAmplitudes.random(n, np.random.default_rng(5))]
    expected = [run(circuit, amps) for amps in inputs]

    def refuse(*args):
        raise AssertionError("run() compiled a stage again")

    monkeypatch.setattr(circuits, "compose", refuse)
    monkeypatch.setattr(elements, "compose", refuse)
    monkeypatch.setattr(elements, "compile_element", refuse)
    for amps, want in zip(inputs, expected):
        got = run(circuit, amps)
        assert got.state.amps == want.state.amps
        assert got.probability == want.probability


@pytest.mark.parametrize("name", ["cnot-ralph", "cnot-sanaka", "fredkin-timebin"])
def test_pure_linear_gate_matches_permanent_route(name):
    # second route: one permanent per amplitude through the product of the
    # stage unitaries, post-selection being a projection
    from fredkinlab.engine import transition_amplitude_oracle

    info = get_gate(name)
    circuit = info.build()
    assert all(isinstance(st, (Linear, PostSelect)) for st in circuit.stages)
    # composed here per stage, independent of the runs `Circuit` fuses
    total = np.eye(circuit.registry.size, dtype=complex)
    for st in circuit.stages:
        if isinstance(st, Linear):
            total = compose(circuit.registry, st.elements).matrix @ total
    kets = info.output_kets(circuit)
    for i in range(1 << info.n_qubits):
        basis = LogicalAmplitudes.basis(info.n_qubits, i)
        got = run(circuit, basis).state.amps
        terms = circuit.prepare_input(basis).amps.items()
        for ket in set(kets) | got.keys():
            want = sum(a * transition_amplitude_oracle(total, occ, ket) for occ, a in terms)
            assert abs(got.get(ket, 0.0) - want) <= 1e-12


def prepared_with_every_ancilla(circuit, amps):
    """The logical input tensored with every ancilla, as the reference
    prepares it."""
    reg = circuit.registry
    state = prepare_logical_input(reg, amps, circuit.qubit_beams)
    for anc in circuit.ancillae:
        state = tensor(state, anc.state(reg))
    return state


def stage_by_stage(circuit, amps):
    """(state, branch log) after each stage of a run that composes and applies
    every stage on its own: the reference for the fused runs of `run`."""
    reg = circuit.registry
    state = prepared_with_every_ancilla(circuit, amps)
    log = []
    trail = []
    for st in circuit.stages:
        if isinstance(st, Linear):
            state = apply_unitary(state, compose(reg, st.elements))
        elif isinstance(st, ControlledFlip):
            state = controlled_flip(state, st.control, st.target)
        elif isinstance(st, Measure):
            state, _, records = measure_and_feedforward(state, st.beam, st.table, None)
            log = log + records
        else:
            state, _ = post_select_any(state, st.rules)
        trail.append((state, log))
    return trail


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_run_prefix_matches_stage_by_stage(name):
    # every cut, inside a fused run or between runs, against the reference;
    # the engine's stored amplitudes stay complex on every path
    circuit = get_gate(name).build()
    amps = LogicalAmplitudes.random(len(circuit.qubit_beams), np.random.default_rng(11))
    trail = stage_by_stage(circuit, amps)
    n0 = prepared_with_every_ancilla(circuit, amps).norm_sq()
    for upto, (want, want_log) in enumerate(trail, start=1):
        got = run(circuit, amps, upto=upto)
        for occ in got.state.amps.keys() | want.amps.keys():
            assert abs(got.state.amps.get(occ, 0.0) - want.amps.get(occ, 0.0)) <= 1e-12
        assert abs(got.probability - want.norm_sq() / n0) <= 1e-14, upto
        assert ([(r.pattern, r.action) for r in got.branch_log]
                == [(r.pattern, r.action) for r in want_log])
        assert all(type(a) is complex for a in got.state.amps.values())


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_prepare_input_is_the_logical_input_alone(name):
    # no ancilla: each enters a run at the step that first touches it
    circuit = get_gate(name).build()
    n = len(circuit.qubit_beams)
    rng = np.random.default_rng(17)
    inputs = [LogicalAmplitudes.basis(n, i) for i in range(1 << n)]
    for amps in inputs + [LogicalAmplitudes.random(n, rng) for _ in range(3)]:
        got = circuit.prepare_input(amps)
        want = prepare_logical_input(circuit.registry, amps, circuit.qubit_beams)
        assert list(got.amps.items()) == list(want.amps.items())


def test_run_applies_one_unitary_per_linear_run(monkeypatch):
    # each run of linear stages is applied once, as its product; a measurement
    # right after one applies that product
    from fredkinlab import circuits

    applied = []

    def counting(state, u, kept=None):
        applied.append(u)
        return apply_unitary(state, u, kept)

    def measuring(state, beam, table, u, occupations=None):
        applied.append(u)
        return measure_and_feedforward(state, beam, table, u, occupations)

    def matrices(us):
        return [None if u is None else u.matrix.tolist() for u in us]

    monkeypatch.setattr(circuits, "apply_unitary", counting)
    monkeypatch.setattr(circuits, "measure_and_feedforward", measuring)
    for name in sorted(CATALOG):
        circuit = get_gate(name).build()
        stages, unitaries = circuit.stages, circuit.unitaries
        linear = [isinstance(st, Linear) for st in stages]
        ends = [i for i, k in enumerate(linear) if k and (i + 1 == len(linear) or not linear[i + 1])]
        want = []  # (stage index, unitary) of each step
        for i, st in enumerate(stages):
            if isinstance(st, Measure):
                want.append((i, unitaries[i - 1] if i > 0 and linear[i - 1] else None))
            elif i in ends and not (i + 1 < len(stages) and isinstance(stages[i + 1], Measure)):
                want.append((i, unitaries[i]))
        amps = LogicalAmplitudes.basis(len(circuit.qubit_beams), 0)
        applied.clear()
        run(circuit, amps)
        assert matrices(applied) == matrices(u for _, u in want), name
        # a cut inside a run applies the prefix product of the cut stage
        inside = next((i for i in ends if i > 0 and linear[i - 1]), None)
        if inside is not None:
            applied.clear()
            run(circuit, amps, upto=inside)
            assert applied[-1] is circuit.unitaries[inside - 1], name
            assert matrices(applied[:-1]) == matrices(u for i, u in want if i < inside), name


def test_run_injects_each_ancilla_at_first_use(monkeypatch):
    # gadget k of the heralded gate sees its own Bell pair only: the earlier
    # pairs are detected and the later ones not yet injected
    from fredkinlab import circuits

    entering = []

    def counting(state, u, kept=None):
        entering.append(state.photon_numbers())
        return apply_unitary(state, u, kept)

    def measuring(state, beam, table, u, occupations=None):
        entering.append(state.photon_numbers())
        return measure_and_feedforward(state, beam, table, u, occupations)

    monkeypatch.setattr(circuits, "apply_unitary", counting)
    monkeypatch.setattr(circuits, "measure_and_feedforward", measuring)
    circuit = get_gate("fredkin-heralded").build()
    res = run(circuit, LogicalAmplitudes.basis(3, 0b101))
    assert entering == [{5}, {4}] * 4 + [{3}]
    assert res.probability == pytest.approx(0.25**5, abs=1e-15)


def test_run_keeps_an_ancilla_no_stage_touches():
    # a qubit, a plate on it and a photon on a beam no stage touches
    reg = register_modes(["c", "idle"])
    circuit = Circuit("idle-ancilla", reg, 2, ("c",), ("c",),
                      (Linear((Hwp("c", 22.5),), label="plate"),
                       PostSelect((PostSelectionRule.beam_counts(reg, {"c": 1}),),
                                  label="keep")),
                      ancillae=(SinglePhoton("idle", Polarization.H),))
    amps = LogicalAmplitudes((0.6, 0.8))
    assert circuit.prepare_input(amps).photon_numbers() == {1}
    trail = stage_by_stage(circuit, amps)
    for upto, (want, _) in enumerate(trail, start=1):
        got = run(circuit, amps, upto=upto)
        assert got.state.photon_numbers() == {2}
        assert got.state.amps.keys() == want.amps.keys()
        for occ, a in want.amps.items():
            assert abs(got.state.amps[occ] - a) <= 1e-15
        assert got.probability == pytest.approx(1.0, abs=1e-15)


def test_photonic_state_input_gets_no_ancilla():
    circuit = get_gate("fredkin-heralded").build()
    amps = LogicalAmplitudes.basis(3, 0b101)
    bare = prepare_logical_input(circuit.registry, amps, circuit.qubit_beams)
    assert run(circuit, bare, upto=1, expected_photons=3).state.photon_numbers() == {3}
    # an input prepared with every ancilla runs as the logical one does; an
    # ancilla injected on top of it would overlap its own modes
    full = bare
    for anc in circuit.ancillae:
        full = tensor(full, anc.state(circuit.registry))
    for upto in (1, 4, circuit.stage_prefix("cnot-2-parity-pbs"), None):
        got = run(circuit, full, upto=upto).state.amps
        want = run(circuit, amps, upto=upto).state.amps
        assert got.keys() == want.keys()
        assert max(abs(got[occ] - want[occ]) for occ in want) <= 1e-15


# -- occupation tables ---------------------------------------------------------------


def map_inputs(n_qubits):
    """The inputs of `conditional_process_map`: each basis state, then each
    equal superposition of two of them."""
    d = 1 << n_qubits
    inputs = [LogicalAmplitudes.basis(n_qubits, i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            vals = [0.0] * d
            vals[i] = vals[j] = S2
            inputs.append(LogicalAmplitudes(tuple(vals)))
    return inputs


def exact_record(result):
    """Everything a run returns, in order, for comparison with `==`."""
    return (list(result.state.amps.items()), result.probability,
            [(r.pattern, r.probability, r.action) for r in result.branch_log])


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_warm_tables_equal_cold_ones_exactly(name):
    # a table filled by earlier runs hands out exactly the factors a fresh
    # circuit works out: the same amplitudes in the same order, bit for bit
    info = get_gate(name)
    warm = info.build()
    n = len(warm.qubit_beams)
    rng = np.random.default_rng(29)
    inputs = map_inputs(n) + [LogicalAmplitudes.random(n, rng) for _ in range(20)]
    first = [exact_record(run(warm, amps)) for amps in inputs]
    second = [exact_record(run(warm, amps)) for amps in inputs]
    cold = [exact_record(run(info.build(), amps)) for amps in inputs]
    assert first == second == cold
    if info.kind == "known_target":
        from fredkinlab.analysis import evaluate_known_target

        once = evaluate_known_target(warm).matrix
        assert np.array_equal(evaluate_known_target(warm).matrix, once)
        assert np.array_equal(evaluate_known_target(info.build()).matrix, once)


def test_tables_stay_with_their_circuit():
    # circuits of different gates built, run and dropped in turn: a table
    # shared between circuits, or found again under a reused object id,
    # would hand one gate the actions of another
    names = sorted(CATALOG)
    rng = np.random.default_rng(31)
    inputs = {}
    want = {}
    for name in names:
        info = get_gate(name)
        n = len(info.build().qubit_beams)
        inputs[name] = [LogicalAmplitudes.basis(n, 0), LogicalAmplitudes.random(n, rng)]
        want[name] = [exact_record(run(info.build(), amps)) for amps in inputs[name]]
    for _ in range(3):
        for name in rng.permutation(names):
            circuit = get_gate(name).build()
            assert [exact_record(run(circuit, amps)) for amps in inputs[name]] == want[name]
            del circuit
            gc.collect()


def test_errors_survive_warm_tables():
    # an occupation whose action raises is never stored: each run through a
    # circuit whose tables a good run has filled raises again
    def raises_twice(exc, circuit, bad, good, **kw):
        run(circuit, good, **kw)
        for _ in range(2):
            with pytest.raises(exc):
                run(circuit, bad, **kw)
        run(circuit, good, **kw)

    reg = register_modes(["c", "x"])
    flip = Circuit("flip", reg, 2, ("c", "x"), ("c", "x"), (ControlledFlip("c", "x"),))
    good = LogicalAmplitudes.basis(2, 0b10)
    for occ in ((0, 0, 1, 1), (1, 1, 0, 0)):  # control with 0, then 2 photons
        bad = PhotonicState(reg, {(1, 0, 1, 0): S2, occ: S2})
        raises_twice(ControlFlipError, flip, bad, good)

    reg = register_modes(["a"])
    overlapping = (PostSelectionRule.mode_counts(reg, [((1,), 1)]),
                   PostSelectionRule.mode_counts(reg, [((0,), 0)]))
    keep = Circuit("keep", reg, 1, ("a",), ("a",), (PostSelect(overlapping),))
    # |H> matches no rule and enters the table; |V> matches both
    raises_twice(EngineError, keep, LogicalAmplitudes((0.6, 0.8)), LogicalAmplitudes.basis(1, 0))

    reg = register_modes(["a", "b"])
    no_flip = FeedForwardTable.build({(1, 0): [], (0, 1): []})
    measure = Circuit("measure", reg, 2, ("a", "b"), ("b",), (Measure("a", no_flip),))
    raises_twice(FeedForwardError, measure, LogicalAmplitudes((0, S2, S2, 0)),
                 LogicalAmplitudes((0, S2, 0, S2)))
    only_h = FeedForwardTable(entries=(((1, 0), ()),), default_reject=False)
    measure = Circuit("measure", reg, 2, ("a", "b"), ("b",), (Measure("a", only_h),))
    raises_twice(FeedForwardError, measure, LogicalAmplitudes.basis(2, 0b10),
                 LogicalAmplitudes.basis(2, 0b01))

    pittman = get_gate("cnot-pittman").build()
    amps = LogicalAmplitudes.basis(2, 1)
    bare = prepare_logical_input(pittman.registry, amps, pittman.qubit_beams)
    raises_twice(CircuitError, pittman, bare, amps)  # 2 photons in, 4 declared
    for _ in range(2):
        with pytest.raises(CircuitError, match=r"photon numbers \[4\], declared 3"):
            run(pittman, amps, expected_photons=3)
    heralded = get_gate("fredkin-heralded").build()
    raises_twice(FockError, heralded, LogicalAmplitudes.basis(2, 0),
                 LogicalAmplitudes.basis(3, 0))


@dataclass(frozen=True)
class _MaybePhoton:
    """An ancilla of mixed photon number: vacuum or one H photon on `beam`."""
    beam: str

    def state(self, registry):
        occ = [0] * registry.size
        occ[registry.index(self.beam, Polarization.H)] = 1
        return PhotonicState(registry, {registry.vacuum(): S2, tuple(occ): S2})


def _photon_error(circuit, inp, **kw) -> str:
    with pytest.raises(CircuitError) as exc:
        run(circuit, inp, **kw)
    return str(exc.value)


def test_the_photon_number_check_raises_alike_on_every_run():
    # a logical input's photon numbers are worked out once per circuit, not per
    # run: a mismatch raises the same error on a cold circuit and a warm one,
    # on the full program and on a cut
    for name, upto in (("cnot-ralph", None), ("cnot-pittman", None), ("cnot-pittman", 1)):
        circuit = get_gate(name).build()
        amps = LogicalAmplitudes.basis(2, 1)
        want = f"input carries photon numbers [{circuit.photons}], declared 3"
        assert [_photon_error(circuit, amps, upto=upto, expected_photons=3)
                for _ in range(2)] == [want, want]
        run(circuit, amps, upto=upto)
        assert _photon_error(circuit, amps, upto=upto, expected_photons=3) == want
    # the known-target gate declares the control alone; a run with a target
    # photon passes only with its count overridden
    simplified = get_gate("cnot-simplified").build()
    reg = simplified.registry
    with_target = PhotonicState(reg, {qubit_ket(reg, ("c", "t"), (1, 1)): 1.0})
    for _ in range(2):
        assert _photon_error(simplified, with_target) == (
            "input carries photon numbers [2], declared 1")
        assert run(simplified, with_target, expected_photons=2).probability > 0.0
        assert run(simplified, LogicalAmplitudes.basis(1, 1)).probability > 0.0
    # an ancilla of mixed photon number gives the input every count it can hold
    reg = register_modes(["c", "a"])
    mixed = Circuit("mixed", reg, 2, ("c",), ("c",),
                    (Linear((Hwp("c", 22.5), Hwp("a", 45.0))),), ancillae=(_MaybePhoton("a"),))
    assert mixed.input_photons == {1, 2}
    for _ in range(2):
        assert _photon_error(mixed, LogicalAmplitudes.basis(1, 0)) == (
            "input carries photon numbers [1, 2], declared 2")
    # a zero-norm input is refused before its photons are counted
    for circuit in (simplified, get_gate("cnot-ralph").build()):
        for _ in range(2):
            assert _photon_error(circuit, PhotonicState(circuit.registry, {})) == (
                "input state has zero norm")



@pytest.mark.parametrize("touch", [False, True])
@pytest.mark.parametrize("declared", [1, 2])
def test_an_ancilla_of_mixed_photon_number_after_the_first_step_fits_no_count(declared, touch):
    # the ancilla on `a` enters at the second step, or, untouched, after the
    # last; with it the input holds 1 or 2 photons, so no declared count fits
    reg = register_modes(["c", "a"])
    second = Linear((Hwp("a", 45.0),), label="turn-a") if touch else PostSelect(
        (PostSelectionRule.beam_counts(reg, {"c": 1}),), label="keep")
    circuit = Circuit("late-mixed", reg, declared, ("c",), ("c",),
                      (Measure("c", FeedForwardTable.build({(1, 0): [], (0, 1): []}),
                               label="count"), second),
                      ancillae=(_MaybePhoton("a"),))
    assert circuit.program(2).steps[0].injection is None and circuit.input_photons == {1, 2}
    assert (circuit.program(2).steps[-1].injection is not None) == touch
    want = f"input carries photon numbers [1, 2], declared {declared}"
    for upto in (None, 1, None):
        for kw in ({}, {"expected_photons": declared}):
            assert _photon_error(circuit, LogicalAmplitudes.basis(1, 0), upto=upto, **kw) == want


def test_a_cut_run_compiles_only_its_own_program():
    # the ancillae a logical input holds come from the circuit, not from the
    # full program, so a cut run on a fresh circuit compiles its program alone
    circuit = get_gate("fredkin-heralded").build()
    cut = circuit.stage_prefix("cnot-2-d1")
    run(circuit, LogicalAmplitudes.basis(3, 0b101), upto=cut)
    assert list(circuit._programs) == [cut]
    assert len(circuit._steps) == len(circuit.program(cut).steps) == 3


def test_the_readme_python_example_prints_what_it_says(tmp_path, monkeypatch):
    # every python block of the README runs as written: the circuit-file
    # example, which writes its file in the working directory, and the Python API one
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        blocks = [block[:block.index("```")] for block in f.read().split("```python\n")[1:]]
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    outputs = []
    for k, code in enumerate(blocks):
        out = io.StringIO()
        with redirect_stdout(out):
            exec(compile(code, f"README.md python block {k + 1}", "exec"), {})
        outputs.append(out.getvalue())
    assert outputs[0] == "" and (tmp_path / "sanaka.json").is_file()
    p, *terms = outputs[1].splitlines()
    assert abs(float(p) - 1 / 64) <= 1e-12
    assert terms == ["(+0+0.1j) |V^L_c H^L_t1 H^L_t2>", "(+0.075+0j) |H^S_c H^S_t1 H^S_t2>"]
