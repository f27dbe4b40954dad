"""Acceptance suite: every registered claim at its stated tolerance.

Each criterion is one test that prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from fredkinlab import (
    DetectorBasis,
    DetectorSpec,
    FeedForwardTable,
    LogicalAmplitudes,
    ModeUnitary,
    PhotonicState,
    apply_unitary,
    hwp_matrix,
    measure_and_feedforward,
    register_modes,
    state_fidelity,
    transition_amplitude_oracle,
)
from fredkinlab.analysis import (
    KNOWN_TARGET_IDEAL,
    evaluate_known_target,
    gate_report,
    optimize_gate,
    phase_fixed_map_deviation,
    random_inputs,
)
from fredkinlab.catalog import get_gate
from fredkinlab.circuits import (
    TimeBinConfig,
    TimeBinConfigError,
    build_fredkin_heralded,
    build_fredkin_postselected,
    build_fredkin_timebin,
    build_sanaka_cnot,
    build_simplified_cnot,
    run,
    simplified_mesh_sectors,
)
from fredkinlab.fock import Polarization, TimeBin, prepare_logical_input

from conftest import haar_unitary
from helpers import (
    assert_states_close,
    bits_of,
    fredkin_vec,
    phase_fixed_deviation,
    pol,
    qubit_ket,
    state_from_terms,
)

S2 = 1 / math.sqrt(2)


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def mesh_outcome():
    return optimize_gate("simplified-cnot", seed=7, restarts=12)


def test_criterion_01_hwp_algebra():
    checks = [
        (67.5, 0, [-S2, S2]),   # H -> (-H + V)/sqrt2
        (67.5, 1, [S2, S2]),    # V -> (H + V)/sqrt2
        (22.5, 0, [S2, S2]),    # H -> (H + V)/sqrt2
        (22.5, 1, [S2, -S2]),   # V -> (H - V)/sqrt2
        (45.0, 0, [0.0, 1.0]),  # H -> V
        (45.0, 1, [1.0, 0.0]),  # V -> H
    ]
    ok = all(
        np.max(np.abs(hwp_matrix(theta)[:, col] - np.array(expect))) < 1e-12
        for theta, col, expect in checks
    )
    report(1, "half-wave plate transformations at 22.5/45/67.5 degrees", ok)


def test_criterion_02_heralded_ideal_output_states():
    circ = build_fredkin_heralded("ideal")
    rng = np.random.default_rng(202608)
    ok = True
    for _ in range(50):
        amps = LogicalAmplitudes.random(3, rng)
        out = run(circ, amps).state.normalized()
        expect = fredkin_vec(amps.values)
        for j in range(8):
            ket = qubit_ket(circ.registry, ("c", "t1", "t2"), bits_of(j, 3))
            got = out.amps.get(ket, 0.0)
            if abs(got - expect[j]) >= 1e-10:
                ok = False
    # intermediate state after the four conditional flips
    amps = LogicalAmplitudes.random(3, rng)
    mid = run(circ, amps, upto=circ.stage_prefix("cnot-4")).state
    terms = []
    for i, a in enumerate(amps.values):
        c, x, y = bits_of(i, 3)
        terms.append((a, {"c": pol(c),
                          ("t1" if x == 0 else "t2x"): pol(x ^ c),
                          ("t2" if y == 0 else "t1x"): pol(y ^ c)}))
    try:
        assert_states_close(mid, state_from_terms(circ.registry, terms), tol=1e-10)
    except AssertionError:
        ok = False
    report(2, "heralded Fredkin (ideal CNOTs): output coefficients and "
              "post-flip intermediate state", ok)


def test_criterion_03_heralded_pittman_probability():
    circ = build_fredkin_heralded("pittman")
    probs = [run(circ, amps).probability for amps in random_inputs(3, 10, 31)]
    expected = 0.25**5  # 9.765625e-4
    ok = all(abs(p - expected) < 1e-12 for p in probs) and max(probs) - min(probs) < 1e-12
    report(3, f"heralded Fredkin (parity-check CNOTs): probability 4^-5 = {expected}", ok)


def test_criterion_04_postselected_intermediate_and_probability():
    circ = build_fredkin_postselected("ideal")
    rng = np.random.default_rng(4)
    amps = LogicalAmplitudes.random(3, rng)
    mid = run(circ, amps, upto=circ.stage_prefix("target-plates")).state
    terms = []
    for i, a in enumerate(amps.values):
        c, x, y = bits_of(i, 3)
        t1_wire, t1_pol = ("t1" if x == 0 else "t2x"), pol(x ^ c)
        t2_wire = "t2" if y == 0 else "t1x"
        for p2 in (Polarization.H, Polarization.V):
            terms.append((a * S2, {"c": pol(c), t1_wire: t1_pol, t2_wire: p2}))
    ok = True
    try:
        assert_states_close(mid, state_from_terms(circ.registry, terms), tol=1e-10)
    except AssertionError:
        ok = False
    probs = [run(circ, amps).probability for amps in random_inputs(3, 10, 41)]
    ok = ok and all(abs(p - 1 / 8) < 1e-12 for p in probs)
    report(4, "post-selected Fredkin (ideal CNOTs): pre-recombination state "
              "and acceptance 1/8", ok)


def test_criterion_05_fig3_realization(mesh_outcome):
    circ = build_fredkin_postselected("fig3", mesh_params=mesh_outcome.parameters)
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(5):
        amps = LogicalAmplitudes.random(3, rng)
        res = run(circ, amps)
        if abs(res.probability - 1 / 192) >= 1e-12:
            ok = False
        expected = prepare_logical_input(
            circ.registry, LogicalAmplitudes(tuple(fredkin_vec(amps.values))),
            ("c", "t1", "t2"))
        if state_fidelity(res.state, expected) < 1 - 1e-9:
            ok = False
        if phase_fixed_deviation(res.state, expected) > 1e-9:
            ok = False
    report(5, "physical post-selected Fredkin: fidelity 1 and probability 1/192 "
              "with the optimized known-target gate", ok)


def _sector_deviation(k2: np.ndarray, kv: np.ndarray) -> float:
    """The worse phase-fixed deviation of the known-target gate's
    target-present and target-absent sectors from their ideal; each sector
    is scaled on its own, as in its fidelity."""
    return max(phase_fixed_map_deviation(k2, KNOWN_TARGET_IDEAL[:4, [0, 2]]),
               phase_fixed_map_deviation(kv, KNOWN_TARGET_IDEAL[4:, [1, 3]]))


def test_criterion_06_component_gates(mesh_outcome):
    ok = True
    for name, p_gate in (("cnot-pittman", 0.25), ("cnot-ralph", 1 / 9)):
        rep = gate_report(get_gate(name))
        ok = ok and (all(abs(p - p_gate) < 1e-9 for p in rep.probabilities)
                     and rep.truth_table_fidelity >= 1 - 1e-9)
        ok = ok and phase_fixed_map_deviation(
            rep.process_matrix, math.sqrt(p_gate) * get_gate(name).ideal) <= 1e-9
    ok = ok and abs(mesh_outcome.probability - 1 / 6) <= 1e-12
    ok = ok and mesh_outcome.fidelity >= 1 - 1e-8
    ok = ok and _sector_deviation(*simplified_mesh_sectors(mesh_outcome.parameters)) <= 1e-9
    ev = evaluate_known_target(build_simplified_cnot(mesh_outcome.parameters))
    ok = ok and ev.fidelity >= 1 - 1e-9
    ok = ok and _sector_deviation(ev.matrix[:4, [0, 2]], ev.matrix[4:, [1, 3]]) <= 1e-9
    report(6, "component gates: parity-check 1/4, three-splitter 1/9, "
              "known-target mesh reaches 1/6", ok)


def test_criterion_07_time_bin_cnot():
    circ = build_sanaka_cnot()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(10):
        b = LogicalAmplitudes.random(2, rng)
        res = run(circ, b)
        if abs(res.probability - 0.25) >= 1e-12:
            ok = False
        terms = []
        for i, a in enumerate(b.values):
            cbit, tbit = bits_of(i, 2)
            tbin = TimeBin.L if cbit else TimeBin.S
            terms.append((0.5 * a, {"c": (pol(cbit), tbin),
                                    "t": (pol(tbit ^ cbit), tbin)}))
        try:
            assert_states_close(res.state, state_from_terms(circ.registry, terms),
                                tol=1e-10)
        except AssertionError:
            ok = False
    for bad in (dict(delta_l=0.05, l_spdc=0.1, l_pump=10.0, delta_t=0.01),
                dict(delta_l=20.0, l_spdc=0.1, l_pump=10.0, delta_t=0.5),
                dict(delta_l=1.0, l_spdc=0.1, l_pump=10.0, delta_t=2.0)):
        try:
            build_sanaka_cnot(TimeBinConfig(**bad))
            ok = False
        except TimeBinConfigError:
            pass
    report(7, "time-bin CNOT: exact map, probability 1/4, invalid configs rejected", ok)


def test_criterion_08_time_bin_fredkin():
    circ = build_fredkin_timebin()
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(20):
        amps = LogicalAmplitudes.random(3, rng)
        res = run(circ, amps)
        if abs(res.probability - 1 / 64) >= 1e-12:
            ok = False
        out_vec = fredkin_vec(amps.values) / 8.0
        terms = []
        for j in range(8):
            c, x, y = bits_of(j, 3)
            tbin = TimeBin.L if c else TimeBin.S
            terms.append((out_vec[j], {"c": (pol(c), tbin), "t1": (pol(x), tbin),
                                       "t2": (pol(y), tbin)}))
        try:
            assert_states_close(res.state, state_from_terms(circ.registry, terms),
                                tol=1e-10)
        except AssertionError:
            ok = False
        for occ in res.state.amps:
            bins = {circ.registry.labels[m].bin for m, n in enumerate(occ) if n > 0}
            if len(bins) != 1:
                ok = False
    report(8, "time-bin Fredkin: exact map, probability 1/64, single-bin outputs", ok)


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(99)
    ok = True
    checked = 0
    while checked < 200:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        u = haar_unitary(m, rng)
        occ_in = [0] * m
        for _ in range(n):
            occ_in[int(rng.integers(0, m))] += 1
        beams = [f"b{i}" for i in range((m + 1) // 2)]
        reg = register_modes(beams)
        full = np.eye(reg.size, dtype=complex)
        full[:m, :m] = u
        mu = ModeUnitary(reg, full)
        occ_full = tuple(occ_in) + (0,) * (reg.size - m)
        out = apply_unitary(PhotonicState.from_occupation(reg, occ_full), mu)
        if abs(out.norm_sq() - 1.0) >= 1e-12:
            ok = False
        items = out.items()
        idx = rng.integers(0, len(items), size=min(4, len(items)))
        for i in set(int(x) for x in idx):
            occ_out, amp = items[i]
            oracle = transition_amplitude_oracle(mu, occ_full, occ_out)
            if abs(amp - oracle) >= 1e-10:
                ok = False
            checked += 1
    # measurement branch probabilities are complete
    reg = register_modes(["a", "b"])
    for _ in range(20):
        amps = {}
        for occ in [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (2, 0, 0, 0)]:
            amps[occ] = rng.normal() + 1j * rng.normal()
        state = PhotonicState(reg, amps).normalized()
        _, _, log = measure_and_feedforward(
            state, DetectorSpec("a", DetectorBasis.HV), FeedForwardTable.build({}), None)
        if abs(sum(r.probability for r in log) - 1.0) >= 1e-12:
            ok = False
    report(9, "engine amplitudes match the permanent oracle; norms and branch "
              "probabilities are conserved", ok)


def test_criterion_10_cli_determinism():
    def run_cli(args):
        import os
        env = dict(os.environ)
        env.pop("PHOTONIC_LAB_CONFIG", None)
        proc = subprocess.run([sys.executable, "-m", "fredkinlab.cli", *args],
                              capture_output=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    verify_args = ["verify", "cnot-sanaka", "--sweep", "5", "--format", "json"]
    optimize_args = ["optimize", "ralph-topology", "--seed", "11",
                     "--restarts", "3", "--format", "json"]
    ok = run_cli(verify_args) == run_cli(verify_args)
    ok = ok and run_cli(optimize_args) == run_cli(optimize_args)
    report(10, "verify and optimize are byte-deterministic for fixed seeds", ok)
