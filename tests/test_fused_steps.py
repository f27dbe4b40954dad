"""The steps a circuit fuses, against an unfused reference kept here: the
post-selection folded into the last linear step, each measurement folded
into the linear step before it, flips folded into the linear step before
them, and measurement with plain branch maps.

The reference runs the stages of a circuit's compiled steps one at a time:
each linear step emitting all of its terms, then each flip term by term,
the measurement on its own (its plate, if any, a second unitary), the
post-selection filtering the terms, and each measurement branch a
`PhotonicState` corrected one correction at a time.  Its flip,
post-selection and measurement are its own, not the engine's.  Every result
must equal the reference's to the bit: `float.hex` of each amplitude, in
the same order, of the probability and of each branch record.
"""

import dataclasses
import math

import numpy as np
import pytest

from fredkinlab import LogicalAmplitudes, PhotonicState, Polarization
from fredkinlab.catalog import CATALOG, get_gate
from fredkinlab.circuits import (
    BellPair,
    Circuit,
    ControlFlipError,
    ControlledFlip,
    Linear,
    Measure,
    PostSelect,
    SinglePhoton,
    run,
)
from fredkinlab.elements import Bs, Hwp
from fredkinlab.engine import (
    FEEDFORWARD_CONSISTENCY_TOL,
    REJECT,
    BranchRecord,
    EngineError,
    FeedForwardError,
    FeedForwardTable,
    PostSelectionRule,
    StepTable,
    apply_unitary,
    detection,
    measure_and_feedforward,
    swap_hv,
)
from fredkinlab.fock import prepare_logical_input, register_modes, tensor
from helpers import controlled_flip

# -- the unfused reference -----------------------------------------------------


def _reference_correction(state: PhotonicState, beam: str, kind: str) -> PhotonicState:
    reg = state.registry
    h_modes = reg.modes_where(beams=[beam], pol=Polarization.H)
    v_modes = reg.modes_where(beams=[beam], pol=Polarization.V)
    out = {}
    for occ, a in state.amps.items():
        if kind == "sign" and sum(occ[m] for m in v_modes) % 2 == 1:
            a = -a
        if kind == "flip":
            occ = swap_hv(occ, h_modes, v_modes)
        out[occ] = out.get(occ, 0.0) + a
    return PhotonicState(reg, out, validate=False)


def _reference_post_select(state: PhotonicState, rules) -> PhotonicState:
    """The terms that exactly one of `rules` matches; two matching raise."""
    kept = {}
    for occ, a in state.amps.items():
        matched = [rule for rule in rules if rule.matches(occ)]
        if len(matched) > 1:
            raise EngineError("post-selection rule union is not disjoint")
        if matched:
            kept[occ] = a
    return PhotonicState(state.registry, kept, validate=False)


def _reference_measure(state, beam, table, n_in):
    """H/V counting of `beam` with a state per branch and normalized copies,
    handing on the first accepted branch scaled to the total acceptance
    probability, with a record per accepted pattern.  `n_in` is the squared
    norm of the state that entered the measurement's step, which the step's
    unitary and flips keep."""
    reg = state.registry
    det_modes = reg.beam_modes(beam)
    if n_in <= 0.0:
        return PhotonicState(reg, {}, validate=False), []
    branches = {}
    for occ, a in state.amps.items():
        cleared = list(occ)
        for m in det_modes:
            cleared[m] = 0
        branches.setdefault(tuple(occ[m] for m in det_modes), {})[tuple(cleared)] = a
    records, accepted = [], []
    for pattern in sorted(branches):
        sub = PhotonicState(reg, branches[pattern], validate=False)
        p_branch = sub.norm_sq() / n_in
        action = table.lookup(pattern)
        if action == REJECT:
            continue
        for beam, kind in action:
            sub = _reference_correction(sub, beam, kind)
        records.append(BranchRecord(pattern, p_branch, "accept"))
        accepted.append((p_branch, sub))
    if not accepted:
        return PhotonicState(reg, {}, validate=False), records
    units = [sub.normalized().amps for _, sub in accepted]
    deviation = max((abs(u.get(occ, 0.0) - units[0].get(occ, 0.0))
                     for u in units[1:] for occ in u.keys() | units[0].keys()), default=0.0)
    if deviation > FEEDFORWARD_CONSISTENCY_TOL:
        raise FeedForwardError(
            "corrected branches disagree; feed-forward table does not make the "
            f"gate deterministic (amplitudes differ by {deviation:.3g})")
    p_total = sum(p for p, _ in accepted)
    first = accepted[0][1]  # the lowest accepted pattern's
    scale = math.sqrt(p_total * n_in) / math.sqrt(first.norm_sq())
    return PhotonicState(reg, {k: v * scale for k, v in first.amps.items()},
                         validate=False), records


def _stage_index(circuit: Circuit, stage) -> int:
    return next(i for i, st in enumerate(circuit.stages) if st is stage)


def _reference_run(circuit: Circuit, inp: LogicalAmplitudes | PhotonicState, upto=None):
    """`run` over the same compiled steps, with every stage of a step on its
    own: a step's linear run emits every term, then each stage folded into
    it runs after it.  A `PhotonicState` input gets no ancilla."""
    prog = circuit.program(len(circuit.stages[:upto]))
    logical = isinstance(inp, LogicalAmplitudes)
    state = circuit.prepare_input(inp) if logical else inp
    n0 = state.norm_sq() * (circuit.ancilla_norm_sq if logical else 1.0)
    log = []
    for step in prog.steps:
        if step.injection is not None and logical:
            state = tensor(state, step.injection.state)
        n_step = state.norm_sq()
        for st in step.stages:
            i = _stage_index(circuit, st)
            if isinstance(st, Linear):
                state = apply_unitary(state, circuit.unitaries[i])
            elif isinstance(st, ControlledFlip):
                state = controlled_flip(state, st.control, st.target)
            elif isinstance(st, Measure):
                state, records = _reference_measure(state, st.beam, st.table, n_step)
                log.extend(records)
            elif isinstance(st, PostSelect):
                state = _reference_post_select(state, st.rules)
            else:
                raise AssertionError(f"no reference for {st!r}")
    if prog.rest is not None and logical:
        state = tensor(state, prog.rest.state)
    return state, state.norm_sq() / n0, log


def _bits(state, probability, log):
    """Everything a run returns, as exact float images, in stored order."""
    def z(a):
        return float(a.real).hex(), float(a.imag).hex()
    return ([(occ, z(a)) for occ, a in state.amps.items()], float(probability).hex(),
            [(r.pattern, float(r.probability).hex(), r.action) for r in log])


def _inputs(n_qubits: int, seed: int):
    rng = np.random.default_rng(seed)
    return ([LogicalAmplitudes.basis(n_qubits, i) for i in range(1 << n_qubits)]
            + [LogicalAmplitudes.random(n_qubits, rng) for _ in range(5)])


def _folded(circuit: Circuit) -> bool:
    last = circuit.program(len(circuit.stages)).steps[-1]
    return isinstance(last.stages[-1], PostSelect) and last.unitary is not None


# -- bit identity ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_runs_match_the_unfused_reference_to_the_bit(name):
    circuit = get_gate(name).build()
    for amps in _inputs(len(circuit.qubit_beams), seed=1207):
        res = run(circuit, amps)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(circuit, amps))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_cut_matches_the_unfused_reference_to_the_bit(name):
    # every program of a circuit numbers occupations in its one numbering, so
    # the full run goes first and each cut then meets the numbers it gave
    circuit = get_gate(name).build()
    n = len(circuit.qubit_beams)
    rng = np.random.default_rng(2024)
    run(circuit, LogicalAmplitudes.random(n, rng))
    prepared = prepare_logical_input(circuit.registry, LogicalAmplitudes.random(n, rng),
                                     circuit.qubit_beams)
    for ancilla in circuit.ancillae:
        prepared = tensor(prepared, ancilla.state(circuit.registry))
    for upto in range(1, len(circuit.stages) + 1):
        for inp in (LogicalAmplitudes.basis(n, upto % (1 << n)),
                    LogicalAmplitudes.random(n, rng), prepared):
            res = run(circuit, inp, upto=upto)
            assert _bits(res.state, res.probability, res.branch_log) == _bits(
                *_reference_run(circuit, inp, upto=upto)), (upto, inp)


def test_every_post_selected_catalog_gate_folds():
    folded = {name for name in CATALOG if _folded(get_gate(name).build())}
    post_selected = {name for name in CATALOG
                     if isinstance(get_gate(name).build().stages[-1], PostSelect)}
    assert folded == post_selected
    assert "fredkin-heralded" in folded and "cnot-pittman" not in folded


@pytest.mark.parametrize("name", ["fredkin-fig3", "cnot-ralph", "cnot-sanaka"])
def test_cut_at_the_last_linear_stage_gets_every_term(name):
    circuit = get_gate(name).build()
    amps = _inputs(len(circuit.qubit_beams), seed=44)[-1]
    cut = len(circuit.stages) - 1
    run(circuit, amps)  # the folded rows exist before the cut runs
    res = run(circuit, amps, upto=cut)
    assert _bits(res.state, res.probability, res.branch_log) == _bits(
        *_reference_run(circuit, amps, upto=cut))
    rules = circuit.stages[-1].rules
    dropped = [occ for occ in res.state.amps if not any(r.matches(occ) for r in rules)]
    assert dropped


# -- measurements folded into the linear step before them ------------------------------


def _steps(circuit: Circuit):
    return circuit.program(len(circuit.stages)).steps


def test_every_catalog_measurement_folds():
    for name in sorted(CATALOG):
        circuit = get_gate(name).build()
        steps = _steps(circuit)
        measured = [step for step in steps if isinstance(step.stages[-1], Measure)]
        assert [step.stages[-1] for step in measured] == [
            st for st in circuit.stages if isinstance(st, Measure)], name
        for before, step in zip(steps, steps[1:]):
            assert not (isinstance(before.stages[-1], Linear)
                        and isinstance(step.stages[-1], Measure)), name
        for step in measured:
            i = _stage_index(circuit, step.stages[-1])
            assert isinstance(circuit.stages[i - 1], Linear), name
            assert step.unitary is circuit.unitaries[i - 1], name
    assert len(_steps(get_gate("cnot-pittman").build())) == 2
    assert len(_steps(get_gate("fredkin-heralded").build())) == 9


def test_every_program_meets_a_measurement_with_one_unitary():
    # a measurement step's `StepTable` holds rows through one unitary, and
    # every cut program that reaches the stage shares it
    for name in sorted(CATALOG):
        circuit = get_gate(name).build()
        met = {}
        for n in range(1, len(circuit.stages) + 1):
            for step in circuit.program(n).steps:
                if isinstance(step.stages[-1], Measure):
                    assert isinstance(step.table, StepTable), name
                    matrix = met.setdefault(id(step.table), step.unitary.matrix)
                    assert np.array_equal(step.unitary.matrix, matrix), (name, n)
        assert len(met) == sum(isinstance(st, Measure) for st in circuit.stages), name


@pytest.mark.parametrize("label", ["parity-pbs", "d1-plate", "target-rpbs"])
def test_cut_at_the_linear_stage_before_a_measurement_gets_every_term(label):
    circuit = get_gate("cnot-pittman").build()
    amps = _inputs(2, seed=45)[-1]
    cut = circuit.stage_prefix(label)
    run(circuit, amps)  # the folded rows exist before the cut runs
    res = run(circuit, amps, upto=cut)
    assert _bits(res.state, res.probability, res.branch_log) == _bits(
        *_reference_run(circuit, amps, upto=cut))
    # the linear run's product alone as the last step
    last = circuit.program(cut).steps[-1]
    assert isinstance(last.stages[-1], Linear) and last.unitary is circuit.unitaries[cut - 1]


def test_a_cut_after_a_folded_first_step_injects_no_ancilla_twice():
    # the folded first step touches e through its linear run only; a cut run
    # must count e among the ancillae that step has already injected
    reg = register_modes(("c", "d", "e"))
    stages = (Linear((Hwp("d", 22.5), Hwp("e", 45.0)), label="plates"),
              Measure("d", FeedForwardTable.build({(1, 0): [], (0, 1): []}), label="detect"),
              Linear((Hwp("c", 22.5),), label="rotate"))
    circuit = Circuit(name="folded-head", registry=reg, photons=3, qubit_beams=("c",),
                      output_beams=("c",), stages=stages,
                      ancillae=(SinglePhoton("d", Polarization.H),
                                SinglePhoton("e", Polarization.H)))
    assert isinstance(_steps(circuit)[0].stages[-1], Measure)
    amps = LogicalAmplitudes((0.6, 0.8))
    for upto in (2, 3):
        res = run(circuit, amps, upto=upto)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(circuit, amps, upto=upto))
        assert res.state.photon_numbers() == {2}
        assert res.probability == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("target", ["t", "a"])
def test_a_flip_before_an_ancilla_matches_the_reference_at_every_cut(target):
    # the first step is an ideal flip of t, which touches no ancilla, so the
    # Bell pair enters at the linear stage after it; or a flip of a, which
    # touches the pair, so it enters at the first step.  The post-selection
    # folds into the linear stage's step.
    reg = register_modes(("c", "t", "a", "b"))
    circuit = Circuit(name="flip-first", registry=reg, photons=4, qubit_beams=("c", "t"),
                      output_beams=("c", "t"),
                      stages=(ControlledFlip("c", target, label="flip"),
                              Linear((Bs(0.5, "t", "a"), Hwp("b", 22.5)), label="mix"),
                              PostSelect((PostSelectionRule.beam_counts(reg, {"c": 1, "t": 1}),),
                                         label="keep")),
                      ancillae=(BellPair("a", "b"),))
    late = target == "t"
    steps = _steps(circuit)
    assert [step.stages for step in steps] == [circuit.stages[:1], circuit.stages[1:]]
    entering = steps[late].injection
    assert steps[not late].injection is None and entering is not None
    assert entering.modes == frozenset(reg.beam_modes("a") + reg.beam_modes("b"))
    prepared = prepare_logical_input(reg, _inputs(2, seed=48)[-1], circuit.qubit_beams)
    prepared = tensor(prepared, circuit.prepared_ancillae[0][0])
    for upto in range(1, len(circuit.stages) + 1):
        for inp in _inputs(2, seed=48) + [prepared]:
            res = run(circuit, inp, upto=upto)
            assert _bits(res.state, res.probability, res.branch_log) == _bits(
                *_reference_run(circuit, inp, upto=upto)), (upto, inp)
            assert res.state.photon_numbers() == {4}
        assert (circuit.program(upto).rest is not None) == (late and upto == 1)


def _detector_circuit(basis: str, ancilla_at_measure: bool) -> Circuit:
    """Qubits c, t and an H photon on beam d that a detector counts: after a
    flip, or, with `ancilla_at_measure`, right after a linear step that
    leaves d alone.  In basis "PM" a 22.5-degree plate stage on d comes just
    before the count.  The "-" or V outcome is rejected."""
    reg = register_modes(("c", "t", "d"))
    if ancilla_at_measure:
        stages = (Linear((Hwp("c", 22.5), Hwp("t", 67.5)), label="plates"),)
    else:
        stages = (Linear((Hwp("c", 22.5), Hwp("d", 22.5)), label="plates"),
                  ControlledFlip("c", "t", label="flip"))
    if basis == "PM":
        stages += (Linear((Hwp("d", 22.5),), label="d-plate"),)
    stages += (Measure("d", FeedForwardTable.build({(1, 0): []}), label="detect"),)
    return Circuit(name="detector", registry=reg, photons=3, qubit_beams=("c", "t"),
                   output_beams=("c", "t"), stages=stages,
                   ancillae=(SinglePhoton("d", Polarization.H),))


@pytest.mark.parametrize("basis", ["HV", "PM"])
@pytest.mark.parametrize("ancilla_at_measure", [False, True])
def test_a_measurement_that_does_not_fold_matches_the_reference(basis, ancilla_at_measure):
    # a count composes with the flip before it, into the plates' step, and
    # folds after a plate stage; an ancilla entering at the count itself
    # keeps it apart, while a plate stage before it takes the ancilla in
    circuit = _detector_circuit(basis, ancilla_at_measure)
    steps = _steps(circuit)
    if ancilla_at_measure and basis == "HV":
        assert [step.stages for step in steps] == [circuit.stages[:1], circuit.stages[1:]]
        assert steps[-1].unitary is None and steps[-1].injection is not None
    elif basis == "HV":
        assert [step.stages for step in steps] == [circuit.stages]
        assert steps[0].unitary is circuit.unitaries[0]
    else:
        assert steps[-1].stages == circuit.stages[-2:]
        assert steps[-1].unitary is circuit.unitaries[-2]
        assert len(steps) == 2 - ancilla_at_measure
        assert (steps[-1].injection is not None) == ancilla_at_measure
    for amps in _inputs(2, seed=46):
        res = run(circuit, amps)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(circuit, amps))
        assert 0.0 < res.probability <= 1.0


@pytest.mark.parametrize("basis", ["HV", "PM"])
def test_a_pattern_that_cancels_exactly_leaves_no_record(basis):
    # a HOM pair: one photon in each of a, b, both H (or both V), meets at a
    # balanced splitter and never leaves one photon in each beam, whether
    # or not a plate on a follows
    reg = register_modes(("a", "b"))
    plate = (Linear((Hwp("a", 22.5),)),) if basis == "PM" else ()
    circuit = Circuit(name="hom", registry=reg, photons=2, qubit_beams=("a", "b"),
                      output_beams=("a", "b"),
                      stages=(Linear((Bs(0.5, "a", "b"),)), *plate,
                              Measure("a", FeedForwardTable.build({(2, 0): [], (0, 2): []}))))
    assert isinstance(_steps(circuit)[0].stages[-1], Measure)
    for index in (0, 3):
        amps = LogicalAmplitudes.basis(2, index)
        res = run(circuit, amps)
        ref_state, ref_p, ref_log = _reference_run(circuit, amps)
        for log in (res.branch_log, ref_log):
            assert log and all(sum(r.pattern) != 1 for r in log)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            ref_state, ref_p, ref_log)
        assert res.probability > 0.0


def test_an_unlisted_outcome_that_cancels_is_never_looked_up():
    # the HOM pair of the test above: one photon in a can only arise from
    # amplitudes that cancel, so a table without (1, 0) and with no default
    # runs, and every run records the same accepted pattern
    reg = register_modes(("a", "b"))
    table = FeedForwardTable(entries=(((2, 0), ()), ((0, 0), REJECT)), default_reject=False)
    circuit = Circuit(name="hom", registry=reg, photons=2, qubit_beams=("a", "b"),
                      output_beams=("a", "b"),
                      stages=(Linear((Bs(0.5, "a", "b"),)), Measure("a", table)))
    amps = LogicalAmplitudes.basis(2, 0)
    for _ in range(2):
        res = run(circuit, amps)
        assert [(r.pattern, r.action) for r in res.branch_log] == [((2, 0), "accept")]
        assert res.probability == pytest.approx(0.5, abs=1e-15)


def _mixing_circuit(flip_first: bool) -> Circuit:
    """Qubits c, t and an H photon on beam d, which a splitter mixes with t
    before d is counted.  The table accepts one photon in H, lists no photon
    as rejected and rejects every other pattern by default.  With
    `flip_first`, a flip of t controlled by c comes between the splitter
    and the count, all one step; the inputs keep c in H, so it flips
    nothing."""
    reg = register_modes(("c", "t", "d"))
    table = FeedForwardTable(entries=(((1, 0), ()), ((0, 0), REJECT)))
    stages = (Linear((Bs(0.5, "t", "d"),), label="mix"),
              *([ControlledFlip("c", "t", label="flip")] if flip_first else []),
              Measure("d", table, label="detect"))
    return Circuit(name="mixing", registry=reg, photons=3, qubit_beams=("c", "t"),
                   output_beams=("c", "t"), stages=stages,
                   ancillae=(SinglePhoton("d", Polarization.H),))


def test_a_measurement_gives_the_same_bits_with_its_rows_cut_or_not():
    # alone in its step, the count's rows leave out every output it rejects;
    # after a flip in the same step they hold them all, and the count passes
    # them over.  Either way each accepted output gets the same terms in the
    # same order, and the incoming weight is the step's input's.
    alone, after_flip = _mixing_circuit(False), _mixing_circuit(True)
    (step,), (flipped,) = _steps(alone), _steps(after_flip)
    assert step.stages == alone.stages and flipped.stages == after_flip.stages
    table = alone.stages[-1].table
    modes = alone.registry.beam_modes("d")

    def patterns(table_of_step):
        occupations = table_of_step.numbering.occupations
        return {tuple(occupations[j][m] for m in modes)
                for row in table_of_step.rows.values() for j, _ in row}

    rng = np.random.default_rng(49)
    inputs = [LogicalAmplitudes.basis(2, 0), LogicalAmplitudes.basis(2, 1)]
    for _ in range(3):  # c in H: the flip leaves every term as it is
        t = rng.normal(size=2) + 1j * rng.normal(size=2)
        inputs.append(LogicalAmplitudes(tuple(t / np.linalg.norm(t)) + (0.0, 0.0)))
    for amps in inputs:
        res, ref = run(alone, amps), run(after_flip, amps)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            ref.state, ref.probability, ref.branch_log)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(alone, amps))
        # two H photons meeting at the splitter never leave one in d
        assert [(r.pattern, r.action) for r in res.branch_log] == (
            [] if amps is inputs[0] else [((1, 0), "accept")])
        assert (res.probability > 0.0) == (amps is not inputs[0])
    assert patterns(step.table) == {(1, 0)}
    assert {(0, 0), (1, 0), (2, 0)} <= patterns(flipped.table)
    assert all(table.lookup(p) == REJECT for p in patterns(flipped.table) - {(1, 0)})


# -- flips folded into the linear step before them ------------------------------------


def test_the_post_selected_fredkin_folds_its_flips_into_its_first_step():
    circuit = get_gate("fredkin-postselected").build()
    assert [[type(st) for st in step.stages] for step in _steps(circuit)] == [
        [Linear, ControlledFlip, ControlledFlip], [Linear, PostSelect]]
    amps = _inputs(3, seed=47)[-1]
    run(circuit, amps)  # the folded tables exist before the cuts run
    for upto in range(1, len(circuit.stages) + 1):
        res = run(circuit, amps, upto=upto)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(circuit, amps, upto=upto))
    # a cut at the linear stage the flips fold into gets every row, unflipped
    cut = circuit.stage_prefix("split-t2")
    (step,) = circuit.program(cut).steps
    assert step.stages == (circuit.stages[cut - 1],)
    through = run(circuit, amps, upto=cut).state
    unflipped = apply_unitary(circuit.prepare_input(amps), circuit.unitaries[cut - 1])
    assert _bits(through, 1.0, []) == _bits(unflipped, 1.0, [])


def _mixed_control() -> Circuit:
    """Beams c, d and t: a balanced splitter on c and d, then a flip of t
    controlled by c, folded into one step."""
    reg = register_modes(("c", "d", "t"))
    circuit = Circuit(name="mixed-control", registry=reg, photons=3, qubit_beams=("t",),
                      output_beams=("c", "d", "t"),
                      stages=(Linear((Bs(0.5, "c", "d"),), label="mix"),
                              ControlledFlip("c", "t", label="flip")))
    assert [step.stages for step in _steps(circuit)] == [circuit.stages]
    return circuit


def _photons(reg, terms) -> PhotonicState:
    """A state of terms ``(amplitude, [(beam, pol), ...])``, a photon each."""
    amps = {}
    for amp, photons in terms:
        occ = [0] * reg.size
        for beam, pol in photons:
            occ[reg.index(beam, pol)] += 1
        amps[tuple(occ)] = amp
    return PhotonicState(reg, amps)


def _singlet(reg) -> PhotonicState:
    """(|H_c V_d> - |V_c H_d>)/sqrt2 with an H photon on t: the splitter
    leaves one photon in each of c and d, since every amplitude of two
    photons in one beam cancels."""
    s2 = 1 / math.sqrt(2)
    return _photons(reg, [(s2, [("c", "H"), ("d", "V"), ("t", "H")]),
                          (-s2, [("c", "V"), ("d", "H"), ("t", "H")])])


@pytest.mark.parametrize("pols", [("H", "H"), ("V", "H")])
def test_a_folded_flip_raises_on_a_bad_control_count_on_every_run(pols):
    # two photons meeting at the splitter leave c with 0 or 2 of them
    circuit = _mixed_control()
    reg = circuit.registry
    bad = _photons(reg, [(1.0, [("c", pols[0]), ("d", pols[1]), ("t", "H")])])
    with pytest.raises(ControlFlipError, match="needs exactly 1"):
        controlled_flip(apply_unitary(bad, circuit.unitaries[0]), "c", "t")
    good = run(circuit, _singlet(reg))
    for _ in range(2):
        with pytest.raises(ControlFlipError, match=r"control beam 'c' carries [02] photons"):
            run(circuit, bad)
    again = run(circuit, _singlet(reg))
    assert _bits(again.state, again.probability, []) == _bits(good.state, good.probability, [])


def test_a_control_count_that_cancels_is_never_checked():
    # the splitter reaches outputs with 0 or 2 photons in c, but their
    # amplitudes cancel, so the flip never looks at them and every run passes
    circuit = _mixed_control()
    reg = circuit.registry
    state = _singlet(reg)
    reference = controlled_flip(apply_unitary(state, circuit.unitaries[0]), "c", "t")
    for _ in range(2):
        res = run(circuit, state)
        assert _bits(res.state, 1.0, []) == _bits(reference, 1.0, [])
    (step,) = _steps(circuit)
    control = reg.beam_modes("c")
    occupations = step.table.numbering.occupations
    outputs = {j for row in step.table.rows.values() for j, _ in row}
    bad = [j for j in outputs if sum(occupations[j][m] for m in control) != 1]
    assert bad and all(j not in step.table.actions for j in bad)
    assert res.probability == pytest.approx(1.0, abs=1e-15)


# -- the post-selection that does not fold -------------------------------------------


def _pittman_post_selected(rules_of) -> Circuit:
    """`cnot-pittman` with a post-selection after its last measurement, where
    it cannot fold into a linear step."""
    circuit = get_gate("cnot-pittman").build()
    assert isinstance(circuit.stages[-1], Measure)
    post = PostSelect(rules_of(circuit.registry), label="coincidence")
    return dataclasses.replace(circuit, stages=circuit.stages + (post,))


def _control_h_or_v_with_target_h(reg):
    return (PostSelectionRule.mode_counts(reg, [((reg.index("c", Polarization.H),), 1)]),
            PostSelectionRule.mode_counts(reg, [((reg.index("c", Polarization.V),), 1),
                                                ((reg.index("t", Polarization.H),), 1)]))


def test_post_selection_after_a_measurement_matches_the_reference_to_the_bit():
    circuit = _pittman_post_selected(_control_h_or_v_with_target_h)
    assert not _folded(circuit)
    assert isinstance(circuit.program(len(circuit.stages)).steps[-1].stages[-1], PostSelect)
    dropped = False
    for amps in _inputs(2, seed=31):
        res = run(circuit, amps)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(circuit, amps))
        dropped |= res.probability < 0.25 - 1e-12
    assert dropped  # the rules reject some of the heralded terms


def test_overlapping_rules_after_a_measurement_raise_on_every_run():
    circuit = _pittman_post_selected(lambda reg: (
        PostSelectionRule.beam_counts(reg, {"c": 1}),
        PostSelectionRule.beam_counts(reg, {"t": 1})))
    amps = _inputs(2, seed=32)[-1]
    with pytest.raises(EngineError, match="rule union is not disjoint"):
        _reference_run(circuit, amps)
    for _ in range(2):
        with pytest.raises(EngineError, match="rule union is not disjoint"):
            run(circuit, amps)


def test_a_post_selection_that_does_not_fold_is_a_step_of_its_own():
    # every catalog post-selection folds into a unitary; one after a
    # measurement is a step alone, with no unitary: the identity's rows,
    # then its rules, in the same `apply_unitary` as every other step
    for name in sorted(CATALOG):
        assert all(step.unitary is not None for step in _steps(get_gate(name).build())
                   if isinstance(step.stages[-1], PostSelect)), name
    circuit = _pittman_post_selected(_control_h_or_v_with_target_h)
    last = _steps(circuit)[-1]
    assert last.stages == circuit.stages[-1:]
    assert last.unitary is None and last.injection is None
    for amps in _inputs(2, seed=6):
        res = run(circuit, amps)
        assert _bits(res.state, res.probability, res.branch_log) == _bits(
            *_reference_run(circuit, amps))


# -- checks and errors ---------------------------------------------------------------


def _beam_splitter_circuit(rules_of) -> Circuit:
    reg = register_modes(("c", "t"))
    return Circuit(name="bs", registry=reg, photons=2, qubit_beams=("c", "t"),
                   output_beams=("c", "t"),
                   stages=(Linear((Bs(0.5, "c", "t"),)), PostSelect(rules_of(reg))))


def test_rule_union_that_is_not_disjoint_raises_on_every_run():
    # |H_c V_t> and |V_c H_t> match both rules, which are disjoint each but not as a union
    circuit = _beam_splitter_circuit(lambda reg: (
        PostSelectionRule.beam_counts(reg, {"c": 1}),
        PostSelectionRule.beam_counts(reg, {"t": 1})))
    assert _folded(circuit)
    amps = LogicalAmplitudes.basis(2, 1)
    with pytest.raises(EngineError, match="rule union is not disjoint"):
        _reference_run(circuit, amps)
    for _ in range(2):
        with pytest.raises(EngineError, match="rule union is not disjoint"):
            run(circuit, amps)


def _with_table(circuit: Circuit, index: int, table: FeedForwardTable) -> Circuit:
    stages = list(circuit.stages)
    stages[index] = dataclasses.replace(stages[index], table=table)
    return dataclasses.replace(circuit, stages=tuple(stages))


def _measure_indices(circuit: Circuit):
    return [i for i, st in enumerate(circuit.stages) if isinstance(st, Measure)]


def test_disagreeing_corrections_raise_with_the_reference_deviation():
    circuit = get_gate("cnot-pittman").build()
    first = _measure_indices(circuit)[0]
    wrong = FeedForwardTable.build({(1, 0): [], (0, 1): []})  # the "-" sign flip dropped
    broken = _with_table(circuit, first, wrong)
    amps = _inputs(2, seed=8)[-1]
    with pytest.raises(FeedForwardError) as ref:
        _reference_run(broken, amps)
    for _ in range(2):
        with pytest.raises(FeedForwardError) as got:
            run(broken, amps)
        assert str(got.value) == str(ref.value)
    assert "amplitudes differ by" in str(ref.value)


def test_unlisted_outcome_without_default_reject_raises_on_every_run():
    circuit = get_gate("cnot-pittman").build()
    first = _measure_indices(circuit)[0]
    partial = FeedForwardTable.build({(1, 0): []}, default_reject=False)
    broken = _with_table(circuit, first, partial)
    amps = _inputs(2, seed=9)[-1]
    for _ in range(3):
        with pytest.raises(FeedForwardError, match=r"outcome \(\d, \d\) missing"):
            run(broken, amps)


# -- correction rules no catalog gate uses ------------------------------------------


def _measured_state(reg, corrections, seed):
    """A state on beams c, t (one photon each) and detector beam d whose
    branches agree once corrected: psi with d's H photon, the amplitudes that
    `corrections` turn into psi with its V photon, and a vacuum-d branch that
    the table rejects.  Returns the state and the two accepted patterns."""
    rng = np.random.default_rng(seed)
    tbin = "S" if reg.time_resolved else None
    sector = []
    for mc in reg.beam_modes("c"):
        for mt in reg.beam_modes("t"):
            occ = [0] * reg.size
            occ[mc] = occ[mt] = 1
            sector.append(tuple(occ))

    def draw():
        return dict(zip(sector, rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))))

    psi, rejected = draw(), draw()
    undone = {}
    for occ in sector:
        image = PhotonicState(reg, {occ: 1.0})
        for beam, kind in corrections:
            image = _reference_correction(image, beam, kind)
        ((key, sign),) = image.amps.items()
        undone[occ] = 0.5 * sign * psi[key]
    amps, patterns = dict(rejected), []
    for pol, branch in (("H", psi), ("V", undone)):
        d = reg.index("d", pol, tbin)
        patterns.append(tuple(int(m == d) for m in reg.beam_modes("d")))
        for occ, a in branch.items():
            amps[tuple(n + (m == d) for m, n in enumerate(occ))] = a
    return PhotonicState(reg, amps), patterns


@pytest.mark.parametrize("time_resolved, corrections", [
    (False, [("c", "sign"), ("c", "flip")]),
    (False, [("c", "sign"), ("c", "flip"), ("t", "flip")]),
    (False, [("t", "sign"), ("c", "flip"), ("t", "sign"), ("t", "flip")]),
    (True, [("c", "sign"), ("c", "flip"), ("t", "flip")]),
    (True, [("t", "sign"), ("c", "sign"), ("c", "flip")]),
])
def test_unused_correction_rules_match_the_reference_to_the_bit(time_resolved, corrections):
    reg = register_modes(("c", "t", "d"), time_resolved=time_resolved)
    state, (plain, corrected) = _measured_state(reg, corrections, seed=len(corrections))
    table = FeedForwardTable.build({plain: [], corrected: corrections})
    ref_state, ref_log = _reference_measure(state, "d", table, state.norm_sq())
    ref_p = sum(r.probability for r in ref_log)
    assert [r.action for r in ref_log] == ["accept", "accept"]
    occupations = StepTable.fresh(detection(reg, "d", table))
    for _ in range(2):  # a cold table, then a warm one
        assert _bits(*measure_and_feedforward(state, "d", table, None, occupations)) == (
            _bits(ref_state, ref_p, ref_log))
        assert len(occupations.rows) == len(occupations.numbering.occupations) == len(state.amps)
