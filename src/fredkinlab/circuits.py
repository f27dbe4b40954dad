"""Circuit representation and builders for the Fredkin/CNOT gate zoo.

A circuit is an ordered program of linear stages, ideal conditional flips,
measurements with feed-forward, and terminal post-selection, over a fixed mode
registry.  A measurement counts the H and V photons of one beam; the +/-
counting of the parity-check CNOT is a 22.5-degree plate stage before it.
Builders return the five gate families verified by this package:

* a heralded Fredkin made of four CNOTs (ideal or physical parity-check
  gadgets consuming one Bell pair each),
* a post-selected Fredkin using two CNOTs, plus its physical realization with
  a heralded parity-check CNOT and an optimized known-target gate,
* the parity-check (Bell-assisted) CNOT on its own,
* the three-splitter post-selected CNOT on its own,
* the time-bin CNOT and the time-bin Fredkin built from it.

Beam naming in the Fredkin circuits follows the physical wires: ``t1``/``t2``
carry the target qubits in and out, ``t1x``/``t2x`` are the auxiliary wires
that start in vacuum (they receive the V components at the input splitters)
and end at the heralding/empty ports.  The recombination network is the unique
wiring consistent with pairing the two V wires and the two H wires at the
inner splitters and crossing one output of each into the final merges; the
67.5-degree plates sit on the crossed arms and the 22.5-degree plates on the
straight ones.  With that wiring each surviving term carries a uniform 1/2
amplitude through the network, which the verification suite pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .elements import (
    Bs,
    DelayToL,
    Element,
    Hwp,
    ModeUnitary,
    Pbs,
    Rot,
    Rpbs,
    compose,
)
from .engine import (
    BranchRecord,
    FeedForwardTable,
    PostSelectionRule,
    REJECT,
    StepTable,
    apply_unitary,
    detection,
    measure_and_feedforward,
    need_tuple,
    selection,
    swap_hv,
)
from .fock import (
    DEFAULT_PRUNE_EPS,
    FockError,
    LogicalAmplitudes,
    ModeRegistry,
    NumberedState,
    Numbering,
    Occupation,
    PhotonicState,
    Polarization,
    TimeBin,
    basis_bits,
    basis_occupation,
    register_modes,
    tensor,
)


class CircuitError(ValueError):
    pass


class ControlFlipError(CircuitError):
    pass


class TimeBinConfigError(CircuitError):
    pass


# -- configuration of the time-bin schemes -----------------------------------


@dataclass(frozen=True)
class TimeBinConfig:
    """Interferometer parameters of the time-bin schemes.

    The simulator only models their consequence (two orthogonal, coherently
    superposed bins); the constructor enforces the validity window: the path
    difference must exceed the down-converted photon's coherence length, stay
    below the pump coherence length, and the coincidence window must resolve
    the bins.
    """

    delta_l: float = 1.0
    l_spdc: float = 0.1
    l_pump: float = 10.0
    delta_t: float = 0.5
    speed: float = 1.0

    def __post_init__(self):
        if min(self.delta_l, self.l_spdc, self.l_pump, self.delta_t, self.speed) <= 0:
            raise TimeBinConfigError("time-bin parameters must be positive")
        if not (self.l_spdc <= self.delta_l <= self.l_pump):
            raise TimeBinConfigError(
                f"path difference {self.delta_l} outside coherence window "
                f"[{self.l_spdc}, {self.l_pump}]")
        if not (self.delta_t < self.delta_l / self.speed):
            raise TimeBinConfigError(
                f"coincidence window {self.delta_t} cannot resolve bins separated "
                f"by {self.delta_l / self.speed}")


# -- stages -------------------------------------------------------------------


@dataclass(frozen=True)
class Linear:
    elements: tuple[Element, ...]
    label: str = ""


@dataclass(frozen=True)
class ControlledFlip:
    """Ideal conditional gate: a V-polarized control photon swaps the target
    beam's H and V occupations; an H control leaves it alone.  Empty target
    beams pass through unchanged."""
    control: str
    target: str
    label: str = ""


@dataclass(frozen=True)
class Measure:
    """Photon-number-resolving H/V counting of one beam, then the
    corrections `table` gives its pattern.  Counting in another basis is a
    wave plate in a `Linear` stage before it."""
    beam: str
    table: FeedForwardTable
    label: str = ""


@dataclass(frozen=True)
class PostSelect:
    rules: tuple[PostSelectionRule, ...]
    label: str = ""


Stage = Union[Linear, ControlledFlip, Measure, PostSelect]


# -- ancilla preparation --------------------------------------------------------


@dataclass(frozen=True)
class BellPair:
    """Two-photon polarization Bell state on two beams."""
    beam_a: str
    beam_b: str
    kind: str = "psi_plus"  # (HV + VH)/sqrt2; "phi_plus" is (HH + VV)/sqrt2

    def state(self, registry: ModeRegistry) -> PhotonicState:
        s2 = 1 / math.sqrt(2)
        tb = TimeBin.S if registry.time_resolved else None
        ah = registry.index(self.beam_a, Polarization.H, tb)
        av = registry.index(self.beam_a, Polarization.V, tb)
        bh = registry.index(self.beam_b, Polarization.H, tb)
        bv = registry.index(self.beam_b, Polarization.V, tb)
        vac = [0] * registry.size
        if self.kind == "psi_plus":
            pairs = [(ah, bv), (av, bh)]
        elif self.kind == "phi_plus":
            pairs = [(ah, bh), (av, bv)]
        else:
            raise CircuitError(f"unknown Bell state {self.kind!r}")
        amps = {}
        for i, j in pairs:
            occ = list(vac)
            occ[i] += 1
            occ[j] += 1
            amps[tuple(occ)] = s2
        return PhotonicState(registry, amps)


@dataclass(frozen=True)
class SinglePhoton:
    """One ancilla photon on a beam, in the S bin when time-resolved.  No
    catalog gate uses it; it stays for test circuits and circuit files,
    which can hold it (kind ``photon``)."""
    beam: str
    pol: Polarization = Polarization.V

    def state(self, registry: ModeRegistry) -> PhotonicState:
        tb = TimeBin.S if registry.time_resolved else None
        occ = [0] * registry.size
        occ[registry.index(self.beam, self.pol, tb)] = 1
        return PhotonicState(registry, {tuple(occ): 1.0})


AncillaPrep = Union[BellPair, SinglePhoton]


# -- circuit -------------------------------------------------------------------


class Injection(NamedTuple):
    """Ancillae that enter a run together: their product, its numbered
    occupation table (see `fock.tensor`) and the modes it occupies."""
    state: PhotonicState
    rows: dict[int, tuple[tuple[int, complex], ...]]
    modes: frozenset[int]


class Step(NamedTuple):
    """One step of a run: the stages it applies (a fused run of `Linear`
    stages as its last stage inside the cut, then the stages folded into
    it), its unitary (that run's product, or None), its occupation table,
    and the ancillae tensored in just before it (or None)."""
    stages: tuple[Stage, ...]
    unitary: ModeUnitary | None
    table: StepTable
    injection: Injection | None


class Program(NamedTuple):
    """How `run` carries a logical input through ``stages[:n]``.

    Every step is its unitary's rows into numbered outputs, then one action
    per output (`engine.StepTable`); every table of a circuit numbers
    occupations in the circuit's one `numbering`, so a number means the same
    occupation in every step and every program.  One rule folds them: a
    stage with an action folds into the step before it when no ancilla
    enters there and that step ends in a linear stage or a flip, whose
    action it composes with.  A run cut at a linear stage gets every row of
    its step.
    Each step injects the ancillae it is the first to touch, and `rest`,
    those no step touches, goes in before `run` returns.
    """
    steps: tuple[Step, ...]
    rest: Injection | None


def _touched_modes(registry: ModeRegistry, step: Stage, u: ModeUnitary | None) -> set[int]:
    """The modes a stage acts on: the active modes of a linear stage's `u`,
    the beams of a flip, a detector's beam and those its table corrects, or
    the modes of a post-selection's rules."""
    if isinstance(step, Linear):
        return set(u.modes)
    if isinstance(step, ControlledFlip):
        beams = [step.control, step.target]
    elif isinstance(step, Measure):
        beams = [step.beam]
        for _, action in step.table.entries:
            if action != REJECT:
                beams.extend(beam for beam, _ in action)
    elif isinstance(step, PostSelect):
        return {m for rule in step.rules for modes, _ in rule.constraints for m in modes}
    else:
        raise CircuitError(f"unknown stage {step!r}")
    return {m for beam in beams for m in registry.beam_modes(beam)}


def _in_turn(acts: Sequence[Callable]) -> Callable[[Occupation], object]:
    """The actions `acts` composed, the first listed acting first."""
    def act(occ: Occupation):
        for f in acts:
            occ = f(occ)
        return occ
    return act


def _flip(registry: ModeRegistry, st: ControlledFlip) -> Callable[[Occupation], Occupation]:
    """The action of an ideal flip: a V control photon swaps the target's H
    and V occupations, an H one leaves them; any other count raises."""
    (ctrl_h, ctrl_v), (tgt_h, tgt_v) = registry.hv_modes(st.control), registry.hv_modes(st.target)

    def flip(occ: Occupation) -> Occupation:
        nv = sum(occ[m] for m in ctrl_v)
        n = nv + sum(occ[m] for m in ctrl_h)
        if n != 1:
            raise ControlFlipError(
                f"control beam {st.control!r} carries {n} photons, needs exactly 1")
        return swap_hv(occ, tgt_h, tgt_v) if nv == 1 else occ
    return flip


@dataclass(frozen=True)
class Circuit:
    name: str
    registry: ModeRegistry
    photons: int
    qubit_beams: tuple[str, ...]
    output_beams: tuple[str, ...]
    stages: tuple[Stage, ...]
    ancillae: tuple[AncillaPrep, ...] = ()
    time_bin_config: TimeBinConfig | None = None
    #: for a `Linear` stage, the product of its run of consecutive `Linear`
    #: stages from the run's first stage through this one; None for every
    #: other stage
    unitaries: tuple[ModeUnitary | None, ...] = field(init=False, compare=False, repr=False)
    #: each ancilla's state, built once, with the modes it occupies
    prepared_ancillae: tuple[tuple[PhotonicState, frozenset[int]], ...] = field(
        init=False, compare=False, repr=False)
    #: the squared norm of the product of every ancilla (1.0 with none)
    ancilla_norm_sq: float = field(init=False, compare=False, repr=False)
    #: the photon numbers of a logical input prepared with every ancilla
    input_photons: frozenset[int] = field(init=False, compare=False, repr=False)
    #: the numbering of every occupation the circuit's tables meet
    numbering: Numbering = field(default_factory=Numbering, init=False, compare=False, repr=False)
    #: `program(n)` by cut n, each worked out on first use
    _programs: dict[int, Program] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    #: each step's unitary and occupation table by its first and last
    #: stage, shared by every program that applies those stages
    _steps: dict[tuple[int, int], tuple[ModeUnitary | None, StepTable]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    #: the input table: basis index i to the number of |i>
    _input_rows: dict[int, int] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for what in ("qubit_beams", "output_beams", "stages", "ancillae"):
            need_tuple(getattr(self, what), what, CircuitError)
        if not self.stages:
            raise CircuitError("stage list is empty")
        for beam in (*self.qubit_beams, *self.output_beams):
            if beam not in self.registry.beams:
                raise CircuitError(f"beam {beam!r} not registered")
        seen_postselect = False
        unitaries = []
        prev = None  # product of the current run of Linear stages so far
        for st in self.stages:
            if isinstance(st, PostSelect):
                need_tuple(st.rules, "the rules of a post-selection", CircuitError)
                seen_postselect = True
            elif seen_postselect:
                raise CircuitError("post-selection must be the terminal stage chain")
            u = None
            if isinstance(st, Linear):
                need_tuple(st.elements, "the elements of a linear stage", CircuitError)
                # the one compile of a linear stage; it also validates beams and unitarity
                u = compose(self.registry, st.elements)
                if prev is not None:
                    u = prev.then(u)
            elif isinstance(st, ControlledFlip):
                self.registry.beam_modes(st.control)
                self.registry.beam_modes(st.target)
            elif isinstance(st, Measure):
                n_modes = len(self.registry.beam_modes(st.beam))
                for pattern, action in st.table.entries:
                    if len(pattern) != n_modes or any(n < 0 for n in pattern):
                        raise CircuitError(
                            f"outcome {pattern} of the detector on beam {st.beam!r} "
                            f"needs {n_modes} non-negative counts")
                    for beam, _ in (() if action == REJECT else action):
                        self.registry.beam_modes(beam)
            prev = u
            unitaries.append(u)
        object.__setattr__(self, "unitaries", tuple(unitaries))
        labels = self.registry.labels
        prepared = []
        taken: set[int] = set()
        for anc in self.ancillae:
            s = anc.state(self.registry)
            modes = frozenset(m for occ in s.amps for m, n in enumerate(occ) if n)
            beams = list(dict.fromkeys(labels[m].beam for m in sorted(modes)))
            where = " and ".join(map(repr, beams))
            for beam in beams:
                if beam in self.qubit_beams:
                    raise CircuitError(f"ancilla on beams {where} sits on qubit beam {beam!r}")
            if not taken.isdisjoint(modes):
                raise CircuitError(f"ancilla on beams {where} overlaps another ancilla")
            taken |= modes
            prepared.append((s, modes))
        object.__setattr__(self, "prepared_ancillae", tuple(prepared))
        photons = {len(self.qubit_beams)}
        for s, _ in prepared:
            photons = {a + b for a in photons for b in s.photon_numbers()}
        product = self._product(range(len(prepared)))
        object.__setattr__(self, "ancilla_norm_sq", 1.0 if product is None else product.norm_sq())
        object.__setattr__(self, "input_photons", frozenset(photons))

    def stage_prefix(self, label: str) -> int:
        """Number of stages up to and including the first stage so labeled."""
        for i, st in enumerate(self.stages):
            if getattr(st, "label", "") == label:
                return i + 1
        raise CircuitError(f"no stage labeled {label!r} in {self.name}")

    def prepare_input(self, amplitudes: LogicalAmplitudes) -> PhotonicState:
        """The logical input on the qubit beams, with no ancilla: the state
        `fock.prepare_logical_input` builds, from the circuit's input table."""
        state, _ = self.numbered_input(amplitudes)
        return state.state()

    def numbered_input(self, amplitudes: LogicalAmplitudes) -> tuple[NumberedState, float]:
        """The terms of `prepare_input` numbered in `numbering`, each basis
        state's number from the input table, and their squared norm, summed
        in their order as `PhotonicState.norm_sq` sums it."""
        n = len(self.qubit_beams)
        if len(amplitudes.values) != 1 << n:
            raise FockError(f"{n} beams for {amplitudes.n_qubits} qubits")
        rows = self._input_rows
        amps: dict[int, complex] = {}
        squares: list[float] = []
        for i, a in enumerate(amplitudes.values):
            if abs(a) < DEFAULT_PRUNE_EPS:  # as `prepare_logical_input` drops it
                continue
            number = rows.get(i)
            if number is None:
                occ = basis_occupation(self.registry, self.qubit_beams, basis_bits(n, i))
                number = rows[i] = self.numbering.number(occ)
            amps[number] = a
            squares.append(a.real * a.real + a.imag * a.imag)
        return NumberedState(self.registry, amps, self.numbering), float(sum(squares))

    def program(self, n: int) -> Program:
        """The `Program` of a run through ``stages[:n]``, worked out on first
        use and kept."""
        prog = self._programs.get(n)
        if prog is None:
            prog = self._programs[n] = self._compile_program(n)
        return prog

    def _touching(self, i: int, ancillae: Sequence[int]) -> list[int]:
        """The ancillae (indices into `ancillae`) with a mode that stage i acts on."""
        touched = ancillae and _touched_modes(self.registry, self.stages[i], self.unitaries[i])
        return [k for k in ancillae if not touched.isdisjoint(self.prepared_ancillae[k][1])]

    def _product(self, ancillae: Sequence[int]) -> PhotonicState | None:
        state = None
        for k in ancillae:
            s = self.prepared_ancillae[k][0]
            state = s if state is None else tensor(state, s)
        return state

    def _compile_program(self, n: int) -> Program:
        stages = self.stages[:n]
        pending = list(range(len(self.prepared_ancillae)))
        groups = []  # [first stage, last stage, ancillae entering] of each step
        for i, st in enumerate(stages):
            linear = isinstance(st, Linear)
            if linear and i + 1 < len(stages) and isinstance(stages[i + 1], Linear):
                continue  # applied with its run's product at the run's last stage
            entering = self._touching(i, pending)
            pending = [k for k in pending if k not in entering]
            before = groups and stages[groups[-1][1]]
            if not (linear or entering) and isinstance(before, (Linear, ControlledFlip)):
                groups[-1][1] = i  # fold it into the step before
            else:
                groups.append([i, i, entering])
        steps = tuple(Step(self.stages[i:last + 1], *self._step(i, last), self._injection(group))
                      for i, last, group in groups)
        return Program(steps, self._injection(pending))

    def _injection(self, ancillae: Sequence[int]) -> Injection | None:
        if not ancillae:
            return None
        modes = frozenset().union(*(self.prepared_ancillae[k][1] for k in ancillae))
        return Injection(self._product(ancillae), {}, modes)

    def _step(self, i: int, last: int) -> tuple[ModeUnitary | None, StepTable]:
        """The unitary and occupation table of the step that applies
        ``stages[i:last + 1]``, compiled on first use and kept.  The actions
        after its linear stage, if any, compose, the first acting first;
        all but the last are flips."""
        step = self._steps.get((i, last))
        if step is None:
            reg, u = self.registry, self.unitaries[i]
            linear = isinstance(self.stages[i], Linear)
            actions = self.stages[i + linear:last + 1]
            acts = [_flip(reg, st) if isinstance(st, ControlledFlip)
                    else selection(st.rules) if isinstance(st, PostSelect)
                    else detection(reg, st.beam, st.table) for st in actions]
            # a post-selection right after the unitary cuts the rows it drops
            cut = linear and len(actions) == 1 and isinstance(actions[0], PostSelect)
            step = self._steps[i, last] = (u, StepTable.fresh(
                acts[0] if len(acts) == 1 else _in_turn(acts), actions[0].rules if cut else (),
                self.numbering))
        return step


@dataclass
class RunResult:
    state: PhotonicState
    probability: float
    branch_log: list[BranchRecord] = field(default_factory=list)


def run(circuit: Circuit, inp: LogicalAmplitudes | PhotonicState,
        upto: int | None = None, expected_photons: int | None = None) -> RunResult:
    """Evolve an input through the circuit.

    The state is never renormalized along the way, so the final squared norm
    relative to the input is the acceptance probability; it is also returned
    explicitly.  `expected_photons` overrides the circuit's declared count
    for inputs that legitimately differ (the known-target gate accepts a
    present or absent target photon).  Linear stages apply the unitaries
    the circuit compiled: each run of consecutive `Linear` stages is applied
    once, as the product stored at its last stage inside ``stages[:upto]``,
    so a cut inside a run applies that stage's prefix product.

    The run carries numbered terms (`fock.NumberedState`) from start to
    finish and builds one `PhotonicState`, at the end.  A logical input is
    the numbered form of `Circuit.prepare_input`, from the circuit's input
    table, and holds no ancilla.  Each ancilla is tensored in just before
    the first step that touches its modes, or, if no step of
    ``stages[:upto]`` does, just before the run returns, so the result
    equals that of an input prepared with every ancilla.  The photon-number
    check and the input norm refer to that fully prepared input: its photon
    numbers are `Circuit.input_photons` and its squared norm the input's
    times `Circuit.ancilla_norm_sq`, both worked out once per circuit.  A
    `PhotonicState` input is numbered on entry, its terms give its photon
    numbers, and it gets no ancilla.  Either way every term must carry the
    declared count.  Each step runs through its occupation table (see
    `engine` and `Program`) and hands its numbered output to the next:
    `measure_and_feedforward` for a measurement and `apply_unitary` for
    every other step, a post-selection with no unitary in its step
    included (the identity's rows, then its rules).
    """
    n = len(circuit.stages)
    prog = circuit.program(n if upto is None else len(range(n)[:upto]))
    declared = circuit.photons if expected_photons is None else expected_photons
    logical = isinstance(inp, LogicalAmplitudes)
    if logical:
        state, norm_sq = circuit.numbered_input(inp)
        n0 = norm_sq * circuit.ancilla_norm_sq
    else:
        if inp.registry != circuit.registry:
            raise CircuitError("input state lives on a different registry")
        state = NumberedState.of(inp, circuit.numbering)
        n0 = state.norm_sq()
    if n0 <= 0:
        raise CircuitError("input state has zero norm")
    photons = circuit.input_photons if logical else state.photon_numbers()
    if photons != {declared}:
        raise CircuitError(f"input carries photon numbers {sorted(photons)}, declared {declared}")

    log: list[BranchRecord] = []
    for stages, u, table, injection in prog.steps:
        if injection is not None and logical:
            state = tensor(state, *injection)
        st = stages[-1]
        if isinstance(st, Measure):
            state, _, records = measure_and_feedforward(state, st.beam, st.table, u, table)
            log.extend(records)
        else:
            state = apply_unitary(state, u, table)
    if prog.rest is not None and logical:
        state = tensor(state, *prog.rest)
    state, norm_sq = state.settled()
    return RunResult(state, norm_sq / n0, log)


# -- shared sub-assemblies -------------------------------------------------------


def _parity_check_cnot_stages(control: str, target: str, anc1: str, anc2: str,
                              tag: str = "") -> list[Stage]:
    """Heralded CNOT gadget: Bell-pair parity check plus destructive CNOT.

    The control and one ancilla interfere at a PBS whose ancilla output is
    counted in the +/- basis (a 22.5-degree plate, then H/V counting); the
    second ancilla (pre-rotated by a 45-degree plate from the (HV+VH) pair
    source) and the target interfere at a rotated PBS counted in H/V.  A
    "-" click applies a sign flip to the control output, a "V" click a
    polarization flip to the target output.  Acceptance probability is 1/4
    for every input, vacuum targets included.
    """
    d1_table = FeedForwardTable.build({
        (1, 0): [],                  # "+"
        (0, 1): [(control, "sign")],  # "-"
    })
    d2_table = FeedForwardTable.build({
        (1, 0): [],                 # "H"
        (0, 1): [(target, "flip")],  # "V"
    })
    return [
        Linear((Hwp(anc2, 45.0),), label=f"{tag}bell-rotate"),
        Linear((Pbs(control, anc1),), label=f"{tag}parity-pbs"),
        Linear((Hwp(anc1, 22.5),), label=f"{tag}d1-plate"),
        Measure(anc1, d1_table, label=f"{tag}d1"),
        Linear((Rpbs(anc2, target),), label=f"{tag}target-rpbs"),
        Measure(anc2, d2_table, label=f"{tag}d2"),
    ]


def _fredkin_recombination_stages() -> list[Stage]:
    """Inner splitters, wave plates and final merges of the Fredkin network."""
    return [
        Linear((Pbs("t2x", "t1x"),), label="inner-pbs-v"),
        Linear((Pbs("t1", "t2"),), label="inner-pbs-h"),
        Linear((Hwp("t1x", 67.5), Hwp("t1", 22.5),
                Hwp("t2x", 67.5), Hwp("t2", 22.5)), label="recombine-plates"),
        Linear((Pbs("t1", "t1x"),), label="merge-t1"),
        Linear((Pbs("t2", "t2x"),), label="merge-t2"),
    ]


FREDKIN_BEAMS = ("c", "t1", "t2", "t1x", "t2x")


# -- known-target gate mesh --------------------------------------------------------

#: Mesh parameters (three Givens angles over the ((c,H),(target,V),(target,H))
#: block, then the control-V attenuation angle) at which the known-target gate
#: reaches its 1/6 success probability with exact logic.
SIMPLIFIED_CNOT_PARAMS = (
    math.pi / 4,
    math.atan2(-1.0, math.sqrt(2.0)),
    2 * math.pi / 3,
    math.acos(1 / math.sqrt(3)),
)

SIMPLIFIED_PARAM_BOUNDS = ((-math.pi, math.pi),) * 3 + ((0.0, math.pi / 2),)


def simplified_mesh_elements(control: str, target: str, dump: str,
                             params: Sequence[float]) -> tuple[Element, ...]:
    """Interferometer mesh of the known-target (V or vacuum) CNOT.

    Three Givens rotations mix (control,H), (target,V), (target,H); a fourth
    rotation bleeds (control,V) into a dump mode.  The first listed rotation
    acts first.
    """
    a, b, c, alpha = params
    m1 = (control, "H")
    m2 = (control, "V")
    m3 = (target, "V")
    m4 = (target, "H")
    return (
        Rot(c, m3, m4),
        Rot(b, m1, m4),
        Rot(a, m1, m3),
        Rot(alpha, m2, (dump, "H")),
    )


def _mesh_trig(params: Sequence[float]) -> tuple[float, ...]:
    """Cosine and sine of each Givens angle, then the attenuation angle."""
    a, b, c, alpha = np.asarray(params, dtype=float).tolist()  # math is slow on numpy scalars
    return math.cos(a), math.sin(a), math.cos(b), math.sin(b), math.cos(c), math.sin(c), alpha


def simplified_mesh_entries(params: Sequence[float]) -> tuple[float, ...]:
    """The mesh's closed form: ``(g00, g01, g10, g11, g20, g21, t)``.

    ``g`` is the product of the three Givens rotations on the (control H,
    target V, target H) block, the first listed rotation acting first; only
    its first two columns (control H and target V in) reach a legal output.
    ``t = cos(alpha)`` is the attenuator's control-V transmission.
    """
    ca, sa, cb, sb, cc, sc, alpha = _mesh_trig(params)
    u = sb * sc
    return (ca * cb, -ca * u - sa * cc,
            sa * cb, ca * cc - sa * u,
            sb, cb * sc,
            math.cos(alpha))


def simplified_mesh_slopes(params: Sequence[float],
                           entries: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Derivatives of `simplified_mesh_entries` (given as ``entries``) by
    each of the four angles, in the order of ``params``.

    ``a`` rotates rows 0 and 1 of ``g`` (row 0 goes to -row 1, row 1 to
    row 0); ``b`` turns column 0 and takes column 1 to -sin(c) times
    column 0; ``c`` leaves column 0 and takes column 1 to column 2; and
    dt/dalpha = -sin(alpha).
    """
    ca, sa, cb, sb, cc, sc, alpha = _mesh_trig(params)
    g00, g01, g10, g11, g20, g21, _ = entries
    return (
        (-g10, -g11, g00, g01, 0.0, 0.0, 0.0),
        (-ca * sb, -sc * g00, -sa * sb, -sc * g10, cb, -sc * g20, 0.0),
        (0.0, sa * sc - ca * sb * cc, 0.0, -ca * sc - sa * sb * cc, 0.0, cb * cc, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -math.sin(alpha)),
    )


def simplified_mesh_transfers(params: Sequence[float]) -> tuple[float, ...]:
    """The six nonzero sector amplitudes of the mesh, from its entries:
    ``(hv, hh, vv, vh, h0, v0)``.

    With the target photon present, input H,V goes to H,V (``hv``) and H,H
    (``hh``), and input V,V to V,V (``vv``) and V,H (``vh``); with the target
    vacuum, H and V pass with ``h0`` and ``v0``.  Each target-present
    amplitude is a 2x2 permanent of ``g`` or a single entry of it times ``t``.
    """
    g00, g01, g10, g11, g20, g21, t = simplified_mesh_entries(params)
    return g00 * g11 + g01 * g10, g00 * g21 + g01 * g20, t * g11, t * g21, g00, t


def simplified_mesh_sectors(params: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sector transfer matrices of the mesh, from `simplified_mesh_transfers`.

    ``k2`` (4x2) takes the target-present inputs {H,V; V,V} (control, target)
    to the outputs {H,V; H,H; V,V; V,H}; ``kv`` (2x2) takes the vacuum-target
    inputs {H,vac; V,vac} to the outputs {H,vac; V,vac}.  The same amplitudes
    sit in the matrix of `analysis.evaluate_known_target`, which runs the
    circuit instead.
    """
    hv, hh, vv, vh, h0, v0 = simplified_mesh_transfers(params)
    return np.array([[hv, 0.0], [hh, 0.0], [0.0, vv], [0.0, vh]]), np.diag([h0, v0])


def simplified_mesh_amplitudes(params: Sequence[float]) -> tuple[float, float]:
    """(vacuum-sector, target-present) transmission amplitudes of the mesh."""
    hv, _, _, _, h0, v0 = simplified_mesh_transfers(params)
    mismatch = abs(v0 - h0)
    if mismatch > 1e-9:
        raise CircuitError(f"mesh control transmissions are unbalanced by {mismatch:.1e}")
    return h0, hv


# -- builders ------------------------------------------------------------------------


def build_fredkin_heralded(cnot: str = "pittman") -> Circuit:
    """Heralded Fredkin from four CNOTs; zero-photon heralding on the two
    auxiliary output wires.

    ``cnot="ideal"`` uses ideal conditional flips (success 1/4 from the
    network alone); ``"pittman"`` substitutes four Bell-assisted parity-check
    gadgets (total success 4**-5).
    """
    if cnot not in ("ideal", "pittman"):
        raise CircuitError(f"unknown CNOT flavor {cnot!r}")
    extra = tuple(f"a{i}" for i in range(1, 9)) if cnot == "pittman" else ()
    reg = register_modes(FREDKIN_BEAMS + extra)
    stages: list[Stage] = [
        Linear((Pbs("t1", "t2x"),), label="split-t1"),
        Linear((Pbs("t2", "t1x"),), label="split-t2"),
    ]
    targets = ("t1", "t2x", "t1x", "t2")  # beams 1..4 of the four CNOTs
    ancillae: list[AncillaPrep] = []
    if cnot == "ideal":
        for i, tgt in enumerate(targets, start=1):
            stages.append(ControlledFlip("c", tgt, label=f"cnot-{i}"))
    else:
        for i, tgt in enumerate(targets, start=1):
            a, b = f"a{2 * i - 1}", f"a{2 * i}"
            ancillae.append(BellPair(a, b, "psi_plus"))
            stages.extend(_parity_check_cnot_stages("c", tgt, a, b, tag=f"cnot-{i}-"))
    stages.extend(_fredkin_recombination_stages())
    stages.append(PostSelect(
        (PostSelectionRule.beam_counts(reg, {"t1x": 0, "t2x": 0}),),
        label="herald"))
    return Circuit(
        name=f"fredkin-heralded[{cnot}]",
        registry=reg,
        photons=3 + 2 * len(ancillae),
        qubit_beams=("c", "t1", "t2"),
        output_beams=("c", "t1", "t2"),
        stages=tuple(stages),
        ancillae=tuple(ancillae),
    )


def build_fredkin_postselected(cnot: str = "ideal",
                               mesh_params: Sequence[float] | None = None) -> Circuit:
    """Post-selected Fredkin: two CNOTs plus 67.5/22.5-degree plates on the
    other two wires; succeeds on exactly one photon in each output beam.

    ``cnot="ideal"`` gives acceptance 1/8.  ``cnot="fig3"`` substitutes the
    Bell-assisted parity-check CNOT on the first wire and the known-target
    mesh (with its sector-balancing attenuator) on the second, for a total
    acceptance of 1/192.
    """
    if cnot not in ("ideal", "fig3"):
        raise CircuitError(f"unknown CNOT flavor {cnot!r}")
    extra = ("a1", "a2", "att", "ds") if cnot == "fig3" else ()
    reg = register_modes(FREDKIN_BEAMS + extra)
    stages: list[Stage] = [
        Linear((Pbs("t1", "t2x"),), label="split-t1"),
        Linear((Pbs("t2", "t1x"),), label="split-t2"),
    ]
    ancillae: list[AncillaPrep] = []
    if cnot == "ideal":
        stages.append(ControlledFlip("c", "t1", label="cnot-1"))
        stages.append(ControlledFlip("c", "t2x", label="cnot-2"))
        photons = 3
    else:
        ancillae.append(BellPair("a1", "a2", "psi_plus"))
        stages.extend(_parity_check_cnot_stages("c", "t1", "a1", "a2", tag="cnot-1-"))
        params = tuple(mesh_params) if mesh_params is not None else SIMPLIFIED_CNOT_PARAMS
        lam_v, lam_2 = simplified_mesh_amplitudes(params)
        if abs(lam_2) > abs(lam_v) or lam_v == 0.0:
            raise CircuitError("mesh sectors cannot be balanced by attenuation")
        theta_att = math.acos(lam_2 / lam_v)
        stages.append(Linear((
            Rot(theta_att, ("t1", "H"), ("att", "H")),
            Rot(theta_att, ("t1", "V"), ("att", "V")),
        ), label="sector-balance"))
        stages.append(Linear(simplified_mesh_elements("c", "t2x", "ds", params),
                             label="cnot-2"))
        photons = 5
    stages.append(Linear((Hwp("t1x", 67.5), Hwp("t2", 22.5)), label="target-plates"))
    stages.extend(_fredkin_recombination_stages())
    stages.append(PostSelect(
        (PostSelectionRule.beam_counts(reg, {"c": 1, "t1": 1, "t2": 1}),),
        label="coincidence"))
    return Circuit(
        name=f"fredkin-postselected[{cnot}]",
        registry=reg,
        photons=photons,
        qubit_beams=("c", "t1", "t2"),
        output_beams=("c", "t1", "t2"),
        stages=tuple(stages),
        ancillae=tuple(ancillae),
    )


def build_pittman_cnot() -> Circuit:
    """Heralded CNOT from one Bell pair, a parity-check PBS and a rotated PBS."""
    reg = register_modes(("c", "t", "a1", "a2"))
    stages = tuple(_parity_check_cnot_stages("c", "t", "a1", "a2"))
    return Circuit(
        name="cnot-pittman",
        registry=reg,
        photons=4,
        qubit_beams=("c", "t"),
        output_beams=("c", "t"),
        stages=stages,
        ancillae=(BellPair("a1", "a2", "psi_plus"),),
    )


RALPH_ETA = 1.0 / 3.0


def build_ralph_cnot(eta: float = RALPH_ETA) -> Circuit:
    """Post-selected CNOT in the coincidence basis from three eta splitters.

    Control and target are split into polarization rails; the two V rails
    interfere at the central splitter (single-rail transmission sqrt(eta),
    two-photon amplitude 2*eta - 1) while the H rails pass matching
    attenuators.  At eta = 1/3 the gate is exact with success 1/9.
    """
    if not 0.0 <= eta <= 1.0:
        raise CircuitError(f"reflectivity {eta} outside [0, 1]")
    reg = register_modes(("c", "t", "rc", "rt", "d1", "d2"))
    theta = math.acos(math.sqrt(eta))
    hadamard = Bs(0.5, ("t", "H"), ("rt", "V"), signed="b")
    stages = (
        Linear((Pbs("c", "rc"), Pbs("t", "rt")), label="rail-split"),
        Linear((hadamard,), label="target-hadamard"),
        Linear((
            Rot(theta, ("rc", "V"), ("rt", "V")),
            Rot(theta, ("c", "H"), ("d1", "H")),
            Rot(theta, ("t", "H"), ("d2", "H")),
        ), label="central"),
        Linear((hadamard,), label="target-hadamard-undo"),
        Linear((Pbs("c", "rc"), Pbs("t", "rt")), label="rail-merge"),
        PostSelect((PostSelectionRule.beam_counts(reg, {"c": 1, "t": 1}),),
                   label="coincidence"),
    )
    return Circuit(
        name="cnot-ralph",
        registry=reg,
        photons=2,
        qubit_beams=("c", "t"),
        output_beams=("c", "t"),
        stages=stages,
    )


def build_simplified_cnot(params: Sequence[float] | None = None) -> Circuit:
    """Known-target CNOT mesh: flips a V photon on the target beam iff the
    control is V, passes vacuum targets through.  Sector amplitudes are
    1/sqrt(3) (vacuum) and 1/sqrt(6) (target present) at the canonical
    parameters."""
    params = tuple(params) if params is not None else SIMPLIFIED_CNOT_PARAMS
    reg = register_modes(("c", "t", "ds"))
    stages = (
        Linear(simplified_mesh_elements("c", "t", "ds", params), label="mesh"),
    )
    return Circuit(
        name="cnot-simplified",
        registry=reg,
        photons=1,  # the control; a V target photon may be added per input
        qubit_beams=("c",),
        output_beams=("c", "t"),
        stages=stages,
    )


def _interferometer_stages(beam: str, aux: str, rotate_long: bool,
                           tag: str) -> list[Stage]:
    """Split/delay/recombine pair realizing the S/L bin structure on a beam."""
    split = Bs(0.5, beam, aux, signed="b")
    long_arm: list[Element] = [DelayToL(aux)]
    if rotate_long:
        long_arm.append(Hwp(aux, 45.0))
    return [
        Linear((split,), label=f"{tag}split"),
        Linear(tuple(long_arm), label=f"{tag}long-arm"),
        Linear((split,), label=f"{tag}merge"),
    ]


def _control_path_stages(beam: str, aux: str) -> list[Stage]:
    """Polarizing split/delay/merge: V photons acquire the L bin, H stay S."""
    return [
        Linear((Pbs(beam, aux),), label="control-split"),
        Linear((DelayToL(aux),), label="control-delay"),
        Linear((Pbs(beam, aux),), label="control-merge"),
    ]


def _equal_bin_rules(reg: ModeRegistry, beams: Sequence[str]) -> tuple[PostSelectionRule, ...]:
    """One photon per beam, all in the same time bin."""
    rules = []
    for keep, drop in ((TimeBin.S, TimeBin.L), (TimeBin.L, TimeBin.S)):
        cons = [(reg.modes_where(beams=[b], tbin=keep), 1) for b in beams]
        cons.append((reg.modes_where(beams=beams, tbin=drop), 0))
        rules.append(PostSelectionRule.mode_counts(reg, cons))
    return tuple(rules)


def build_sanaka_cnot(config: TimeBinConfig | None = None) -> Circuit:
    """Time-bin CNOT: the control's V component takes the long path, the
    target passes a balanced interferometer whose long arm flips polarization;
    coincidence in equal bins leaves the CNOT action with success 1/4."""
    config = config if config is not None else TimeBinConfig()
    reg = register_modes(("c", "t", "cx", "tx"), time_resolved=True)
    stages: list[Stage] = []
    stages.extend(_control_path_stages("c", "cx"))
    stages.extend(_interferometer_stages("t", "tx", rotate_long=True, tag="target-"))
    stages.append(PostSelect(_equal_bin_rules(reg, ("c", "t")), label="coincidence"))
    return Circuit(
        name="cnot-sanaka",
        registry=reg,
        photons=2,
        qubit_beams=("c", "t"),
        output_beams=("c", "t"),
        stages=tuple(stages),
        time_bin_config=config,
    )


def build_fredkin_timebin(config: TimeBinConfig | None = None) -> Circuit:
    """Time-bin Fredkin: the heralded topology with the four CNOTs replaced by
    time-bin CNOTs sharing a single control path pair; threefold equal-bin
    coincidence succeeds with probability 1/64."""
    config = config if config is not None else TimeBinConfig()
    aux = ("t1d", "t2xd", "t1xd", "t2d")
    reg = register_modes(FREDKIN_BEAMS + ("cx",) + aux, time_resolved=True)
    stages: list[Stage] = [
        Linear((Pbs("t1", "t2x"),), label="split-t1"),
        Linear((Pbs("t2", "t1x"),), label="split-t2"),
    ]
    stages.extend(_control_path_stages("c", "cx"))
    for wire, wire_aux in zip(("t1", "t2x", "t1x", "t2"), aux):
        stages.extend(_interferometer_stages(wire, wire_aux, rotate_long=True,
                                             tag=f"{wire}-"))
    stages.extend(_fredkin_recombination_stages())
    stages.append(PostSelect(_equal_bin_rules(reg, ("c", "t1", "t2")),
                             label="coincidence"))
    return Circuit(
        name="fredkin-timebin",
        registry=reg,
        photons=3,
        qubit_beams=("c", "t1", "t2"),
        output_beams=("c", "t1", "t2"),
        stages=tuple(stages),
        time_bin_config=config,
    )
