"""Circuit representation and builders for the Fredkin/CNOT gate zoo.

A circuit is an ordered program of linear stages, ideal conditional flips,
measurements with feed-forward, and terminal post-selection, over a fixed mode
registry.  Builders return the five gate families verified by this package:

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
from typing import NamedTuple, Sequence, Union

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
    DetectorBasis,
    DetectorSpec,
    FeedForwardTable,
    MeasureTable,
    PostSelectionRule,
    REJECT,
    apply_unitary,
    measure_and_feedforward,
    post_select_any,
    swap_hv,
)
from .fock import (
    DEFAULT_PRUNE_EPS,
    FockError,
    LogicalAmplitudes,
    ModeRegistry,
    Occupation,
    PhotonicState,
    Polarization,
    TimeBin,
    prepare_logical_input,
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
    detector: DetectorSpec
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
    beam: str
    pol: Polarization = Polarization.V

    def state(self, registry: ModeRegistry) -> PhotonicState:
        tb = TimeBin.S if registry.time_resolved else None
        occ = [0] * registry.size
        occ[registry.index(self.beam, self.pol, tb)] = 1
        return PhotonicState(registry, {tuple(occ): 1.0})


AncillaPrep = Union[BellPair, SinglePhoton]


# -- circuit -------------------------------------------------------------------


class Step(NamedTuple):
    """One step of a run: a stage (for a fused run of `Linear` stages, its
    last stage inside the cut), the unitary the circuit compiled for it (or
    None), the stage's occupation table (None for a `Linear` stage, whose
    table is on its unitary's plan), and the product of the ancillae
    tensored in just before it (or None)."""
    stage: Stage
    unitary: ModeUnitary | None
    table: MeasureTable | dict | None
    ancillae: PhotonicState | None


class Program(NamedTuple):
    """How `run` carries a logical input through ``stages[:n]``.

    `first` is the product of the ancillae that the first step of a full run
    touches; `Circuit.prepare_input` tensors it in.  Each step tensors in the
    ancillae it is the first to touch, and `rest`, the ancillae no step
    touches, goes in before `run` returns.  `late` is the photon number and
    the squared norm of all ancillae but `first`.  None means no ancilla.
    """
    steps: tuple[Step, ...]
    first: PhotonicState | None
    rest: PhotonicState | None
    late: tuple[int, float]


def _touched_modes(registry: ModeRegistry, step: Stage, u: ModeUnitary | None) -> set[int]:
    """The modes a step acts on: the active modes of its unitary, the beams
    of a flip, a detector's beam and the beams its table corrects, or the
    modes of a post-selection's rules."""
    if isinstance(step, Linear):
        return set(u.plan.modes)
    if isinstance(step, ControlledFlip):
        beams = [step.control, step.target]
    elif isinstance(step, Measure):
        beams = [step.detector.beam]
        for _, action in step.table.entries:
            if action != REJECT:
                beams.extend(beam for beam, _ in action)
    elif isinstance(step, PostSelect):
        return {m for rule in step.rules for modes, _ in rule.constraints for m in modes}
    else:
        raise CircuitError(f"unknown stage {step!r}")
    return {m for beam in beams for m in registry.beam_modes(beam)}


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
    #: stages from the run's first stage through this one; for a +/- basis
    #: `Measure` stage, its detector rotation; None for every other stage
    unitaries: tuple[ModeUnitary | None, ...] = field(init=False, compare=False, repr=False)
    #: each stage's occupation table (see `engine`), filled by its runs: a
    #: `MeasureTable`, a dict for a `ControlledFlip` or `PostSelect`, or None
    #: for a `Linear` stage, whose table is on its unitary's plan
    occupation_tables: tuple[MeasureTable | dict | None, ...] = field(
        init=False, compare=False, repr=False)
    #: each ancilla's state, built once, with the modes it occupies
    prepared_ancillae: tuple[tuple[PhotonicState, frozenset[int]], ...] = field(
        init=False, compare=False, repr=False)
    #: `program(n)` by cut n, each worked out on first use
    _programs: dict[int, Program] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    #: the input table of `prepare_input`: basis index i to the terms of
    #: |i> with the first step's ancillae
    _input_rows: dict[int, Occupation | tuple[tuple[Occupation, complex], ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.stages:
            raise CircuitError("stage list is empty")
        for beam in (*self.qubit_beams, *self.output_beams):
            if beam not in self.registry.beams:
                raise CircuitError(f"beam {beam!r} not registered")
        seen_postselect = False
        unitaries, tables = [], []
        prev = None  # product of the current run of Linear stages so far
        for st in self.stages:
            if isinstance(st, PostSelect):
                seen_postselect = True
            elif seen_postselect:
                raise CircuitError("post-selection must be the terminal stage chain")
            u = None
            if isinstance(st, Linear):
                # the one compile of a linear stage; it also validates beams and unitarity
                u = compose(self.registry, st.elements)
                if prev is not None:
                    u = prev.then(u)
            elif isinstance(st, ControlledFlip):
                self.registry.beam_modes(st.control)
                self.registry.beam_modes(st.target)
            elif isinstance(st, Measure):
                self.registry.beam_modes(st.detector.beam)
                u = st.detector.rotation(self.registry)
            prev = u if isinstance(st, Linear) else None
            unitaries.append(u)
            tables.append(MeasureTable() if isinstance(st, Measure)
                          else None if isinstance(st, Linear) else {})
        object.__setattr__(self, "unitaries", tuple(unitaries))
        object.__setattr__(self, "occupation_tables", tuple(tables))
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

    def stage_prefix(self, label: str) -> int:
        """Number of stages up to and including the first stage so labeled."""
        for i, st in enumerate(self.stages):
            if getattr(st, "label", "") == label:
                return i + 1
        raise CircuitError(f"no stage labeled {label!r} in {self.name}")

    def prepare_input(self, amplitudes: LogicalAmplitudes) -> PhotonicState:
        """The logical input with the ancillae the first step of a run
        touches; `run` tensors in every other ancilla later.  Each basis
        state's terms come from the circuit's input table."""
        n = len(self.qubit_beams)
        if amplitudes.n_qubits != n:
            raise FockError(f"{n} beams for {amplitudes.n_qubits} qubits")
        first = self.program(len(self.stages)).first
        rows = self._input_rows
        amps: dict[Occupation, complex] = {}
        for i, a in enumerate(amplitudes.values):
            if abs(a) < DEFAULT_PRUNE_EPS:  # as `prepare_logical_input` drops it
                continue
            row = rows.get(i)
            if row is None:
                row = rows[i] = self._input_row(i, first)
            if first is None:  # `a` itself, as `prepare_logical_input` stores it
                amps[row] = a
            else:
                for key, t in row:
                    amps[key] = amps.get(key, 0.0) + a * t
        return PhotonicState(self.registry, amps, validate=False)

    def _input_row(self, i: int, first: PhotonicState | None):
        """The occupation of basis state |i>, or with `first` the terms
        ``((key, amplitude), ...)`` of |i> tensored with it."""
        basis = prepare_logical_input(self.registry, LogicalAmplitudes.basis(
            len(self.qubit_beams), i), self.qubit_beams)
        if first is None:
            (occ,) = basis.amps
            return occ
        # `tensor` keeps the order of `first`'s terms; their amplitudes are the factors
        return tuple(zip(tensor(basis, first).amps, first.amps.values()))

    def program(self, n: int) -> Program:
        """The `Program` of a run through ``stages[:n]``, worked out on first
        use and kept."""
        prog = self._programs.get(n)
        if prog is None:
            prog = self._programs[n] = self._compile_program(n)
        return prog

    def _untouched(self, ancillae: Sequence[int], st: Stage, u: ModeUnitary | None) -> list[int]:
        """The ancillae (indices into `ancillae`) whose modes a step leaves alone."""
        touched = _touched_modes(self.registry, st, u)
        return [k for k in ancillae if touched.isdisjoint(self.prepared_ancillae[k][1])]

    def _product(self, ancillae: Sequence[int]) -> PhotonicState | None:
        state = None
        for k in ancillae:
            s = self.prepared_ancillae[k][0]
            state = s if state is None else tensor(state, s)
        return state

    def _compile_program(self, n: int) -> Program:
        stages = self.stages[:n]
        everything = range(len(self.ancillae))
        full = len(stages) == len(self.stages)
        if full:
            pending = everything
        else:  # `prepare_input` has tensored in what the full run's first step touches
            full_program = self.program(len(self.stages))
            head = full_program.steps[0]
            pending = self._untouched(everything, head.stage, head.unitary)
        applied, entering = [], []
        for i, (st, u, table) in enumerate(zip(stages, self.unitaries, self.occupation_tables)):
            if isinstance(st, Linear) and i + 1 < len(stages) and isinstance(stages[i + 1], Linear):
                continue  # applied with its run's product at the run's last stage
            # a `Linear` step reads the plan of the unitary it applies
            left = self._untouched(pending, st, u) if pending else pending
            applied.append((st, u, table))
            entering.append([k for k in pending if k not in left])
            pending = left
        if full:  # `prepare_input` tensors in what the first step touches
            late = self._product([k for k in everything if k not in entering[0]])
            first, entering[0] = self._product(entering[0]), []
            late_info = (0, 1.0) if late is None else (late.photon_numbers().pop(), late.norm_sq())
        else:
            first, late_info = full_program.first, full_program.late
        steps = tuple(Step(*step, self._product(group)) for step, group in zip(applied, entering))
        return Program(steps, first, self._product(pending), late_info)


@dataclass
class RunResult:
    state: PhotonicState
    probability: float
    branch_log: list[BranchRecord] = field(default_factory=list)


def _apply_controlled_flip(state: PhotonicState, control: str, target: str,
                           occupations: dict[Occupation, Occupation] | None = None,
                           ) -> PhotonicState:
    """The ideal flip; `occupations`, the step's occupation table, maps an
    occupation to the flipped one."""
    occupations = {} if occupations is None else occupations
    reg = state.registry
    modes = None  # looked up at the first occupation the table lacks
    out: dict[Occupation, complex] = {}
    for occ, a in state.amps.items():
        flipped = occupations.get(occ)
        if flipped is None:
            if modes is None:
                modes = [reg.modes_where(beams=[beam], pol=pol)
                         for beam in (control, target)
                         for pol in (Polarization.H, Polarization.V)]
            ctrl_h, ctrl_v, tgt_h, tgt_v = modes
            nh = sum(occ[m] for m in ctrl_h)
            nv = sum(occ[m] for m in ctrl_v)
            if nh + nv != 1:
                raise ControlFlipError(
                    f"control beam {control!r} carries {nh + nv} photons, needs exactly 1")
            flipped = occupations[occ] = swap_hv(occ, tgt_h, tgt_v) if nv == 1 else occ
        out[flipped] = out.get(flipped, 0.0) + a
    return PhotonicState(reg, out, prune_eps=state.prune_eps, validate=False)


def run(circuit: Circuit, inp: LogicalAmplitudes | PhotonicState,
        upto: int | None = None, expected_photons: int | None = None) -> RunResult:
    """Evolve an input through the circuit.

    The state is never renormalized along the way (unless a rule says so), so
    the final squared norm relative to the input is the acceptance
    probability; it is also returned explicitly.  `expected_photons` overrides
    the circuit's declared count for inputs that legitimately differ (the
    known-target gate accepts a present or absent target photon).  Linear
    stages and +/- detectors apply the unitaries the circuit compiled when it
    was built: each run of consecutive `Linear` stages is applied once, as
    the product stored at its last stage inside ``stages[:upto]``, so a cut
    inside a run applies that stage's prefix product.

    A logical input comes from `Circuit.prepare_input`, with the ancillae the
    first step touches.  Each other ancilla is tensored in just before the
    first step that touches its modes, or, if no step of ``stages[:upto]``
    does, just before the run returns, so the result equals that of an input
    prepared with every ancilla.  The photon-number check and the input norm
    refer to that fully prepared input.  A `PhotonicState` input gets no
    ancilla.  Each step looks its action on an occupation up in the
    circuit's occupation tables (see `engine`).
    """
    prog = circuit.program(len(circuit.stages[:upto]))
    declared = circuit.photons if expected_photons is None else expected_photons
    logical = isinstance(inp, LogicalAmplitudes)
    if logical:
        state = circuit.prepare_input(inp)
        late_photons, late_norm_sq = prog.late
    else:
        if inp.registry != circuit.registry:
            raise CircuitError("input state lives on a different registry")
        state = inp
        late_photons, late_norm_sq = 0, 1.0
    n0 = state.norm_sq() * late_norm_sq
    if n0 <= 0:
        raise CircuitError("input state has zero norm")
    if state.photon_numbers() != {declared - late_photons}:
        raise CircuitError(
            f"input carries photon numbers "
            f"{sorted(n + late_photons for n in state.photon_numbers())}, declared {declared}")

    log: list[BranchRecord] = []
    for st, u, table, ancillae in prog.steps:
        if ancillae is not None and logical:
            state = tensor(state, ancillae)
        if isinstance(st, Linear):
            state = apply_unitary(state, u)
        elif isinstance(st, ControlledFlip):
            state = _apply_controlled_flip(state, st.control, st.target, table)
        elif isinstance(st, Measure):
            state, _, records = measure_and_feedforward(state, st.detector, st.table, u, table)
            log.extend(records)
        elif isinstance(st, PostSelect):
            state, _ = post_select_any(state, st.rules, table)
        else:
            raise CircuitError(f"unknown stage {st!r}")
    if prog.rest is not None and logical:
        state = tensor(state, prog.rest)
    return RunResult(state=state, probability=state.norm_sq() / n0, branch_log=log)


# -- shared sub-assemblies -------------------------------------------------------


def _parity_check_cnot_stages(control: str, target: str, anc1: str, anc2: str,
                              tag: str = "") -> list[Stage]:
    """Heralded CNOT gadget: Bell-pair parity check plus destructive CNOT.

    The control and one ancilla interfere at a PBS whose ancilla output is
    counted in the +/- basis; the second ancilla (pre-rotated by a 45-degree
    plate from the (HV+VH) pair source) and the target interfere at a rotated
    PBS counted in H/V.  A "-" click applies a sign flip to the control
    output, a "V" click a polarization flip to the target output.  Acceptance
    probability is 1/4 for every input, vacuum targets included.
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
        Measure(DetectorSpec(anc1, DetectorBasis.PLUS_MINUS), d1_table, label=f"{tag}d1"),
        Linear((Rpbs(anc2, target),), label=f"{tag}target-rpbs"),
        Measure(DetectorSpec(anc2, DetectorBasis.HV), d2_table, label=f"{tag}d2"),
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


def _givens3(theta: float, i: int, j: int) -> np.ndarray:
    """3x3 form of `Rot(theta, i, j)` (columns = inputs)."""
    c, s = math.cos(theta), math.sin(theta)
    g = np.eye(3)
    g[i, i] = g[j, j] = c
    g[i, j], g[j, i] = -s, s
    return g


def simplified_mesh_sectors(params: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sector transfer matrices of the mesh, in closed form of its four angles.

    ``k2`` (4x2) takes the target-present inputs {H,V; V,V} (control, target)
    to the outputs {H,V; H,H; V,V; V,H}; ``kv`` (2x2) takes the vacuum-target
    inputs {H,vac; V,vac} to the outputs {H,vac; V,vac}.  The three Givens
    rotations act on the (control H, target V, target H) block ``g`` and the
    attenuator transmits control V with cos(alpha), so each nonzero amplitude
    is a 2x2 permanent of ``g`` or a single entry of it times cos(alpha).  The
    same amplitudes sit in the matrix of `analysis.evaluate_known_target`,
    which runs the circuit instead.
    """
    a, b, c, alpha = params
    g = _givens3(a, 0, 1) @ (_givens3(b, 0, 2) @ _givens3(c, 1, 2))
    t = math.cos(alpha)
    k2 = np.zeros((4, 2))
    k2[0, 0] = g[0, 0] * g[1, 1] + g[0, 1] * g[1, 0]
    k2[1, 0] = g[0, 0] * g[2, 1] + g[0, 1] * g[2, 0]
    k2[2, 1] = t * g[1, 1]
    k2[3, 1] = t * g[2, 1]
    return k2, np.diag([g[0, 0], t])


def simplified_mesh_amplitudes(params: Sequence[float]) -> tuple[float, float]:
    """(vacuum-sector, target-present) transmission amplitudes of the mesh."""
    k2, kv = simplified_mesh_sectors(params)
    mismatch = abs(kv[1, 1] - kv[0, 0])
    if mismatch > 1e-9:
        raise CircuitError(f"mesh control transmissions are unbalanced by {mismatch:.1e}")
    return kv[0, 0], k2[0, 0]


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
