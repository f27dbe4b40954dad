"""Gate analysis: conditional process maps, fidelities, sweeps, optimization.

The conditional process map of a post-selected gate is reconstructed from the
computational-basis inputs plus pairwise superposition inputs; the
superposition runs pin the relative column phases and double as a consistency
check on the reconstruction.  Fidelity compares the probability-normalized
map against the ideal permutation and is insensitive to a global phase.

The optimizer solves a problem's exact-logic equations directly: one
Levenberg-Marquardt root solve per random start, a fresh start for each root
that is trivial (p = 0), outside the bounds or no root at all, and the roots
ranked by success probability.  The residual norm, which is linear in the
logic error, decides what is a root; the outcome is feasible only when some
start reached a root with p > 0 inside the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .catalog import GateInfo, conventions_hash, get_gate, ideal_cnot, qubit_output_kets
from .circuits import (
    Circuit,
    RunResult,
    build_ralph_cnot,
    build_simplified_cnot,
    run,
    simplified_mesh_sectors,
    SIMPLIFIED_PARAM_BOUNDS,
)
# unused here; perfbench/test_perfbench.py asserts this alias of the traced compose
from .elements import compose as _compose  # noqa: F401
from .fock import (
    LogicalAmplitudes,
    Occupation,
    PhotonicState,
)

LEAKAGE_TOL = 1e-9


class AnalysisError(ValueError):
    pass


# -- conditional process map -------------------------------------------------


@dataclass
class ProcessMap:
    matrix: np.ndarray          # columns indexed by logical input
    leakage: float              # worst accepted-output mass outside the logical space
    input_probabilities: list[float]
    superposition_residual: float  # worst mismatch of the pairwise phase checks


def _column(result: RunResult, kets: Sequence[Occupation]) -> np.ndarray:
    return np.array([result.state.amps.get(k, 0.0) for k in kets], dtype=complex)


def conditional_process_map(circuit: Circuit, kets: Sequence[Occupation],
                            d: int | None = None,
                            check_superpositions: bool = True) -> ProcessMap:
    """Reconstruct the map from logical amplitudes in to accepted amplitudes out.

    Output leakage (accepted probability outside the spanned kets) is reported
    rather than projected away.
    """
    d = d if d is not None else len(kets)
    n_qubits = d.bit_length() - 1
    cols = []
    leakage = 0.0
    probs = []
    for i in range(d):
        res = run(circuit, LogicalAmplitudes.basis(n_qubits, i))
        col = _column(res, kets)
        cols.append(col)
        p_total = res.state.norm_sq()
        probs.append(p_total)
        leakage = max(leakage, p_total - float(np.sum(np.abs(col) ** 2)))
    k = np.column_stack(cols)

    residual = 0.0
    if check_superpositions:
        s2 = 1 / math.sqrt(2)
        for i in range(d):
            for j in range(i + 1, d):
                vals = [0.0] * d
                vals[i] = s2
                vals[j] = s2
                res = run(circuit, LogicalAmplitudes(tuple(vals)))
                got = _column(res, kets)
                expect = (k[:, i] + k[:, j]) * s2
                residual = max(residual, float(np.max(np.abs(got - expect))))
    return ProcessMap(matrix=k, leakage=leakage, input_probabilities=probs,
                      superposition_residual=residual)


def process_fidelity(k: np.ndarray, ideal: np.ndarray) -> float:
    """|sum(conj(ideal) * K)|^2 / (d sum |K|^2), d the number of inputs.

    This is |tr(ideal^dag K_hat)|^2 / d^2 for the probability-normalized map
    K_hat, and equals 1 exactly when K is proportional to the ideal map.
    """
    k = np.asarray(k)
    ideal = np.asarray(ideal)
    if k.shape != ideal.shape:
        raise AnalysisError(f"map shape {k.shape} != ideal shape {ideal.shape}")
    total = float(np.vdot(k, k).real)
    if total <= 0.0:
        raise AnalysisError("zero conditional map")
    return float(abs(np.vdot(ideal, k)) ** 2 / (k.shape[1] * total))


def success_probability_sweep(circuit: Circuit,
                              inputs: Sequence[LogicalAmplitudes]) -> tuple[list[float], float]:
    """Exact acceptance probability per input and the max-min spread."""
    probs = [run(circuit, amps).probability for amps in inputs]
    return probs, (max(probs) - min(probs) if probs else 0.0)


def random_inputs(n_qubits: int, count: int, seed: int) -> list[LogicalAmplitudes]:
    rng = np.random.default_rng(seed)
    return [LogicalAmplitudes.random(n_qubits, rng) for _ in range(count)]


# -- known-target gate evaluation ----------------------------------------------


@dataclass
class KnownTargetEvaluation:
    """Sector-resolved figures of the known-target (V or vacuum) CNOT mesh.

    The two photon-number sectors are assessed separately because the
    surrounding circuit balances their weights; the quoted success probability
    is the worst case over the four inputs.
    """
    p_by_input: dict[str, float]
    p_min: float
    fidelity: float
    matrix: np.ndarray  # 6x4: outputs {HV, HH, VV, VH, H., V.} x inputs {HV, H., VV, V.}


KNOWN_TARGET_INPUT_LABELS = ("H,V", "H,vac", "V,V", "V,vac")
KNOWN_TARGET_OUTPUT_LABELS = ("H,V", "H,H", "V,V", "V,H", "H,vac", "V,vac")
# ideal action: target V flips iff control V; vacuum passes through
KNOWN_TARGET_IDEAL = np.zeros((6, 4))
KNOWN_TARGET_IDEAL[0, 0] = 1.0  # H,V -> H,V
KNOWN_TARGET_IDEAL[4, 1] = 1.0  # H,vac -> H,vac
KNOWN_TARGET_IDEAL[3, 2] = 1.0  # V,V -> V,H
KNOWN_TARGET_IDEAL[5, 3] = 1.0  # V,vac -> V,vac
_IDEAL_2 = KNOWN_TARGET_IDEAL[:4, [0, 2]]    # target-present sector
_IDEAL_VAC = KNOWN_TARGET_IDEAL[4:, [1, 3]]  # target-absent sector


def _known_target_fidelity(k2: np.ndarray, kv: np.ndarray) -> float:
    """The worse of the two sector fidelities.  A sector the gate never
    accepts, as at a root with p = 0, scores 0 rather than raising."""
    try:
        return min(process_fidelity(k2, _IDEAL_2), process_fidelity(kv, _IDEAL_VAC))
    except AnalysisError:  # the shapes are fixed, so only a zero sector gets here
        return 0.0


def evaluate_known_target(circuit: Circuit) -> KnownTargetEvaluation:
    """Run the four logical inputs of the known-target gate through a circuit.

    Inputs are the control photon with a V target photon present or absent;
    legal outputs keep one photon in the control beam and conserve the target
    beam's count.
    """
    reg = circuit.registry
    q = qubit_output_kets(reg, ("c", "t"), False)  # (control, target) HH, HV, VH, VV
    kets_2 = [q[1], q[0], q[3], q[2]]  # in KNOWN_TARGET_OUTPUT_LABELS order
    kets_1 = list(qubit_output_kets(reg, ("c",), False))  # control H, V; no target
    k = np.zeros((6, 4), dtype=complex)
    p_by_input = {}
    inputs = (q[1], kets_1[0], q[3], kets_1[1])  # in KNOWN_TARGET_INPUT_LABELS order
    for idx, (label, occ) in enumerate(zip(KNOWN_TARGET_INPUT_LABELS, inputs)):
        n = sum(occ)  # 2 with the target photon present, 1 without
        out = run(circuit, PhotonicState.from_occupation(reg, occ), expected_photons=n).state
        col = np.array([out.amps.get(kk, 0.0) for kk in kets_2 + kets_1], dtype=complex)
        k[:, idx] = col
        legal = kets_2 if n == 2 else kets_1
        p_by_input[label] = float(sum(abs(out.amps.get(kk, 0.0)) ** 2 for kk in legal))
    return KnownTargetEvaluation(
        p_by_input=p_by_input,
        p_min=min(p_by_input.values()),
        fidelity=_known_target_fidelity(k[:4, [0, 2]], k[4:, [1, 3]]),
        matrix=k,
    )


# -- gate reports -----------------------------------------------------------------


@dataclass
class GateReport:
    gate: str
    truth_table: list[dict]
    process_matrix: np.ndarray
    process_fidelity: float
    truth_table_fidelity: float
    probabilities: list[float]
    spread: float
    expected_probability: Fraction
    leakage: float
    metadata: dict

    def probability(self) -> float:
        return min(self.probabilities)

    def matches_expectations(self, tol: float = 1e-9) -> bool:
        p_ok = all(abs(p - float(self.expected_probability)) <= tol
                   for p in self.probabilities) if self.metadata.get("uniform", True) \
            else abs(self.probability() - float(self.expected_probability)) <= tol
        return (p_ok and self.process_fidelity >= 1.0 - tol
                and self.leakage <= max(tol, LEAKAGE_TOL))

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "truth_table": self.truth_table,
            "process_matrix": [[[float(z.real), float(z.imag)] for z in row]
                               for row in self.process_matrix],
            "process_fidelity": self.process_fidelity,
            "truth_table_fidelity": self.truth_table_fidelity,
            "probabilities": self.probabilities,
            "spread": self.spread,
            "expected_probability": [self.expected_probability.numerator,
                                     self.expected_probability.denominator],
            "leakage": self.leakage,
            "metadata": self.metadata,
        }


def _ket_label(circuit: Circuit, occ: Occupation) -> str:
    reg = circuit.registry
    parts = []
    for beam in circuit.output_beams:
        sub = [reg.labels[m] for m in reg.beam_modes(beam) if occ[m] > 0]
        if not sub:
            parts.append("-")
        elif reg.time_resolved:
            parts.append(f"{sub[0].pol.value}^{sub[0].bin.value}")
        else:
            parts.append(sub[0].pol.value)
    return "".join(parts)


def gate_report(info: GateInfo, sweep: int = 0,
                sweep_seed: int = 20260811) -> GateReport:
    """Build the full verification report of a cataloged gate."""
    circuit = info.build()
    if info.kind == "known_target":
        return _known_target_report(info, circuit)
    kets = info.output_kets(circuit)
    pm = conditional_process_map(circuit, kets, d=2 ** info.n_qubits)
    fid = process_fidelity(pm.matrix, info.ideal)

    table = []
    tt_fid = 1.0
    for i in range(2 ** info.n_qubits):
        col = pm.matrix[:, i]
        j_star = int(np.argmax(info.ideal[:, i]))
        amp = col[j_star]
        p_in = pm.input_probabilities[i]
        tt = float(abs(amp) ** 2 / p_in) if p_in > 0 else 0.0
        tt_fid = min(tt_fid, tt)
        table.append({
            "input": _bits_label(info.n_qubits, i),
            "output": _ket_label(circuit, kets[j_star]),
            "amplitude": [float(amp.real), float(amp.imag)],
        })

    probs = list(pm.input_probabilities)
    if sweep:
        sweep_probs, _ = success_probability_sweep(
            circuit, random_inputs(info.n_qubits, sweep, sweep_seed))
        probs = sweep_probs
    spread = max(probs) - min(probs)
    return GateReport(
        gate=info.name,
        truth_table=table,
        process_matrix=pm.matrix,
        process_fidelity=fid,
        truth_table_fidelity=tt_fid,
        probabilities=probs,
        spread=spread,
        expected_probability=info.expected_probability,
        leakage=pm.leakage,
        metadata={"description": info.description,
                  "uniform": info.uniform,
                  "conventions": conventions_hash()},
    )


def _known_target_report(info: GateInfo, circuit: Circuit) -> GateReport:
    ev = evaluate_known_target(circuit)
    table = []
    for idx, label in enumerate(KNOWN_TARGET_INPUT_LABELS):
        j_star = int(np.argmax(KNOWN_TARGET_IDEAL[:, idx]))
        amp = ev.matrix[j_star, idx]
        table.append({
            "input": label,
            "output": KNOWN_TARGET_OUTPUT_LABELS[j_star],
            "amplitude": [float(amp.real), float(amp.imag)],
        })
    tt = []
    for idx, label in enumerate(KNOWN_TARGET_INPUT_LABELS):
        p_in = float(np.sum(np.abs(ev.matrix[:, idx]) ** 2))
        j_star = int(np.argmax(KNOWN_TARGET_IDEAL[:, idx]))
        tt.append(abs(ev.matrix[j_star, idx]) ** 2 / p_in if p_in > 0 else 0.0)
    return GateReport(
        gate=info.name,
        truth_table=table,
        process_matrix=ev.matrix,
        process_fidelity=ev.fidelity,
        truth_table_fidelity=float(min(tt)),
        probabilities=[ev.p_by_input[l] for l in KNOWN_TARGET_INPUT_LABELS],
        spread=ev.p_min and (max(ev.p_by_input.values()) - ev.p_min),
        expected_probability=info.expected_probability,
        leakage=0.0,
        metadata={"description": info.description,
                  "uniform": info.uniform,
                  "worst_case": True,
                  "conventions": conventions_hash()},
    )


def _bits_label(n: int, index: int) -> str:
    return "".join("V" if (index >> (n - 1 - q)) & 1 else "H" for q in range(n))


# -- optimization ------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizationProblem:
    """Parametrized gate family with a logic specification to meet.

    `residuals` maps a parameter vector to real exact-logic conditions, all
    zero where the logic is exact; `optimize_gate` solves them.  `evaluate`
    maps it to (worst-case success probability, fidelity on the declared
    subspace).
    """
    name: str
    bounds: tuple[tuple[float, float], ...]
    evaluate: Callable[[np.ndarray], tuple[float, float]]
    residuals: Callable[[np.ndarray], np.ndarray]
    description: str = ""


@dataclass
class OptimizeOutcome:
    problem: str
    parameters: np.ndarray
    probability: float
    fidelity: float
    feasible: bool
    best_infidelity: float
    restarts: int
    seed: int
    residual_norm: float | None = None  # always set by `optimize_gate`

    @property
    def logic_error(self) -> tuple[str, float | None]:
        """(name, value) of the figure that decides feasibility."""
        return "residual norm", self.residual_norm

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "parameters": [float(x) for x in self.parameters],
            "probability": float(self.probability),
            "fidelity": float(self.fidelity),
            "feasible": bool(self.feasible),
            "best_infidelity": float(self.best_infidelity),
            "residual_norm": (None if self.residual_norm is None
                              else float(self.residual_norm)),
            "restarts": self.restarts,
            "seed": self.seed,
        }


DEFAULT_RESTARTS = 32
# unused by `optimize_gate`; perfbench/worker.py still passes a penalty
DEFAULT_PENALTY = 1e3
FEASIBILITY_TOL = 1e-8
#: `optimize_gate` gives up after this many starts per root asked for
DRAWS_PER_ROOT = 4


def _evaluate_known_target_params(params: np.ndarray) -> tuple[float, float]:
    """The known-target figures of `evaluate_known_target`, from the mesh's
    closed-form sector matrices (`simplified_mesh_sectors`).

    Cheap enough for the optimizer's inner loop.  `evaluate_known_target` runs
    the circuit through the state-evolution engine instead, and
    `reverify_outcome` uses it to cross-check every optimizer outcome.
    """
    k2, kv = simplified_mesh_sectors(params)
    p = min(np.min(np.sum(k2 ** 2, axis=0)), np.min(np.sum(kv ** 2, axis=0)))
    return float(p), _known_target_fidelity(k2, kv)


def _mesh_logic_residuals(params: np.ndarray) -> np.ndarray:
    """Exact-logic conditions of the known-target mesh; zero on the solution set.

    Four conditions in four angles.  Most of their roots are trivial, with
    p = 0; the others reach p = 1/6.
    """
    k2, kv = simplified_mesh_sectors(params)
    return np.array([
        kv[1, 1] - kv[0, 0],    # equal control transmissions
        k2[1, 0],               # H control must not flip the target
        k2[2, 1],               # V control must flip it
        k2[0, 0] - k2[3, 1],    # equal success amplitudes
    ])


def _ralph_map(eta: float) -> ProcessMap:
    circuit = build_ralph_cnot(eta)
    kets = get_gate("cnot-ralph").output_kets(circuit)
    return conditional_process_map(circuit, kets, d=4, check_superpositions=False)


def _evaluate_ralph_eta(params: np.ndarray) -> tuple[float, float]:
    eta = float(params[0])
    if not 0.0 <= eta <= 1.0:
        return 0.0, 0.0
    pm = _ralph_map(eta)
    return min(pm.input_probabilities), process_fidelity(pm.matrix, ideal_cnot())


def _ralph_residuals(params: np.ndarray) -> np.ndarray:
    """The off-ideal amplitudes of the map and the spread of the ideal ones,
    real and imaginary parts; NaN outside [0, 1], where no splitter exists,
    so that Levenberg-Marquardt takes no step there."""
    if not 0.0 <= params[0] <= 1.0:
        return np.full(2 * (12 + 3), math.nan)
    k = _ralph_map(float(params[0])).matrix
    on = ideal_cnot() == 1
    r = np.concatenate([k[~on], k[on][1:] - k[on][0]])
    return np.concatenate([r.real, r.imag])


PROBLEMS: dict[str, OptimizationProblem] = {
    "simplified-cnot": OptimizationProblem(
        name="simplified-cnot",
        bounds=SIMPLIFIED_PARAM_BOUNDS,
        evaluate=_evaluate_known_target_params,
        residuals=_mesh_logic_residuals,
        description="Known-target (V or vacuum) CNOT mesh: three Givens angles "
                    "plus the control-V attenuation angle.",
    ),
    "ralph-topology": OptimizationProblem(
        name="ralph-topology",
        bounds=((0.0, 1.0),),
        evaluate=_evaluate_ralph_eta,
        residuals=_ralph_residuals,
        description="General-target CNOT constrained to the three-splitter "
                    "topology with a common reflectivity.",
    ),
    "identity": OptimizationProblem(
        name="identity",
        bounds=((-math.pi, math.pi),),
        # a single mode with a phase plate: perfect and deterministic at every phase
        evaluate=lambda params: (1.0, 1.0),
        residuals=lambda params: np.zeros(1),
        description="Single-mode phase plate; sanity problem.",
    ),
}


def optimize_gate(problem: OptimizationProblem | str,
                  seed: int = 0,
                  restarts: int = DEFAULT_RESTARTS,
                  penalty: float = DEFAULT_PENALTY) -> OptimizeOutcome:
    """Solve `problem.residuals` = 0 by Levenberg-Marquardt from random starts.

    Starts are drawn uniformly inside the bounds from ``default_rng(seed)``.
    A root is good when its residual norm is within `FEASIBILITY_TOL`, its
    success probability p exceeds it and it lies inside the bounds (roots are
    never clipped).  Any other outcome, most often a trivial root with p = 0,
    is replaced by a fresh start.  The search stops at `restarts` good roots
    or after `DRAWS_PER_ROOT` * `restarts` starts.  It returns the good root
    of highest p (p within `FEASIBILITY_TOL` counting as equal), then of
    smallest norm, then the earliest, and the outcome is feasible.  Without a
    good root the outcome is infeasible and holds the root of smallest norm,
    inside the bounds first: a trivial root solves the equations, but a gate
    that never succeeds is no solution.  The residual norm, not 1 - fidelity,
    decides what is a root: it is linear in the logic error, while 1 -
    fidelity is quadratic in it and saturates at 1.0.
    `penalty` is unused, but one that is not positive and finite is still an
    `AnalysisError`.
    """
    if not (math.isfinite(penalty) and penalty > 0.0):
        raise AnalysisError(f"penalty must be a positive finite number, got {penalty!r}")
    from scipy import optimize as sp_optimize  # here, not at import: only this needs it

    if isinstance(problem, str):
        try:
            problem = PROBLEMS[problem]
        except KeyError:
            raise AnalysisError(
                f"unknown problem {problem!r}; known: {', '.join(sorted(PROBLEMS))}")
    rng = np.random.default_rng(seed)
    lo, hi = np.array(problem.bounds, dtype=float).T
    wanted = max(1, restarts)
    roots = []  # (outside the bounds, residual norm, start, x) of every start
    good = []   # (p, residual norm, start, x) of every good root
    for start in range(DRAWS_PER_ROOT * wanted):
        x0 = lo + (hi - lo) * rng.random(len(lo))
        sol = sp_optimize.least_squares(problem.residuals, x0, method="lm",
                                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
        x, norm = sol.x, float(np.linalg.norm(sol.fun))
        outside = not np.all((lo <= x) & (x <= hi))
        roots.append((outside, norm, start, x))
        if outside or not norm <= FEASIBILITY_TOL:
            continue
        p, _ = problem.evaluate(x)
        if p > FEASIBILITY_TOL:
            good.append((p, norm, start, x))
            if len(good) == wanted:
                break

    if good:
        top = max(g[0] for g in good)
        _, norm, _, x = min((g for g in good if g[0] >= top - FEASIBILITY_TOL),
                            key=lambda g: g[1:3])
    else:
        _, norm, _, x = min(roots, key=lambda r: r[:3])
    p, fid = problem.evaluate(x)
    return OptimizeOutcome(
        problem=problem.name,
        parameters=x,
        probability=float(p),
        fidelity=float(fid),
        feasible=bool(good),
        best_infidelity=float(1.0 - fid),
        restarts=restarts,
        seed=seed,
        residual_norm=norm,
    )


def reverify_outcome(outcome: OptimizeOutcome) -> tuple[float, float]:
    """Re-simulate the optimized gate at the returned parameters.

    Uses the full state-evolution path rather than the optimizer's own
    evaluator, so a bug in either route shows up as a mismatch.
    """
    if outcome.problem == "simplified-cnot":
        ev = evaluate_known_target(build_simplified_cnot(outcome.parameters))
        return ev.p_min, ev.fidelity
    problem = PROBLEMS[outcome.problem]
    return problem.evaluate(outcome.parameters)
