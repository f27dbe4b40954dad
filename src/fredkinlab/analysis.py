"""Gate analysis: conditional process maps, fidelities, sweeps, optimization.

The conditional process map K of a post-selected gate is read off its
computational-basis runs, which give each accepted amplitude with its phase.
A gate report checks K on seeded random superpositions x against K·x, a
residual linear in the error.  Fidelity compares the probability-normalized
map against the ideal permutation and is insensitive to a global phase.

The optimizer solves a problem's exact-logic equations directly: one
Levenberg-Marquardt root solve per random start, a fresh start for each root
that is trivial (p = 0), outside the bounds or no root at all, and the roots
ranked by success probability.  The residual norm, which is linear in the
logic error, decides what is a root; the outcome is feasible only when some
start reached a root with p > 0 inside the bounds.  The known-target mesh is
scored, solved and differentiated in scalar closed form from the entries of
its Givens product (`circuits.simplified_mesh_entries`), with an analytic
Jacobian; the other problems take forward differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .catalog import (  # the KNOWN_TARGET_* names are re-exported
    KNOWN_TARGET_IDEAL, KNOWN_TARGET_INPUT_LABELS, KNOWN_TARGET_OUTPUT_LABELS,
    GateInfo, conventions_hash, get_gate, ideal_cnot,
)
from .circuits import (
    Circuit,
    RunResult,
    build_ralph_cnot,
    build_simplified_cnot,
    run,
    simplified_mesh_entries,
    simplified_mesh_slopes,
    simplified_mesh_transfers,
    SIMPLIFIED_PARAM_BOUNDS,
)
# unused here; perfbench/test_perfbench.py asserts this alias of the traced compose
from .elements import compose as _compose  # noqa: F401
from .fock import (
    BIT_POLARIZATIONS,
    LogicalAmplitudes,
    Occupation,
    PhotonicState,
    amplitudes_norm_sq,
    basis_bits,
    basis_occupation,
)

#: the fewest seeded random superpositions a gate report checks against K·x
LINEARITY_INPUTS = 3


class AnalysisError(ValueError):
    pass


# -- conditional process map -------------------------------------------------


@dataclass
class ProcessMap:
    matrix: np.ndarray          # columns indexed by logical input
    leakage: float              # worst norm of the accepted amplitudes outside the kets
    input_probabilities: list[float]


def _column(result: RunResult, kets: Sequence[Occupation]) -> np.ndarray:
    return np.array([result.state.amps.get(k, 0.0) for k in kets], dtype=complex)


def conditional_process_map(circuit: Circuit, kets: Sequence[Occupation]) -> ProcessMap:
    """Reconstruct the map from logical amplitudes in to accepted amplitudes out.

    Column i is basis input i's accepted amplitudes on `kets`, phases and
    all, from one run per input.  Leakage is reported rather than projected
    away: the largest norm, over the inputs, of the accepted amplitudes
    outside the spanned kets, summed directly so that it is linear in a
    leaked amplitude and exactly 0 when nothing leaks.
    """
    n_qubits = len(kets).bit_length() - 1
    runs = [run(circuit, LogicalAmplitudes.basis(n_qubits, i)) for i in range(len(kets))]
    k = np.column_stack([_column(res, kets) for res in runs])
    probs = [res.state.norm_sq() for res in runs]
    spanned = set(kets)
    leakage = max(math.sqrt(amplitudes_norm_sq(
        {occ: a for occ, a in res.state.amps.items() if occ not in spanned})) for res in runs)
    return ProcessMap(matrix=k, leakage=leakage, input_probabilities=probs)


def linearity_check(circuit: Circuit, kets: Sequence[Occupation], matrix: np.ndarray,
                    inputs: Sequence[LogicalAmplitudes]) -> tuple[float, list[float]]:
    """The largest deviation of an input x's accepted amplitudes on `kets`
    from ``matrix @ x``, and each run's acceptance probability."""
    residual, probs = 0.0, []
    for amps in inputs:
        res = run(circuit, amps)
        got = _column(res, kets)
        residual = max(residual, float(np.max(np.abs(got - matrix @ amps.as_vector()))))
        probs.append(res.probability)
    return residual, probs


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


def phase_fixed_map_deviation(got, expected) -> float:
    """The largest entry difference of two equal-shape arrays, such as a
    process map and its ideal, each scaled to unit Frobenius norm, once the
    global phase of `expected` is turned onto that of `got`; infinite if
    either is zero.  Linear in an amplitude error, where `process_fidelity`
    is quadratic in it."""
    got, expected = np.asarray(got, dtype=complex), np.asarray(expected, dtype=complex)
    n_got, n_exp = np.vdot(got, got).real, np.vdot(expected, expected).real
    if n_got <= 0.0 or n_exp <= 0.0:
        return math.inf
    overlap = np.vdot(expected, got)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.max(np.abs(got / math.sqrt(n_got) - expected * (phase / math.sqrt(n_exp)))))


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


_IDEAL_2 = KNOWN_TARGET_IDEAL[:4, [0, 2]]    # target-present sector
_IDEAL_VAC = KNOWN_TARGET_IDEAL[4:, [1, 3]]  # target-absent sector


def _known_target_fidelity(k2: np.ndarray, kv: np.ndarray) -> float:
    """The worse of the two sector fidelities.  A sector the gate never
    accepts, as at a root with p = 0, scores 0 rather than raising."""
    try:
        return min(process_fidelity(k2, _IDEAL_2), process_fidelity(kv, _IDEAL_VAC))
    except AnalysisError:  # the shapes are fixed, so only a zero sector gets here
        return 0.0


def _known_target_deviation(k: np.ndarray) -> float:
    """The worse sector's `phase_fixed_map_deviation` of a 6x4 known-target map."""
    return max(phase_fixed_map_deviation(k[:4, [0, 2]], _IDEAL_2),
               phase_fixed_map_deviation(k[4:, [1, 3]], _IDEAL_VAC))


def evaluate_known_target(circuit: Circuit) -> KnownTargetEvaluation:
    """Run the four logical inputs of the known-target gate through a circuit.

    Inputs are the control photon with a V target photon present or absent;
    legal outputs keep one photon in the control beam and conserve the target
    beam's count.
    """
    reg = circuit.registry
    # in KNOWN_TARGET_OUTPUT_LABELS order: the (control, target) bits, then the control's alone
    kets = [basis_occupation(reg, ("c", "t"), bits) for bits in ((0, 1), (0, 0), (1, 1), (1, 0))]
    kets += [basis_occupation(reg, ("c",), (bit,)) for bit in (0, 1)]
    k = np.zeros((6, 4), dtype=complex)
    p_by_input = {}
    inputs = (kets[0], kets[4], kets[2], kets[5])  # in KNOWN_TARGET_INPUT_LABELS order
    for idx, (label, occ) in enumerate(zip(KNOWN_TARGET_INPUT_LABELS, inputs)):
        n = sum(occ)  # 2 with the target photon present, 1 without
        out = run(circuit, PhotonicState.from_occupation(reg, occ), expected_photons=n).state
        k[:, idx] = [out.amps.get(kk, 0.0) for kk in kets]
        legal = kets[:4] if n == 2 else kets[4:]
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
    leakage: float  # `ProcessMap.leakage`, a norm; 0.0 for a known-target gate
    linearity_residual: float | None  # worst |run - K·x|; None for a known-target gate
    map_deviation: float  # `phase_fixed_map_deviation` of K from the ideal map
    metadata: dict

    def probability(self) -> float:
        return min(self.probabilities)

    def matches_expectations(self, tol: float = 1e-9) -> bool:
        p_ok = all(abs(p - float(self.expected_probability)) <= tol
                   for p in self.probabilities) if self.metadata.get("uniform", True) \
            else abs(self.probability() - float(self.expected_probability)) <= tol
        return (p_ok and self.process_fidelity >= 1.0 - tol
                and self.leakage <= tol
                and (self.linearity_residual is None or self.linearity_residual <= tol)
                and self.map_deviation <= tol)

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
            "linearity_residual": self.linearity_residual,
            "map_deviation": self.map_deviation,
            "metadata": self.metadata,
        }


def _ket_label(circuit: Circuit, occ: Occupation) -> str:
    reg = circuit.registry
    labels, parts = reg.labels, []
    for beam in circuit.output_beams:
        label = next((labels[m] for m in reg.beam_modes(beam) if occ[m] > 0), None)
        if label is None:
            parts.append("-")
        elif reg.time_resolved:
            parts.append(f"{label.pol.value}^{label.bin.value}")
        else:
            parts.append(label.pol.value)
    return "".join(parts)


def gate_report(info: GateInfo, sweep: int = 0,
                sweep_seed: int = 20260811) -> GateReport:
    """Build the full verification report of a cataloged gate.  A qubit gate's
    map is checked on max(`sweep`, `LINEARITY_INPUTS`) seeded superpositions,
    the first `sweep` of which give its probabilities.  A known-target gate
    has no superpositions or sweep; its fidelity and map deviation are the
    worse sector's."""
    circuit = info.build()
    if info.kind == "known_target":
        ev = evaluate_known_target(circuit)
        probs = [ev.p_by_input[label] for label in KNOWN_TARGET_INPUT_LABELS]
        return _report(info, ev.matrix, ev.fidelity,
                       KNOWN_TARGET_INPUT_LABELS, KNOWN_TARGET_OUTPUT_LABELS,
                       [float(np.sum(np.abs(col) ** 2)) for col in ev.matrix.T],
                       probs, ev.p_min and (max(probs) - ev.p_min), 0.0, None,
                       _known_target_deviation(ev.matrix))
    kets = info.output_kets(circuit)
    pm = conditional_process_map(circuit, kets)
    inputs = random_inputs(info.n_qubits, max(sweep, LINEARITY_INPUTS), sweep_seed)
    residual, swept = linearity_check(circuit, kets, pm.matrix, inputs)
    probs = swept[:sweep] if sweep else pm.input_probabilities
    return _report(info, pm.matrix, process_fidelity(pm.matrix, info.ideal),
                   [_bits_label(info.n_qubits, i) for i in range(2 ** info.n_qubits)],
                   [_ket_label(circuit, k) for k in kets],
                   pm.input_probabilities, probs, max(probs) - min(probs), pm.leakage,
                   residual, phase_fixed_map_deviation(pm.matrix, info.ideal))


def _report(info: GateInfo, matrix: np.ndarray, fidelity: float,
            in_labels: Sequence[str], out_labels: Sequence[str], p_in: Sequence[float],
            probabilities: list[float], spread: float, leakage: float,
            linearity_residual: float | None, map_deviation: float) -> GateReport:
    """A `GateReport` of the map `matrix` against `info.ideal`.

    Each input's truth-table row is its amplitude on the output the ideal
    map sends it to; the truth-table fidelity is the worst such |amp|^2 over
    the input's accepted probability `p_in`.  A known-target gate registers
    its worst case only, so its metadata says ``uniform: false`` and
    ``worst_case: true``; a qubit gate's says ``uniform: true``.
    """
    table = []
    tt_fid = 1.0
    for i, (label, j_star) in enumerate(zip(in_labels, info.ideal.argmax(axis=0).tolist())):
        amp = matrix[j_star, i]
        tt = float(abs(amp) ** 2 / p_in[i]) if p_in[i] > 0 else 0.0
        tt_fid = min(tt_fid, tt)
        table.append({
            "input": label,
            "output": out_labels[j_star],
            "amplitude": [float(amp.real), float(amp.imag)],
        })
    return GateReport(
        gate=info.name,
        truth_table=table,
        process_matrix=matrix,
        process_fidelity=fidelity,
        truth_table_fidelity=tt_fid,
        probabilities=probabilities,
        spread=spread,
        expected_probability=info.expected_probability,
        leakage=leakage,
        linearity_residual=linearity_residual,
        map_deviation=map_deviation,
        metadata={"description": info.description,
                  **({"uniform": True} if info.kind == "qubit"
                     else {"uniform": False, "worst_case": True}),
                  "conventions": conventions_hash()},
    )


def _bits_label(n: int, index: int) -> str:
    return "".join(BIT_POLARIZATIONS[bit].value for bit in basis_bits(n, index))


# -- optimization ------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizationProblem:
    """Parametrized gate family with a logic specification to meet.

    `residuals` maps a parameter vector to real exact-logic conditions, all
    zero where the logic is exact; `optimize_gate` solves them.  `jacobian`,
    when given, maps it to their derivatives (residuals by parameters);
    without it the solver takes forward differences.  `evaluate` maps it to
    (worst-case success probability, fidelity on the declared subspace).
    """
    name: str
    bounds: tuple[tuple[float, float], ...]
    evaluate: Callable[[np.ndarray], tuple[float, float]]
    residuals: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None


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
    #: (name, value) of the figure that decided feasibility; set by `optimize_gate`
    logic_error: tuple[str, float] | None = None

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


def _evaluate_known_target_params(params: Sequence[float]) -> tuple[float, float]:
    """The known-target figures of `evaluate_known_target`, in closed form
    from the mesh's six sector amplitudes (`simplified_mesh_transfers`).

    Cheap enough for the optimizer's inner loop: scalar arithmetic, no
    matrix.  Each sector fidelity is `process_fidelity` written out for its
    real amplitudes, and a zero sector scores 0, as in
    `_known_target_fidelity`.  `evaluate_known_target` runs the circuit
    through the state-evolution engine instead, and `reverify_outcome` uses it
    to cross-check every optimizer outcome.
    """
    hv, hh, vv, vh, h0, v0 = simplified_mesh_transfers(params)
    h_in, v_in = hv * hv + hh * hh, vv * vv + vh * vh
    two, vac = h_in + v_in, h0 * h0 + v0 * v0
    fid = 0.0 if two == 0.0 or vac == 0.0 else \
        min((hv + vh) ** 2 / (2 * two), (h0 + v0) ** 2 / (2 * vac))
    return min(h_in, v_in, h0 * h0, v0 * v0), fid


def _mesh_logic_residuals(params: Sequence[float]) -> np.ndarray:
    """Exact-logic conditions of the known-target mesh; zero on the solution set.

    Four conditions in four angles, on the mesh's sector amplitudes.  Most of
    their roots are trivial, with p = 0; the others reach p = 1/6.
    """
    hv, hh, vv, vh, h0, v0 = simplified_mesh_transfers(params)
    return np.array([
        v0 - h0,  # equal control transmissions
        hh,       # H control must not flip the target
        vv,       # V control must flip it
        hv - vh,  # equal success amplitudes
    ])


def _mesh_logic_jacobian(params: Sequence[float]) -> np.ndarray:
    """Closed-form Jacobian of `_mesh_logic_residuals` (residuals by angles).

    Each column is the residuals differentiated by the product rule, through
    the amplitudes of `simplified_mesh_transfers`, along one angle's entry
    slopes (`simplified_mesh_slopes`).
    """
    e = simplified_mesh_entries(params)
    g00, g01, g10, g11, g20, g21, t = e
    return np.array([
        (u - h00,
         h00 * g21 + g00 * h21 + h01 * g20 + g01 * h20,
         u * g11 + t * h11,
         h00 * g11 + g00 * h11 + h01 * g10 + g01 * h10 - u * g21 - t * h21)
        for h00, h01, h10, h11, h20, h21, u in simplified_mesh_slopes(params, e)
    ]).T


def _ralph_map(eta: float) -> ProcessMap:
    circuit = build_ralph_cnot(eta)
    kets = get_gate("cnot-ralph").output_kets(circuit)
    return conditional_process_map(circuit, kets)


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
        jacobian=_mesh_logic_jacobian,
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

    The solver uses `problem.jacobian` when there is one, else forward
    differences.  Starts are drawn uniformly inside the bounds from
    ``default_rng(seed)``.  A root is good when its residual norm is within
    `FEASIBILITY_TOL`, its success probability p exceeds it and it lies
    inside the bounds (roots are never clipped).  Any other outcome, most often a trivial root with p = 0,
    is replaced by a fresh start.  The search stops at `restarts` good roots
    or after `DRAWS_PER_ROOT` * `restarts` starts.  It returns the good root
    of the earliest start among those whose p is within `FEASIBILITY_TOL` of
    the highest, and the outcome is feasible; the residual norms of good
    roots differ only in their last bits, so they rank nothing.  Without a
    good root the outcome is infeasible and holds the root of smallest norm,
    inside the bounds first: a trivial root solves the equations, but a gate
    that never succeeds is no solution.  The residual norm, not 1 - fidelity,
    decides what is a root: it is linear in the logic error, while 1 -
    fidelity is quadratic in it and saturates at 1.0.  The outcome's
    `logic_error` names the figure that decided: the success probability of
    a trivial root, the distance outside the bounds of a root there, and
    otherwise the residual norm.
    `penalty` is unused, but one that is not positive and finite is still an
    `AnalysisError`.
    """
    if not (math.isfinite(penalty) and penalty > 0.0):
        raise AnalysisError(f"penalty must be a positive finite number, got {penalty!r}")
    if isinstance(problem, str):
        try:
            problem = PROBLEMS[problem]
        except KeyError:
            raise AnalysisError(
                f"unknown problem {problem!r}; known: {', '.join(sorted(PROBLEMS))}")
    from scipy import optimize as sp_optimize  # here, not at import: only this needs it

    rng = np.random.default_rng(seed)
    lo, hi = np.array(problem.bounds, dtype=float).T
    wanted = max(1, restarts)
    roots = []  # (outside the bounds, residual norm, start, x) of every start
    good = []   # (p, residual norm, x) of every good root, in order of start
    for start in range(DRAWS_PER_ROOT * wanted):
        x0 = lo + (hi - lo) * rng.random(len(lo))
        sol = sp_optimize.least_squares(problem.residuals, x0,
                                        jac=problem.jacobian or "2-point", method="lm",
                                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
        x, norm = sol.x, float(np.linalg.norm(sol.fun))
        outside = not np.all((lo <= x) & (x <= hi))
        roots.append((outside, norm, start, x))
        if outside or not norm <= FEASIBILITY_TOL:
            continue
        p, _ = problem.evaluate(x)
        if p > FEASIBILITY_TOL:
            good.append((p, norm, x))
            if len(good) == wanted:
                break

    if good:
        top = max(g[0] for g in good)
        _, norm, x = next(g for g in good if g[0] >= top - FEASIBILITY_TOL)
    else:
        outside, norm, _, x = min(roots, key=lambda r: r[:3])
    p, fid = problem.evaluate(x)
    if good or not norm <= FEASIBILITY_TOL:
        logic_error = ("residual norm", norm)
    elif outside:
        logic_error = ("outside the bounds by", float(np.max(np.maximum(lo - x, x - hi))))
    else:
        logic_error = ("success probability", float(p))
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
        logic_error=logic_error,
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
