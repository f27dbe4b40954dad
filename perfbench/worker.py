"""One pass of a fredkinlab benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per pass, so every pass pays what a
``fredkinlab`` command pays: interpreter start, ``import fredkinlab.cli``, the
workload's circuit builds and the first calls into each layer.  Nothing is
warmed up before the timed window.

    python3 perfbench/worker.py --workload W --seed S --pass-index I \
        --trace 0|1 --spawn-time T

It prints one JSON line: set-up and operation times, each operation's check,
peak RSS and, when traced, the per-layer figures of the pass.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: Operations whose check failed keep at most this many error texts.
MAX_ERRORS = 5
#: Random full-superposition inputs per gate in one sweep-cnot pass.
SWEEP_INPUTS_PER_GATE = 200
SWEEP_GATES = ("cnot-pittman", "cnot-ralph", "cnot-sanaka")
#: Tolerances of the checks; each is compared with a quantity linear in the error.
PROB_TOL = 1e-12
AMP_TOL = 1e-9
OPT_PROB_TOL = 1e-9
MESH_TOL = 1e-12
#: mesh-evaluate: operations per pass, and evaluator calls in one operation.
MESH_OPS = 200
MESH_BATCH = 5


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Op:
    """One timed operation and the check of its result (not timed)."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed


class CheckFailed(Exception):
    pass


def pass_rng(seed: int, pass_index: int):
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index]))


# -- verify-catalog ------------------------------------------------------------


def verify_catalog_ops(seed: int, pass_index: int) -> list[Op]:
    """`analysis.gate_report` on every catalog gate, in a seeded order.

    As in `fredkinlab verify <gate>`, each gate's circuit is built once at
    set-up and `gate_report` then builds and verifies it.
    """
    from fredkinlab import analysis
    from fredkinlab.catalog import gate_names, get_gate

    names = list(gate_names())
    pass_rng(seed, pass_index).shuffle(names)
    ops = []
    for name in names:
        get_gate(name).build()
        ops.append(Op(name, lambda name=name: analysis.gate_report(get_gate(name)),
                      check_gate_report))
    return ops


def check_gate_report(report) -> None:
    if not report.matches_expectations():
        raise CheckFailed(f"{report.gate}: report does not match its expectations")
    expected = float(report.expected_probability)
    # a non-uniform gate registers its worst case only
    probs = report.probabilities if report.metadata.get("uniform", True) \
        else [report.probability()]
    worst = max(abs(p - expected) for p in probs)
    if not worst <= PROB_TOL:
        raise CheckFailed(f"{report.gate}: probability off by {worst:.3e}")


# -- sweep-cnot --------------------------------------------------------------------


def sweep_cnot_ops(seed: int, pass_index: int) -> list[Op]:
    """One `circuits.run` per random full-superposition input and CNOT gate.

    This is the body of `analysis.success_probability_sweep`, called one input
    at a time so that each run is timed and its output state checked.
    """
    from fredkinlab import analysis, circuits
    from fredkinlab.catalog import get_gate

    rng = pass_rng(seed, pass_index)
    ops = []
    for name in SWEEP_GATES:
        info = get_gate(name)
        circuit = info.build()
        sub_seed = int(rng.integers(2**31))
        for amps in analysis.random_inputs(info.n_qubits, SWEEP_INPUTS_PER_GATE, sub_seed):
            ops.append(Op(name, lambda c=circuit, a=amps: circuits.run(c, a),
                          lambda res, i=info, c=circuit, a=amps: check_cnot_run(i, c, a, res)))
    return ops


def check_cnot_run(info, circuit, amps, result) -> None:
    """Probability and output amplitudes against sqrt(p) * ideal * input.

    The amplitude deviation is taken after removing the global phase and
    counts any accepted amplitude outside the logical output kets.
    """
    import numpy as np

    p = float(info.expected_probability)
    if not abs(result.probability - p) <= PROB_TOL:
        raise CheckFailed(f"{info.name}: probability {result.probability!r} != {p!r}")
    kets = info.output_kets(circuit)
    got = np.array([result.state.amps.get(k, 0.0) for k in kets], dtype=complex)
    want = math.sqrt(p) * (info.ideal @ amps.as_vector())
    overlap = np.vdot(want, got)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    dev = float(np.max(np.abs(got / phase - want)))
    ket_set = set(kets)
    outside = [abs(a) for k, a in result.state.amps.items() if k not in ket_set]
    dev = max([dev] + outside)
    if not dev <= AMP_TOL:
        raise CheckFailed(f"{info.name}: output amplitude off by {dev:.3e}")


# -- mesh-evaluate ---------------------------------------------------------------------


OPTIMIZE_PROBLEM = "simplified-cnot"


def mesh_evaluate_ops(seed: int, pass_index: int) -> list[Op]:
    """The optimizer's evaluator of the known-target mesh at random parameters.

    Each operation is `MESH_BATCH` calls of `PROBLEMS["simplified-cnot"].evaluate`,
    the inner-loop step of `fredkinlab optimize simplified-cnot`, at points
    drawn uniformly from the problem's bounds as the optimizer draws its
    starts.  The problem is looked up at call time, so a wrapped evaluator is
    timed.
    """
    import numpy as np
    from fredkinlab import analysis

    bounds = np.array(analysis.PROBLEMS[OPTIMIZE_PROBLEM].bounds)
    lo, hi = bounds[:, 0], bounds[:, 1]
    rng = pass_rng(seed, pass_index)
    points = lo + (hi - lo) * rng.random((MESH_OPS, MESH_BATCH, len(lo)))

    def evaluate(batch):
        problem = analysis.PROBLEMS[OPTIMIZE_PROBLEM]
        return [problem.evaluate(x) for x in batch]

    return [Op(f"batch={i}", lambda b=batch: evaluate(b),
               lambda res, b=batch: check_mesh_evaluations(b, res))
            for i, batch in enumerate(points)]


def check_mesh_evaluations(batch, results) -> None:
    """(p, fidelity) against the full state-evolution route of the same mesh."""
    from fredkinlab.analysis import evaluate_known_target
    from fredkinlab.circuits import build_simplified_cnot

    for params, (p, fid) in zip(batch, results, strict=True):
        ref = evaluate_known_target(build_simplified_cnot(params))
        off = max(abs(p - ref.p_min), abs(fid - ref.fidelity))
        if not off <= MESH_TOL:
            raise CheckFailed(f"evaluator off the simulated mesh at {list(params)} "
                              f"by {off:.3e}")


# -- optimize-mesh ---------------------------------------------------------------------


def optimize_mesh_ops(seed: int, pass_index: int, restarts: int | None = None) -> list[Op]:
    """One `fredkinlab optimize simplified-cnot --seed s`, in process.

    The optimizer seed is drawn from the workload seed; restarts and penalty
    are the CLI defaults unless `restarts` is given.
    """
    from fredkinlab import analysis
    from fredkinlab.config import LabConfig

    cfg = LabConfig()
    restarts = cfg.optimizer_restarts if restarts is None else restarts
    opt_seed = int(pass_rng(seed, pass_index).integers(2**31))

    def run_op():
        outcome = analysis.optimize_gate(OPTIMIZE_PROBLEM, seed=opt_seed, restarts=restarts,
                                         penalty=cfg.optimizer_penalty)
        return outcome, analysis.reverify_outcome(outcome)

    return [Op(f"seed={opt_seed}", run_op, check_optimize)]


def check_optimize(result) -> None:
    """Feasible, re-simulated p = 1/6 to 1e-9, and usable in the fig3 Fredkin."""
    from fredkinlab.circuits import CircuitError, build_fredkin_postselected

    outcome, (re_p, _) = result
    if not outcome.feasible:
        raise CheckFailed(f"infeasible (infidelity {outcome.best_infidelity:.3e})")
    off = abs(re_p - float(Fraction(1, 6)))
    if not off <= OPT_PROB_TOL:
        raise CheckFailed(f"re-simulated p off 1/6 by {off:.3e}")
    try:
        build_fredkin_postselected("fig3", outcome.parameters)
    except CircuitError as exc:
        raise CheckFailed(f"fig3 build: {exc}") from exc


WORKLOADS = {
    "verify-catalog": verify_catalog_ops,
    "sweep-cnot": sweep_cnot_ops,
    "mesh-evaluate": mesh_evaluate_ops,
    "optimize-mesh": optimize_mesh_ops,
}


# -- one pass --------------------------------------------------------------------------


def run_ops(ops: list[Op], tracer=None) -> dict:
    """Time each operation, then check it; failures are timed and kept."""
    times, failed, errors = [], 0, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        error = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if error is None:
            if tracer is not None:
                tracer.active = False
            try:
                op.check(result)
            except CheckFailed as exc:
                error = f"{op.label}: {exc}"
            finally:
                if tracer is not None:
                    tracer.active = True
        if error is not None:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(error)
    return {"op_s": times, "wall_s": sum(times), "failed": failed, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="clock() reading of the parent just before it started this pass")
    args = parser.parse_args(argv)

    import fredkinlab.cli  # noqa: F401  -- what every fredkinlab command imports
    import numpy
    import scipy

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    ops = WORKLOADS[args.workload](args.seed, args.pass_index)
    setup_end = clock()

    out = run_ops(ops, tracer)
    out["setup_s"] = setup_end - args.spawn_time
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    if tracer is not None:
        tracer.active = False
        out["layers"] = tracer.layer_figures()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
