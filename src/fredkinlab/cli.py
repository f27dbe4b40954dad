"""Command-line front end: verify gates, simulate circuit files, optimize meshes.

Exit codes: 0 success, 1 verification failure or infeasible optimization,
2 usage, parse or input errors.  All output is byte-deterministic for fixed
seeds; reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import analysis
from .catalog import CATALOG, gate_names, get_gate
from .circuits import Circuit, run
from .config import (
    ENV_VAR,
    LabConfig,
    load_config,
    non_negative_int,
    positive_float,
    positive_int,
)
from .fock import FockError, LogicalAmplitudes, occupation_str
from .serialize import load_circuit

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

#: why `verify FILE` checks nothing
NO_CLAIM = "a circuit file declares no claim"


def format_probability(p: float) -> str:
    """Decimal with 12 significant digits, plus the rational when exact."""
    text = f"{p:.12g}"
    frac = Fraction(p).limit_denominator(10**6)
    if frac.denominator > 1 and abs(p - float(frac)) <= 1e-12:
        text += f" (= {frac.numerator}/{frac.denominator})"
    return text


def _parse_input_amplitudes(text: str, n_qubits: int) -> LogicalAmplitudes:
    try:
        raw = json.loads(text)
        values = []
        for item in raw:
            parts = item if isinstance(item, list) else [item]
            if any(isinstance(part, bool) for part in parts):  # JSON true/false is no number
                raise ValueError(f"bad amplitude entry {item!r}")
            if isinstance(item, (int, float)):
                values.append(complex(item))
            elif isinstance(item, list) and len(item) == 2:
                values.append(complex(item[0], item[1]))
            else:
                raise ValueError(f"bad amplitude entry {item!r}")
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise FockError(f"cannot parse input amplitudes: {exc}") from exc
    if len(values) != 1 << n_qubits:
        raise FockError(f"expected {1 << n_qubits} amplitudes, got {len(values)}")
    return LogicalAmplitudes(tuple(values))


def _emit(obj: dict, fmt: str, table_lines):
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


# -- verify ------------------------------------------------------------------------


def _report_lines(report: analysis.GateReport, tol: float) -> list[str]:
    lines = [f"gate: {report.gate}"]
    lines.append(f"  {report.metadata.get('description', '')}")
    lines.append("  truth table:")
    for row in report.truth_table:
        amp = complex(row["amplitude"][0], row["amplitude"][1])
        lines.append(f"    {row['input']:>8} -> {row['output']:<8} amplitude {amp.real:+.9f}{amp.imag:+.9f}j")
    lines.append(f"  process fidelity:     {report.process_fidelity:.12f}")
    lines.append(f"  truth-table fidelity: {report.truth_table_fidelity:.12f}")
    expected = report.expected_probability
    lines.append(f"  expected probability: {format_probability(float(expected))}")
    kind = "worst-case" if not report.metadata.get("uniform", True) else "uniform"
    lines.append(f"  success probability ({kind}): {format_probability(report.probability())}")
    lines.append(f"  per-input spread:     {report.spread:.3e}")
    lines.append(f"  leakage:              {report.leakage:.3e}")
    verdict = "PASS" if report.matches_expectations(tol) else "FAIL"
    lines.append(f"  verdict: {verdict} (tolerance {tol:g})")
    return lines


def cmd_verify(args, cfg: LabConfig) -> int:
    tol = args.tolerance if args.tolerance is not None else cfg.verify_tolerance
    if args.gate in CATALOG:
        info = get_gate(args.gate)
        if info.kind == "known_target" and (args.input is not None or args.sweep):
            # its logic is a 6x4 map of photon-number sectors, not a qubit map
            option, check = (("--input", "single-input check") if args.input is not None
                             else ("--sweep", "random-input sweep"))
            print(f"error: gate {info.name!r} is a known-target gate and has no {check}; "
                  f"verify it without {option}", file=sys.stderr)
            return EXIT_USAGE
        if args.input is not None:
            return _verify_single_input(info, info.build(), args, tol)
        report = analysis.gate_report(info, sweep=args.sweep, sweep_seed=cfg.sweep_seed)
        _emit({"report": report.to_dict(),
               "pass": report.matches_expectations(tol)},
              args.format, _report_lines(report, tol))
        return EXIT_OK if report.matches_expectations(tol) else EXIT_VERIFY_FAILED
    if os.path.exists(args.gate):
        return _verify_file(args, cfg, tol)
    print(f"error: unknown gate {args.gate!r}; known gates: {', '.join(gate_names())}",
          file=sys.stderr)
    return EXIT_USAGE


def _verify_single_input(info, circuit: Circuit, args, tol: float) -> int:
    """Accept on the probability and on the phase-fixed deviation of the
    accepted amplitudes on the output kets from ideal·x, which is linear in
    an amplitude error."""
    amps = _parse_input_amplitudes(args.input, info.n_qubits)
    result = run(circuit, amps)
    kets = info.output_kets(circuit)
    got = np.array([result.state.amps.get(k, 0.0) for k in kets])
    deviation = analysis.phase_fixed_map_deviation(got, info.ideal @ amps.as_vector())
    p = result.probability
    ok = abs(p - float(info.expected_probability)) <= tol and deviation <= tol
    obj = {"gate": info.name, "probability": p, "map_deviation": deviation, "pass": ok}
    lines = [f"gate: {info.name}",
             f"  success probability: {format_probability(p)}",
             f"  map deviation:       {deviation:.3e}",
             f"  verdict: {'PASS' if ok else 'FAIL'}"]
    _emit(obj, args.format, lines)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _verify_file(args, cfg: LabConfig, tol: float) -> int:
    """Run the one input; a circuit file declares no claim, so nothing is
    checked, and the output says so."""
    circuit = load_circuit(args.gate)
    if args.input is None:
        print("error: verifying a circuit file needs --input", file=sys.stderr)
        return EXIT_USAGE
    amps = _parse_input_amplitudes(args.input, len(circuit.qubit_beams))
    result = run(circuit, amps)
    obj = {"circuit": circuit.name, "probability": result.probability, "checked": False}
    lines = [f"circuit: {circuit.name}",
             f"  acceptance probability: {format_probability(result.probability)}",
             f"  checked: nothing ({NO_CLAIM})"]
    _emit(obj, args.format, lines)
    return EXIT_OK


# -- simulate -----------------------------------------------------------------------


def cmd_simulate(args, cfg: LabConfig) -> int:
    if args.gate_or_file in CATALOG:
        circuit = get_gate(args.gate_or_file).build()
    else:
        circuit = load_circuit(args.gate_or_file)
    amps = _parse_input_amplitudes(args.input, len(circuit.qubit_beams))
    upto = None
    if args.through_label:
        upto = circuit.stage_prefix(args.through_label)
    result = run(circuit, amps, upto=upto)
    obj = {
        "circuit": circuit.name,
        "acceptance_probability": result.probability,
        "terms": [
            {"state": occupation_str(circuit.registry, occ),
             "occupation": list(occ),
             "amplitude": [amp.real, amp.imag]}
            for occ, amp in result.state.items()
        ],
    }
    lines = [f"circuit: {circuit.name}",
             f"acceptance probability: {format_probability(result.probability)}"]
    for term in obj["terms"]:
        amp = complex(term["amplitude"][0], term["amplitude"][1])
        lines.append(f"  {amp.real:+.12f}{amp.imag:+.12f}j  {term['state']}")
    _emit(obj, args.format, lines)
    return EXIT_OK


# -- optimize -----------------------------------------------------------------------


def cmd_optimize(args, cfg: LabConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.optimizer_seed
    restarts = args.restarts if args.restarts is not None else cfg.optimizer_restarts
    outcome = analysis.optimize_gate(args.problem, seed=seed, restarts=restarts)
    re_p, re_f = analysis.reverify_outcome(outcome)
    obj = outcome.to_dict()
    obj["reverified_probability"] = float(re_p)
    obj["reverified_fidelity"] = float(re_f)
    lines = [
        f"problem: {outcome.problem}",
        f"  parameters: [{', '.join(f'{x:.12f}' for x in outcome.parameters)}]",
        f"  achieved probability: {format_probability(outcome.probability)}",
        f"  fidelity:             {outcome.fidelity:.12f}",
        f"  re-simulated:         p={format_probability(re_p)}, fidelity={re_f:.12f}",
        f"  feasible: {'yes' if outcome.feasible else 'no'}"
        + ("" if outcome.feasible else " ({} {:.3e})".format(*outcome.logic_error)),
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(f"  parameters written to {args.out}")
    _emit(obj, args.format, lines)
    return EXIT_OK if outcome.feasible else EXIT_VERIFY_FAILED


# -- entry point ---------------------------------------------------------------------


def _checked(parse):
    """An argparse type from a config parser, keeping its error text."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fredkinlab",
        description="Verify and explore linear-optical Fredkin/CNOT gates by "
                    "exact Fock-state simulation.")
    parser.add_argument("--config", help=f"config file (overrides ${ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a gate against its registered numbers")
    p_verify.add_argument("gate", help=f"gate name ({', '.join(gate_names())}) or circuit "
                                       f"file; {NO_CLAIM}, so only its acceptance "
                                       "probability for --input is printed")
    p_verify.add_argument("--input", help="JSON amplitudes for a single-input check")
    p_verify.add_argument("--sweep", type=_checked(non_negative_int), default=0,
                          help="report N random inputs' probabilities; max(N, 3) test the map")
    p_verify.add_argument("--tolerance", type=_checked(positive_float), default=None)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_sim = sub.add_parser("simulate", help="propagate an input through a circuit file")
    p_sim.add_argument("gate_or_file", help="gate name or circuit file")
    p_sim.add_argument("--input", required=True, help="JSON amplitudes")
    p_sim.add_argument("--through-label", default=None,
                       help="stop after the stage with this label")
    p_sim.add_argument("--format", choices=("table", "json"), default="table")

    p_opt = sub.add_parser("optimize", help="optimize a parametrized gate family")
    p_opt.add_argument("problem", help=f"one of: {', '.join(sorted(analysis.PROBLEMS))}")
    p_opt.add_argument("--seed", type=_checked(non_negative_int), default=None)
    p_opt.add_argument("--restarts", type=_checked(positive_int), default=None)
    p_opt.add_argument("--out", help="write the outcome JSON here")
    p_opt.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "simulate":
            return cmd_simulate(args, cfg)
        if args.command == "optimize":
            return cmd_optimize(args, cfg)
    except (ValueError, OSError) as exc:  # CircuitFileError and FockError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
