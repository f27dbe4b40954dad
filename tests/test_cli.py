import dataclasses
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from fredkinlab import cli
from fredkinlab.cli import format_probability
from fredkinlab.catalog import get_gate
from fredkinlab.circuits import Circuit, Linear
from fredkinlab.elements import Hwp, Phase
from fredkinlab.fock import register_modes
from fredkinlab.serialize import circuit_to_dict, save_circuit


def _cli_env(env_extra):
    env = dict(os.environ)
    env.pop("PHOTONIC_LAB_CONFIG", None)
    env.update(env_extra or {})
    return env


def run_cli(args, env_extra=None):
    """`cli.main(args)` in this process, as `python -m fredkinlab.cli` runs it:
    the environment without PHOTONIC_LAB_CONFIG plus `env_extra`, stdout and
    stderr captured, and an argparse exit taken as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, _cli_env(env_extra), clear=True), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli_process(args, env_extra=None):
    """`python -m fredkinlab.cli args` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "fredkinlab.cli", *args],
                          capture_output=True, text=True, env=_cli_env(env_extra))
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_exit_codes():
    code, out, err = run_cli_process(["verify", "cnot-sanaka"])
    assert (code, err) == (0, "")
    assert "PASS" in out
    code, out, err = run_cli_process(["verify", "cnot-ralph", "--sweep", "-1"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "error: argument --sweep: must be a non-negative integer, got '-1'")


def test_format_probability_fraction_detection():
    assert format_probability(1 / 192) == "0.00520833333333 (= 1/192)"
    assert format_probability(0.25) == "0.25 (= 1/4)"
    assert "1/" not in format_probability(0.2500001)


def test_verify_known_gate_passes():
    code, out, err = run_cli(["verify", "cnot-sanaka"])
    assert code == 0
    assert "PASS" in out
    assert "1/4" in out


def test_verify_fig3_shows_registered_fraction():
    code, out, err = run_cli(["verify", "fredkin-fig3"])
    assert code == 0
    assert "0.00520833333333 (= 1/192)" in out
    assert "PASS" in out


def test_verify_unknown_gate_exit_2_lists_gates():
    code, out, err = run_cli(["verify", "nosuchgate"])
    assert code == 2
    assert "known gates" in err
    assert "fredkin-heralded" in err


def test_verify_sweep_uniform():
    code, out, err = run_cli(["verify", "cnot-sanaka", "--sweep", "10", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    probs = data["report"]["probabilities"]
    assert len(probs) == 10
    assert all(abs(p - 0.25) < 1e-10 for p in probs)


@pytest.mark.parametrize("name", ["fredkin-heralded", "cnot-pittman"])
@pytest.mark.parametrize("sweep", [1, 5])
def test_verify_sweep_probabilities_are_the_sweep_of_its_seeded_inputs(
        monkeypatch, capsys, name, sweep):
    from fredkinlab.analysis import random_inputs
    from fredkinlab.circuits import run
    from fredkinlab.cli import main
    from fredkinlab.config import LabConfig

    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["verify", name, "--sweep", str(sweep), "--format", "json"]) == 0
    info = get_gate(name)
    circuit = info.build()
    expected = [run(circuit, amps).probability
                for amps in random_inputs(info.n_qubits, sweep, LabConfig().sweep_seed)]
    assert json.loads(capsys.readouterr().out)["report"]["probabilities"] == expected


def test_verify_negative_sweep_is_usage_error():
    code, out, err = run_cli(["verify", "cnot-ralph", "--sweep", "-1"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "error: argument --sweep: must be a non-negative integer, got '-1'")


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_verify_bad_tolerance_is_usage_error(value):
    code, out, err = run_cli(["verify", "cnot-ralph", "--tolerance", value])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"error: argument --tolerance: must be a positive finite number, got '{value}'")


def test_config_bad_tolerance_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify_tolerance": -1}))
    code, out, err = run_cli(["verify", "cnot-ralph"],
                             env_extra={"PHOTONIC_LAB_CONFIG": str(cfg)})
    assert code == 2
    assert out == ""
    assert err == (f"error: bad config: config key 'verify_tolerance' in {cfg}: "
                   "must be a positive finite number, got -1\n")


def test_optimize_negative_restarts_is_usage_error():
    code, out, err = run_cli(["optimize", "identity", "--restarts", "-5"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "error: argument --restarts: must be a positive integer, got '-5'")


@pytest.mark.parametrize("command, key, value, message", [
    ("verify", "sweep_seed", 1.7, "must be a non-negative integer, got 1.7"),
    ("optimize", "optimizer_seed", -1, "must be a non-negative integer, got -1"),
    ("optimize", "optimizer_penalty", 0, "must be a positive finite number, got 0"),
    ("optimize", "optimizer_restarts", "5", "must be a JSON number, got '5'"),
])
def test_config_bad_seed_or_penalty_is_usage_error(tmp_path, command, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    args = ["verify", "cnot-ralph"] if command == "verify" else ["optimize", "identity"]
    code, out, err = run_cli(args, env_extra={"PHOTONIC_LAB_CONFIG": str(cfg)})
    assert code == 2
    assert out == ""
    assert err == f"error: bad config: config key {key!r} in {cfg}: {message}\n"


def test_config_must_be_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    code, out, err = run_cli(["verify", "cnot-ralph"],
                             env_extra={"PHOTONIC_LAB_CONFIG": str(cfg)})
    assert code == 2
    assert err == f"error: bad config: {cfg} must hold a JSON object\n"


@pytest.mark.parametrize("text, message", [
    ('{"sweep_seed": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ("{nope", "Expecting property name enclosed in double quotes"),
], ids=["huge-integer", "invalid-json"])
def test_config_that_is_no_json_names_its_file(tmp_path, monkeypatch, capsys, text, message):
    from fredkinlab.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["--config", str(cfg), "verify", "cnot-ralph"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config: {cfg}: {message}")
    assert err.count("\n") == 1


def test_circuit_file_integer_past_the_digit_limit_exit_2(tmp_path, monkeypatch, capsys):
    # json.loads lets Python's int() refuse a literal of more than 4300 digits
    # with a ValueError that is no JSONDecodeError
    from fredkinlab.cli import main

    path = tmp_path / "huge.json"
    path.write_text('{"version": 1' + "0" * 5000 + "}")
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["simulate", str(path), "--input", "[1, 0]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


def test_every_config_key_has_a_checked_parser():
    from dataclasses import fields

    from fredkinlab import config

    assert set(config._PARSERS) == {f.name for f in fields(config.LabConfig)}


@pytest.mark.parametrize("value", ["-1", "1.5"])
def test_optimize_bad_seed_is_usage_error(value):
    code, out, err = run_cli(["optimize", "identity", "--seed", value])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"error: argument --seed: must be a non-negative integer, got '{value}'")


def test_verify_single_input():
    code, out, err = run_cli(["verify", "cnot-ralph", "--input", "[1, 0, 0, 0]"])
    assert code == 0
    assert "PASS" in out


def test_verify_table_prints_a_residue_spread_as_zero():
    from fredkinlab import analysis

    report = dataclasses.replace(analysis.gate_report(get_gate("cnot-sanaka")), spread=5e-17)
    with mock.patch.object(analysis, "gate_report", return_value=report):
        code, out, err = run_cli(["verify", "cnot-sanaka", "--sweep", "3"])
        json_code, json_out, _ = run_cli(["verify", "cnot-sanaka", "--sweep", "3",
                                          "--format", "json"])
    assert (code, json_code) == (0, 0)
    assert "  per-input spread:     0.000000000000\n" in out
    assert json.loads(json_out)["report"]["spread"] == 5e-17


def test_verify_single_input_fails_a_small_output_phase():
    # a 1e-5 rad phase on the target's V output: the output fidelity,
    # quadratic in it, read 0.999999999975 and passed
    info = get_gate("cnot-ralph")
    circuit = info.build()
    shifted = Linear((Phase(("t", "V"), 1e-5),), label="phase-error")
    circuit = dataclasses.replace(
        circuit, stages=circuit.stages[:-1] + (shifted,) + circuit.stages[-1:])
    mutant = dataclasses.replace(info, build=lambda: circuit)
    x = "[0, 0, 0.7071067811865476, 0.7071067811865476]"
    assert run_cli(["verify", "cnot-ralph", "--input", x])[0] == 0
    with mock.patch.object(cli, "get_gate", return_value=mutant):
        code, out, err = run_cli(["verify", "cnot-ralph", "--input", x, "--format", "json"])
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert 1e-6 < report["map_deviation"] < 1e-5
    assert abs(report["probability"] - 1 / 9) < 1e-15


def test_verify_single_input_of_known_target_gate_is_usage_error():
    code, out, err = run_cli(["verify", "cnot-simplified", "--input", "[1, 0]"])
    assert code == 2
    assert out == ""
    assert err == ("error: gate 'cnot-simplified' is a known-target gate and has no "
                   "single-input check; verify it without --input\n")


def test_verify_sweep_of_known_target_gate_is_usage_error():
    code, out, err = run_cli(["verify", "cnot-simplified", "--sweep", "50"])
    assert code == 2
    assert out == ""
    assert err == ("error: gate 'cnot-simplified' is a known-target gate and has no "
                   "random-input sweep; verify it without --sweep\n")
    assert run_cli(["verify", "cnot-simplified", "--sweep", "0"])[0] == 0


def test_verify_file_says_that_it_checks_nothing(tmp_path):
    # both Hadamard splitters off 1/2: p stays 1/9, but the gate is no CNOT
    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    hadamards = [element for stage in obj["stages"] for element in stage.get("elements", ())
                 if element.get("eta") == 0.5]
    assert len(hadamards) == 2
    for element in hadamards:
        element["eta"] = 0.2
    path = tmp_path / "ralph.json"
    path.write_text(json.dumps(obj))
    args = ["verify", str(path), "--input", "[0, 0, 1, 0]"]
    code, out, err = run_cli(args)
    assert (code, err) == (0, "")
    assert out == ("circuit: cnot-ralph\n"
                   "  acceptance probability: 0.111111111111 (= 1/9)\n"
                   "  checked: nothing (a circuit file declares no claim)\n")
    code, out, err = run_cli(args + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"circuit": "cnot-ralph", "checked": False,
                               "probability": pytest.approx(1 / 9, abs=1e-12)}
    code, out, err = run_cli(["verify", "--help"])
    assert code == 0
    assert "circuit file declares no claim" in " ".join(out.split())


def test_verify_renormalizing_rule_file_exit_2(tmp_path):
    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    index, post = next((i, st) for i, st in enumerate(obj["stages"])
                       if st["type"] == "post_select")
    post["rules"][0]["renormalize"] = True
    path = tmp_path / "ralph.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["verify", str(path), "--input", "[0, 1, 0, 0]"])
    assert code == 2
    assert out == ""
    assert err == (f"error: {path}: stages[{index}].rules[0]: renormalize: true is not "
                   "supported; post-selection never renormalizes\n")


def test_verify_rejects_unnormalized_input():
    code, out, err = run_cli(["verify", "cnot-ralph", "--input", "[0.5, 0, 0, 0]"])
    assert code == 2
    assert "normaliz" in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("text, entry", [("[true, false, 0, 0]", "True"),
                                         ("[[true, 0], 0, 0, 0]", "[True, 0]"),
                                         ("[0, 0, [1, false], 0]", "[1, False]")])
def test_boolean_input_amplitudes_exit_2(command, text, entry):
    code, out, err = run_cli([command, "cnot-ralph", "--input", text])
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse input amplitudes: bad amplitude entry {entry}\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_input_entries_may_be_re_im_pairs(command):
    plain = run_cli([command, "cnot-ralph", "--input", "[0.6, 0, 0, 0.8]", "--format", "json"])
    pairs = run_cli([command, "cnot-ralph", "--input", "[[0.6, 0], 0, 0, [0.8, 0]]",
                     "--format", "json"])
    assert plain[0] == 0 and pairs == plain


def test_an_input_pair_gives_the_imaginary_part(tmp_path):
    # through an identity, two plates at 0 degrees, the output is the input
    reg = register_modes(["a", "b"])
    circ = Circuit("identity", reg, 2, ("a", "b"), ("a", "b"),
                   (Linear((Hwp("a", 0.0), Hwp("a", 0.0))),))
    path = tmp_path / "identity.json"
    save_circuit(circ, str(path))
    code, out, err = run_cli(["simulate", str(path), "--input", "[[0, 0.6], 0, 0, [0.8, 0]]",
                              "--format", "json"])
    assert (code, err) == (0, "")
    terms = {term["state"]: term["amplitude"] for term in json.loads(out)["terms"]}
    assert terms == {"|H_a H_b>": [0.0, 0.6], "|V_a V_b>": [0.8, 0.0]}


def test_verify_file_without_input_exit_2(tmp_path):
    path = tmp_path / "ralph.json"
    save_circuit(get_gate("cnot-ralph").build(), str(path))
    code, out, err = run_cli(["verify", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: verifying a circuit file needs --input\n"


def test_simulate_rejects_nan_input():
    code, out, err = run_cli(["simulate", "cnot-ralph", "--input", "[NaN, 0, 0, 1]"])
    assert code == 2
    assert err == "error: amplitudes not normalized: sum |a|^2 = nan\n"


def test_simulate_identity_echoes_input(tmp_path):
    from fredkinlab.circuits import Circuit, Linear
    from fredkinlab.elements import Hwp
    from fredkinlab.fock import register_modes
    reg = register_modes(["a"])
    circ = Circuit("identity", reg, 1, ("a",), ("a",),
                   (Linear((Hwp("a", 0.0), Hwp("a", 0.0))),))
    path = tmp_path / "identity.json"
    save_circuit(circ, str(path))
    code, out, err = run_cli(["simulate", str(path), "--input", "[0, 1]"])
    assert code == 0
    assert "acceptance probability: 1" in out
    assert "V_a" in out


def test_simulate_intermediate_state_dump(tmp_path):
    circ = get_gate("fredkin-postselected").build()
    path = tmp_path / "fredkin.json"
    save_circuit(circ, str(path))
    code, out, err = run_cli([
        "simulate", str(path), "--input", "[1, 0, 0, 0, 0, 0, 0, 0]",
        "--through-label", "target-plates", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    # the H input splits only through the 22.5-degree plate on the t2 wire
    assert data["acceptance_probability"] == pytest.approx(1.0)
    assert len(data["terms"]) == 2


def test_simulate_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, err = run_cli(["simulate", str(path), "--input", "[1, 0]"])
    assert code == 2
    assert "line" in err


def test_simulate_measure_basis_key_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-pittman").build())
    index, measure = next((i, st) for i, st in enumerate(obj["stages"])
                          if st["type"] == "measure")
    measure["basis"] = "PM"
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    # every detector counts H and V: a +/- detector is a 22.5-degree plate
    # stage before it.  The run would stop before the measurement; the file
    # is refused at load
    assert main(["simulate", str(path), "--input", "[1,0,0,0]",
                 "--through-label", "parity-pbs"]) == 2
    assert capsys.readouterr().err == f"error: {path}: stages[{index}]: unknown key 'basis'\n"


def test_simulate_flip_sign_correction_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-pittman").build())
    index, correction = next((i, c) for i, st in enumerate(obj["stages"])
                             if st["type"] == "measure"
                             for entry in st["accept"] for c in entry.get("corrections", ()))
    correction["kind"] = "flip_sign"
    path = tmp_path / "flip_sign.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    # a sign then a flip of the same beam is written as two corrections
    assert main(["simulate", str(path), "--input", "[1,0,0,0]"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: stages[{index}]: unknown correction kind 'flip_sign'\n")


def test_simulate_pattern_listed_twice_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-pittman").build())
    index, measure = next((i, st) for i, st in enumerate(obj["stages"])
                          if st["type"] == "measure")
    measure["accept"].append({"pattern": [1, 0], "reject": True})
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    # the second entry for a pattern would otherwise be dead without a word
    assert main(["simulate", str(path), "--input", "[1,0,0,0]"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: stages[{index}]: outcome (1, 0) is listed twice in a "
        "feed-forward table\n")


def test_simulate_misspelt_key_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-pittman").build())
    index, measure = next((i, st) for i, st in enumerate(obj["stages"])
                          if st["type"] == "measure")
    measure["default_rejct"] = measure.pop("default_reject")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    # a misspelt optional key would otherwise take its default without a word
    assert main(["simulate", str(path), "--input", "[1,0,0,0]"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: stages[{index}]: unknown key 'default_rejct'\n")


def test_simulate_hv_swap_element_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-sanaka").build())
    index, elements, k = next((i, st["elements"], k) for i, st in enumerate(obj["stages"])
                              if st["type"] == "linear"
                              for k, e in enumerate(st["elements"]) if e["kind"] == "hwp")
    elements[k] = {"kind": "hv_swap", "beam": elements[k]["beam"]}
    path = tmp_path / "hv_swap.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    # a 45-degree plate is written as `hwp`; the old `hv_swap` alias is gone
    assert main(["simulate", str(path), "--input", "[1,0,0,0]"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: stages[{index}]: bad 'hv_swap' element: unknown kind 'hv_swap'\n")


def test_simulate_ancilla_on_qubit_beam_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-pittman").build())
    obj["ancillae"][0]["beam_a"] = "c"
    path = tmp_path / "anc.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["simulate", str(path), "--input", "[1,0,0,0]"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "ancilla on beams 'c' and 'a2' sits on qubit beam 'c'" in err
    assert err.count("\n") == 1


def test_verify_route_repeating_a_source_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    obj["stages"][0]["elements"].append(
        {"kind": "route", "mapping": [["c", "t"], ["c", "rc"], ["t", "c"], ["rc", "c"]]})
    path = tmp_path / "route.json"
    path.write_text(json.dumps(obj))
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["verify", str(path), "--input", "[1,0,0,0]"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "route mapping is not a beam permutation" in err
    assert err.count("\n") == 1


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only `optimize` needs scipy.optimize; every other command skips its import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fredkinlab.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_nan_angle_file_exit_2(tmp_path, monkeypatch, capsys):
    from fredkinlab.cli import main
    from fredkinlab.serialize import circuit_to_dict

    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    obj["stages"][2]["elements"][0]["theta"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # Python's json writes and reads NaN
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["verify", str(path), "--input", "[1,0,0,0]"]) == 2
    err = capsys.readouterr().err
    assert "matrix is not unitary (deviation nan)" in err
    assert err.count("\n") == 1


def test_optimize_identity_fast():
    code, out, err = run_cli(["optimize", "identity", "--seed", "4", "--restarts", "2"])
    assert code == 0
    assert "feasible: yes" in out


def test_optimize_unknown_problem():
    code, out, err = run_cli(["optimize", "warpdrive"])
    assert code == 2


def test_optimize_unknown_problem_leaves_scipy_optimize_unloaded():
    # the name is resolved before the solver is imported
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from fredkinlab.analysis import AnalysisError, optimize_gate\n"
         "try:\n"
         "    optimize_gate('warpdrive')\n"
         "except AnalysisError:\n"
         "    print('scipy.optimize' in sys.modules)\n"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_optimize_simplified_cnot_reaches_one_sixth():
    code, out, err = run_cli(["optimize", "simplified-cnot", "--seed", "7",
                              "--restarts", "6", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["probability"] >= 0.1666656
    assert data["feasible"] is True


def test_optimize_infeasible_names_deciding_figure(monkeypatch, capsys):
    import numpy as np
    from fredkinlab import analysis
    from fredkinlab.cli import main

    offset = analysis.OptimizationProblem(
        name="offset", bounds=((-1.0, 1.0),),
        evaluate=lambda x: (1.0, 1.0),
        residuals=lambda x: np.array([x[0], 1e-6]))
    monkeypatch.setitem(analysis.PROBLEMS, "offset", offset)
    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    assert main(["optimize", "offset", "--seed", "0", "--restarts", "1"]) == 1
    assert "feasible: no (residual norm 1.000e-06)" in capsys.readouterr().out


def test_optimize_trivial_root_is_infeasible(monkeypatch, capsys):
    from fredkinlab.cli import main

    monkeypatch.delenv("PHOTONIC_LAB_CONFIG", raising=False)
    # at one restart, seed 0's four starts all end on roots with p = 0
    assert main(["optimize", "simplified-cnot", "--seed", "0", "--restarts", "1"]) == 1
    out = capsys.readouterr().out
    assert "achieved probability: 3.2" in out and "e-33" in out
    # the engine prunes the ~1e-16 amplitudes left there: a zero sector scores 0
    assert "re-simulated:         p=0, fidelity=0.000000000000" in out
    # p decided, not the residual norm of ~2e-16 at that root
    assert "feasible: no (success probability 3.2" in out and "e-33)" in out


def test_optimize_writes_parameter_file(tmp_path):
    out_path = tmp_path / "params.json"
    code, out, err = run_cli(["optimize", "ralph-topology", "--seed", "2",
                              "--restarts", "3", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert abs(data["parameters"][0] - 1 / 3) < 1e-5
    assert data["reverified_fidelity"] >= 1 - 1e-8


def test_cli_determinism_verify():
    # two interpreters: hash randomization differs only across processes
    a = run_cli_process(["verify", "cnot-pittman", "--format", "json"])
    b = run_cli_process(["verify", "cnot-pittman", "--format", "json"])
    assert a == b


def test_cli_determinism_optimize():
    args = ["optimize", "ralph-topology", "--seed", "11", "--restarts", "3",
            "--format", "json"]
    a = run_cli_process(args)
    b = run_cli_process(args)
    assert a == b


def test_config_file_sets_sweep_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep_seed": 123}))
    args = ["verify", "cnot-sanaka", "--sweep", "3", "--format", "json"]
    code1, out1, _ = run_cli(args, env_extra={"PHOTONIC_LAB_CONFIG": str(cfg)})
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    # different seeds give different random inputs but identical probabilities
    assert json.loads(out1)["report"]["probabilities"] == pytest.approx(
        json.loads(out2)["report"]["probabilities"])


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_factor": 9}))
    code, out, err = run_cli(["verify", "cnot-sanaka"],
                             env_extra={"PHOTONIC_LAB_CONFIG": str(cfg)})
    assert code == 2
    assert "unknown config key" in err
