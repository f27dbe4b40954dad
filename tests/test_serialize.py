import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from fredkinlab.catalog import CATALOG, get_gate
from fredkinlab.serialize import (
    CircuitFileError,
    circuit_from_dict,
    circuit_to_dict,
    dumps_circuit,
    load_circuit,
    loads_circuit,
    save_circuit,
)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_round_trip_every_cataloged_gate(name):
    circuit = get_gate(name).build()
    restored = loads_circuit(dumps_circuit(circuit))
    assert restored == circuit


def test_round_trip_via_file(tmp_path):
    circuit = get_gate("cnot-sanaka").build()
    path = tmp_path / "sanaka.json"
    save_circuit(circuit, str(path))
    assert load_circuit(str(path)) == circuit


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(CircuitFileError) as err:
        load_circuit(str(path))
    assert "line 1" in str(err.value)


def test_unsupported_version_rejected():
    with pytest.raises(CircuitFileError):
        circuit_from_dict({"version": 99, "beams": ["a"], "stages": []})


def test_unknown_element_kind_rejected():
    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    obj["stages"][0]["elements"][0]["kind"] = "teleporter"
    with pytest.raises(CircuitFileError):
        circuit_from_dict(obj)


def test_unknown_stage_type_rejected():
    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    obj["stages"][0]["type"] = "wormhole"
    with pytest.raises(CircuitFileError):
        circuit_from_dict(obj)


def test_rules_are_written_without_renormalize_and_read_with_it_false():
    obj = circuit_to_dict(get_gate("cnot-ralph").build())
    rule = _first_rule(obj)
    assert set(rule) == {"constraints"}
    rule["renormalize"] = False
    assert circuit_from_dict(obj) == get_gate("cnot-ralph").build()


def test_serialized_form_is_json_and_versioned():
    blob = dumps_circuit(get_gate("fredkin-timebin").build())
    obj = json.loads(blob)
    assert obj["version"] == 1
    assert obj["time_resolved"] is True
    assert "time_bin_config" in obj


def _drop_control(obj):
    flip = next(st for st in obj["stages"] if st["type"] == "controlled_flip")
    del flip["control"]


def _list_stage(obj):
    obj["stages"][0] = ["linear"]


def _photon_without_beam(obj):
    obj["ancillae"] = [{"kind": "photon"}]


def _config_without_l_spdc(obj):
    del obj["time_bin_config"]["l_spdc"]


def _nan_angle(obj):
    obj["stages"][2]["elements"][0]["theta"] = float("nan")


def _infinite_photon_count(obj):
    obj["photons"] = float("inf")


def _unknown_bell_state(obj):
    obj["ancillae"][0]["state"] = "psi_minus"


def _ancilla_on_qubit_beam(obj):
    obj["ancillae"][0]["beam_a"] = "c"


def _ancillae_share_a_beam(obj):
    obj["ancillae"][1]["beam_a"] = "a1"


def _last_correction(obj):
    measure = [st for st in obj["stages"] if st["type"] == "measure"][-1]
    return next(item for item in measure["accept"] if item.get("corrections"))["corrections"][0]


def _unknown_correction_kind(obj):
    _last_correction(obj)["kind"] = "flop"


def _correction_on_unregistered_beam(obj):
    _last_correction(obj)["beam"] = "zz"


def _patterns_one_count_too_long(obj):
    for st in obj["stages"]:
        for item in st.get("accept", []):
            item["pattern"].append(0)


def _negative_pattern_count(obj):
    measure = next(st for st in obj["stages"] if st["type"] == "measure")
    measure["accept"][0]["pattern"] = [2, -1]


def _first_rule(obj):
    post = next(st for st in obj["stages"] if st["type"] == "post_select")
    return post["rules"][0]


def _count(value):
    def mutate(obj):
        _first_rule(obj)["constraints"][0]["count"] = value
    mutate.__name__ = f"_count_{value!r}"
    return mutate


def _fractional_pattern_count(obj):
    measure = next(st for st in obj["stages"] if st["type"] == "measure")
    measure["accept"][0]["pattern"] = [1.7, 0]


def _fractional_photon_count(obj):
    obj["photons"] = 2.9


def _string_default_reject(obj):
    next(st for st in obj["stages"] if st["type"] == "measure")["default_reject"] = "false"


def _renormalizing_rule(obj):
    _first_rule(obj)["renormalize"] = True


def _set(key, value):
    def mutate(obj):
        obj[key] = value
    mutate.__name__ = f"_{key}_{value!r}"
    return mutate


def _string_qubits_and_outputs(obj):
    obj["qubits"] = obj["outputs"] = "ct"


def _numeric_stage_label(obj):
    obj["stages"][0]["label"] = 5


def _time_bin_field(key, value):
    def mutate(obj):
        obj["time_bin_config"][key] = value
    mutate.__name__ = f"_time_bin_{key}_{value!r}"
    return mutate


@pytest.mark.parametrize("gate, mutate, message", [
    ("fredkin-postselected", _drop_control, "missing key 'control'"),
    ("fredkin-postselected", _list_stage, "malformed document"),
    ("fredkin-postselected", _photon_without_beam, "missing key 'beam'"),
    ("cnot-sanaka", _config_without_l_spdc, "missing key 'l_spdc'"),
    ("cnot-ralph", _nan_angle, "matrix is not unitary (deviation nan)"),
    ("cnot-ralph", _infinite_photon_count, "photons must be an integer, got inf"),
    ("cnot-pittman", _unknown_bell_state, "unknown Bell state 'psi_minus'"),
    ("cnot-pittman", _ancilla_on_qubit_beam,
     "ancilla on beams 'c' and 'a2' sits on qubit beam 'c'"),
    ("fredkin-heralded", _ancillae_share_a_beam,
     "ancilla on beams 'a1' and 'a4' overlaps another ancilla"),
    ("cnot-pittman", _unknown_correction_kind, "unknown correction kind 'flop'"),
    ("cnot-pittman", _correction_on_unregistered_beam, "beam 'zz' not registered"),
    ("cnot-pittman", _patterns_one_count_too_long,
     "outcome (1, 0, 0) of the detector on beam 'a1' needs 2 non-negative counts"),
    ("cnot-pittman", _negative_pattern_count,
     "outcome (2, -1) of the detector on beam 'a1' needs 2 non-negative counts"),
    ("cnot-ralph", _count(1.5), "count must be an integer, got 1.5"),
    ("cnot-ralph", _count(True), "count must be an integer, got True"),
    ("cnot-ralph", _count("1"), "count must be an integer, got '1'"),
    ("cnot-pittman", _fractional_pattern_count, "pattern count must be an integer, got 1.7"),
    ("cnot-ralph", _fractional_photon_count, "photons must be an integer, got 2.9"),
    ("cnot-pittman", _string_default_reject, "default_reject must be true or false, got 'false'"),
    ("cnot-ralph", _renormalizing_rule, "renormalize: true is not supported"),
    ("cnot-ralph", _string_qubits_and_outputs, "qubits must be a list of strings, got 'ct'"),
    ("cnot-ralph", _set("outputs", "ct"), "outputs must be a list of strings, got 'ct'"),
    ("cnot-ralph", _set("outputs", ["c", 1]), "outputs must be a list of strings"),
    ("cnot-ralph", _set("beams", "ct"), "beams must be a list of strings, got 'ct'"),
    ("cnot-ralph", _set("name", ["x"]), "name must be a string, got ['x']"),
    ("cnot-ralph", _numeric_stage_label, "label must be a string, got 5"),
    ("cnot-sanaka", _time_bin_field("delta_l", "1.0"), "delta_l must be a number, got '1.0'"),
    ("cnot-sanaka", _time_bin_field("l_spdc", True), "l_spdc must be a number, got True"),
    ("cnot-sanaka", _time_bin_field("l_pump", [10]), "l_pump must be a number, got [10]"),
    ("cnot-sanaka", _time_bin_field("delta_t", None), "delta_t must be a number, got None"),
    ("cnot-sanaka", _time_bin_field("speed", "1"), "speed must be a number, got '1'"),
])
def test_malformed_document_is_one_line_circuit_file_error(gate, mutate, message):
    obj = circuit_to_dict(get_gate(gate).build())
    mutate(obj)
    with pytest.raises(CircuitFileError) as err:
        circuit_from_dict(obj, "bad.json")
    text = str(err.value)
    assert text.startswith("bad.json: ") and message in text
    assert "\n" not in text


def _element_field(kind, key, value):
    def mutate(obj):
        linear = [i for i, st in enumerate(obj["stages"]) if st["type"] == "linear"]
        if kind == "phase":  # no catalog gate has a phase plate
            obj["stages"][linear[0]]["elements"].append(
                {"kind": "phase", "target": ["c", "H"], "phi": 0.0})
        index, el = next((i, el) for i in linear for el in obj["stages"][i]["elements"]
                         if el["kind"] == kind)
        el[key] = value
        return index
    mutate.__name__ = f"_{kind}_{key}_{value!r}"
    return mutate


@pytest.mark.parametrize("gate, mutate, message", [
    ("cnot-pittman", _element_field("hwp", "theta_deg", "22.5"),
     "bad 'hwp' element: theta_deg must be a number, got '22.5'"),
    ("cnot-ralph", _element_field("bs", "eta", "0.5"),
     "bad 'bs' element: eta must be a number, got '0.5'"),
    ("cnot-ralph", _element_field("phase", "phi", False),
     "bad 'phase' element: phi must be a number, got False"),
    ("cnot-simplified", _element_field("rot", "theta", True),
     "bad 'rot' element: theta must be a number, got True"),
])
def test_malformed_element_is_one_line_circuit_file_error_at_its_stage(gate, mutate, message):
    obj = circuit_to_dict(get_gate(gate).build())
    index = mutate(obj)
    with pytest.raises(CircuitFileError) as err:
        circuit_from_dict(obj, "bad.json")
    assert str(err.value) == f"bad.json:stages[{index}]: {message}"


# -- fuzzing -----------------------------------------------------------------------

_DOCUMENTS = {}


def _document(name):
    if name not in _DOCUMENTS:
        _DOCUMENTS[name] = json.dumps(circuit_to_dict(get_gate(name).build()))
    return json.loads(_DOCUMENTS[name])


def _paths(node, prefix=()):
    """Every (container, key) location in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


_ODD_VALUES = [None, True, False, 0, -1, 2, 10 ** 30, 0.5, -1e300, float("nan"),
               float("inf"), "", "x", "H", "c", [], {}, [1, 2], ["c", "H"],
               {"kind": "hwp"}]


def _perturbed(value, draw):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return draw(st.sampled_from([value + 1, value - 1, -value, value * 1e20, value / 3]))
    if isinstance(value, str):
        return draw(st.sampled_from([value + "x", value[:-1], value.upper(), "t" + value]))
    if isinstance(value, list) and value:
        return value[::-1] if len(value) > 1 else value * 2
    return value


@st.composite
def mutated_documents(draw):
    """A catalog circuit document with 1-3 fields dropped, retyped or perturbed."""
    obj = _document(draw(st.sampled_from(sorted(CATALOG))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["drop", "retype", "perturb"]))
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        else:
            parent[key] = copy.deepcopy(_perturbed(parent[key], draw))
    return json.dumps(obj)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_document_raises_only_circuit_file_error(text):
    try:
        loads_circuit(text, "fuzz.json")
    except CircuitFileError as exc:
        assert "\n" not in str(exc)
