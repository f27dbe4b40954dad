import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fredkinlab import serialize
from fredkinlab.catalog import CATALOG, get_gate
from fredkinlab.circuits import (
    BellPair,
    Circuit,
    CircuitError,
    ControlledFlip,
    Linear,
    Measure,
    PostSelect,
    SinglePhoton,
    TimeBinConfig,
    run,
)
from fredkinlab.elements import (
    Bs, DelayToL, ElementError, Hwp, Pbs, Phase, Rot, Route, Rpbs,
)
from fredkinlab.engine import (
    REJECT, EngineError, FeedForwardTable, PostSelectionRule,
)
from fredkinlab.fock import LogicalAmplitudes, Polarization, register_modes
from fredkinlab.serialize import (
    CircuitFileError,
    circuit_from_dict,
    circuit_to_dict,
    dumps_circuit,
    load_circuit,
    loads_circuit,
    save_circuit,
)


def _runs_to_the_bit(circuit: Circuit) -> list:
    """Every basis input's accepted amplitudes, probability and branch log,
    each float as `float.hex`."""
    n = len(circuit.qubit_beams)
    runs = []
    for i in range(1 << n):
        res = run(circuit, LogicalAmplitudes.basis(n, i))
        runs.append(([(occ, a.real.hex(), a.imag.hex()) for occ, a in res.state.items()],
                     res.probability.hex(), repr(res.branch_log)))
    return runs


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_round_trip_every_cataloged_gate(name):
    circuit = get_gate(name).build()
    restored = loads_circuit(dumps_circuit(circuit))
    assert restored == circuit
    assert _runs_to_the_bit(restored) == _runs_to_the_bit(circuit)


def test_a_document_without_photons_declares_its_logical_input():
    # one photon per qubit and two per Bell pair: 4 for the heralded CNOT, not 2
    obj = circuit_to_dict(get_gate("cnot-pittman").build())
    del obj["photons"]
    circuit = circuit_from_dict(obj)
    assert circuit.photons == 4
    assert abs(run(circuit, LogicalAmplitudes.basis(2, 3)).probability - 1 / 4) <= 1e-12


def _sequenced(seq, where: str) -> Circuit:
    """A small circuit with `seq` (``list`` or ``tuple``) making the
    sequence named by `where`, and tuples everywhere else."""
    def at(name, value):
        return seq(value) if where == name else tuple(value)
    reg = register_modes(("c", "t", "a", "b"))
    elements = (Bs(0.5, at("Bs label", ("c", "H")), ("t", "H")),
                Phase(at("Phase label", ("t", "V")), 0.3),
                Rot(0.2, ("c", "V"), at("Rot label", ("t", "V"))),
                Route(at("Route mapping", (at("Route pair", ("a", "b")), ("b", "a")))))
    table = FeedForwardTable(at("table entries", (
        at("table entry", (at("pattern", (1, 0)),
                           at("corrections", (at("correction", ("c", "flip")),)))),
        ((0, 1), REJECT))))
    rules = (PostSelectionRule(at("rule constraints", (
        at("rule constraint", (at("constraint modes", reg.beam_modes("c")), 1)),
        (reg.beam_modes("t"), 1)))),)
    return Circuit(name="sequenced", registry=reg, photons=4,
                   qubit_beams=at("qubit_beams", ("c", "t")),
                   output_beams=at("output_beams", ("c", "t")),
                   stages=at("stages", (Linear(at("Linear.elements", elements)),
                                        Measure("b", table),
                                        PostSelect(at("PostSelect.rules", rules)))),
                   ancillae=at("ancillae", (BellPair("a", "b"),)))


@pytest.mark.parametrize("where, error, message", [
    ("Bs label", ElementError,
     "mode reference ['c', 'H'] is not a (beam, pol[, bin]) label"),
    ("Phase label", ElementError,
     "mode reference ['t', 'V'] is not a (beam, pol[, bin]) label"),
    ("Rot label", ElementError,
     "mode reference ['t', 'V'] is not a (beam, pol[, bin]) label"),
    ("Route mapping", ElementError,
     "route mapping [('a', 'b'), ('b', 'a')] is not a tuple of (old, new) beam tuples"),
    ("Route pair", ElementError,
     "route mapping (['a', 'b'], ('b', 'a')) is not a tuple of (old, new) beam tuples"),
    ("Linear.elements", CircuitError, "the elements of a linear stage must be a tuple, not list"),
    ("PostSelect.rules", CircuitError, "the rules of a post-selection must be a tuple, not list"),
    ("qubit_beams", CircuitError, "qubit_beams must be a tuple, not list"),
    ("output_beams", CircuitError, "output_beams must be a tuple, not list"),
    ("stages", CircuitError, "stages must be a tuple, not list"),
    ("ancillae", CircuitError, "ancillae must be a tuple, not list"),
    ("table entries", EngineError, "the entries of a feed-forward table must be a tuple, not list"),
    ("table entry", EngineError, "an entry of a feed-forward table must be a tuple, not list"),
    ("pattern", EngineError, "an outcome pattern must be a tuple, not list"),
    ("corrections", EngineError, "the corrections of an outcome must be a tuple, not list"),
    ("correction", EngineError, "a correction must be a tuple, not list"),
    ("rule constraints", EngineError,
     "the constraints of a post-selection rule must be a tuple, not list"),
    ("rule constraint", EngineError,
     "a constraint of a post-selection rule must be a tuple, not list"),
    ("constraint modes", EngineError, "the modes of a constraint must be a tuple, not list"),
])
def test_a_list_where_a_file_reads_back_a_tuple_is_refused(where, error, message):
    # the reader gives tuples, so a circuit holding a list would not read
    # back equal; the tuple form does
    with pytest.raises(error) as info:
        _sequenced(list, where)
    assert str(info.value) == message
    circuit = _sequenced(tuple, where)
    assert loads_circuit(dumps_circuit(circuit)) == circuit


def test_rules_and_tables_from_their_builders_read_back_equal():
    # the builders take lists and give the tuples a file reads back
    reg = register_modes(("c", "t", "a"))
    table = FeedForwardTable.build({(1, 0): [], (0, 1): [["c", "sign"], ["c", "flip"]]})
    rules = (PostSelectionRule.beam_counts(reg, {"c": 1, "t": 1, "a": 0}),
             PostSelectionRule.mode_counts(reg, [[list(reg.beam_modes("c")), 0],
                                                 [list(reg.beam_modes("t")), 2]]))
    circuit = Circuit(name="built", registry=reg, photons=3, qubit_beams=("c", "t"),
                      output_beams=("c", "t"),
                      stages=(Linear((Bs(0.5, "t", "a"),)), Measure("a", table),
                              PostSelect(rules)),
                      ancillae=(SinglePhoton("a"),))
    assert loads_circuit(dumps_circuit(circuit)) == circuit


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


def _every_kind_circuit():
    """A circuit that holds every element kind and every optional part of a
    document, and runs: the flip comes first, while the control holds its one
    photon, and the detector counts the ancilla photon that the 22.5-degree
    plate turned to |+> in the +/- basis (a second such plate, then H/V
    counting), so only its first pattern occurs."""
    reg = register_modes(["c", "t", "a", "b", "d", "e"], time_resolved=True)
    elements = (
        Hwp("a", 22.5), Pbs("c", "t"),
        Bs(0.5, ("c", "H", "S"), ("c", "V", "S")),
        Bs(0.25, "t", "b", signed="a"), Rpbs("t", "d"), Hwp("b", 45.0),
        Route((("d", "b"), ("b", "d"))), DelayToL("c"), Phase(("t", "V", "L"), 0.25),
        Rot(0.3, ("d", "H", "S"), ("b", "H", "S")),
    )
    table = FeedForwardTable((((1, 0, 0, 0), ()), ((0, 0, 1, 0), (("c", "flip"),)),
                              ((0, 1, 0, 0), REJECT)), default_reject=False)
    rule = PostSelectionRule((((reg.index("b", "H", "S"), reg.index("b", "V", "L")), 0),))
    stages = (ControlledFlip("c", "t", "flip"), Linear(elements, "optics"),
              Linear((Hwp("a", 22.5),), "herald-plate"), Measure("a", table, "herald"),
              PostSelect((rule,), "post"))
    return Circuit("every-kind", reg, 5, ("c", "t"), ("c", "t"), stages,
                   (SinglePhoton("a", Polarization.H), BellPair("d", "e", "phi_plus")),
                   TimeBinConfig())


def test_round_trip_of_every_kind():
    circuit = _every_kind_circuit()
    text = dumps_circuit(circuit)
    restored = loads_circuit(text)
    assert dumps_circuit(restored) == text
    assert restored == circuit
    assert _runs_to_the_bit(restored) == _runs_to_the_bit(circuit)
    assert restored.stages[3].table.default_reject is False
    assert len(restored.unitaries) == len(circuit.unitaries)
    for got, want in zip(restored.unitaries, circuit.unitaries):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got.matrix, want.matrix)


def _nodes(doc):
    """Every JSON object of a circuit document, with the table node that reads it."""
    yield serialize._DOCUMENT, doc
    if "time_bin_config" in doc:
        yield serialize._TIME_BIN, doc["time_bin_config"]
    for anc in doc["ancillae"]:
        yield serialize._ANCILLAE[anc["kind"]], anc
    for stage in doc["stages"]:
        yield serialize._STAGES[stage["type"]], stage
        for el in stage.get("elements", []):
            yield serialize._ELEMENTS[el["kind"]], el
        for item in stage.get("accept", []):
            yield serialize._ACCEPT, item
            for correction in item.get("corrections", []):
                yield serialize._CORRECTION, correction
        for rule in stage.get("rules", []):
            yield serialize._RULE, rule
            for constraint in rule["constraints"]:
                yield serialize._CONSTRAINT, constraint


_EVERY_NODE = [serialize._DOCUMENT, serialize._TIME_BIN, serialize._ACCEPT,
               serialize._CORRECTION, serialize._RULE, serialize._CONSTRAINT,
               *serialize._ANCILLAE.values(), *serialize._STAGES.values(),
               *serialize._ELEMENTS.values()]


def _every_kind_document():
    doc = circuit_to_dict(_every_kind_circuit())
    for node, obj in _nodes(doc):
        if node is serialize._RULE:
            obj["renormalize"] = False  # as files of older versions carry it
    return doc


def _mutants(doc):
    """For each JSON object of `doc`: a fresh copy of it, and that object in the copy."""
    for k in range(len(list(_nodes(doc)))):
        copied = copy.deepcopy(doc)
        yield copied, list(_nodes(copied))[k]


def test_unknown_key_is_refused_in_every_node_kind():
    doc = _every_kind_document()
    assert {id(node) for node, _ in _nodes(doc)} == {id(node) for node in _EVERY_NODE}
    for copied, (node, obj) in _mutants(doc):
        obj["colour"] = "blue"
        with pytest.raises(CircuitFileError) as err:
            circuit_from_dict(copied, "bad.json")
        assert "unknown key 'colour'" in str(err.value), node
        assert "\n" not in str(err.value)


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "integer", float: "float",
               str: "string", list: "list", dict: "object"}
_SAMPLES = [None, True, 7, 0.5, "x", [], {}]


def test_every_field_refuses_every_wrong_json_type():
    tried = set()
    for copied, (node, obj) in _mutants(_every_kind_document()):
        for field in node.fields:
            if field.key not in obj:
                continue
            value = obj[field.key]
            accepted = {_JSON_TYPES[type(value)]}
            if isinstance(value, float):  # a number may be written as an integer
                accepted.add("integer")
            for sample in _SAMPLES:
                if _JSON_TYPES[type(sample)] in accepted:
                    continue
                obj[field.key] = sample
                try:
                    circuit_from_dict(copied)
                except CircuitFileError as exc:
                    assert "\n" not in str(exc)
                else:
                    pytest.fail(f"{field.key} = {sample!r} loaded")
            obj[field.key] = value
            tried.add((id(node), field.key))
    assert tried == {(id(node), f.key) for node in _EVERY_NODE for f in node.fields}


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


def _constraint_modes(value):
    def mutate(obj):
        _first_rule(obj)["constraints"][0]["modes"] = value
    mutate.__name__ = f"_constraint_modes_{value!r}"
    return mutate


def _misspelt_default_reject(obj):
    measure = next(st for st in obj["stages"] if st["type"] == "measure")
    measure["default_rejct"] = measure.pop("default_reject")


def _measure_basis(obj):
    # a +/- detector is written as a 22.5-degree plate stage, then the measure
    next(st for st in obj["stages"] if st["type"] == "measure")["basis"] = "PM"


def _flip_sign_correction(obj):
    # written as a sign, then a flip, of the same beam
    _last_correction(obj)["kind"] = "flip_sign"


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
    ("cnot-pittman", _flip_sign_correction, "unknown correction kind 'flip_sign'"),
    ("cnot-pittman", _measure_basis, "unknown key 'basis'"),
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
    ("cnot-ralph", _set("version", True), "version must be 1, got True"),
    ("cnot-ralph", _set("version", 1.0), "version must be 1, got 1.0"),
    ("cnot-ralph", _set("ancillae", ""), "ancillae must be a list, got ''"),
    ("cnot-ralph", _constraint_modes("c"), "modes must be a list, got 'c'"),
    ("cnot-ralph", _constraint_modes(["c"]),
     "mode must be a [beam, pol(, bin)] label, got 'c'"),
    ("cnot-ralph", _set("time_resolvd", False), "unknown key 'time_resolvd'"),
    ("cnot-pittman", _misspelt_default_reject, "stages[3]: unknown key 'default_rejct'"),
])
def test_malformed_document_is_one_line_circuit_file_error(gate, mutate, message):
    obj = circuit_to_dict(get_gate(gate).build())
    mutate(obj)
    with pytest.raises(CircuitFileError) as err:
        circuit_from_dict(obj, "bad.json")
    text = str(err.value)
    assert text.startswith("bad.json: ") and message in text
    assert "\n" not in text


_NOT_IN_CATALOG = {"phase": {"kind": "phase", "target": ["c", "H"], "phi": 0.0},
                   "route": {"kind": "route", "mapping": [["c", "t"], ["t", "c"]]}}


def _element_field(kind, key, value):
    def mutate(obj):
        linear = [i for i, st in enumerate(obj["stages"]) if st["type"] == "linear"]
        if kind in _NOT_IN_CATALOG:
            obj["stages"][linear[0]]["elements"].append(dict(_NOT_IN_CATALOG[kind]))
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
    ("cnot-ralph", _element_field("route", "mapping", ["ct", "tc"]),
     "bad 'route' element: mapping must be a list of [old, new] beam pairs, got ['ct', 'tc']"),
    ("cnot-simplified", _element_field("rot", "a", "c"),
     "bad 'rot' element: a must be a [beam, pol(, bin)] label, got 'c'"),
    ("cnot-pittman", _element_field("hwp", "angle", 22.5),
     "bad 'hwp' element: unknown key 'angle'"),
])
def test_malformed_element_is_one_line_circuit_file_error_at_its_stage(gate, mutate, message):
    obj = circuit_to_dict(get_gate(gate).build())
    index = mutate(obj)
    with pytest.raises(CircuitFileError) as err:
        circuit_from_dict(obj, "bad.json")
    assert str(err.value) == f"bad.json: stages[{index}]: {message}"


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


_UNKNOWN_KEY = "unknown_key"


def _objects(node):
    """Every JSON object in a document, the document itself included."""
    if isinstance(node, dict):
        yield node
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from _objects(child)


@st.composite
def mutated_documents(draw):
    """A catalog circuit document with 1-3 fields dropped, retyped or perturbed, or
    an unknown key added to one of its objects; and whether such a key is left."""
    obj = _document(draw(st.sampled_from(sorted(CATALOG))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["drop", "retype", "perturb", "add"]))
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        elif op == "perturb":
            parent[key] = copy.deepcopy(_perturbed(parent[key], draw))
        else:
            draw(st.sampled_from(list(_objects(obj))))[_UNKNOWN_KEY] = 0
    return json.dumps(obj), any(_UNKNOWN_KEY in o for o in _objects(obj))


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_document_raises_only_circuit_file_error(document):
    text, has_unknown_key = document
    try:
        loads_circuit(text, "fuzz.json")
    except CircuitFileError as exc:
        assert "\n" not in str(exc)
    else:
        assert not has_unknown_key
