"""Versioned JSON circuit files.

Each kind of JSON object is described once, in the tables below; one reader
and one writer walk them.  JSON types are exact, and a key no table names is
an error.  Elements name a mode only by its ``[beam, pol(, bin)]`` label, as
they do in Python, and the reader gives every JSON list back as the tuple a
circuit holds (a circuit refuses lists), so ``parse(serialize(circuit))``
gives back an equal circuit.  A post-selection rule holds dense mode
indices, written as their labels.  A document without ``photons`` declares
its logical input's photon number: one per qubit plus every ancilla's
photons.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from .circuits import (
    BellPair,
    Circuit,
    ControlledFlip,
    Linear,
    Measure,
    PostSelect,
    SinglePhoton,
    TimeBinConfig,
)
from .elements import (
    Bs,
    DelayToL,
    Hwp,
    Pbs,
    Phase,
    Rot,
    Route,
    Rpbs,
)
from .engine import (
    FeedForwardTable,
    PostSelectionRule,
    REJECT,
)
from .fock import ModeRegistry, Polarization, register_modes

FORMAT_VERSION = 1


class CircuitFileError(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class _At(NamedTuple):
    """Where an object sits: its file, its place in the document, and the modes."""
    path: str
    loc: str = ""
    registry: ModeRegistry | None = None

    def inner(self, step: str) -> "_At":
        return self._replace(loc=f"{self.loc}.{step}" if self.loc else step)

    def error(self, message: str) -> CircuitFileError:
        return CircuitFileError(f"{self.loc}: {message}" if self.loc else message, self.path)


# -- readers: (JSON value, key, _At) -> value; writers: (value, registry) -> JSON value


def _checked(ok: Callable[[Any], bool], what: str, cast: Callable | None = None):
    """A reader of one JSON type: any other type is an error, not coerced."""
    def read(value, key: str, at: _At | None = None):
        if not ok(value):
            raise ValueError(f"{key} must be {what}, got {value!r}")
        return value if cast is None else cast(value)
    return read


def _is_strings(value, lengths: tuple[int, ...] = ()) -> bool:
    return (isinstance(value, list) and all(isinstance(x, str) for x in value)
            and (not lengths or len(value) in lengths))


_integer = _checked(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_version = _checked(lambda v: type(v) is int and v == FORMAT_VERSION, str(FORMAT_VERSION))
_boolean = _checked(lambda v: isinstance(v, bool), "true or false")
_number = _checked(lambda v: isinstance(v, float) or  # an integer must fit a float
                   isinstance(v, int) and not isinstance(v, bool) and abs(v) < 1e308,
                   "a number", float)
_string = _checked(lambda v: isinstance(v, str), "a string")
_strings = _checked(_is_strings, "a list of strings", tuple)
_list = _checked(lambda v: isinstance(v, list), "a list")
_pairs = _checked(lambda v: isinstance(v, list) and all(_is_strings(p, (2,)) for p in v),
                  "a list of [old, new] beam pairs", lambda v: tuple(map(tuple, v)))
_label = _checked(lambda v: _is_strings(v, (2, 3)), "a [beam, pol(, bin)] label", tuple)
_mode_ref = _checked(lambda v: isinstance(v, str) or _is_strings(v, (2, 3)),
                     "a beam or a [beam, pol(, bin)] label",
                     lambda v: v if isinstance(v, str) else tuple(v))
_pattern = _checked(lambda v: isinstance(v, list), "a list",
                    lambda v: tuple(_integer(x, "pattern count") for x in v))


def _label_json(index: int, registry: ModeRegistry) -> list[str]:
    """The label of a dense mode index, as a list."""
    label = registry.labels[index]
    return [label.beam, label.pol.value] + ([label.bin.value] if label.bin is not None else [])


# -- the walk ---------------------------------------------------------------------------


class _Field(NamedTuple):
    """One key of a JSON object: how its value is read and written, and its default."""
    key: str
    read: Callable
    # the writer gives what json.loads would: lists, not tuples
    write: Callable = lambda value, registry: list(value) if isinstance(value, tuple) else value
    default: Any = ...  # ... marks a required key; a value of None is not written


class _Node(NamedTuple):
    """One kind of JSON object: its fields, in the order they are read.  `build`
    makes its value (`cls` does when None); `parts` takes the value apart again
    (into the attributes the keys name when None)."""
    cls: type
    fields: tuple[_Field, ...]
    build: Callable | None = None
    parts: Callable | None = None


def _values(node: _Node, obj, at: _At, tag: str = "") -> list:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed document: expected a JSON object, got {obj!r}")
    known = {f.key for f in node.fields} | ({tag} if tag else set())
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return [_value(f, obj, at) for f in node.fields]


def _value(field: _Field, obj: dict, at: _At):
    if field.key in obj:
        return field.read(obj[field.key], field.key, at)
    if field.default is ...:
        raise ValueError(f"missing key {field.key!r}")
    return field.default


def _read(node: _Node, obj, at: _At, tag: str = ""):
    """Check one JSON object against its table and build its value."""
    try:
        values = _values(node, obj, at, tag)
        return (node.build or node.cls)(*values)
    except CircuitFileError:
        raise
    except ValueError as exc:
        raise at.error(str(exc)) from exc


def _write(node: _Node, value, registry: ModeRegistry) -> dict:
    parts = node.parts(value) if node.parts else [getattr(value, f.key) for f in node.fields]
    return {f.key: f.write(v, registry) for f, v in zip(node.fields, parts) if v is not None}


def _many(node: _Node):
    """Read and write a list of objects of one kind."""
    return (lambda value, key, at: tuple(_read(node, obj, at.inner(f"{key}[{i}]"))
                                         for i, obj in enumerate(_list(value, key))),
            lambda value, registry: [_write(node, v, registry) for v in value])


def _tagged(tag: str, table: dict[str, _Node], place: Callable | None = None):
    """Read and write a list of objects of the kinds in `table`, told apart by
    `tag`; `place(at, kind)` says where each sits when its index does not."""
    names = {node.cls: name for name, node in table.items()}

    def read(value, key: str, at: _At) -> tuple:
        out = []
        for i, obj in enumerate(_list(value, key)):
            kind = obj.get(tag) if isinstance(obj, dict) else None
            where = place(at, kind) if place else at.inner(f"{key}[{i}]")
            node = table.get(kind) if isinstance(kind, str) else None
            if node is None and isinstance(obj, dict):
                raise where.error(f"unknown {tag} {kind!r}")
            out.append(_read(node, obj, where, tag))
        return tuple(out)

    def write(value, registry: ModeRegistry) -> list:
        return [{tag: names[type(v)], **_write(table[names[type(v)]], v, registry)}
                for v in value]
    return read, write


# -- the tables ---------------------------------------------------------------------------

_BEAM = _Field("beam", _string)
_BEAM_PAIR = (_Field("beam_a", _string), _Field("beam_b", _string))
_LABEL = _Field("label", _string, default="")

_ELEMENTS = {
    "hwp": _Node(Hwp, (_BEAM, _Field("theta_deg", _number))),
    "pbs": _Node(Pbs, _BEAM_PAIR),
    "bs": _Node(Bs, (_Field("eta", _number), _Field("a", _mode_ref),
                     _Field("b", _mode_ref), _Field("signed", _string, default="b"))),
    "rpbs": _Node(Rpbs, _BEAM_PAIR),
    "route": _Node(Route, (_Field("mapping", _pairs, lambda m, registry: [list(p) for p in m]),)),
    "delay_to_l": _Node(DelayToL, (_BEAM,)),
    "phase": _Node(Phase, (_Field("target", _mode_ref), _Field("phi", _number))),
    "rot": _Node(Rot, (_Field("theta", _number), _Field("a", _label), _Field("b", _label))),
}

_CORRECTION = _Node(tuple, (_BEAM, _Field("kind", _string)), lambda *v: v, lambda v: v)

_ACCEPT = _Node(
    tuple,
    (_Field("pattern", _pattern), _Field("reject", _boolean, default=False),
     _Field("corrections", *_many(_CORRECTION), default=())),
    lambda pattern, reject, corrections: (pattern, REJECT if reject else corrections),
    lambda entry: ((entry[0], True, None) if entry[1] == REJECT
                   else (entry[0], None, entry[1])),
)

_CONSTRAINT = _Node(
    tuple,
    (_Field("modes", lambda value, key, at: tuple(
        at.registry.index(*_label(m, "mode")) for m in _list(value, key)),
        lambda modes, registry: [_label_json(m, registry) for m in modes]),
     _Field("count", _integer)),
    lambda *v: v, lambda v: v,
)


def _rule(constraints, renormalize: bool) -> PostSelectionRule:
    # files written before post-selection lost its renormalize flag carry it as false
    if renormalize:
        raise ValueError("renormalize: true is not supported; post-selection never renormalizes")
    return PostSelectionRule(constraints)


_RULE = _Node(
    PostSelectionRule,
    (_Field("constraints", *_many(_CONSTRAINT), default=()),
     _Field("renormalize", _boolean, default=False)),
    _rule,
    lambda rule: (rule.constraints, None),
)

_STAGES = {
    "linear": _Node(Linear, (
        # an element's error names its stage and its kind
        _Field("elements", *_tagged("kind", _ELEMENTS, lambda at, kind: _At(
            at.path, f"{at.loc}: bad {kind!r} element", at.registry)), default=()),
        _LABEL)),
    "controlled_flip": _Node(ControlledFlip, (
        _Field("control", _string), _Field("target", _string), _LABEL)),
    "measure": _Node(
        Measure,
        (_BEAM, _Field("accept", *_many(_ACCEPT), default=()),
         _Field("default_reject", _boolean, default=True), _LABEL),
        lambda beam, accept, default_reject, label: Measure(
            beam, FeedForwardTable(accept, default_reject), label),
        lambda st: (st.beam, st.table.entries, st.table.default_reject, st.label),
    ),
    "post_select": _Node(PostSelect, (_Field("rules", *_many(_RULE), default=()), _LABEL)),
}

_ANCILLAE = {
    "bell_pair": _Node(BellPair, (*_BEAM_PAIR, _Field("state", _string, default="psi_plus")),
                       parts=lambda anc: (anc.beam_a, anc.beam_b, anc.kind)),
    "photon": _Node(SinglePhoton, (_BEAM, _Field(
        "pol", lambda value, key, at: Polarization(_string(value, key)),
        lambda pol, registry: pol.value, default=Polarization.V))),
}

_TIME_BIN = _Node(TimeBinConfig, (
    _Field("delta_l", _number), _Field("l_spdc", _number), _Field("l_pump", _number),
    _Field("delta_t", _number), _Field("speed", _number, default=1.0)))

# the circuit is built by `circuit_from_dict`, which reads the first three fields early
_DOCUMENT = _Node(
    Circuit,
    (_Field("version", _version), _Field("beams", _strings),
     _Field("time_resolved", _boolean, default=False),
     _Field("name", _string, default=None), _Field("photons", _integer, default=None),
     _Field("qubits", _strings, default=()),
     _Field("outputs", _strings, default=None),
     _Field("ancillae", *_tagged("kind", _ANCILLAE), default=()),
     _Field("stages", *_tagged("type", _STAGES), default=()),
     _Field("time_bin_config", lambda value, key, at: _read(_TIME_BIN, value, at.inner(key)),
            lambda config, registry: _write(_TIME_BIN, config, registry), default=None)),
    parts=lambda c: (FORMAT_VERSION, c.registry.beams, c.registry.time_resolved, c.name,
                     c.photons, c.qubit_beams, c.output_beams, c.ancillae, c.stages,
                     c.time_bin_config),
)


# -- whole circuits ------------------------------------------------------------------------


def circuit_to_dict(circuit: Circuit) -> dict:
    return _write(_DOCUMENT, circuit, circuit.registry)


def circuit_from_dict(obj: dict, path: str = "") -> Circuit:
    """Parse a circuit document; a malformed one raises a one-line `CircuitFileError`."""
    at = _At(path)
    try:
        if isinstance(obj, dict):  # the version first, as a later format may have other
            # keys; then the modes, which the stages refer to
            _, beams, time_resolved = (_value(f, obj, at) for f in _DOCUMENT.fields[:3])
            at = at._replace(registry=register_modes(beams, time_resolved))
        (_, _, _, name, photons, qubits, outputs, ancillae, stages,
         time_bin_config) = _values(_DOCUMENT, obj, at)
        if photons is None:  # a logical input's: one per qubit, and every ancilla's
            photons = len(qubits) + sum(min(anc.state(at.registry).photon_numbers())
                                        for anc in ancillae)
        return Circuit(
            name=(path or "circuit") if name is None else name,
            registry=at.registry,
            photons=photons,
            qubit_beams=qubits,
            output_beams=qubits if outputs is None else outputs,
            stages=stages,
            ancillae=ancillae,
            time_bin_config=time_bin_config,
        )
    except CircuitFileError:
        raise
    except ValueError as exc:
        raise CircuitFileError(str(exc), path) from exc


def dumps_circuit(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2, sort_keys=True)


def loads_circuit(text: str, path: str = "") -> Circuit:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer literal past Python's digit limit
        raise CircuitFileError(f"invalid JSON: {exc}", path) from exc
    return circuit_from_dict(obj, path)


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_circuit(fh.read(), path)


def save_circuit(circuit: Circuit, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_circuit(circuit) + "\n")
