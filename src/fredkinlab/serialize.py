"""Versioned JSON circuit files.

The format mirrors the in-memory circuit one-to-one so that
``parse(serialize(circuit))`` reproduces it exactly: beams and canonical mode
order, stages (element lists, conditional flips, measurements with their
feed-forward tables, terminal post-selection rules), ancilla preparations and
the optional time-bin configuration.
"""

from __future__ import annotations

import json
from typing import Any

from .circuits import (
    BellPair,
    Circuit,
    ControlledFlip,
    Linear,
    Measure,
    PostSelect,
    SinglePhoton,
    Stage,
    TimeBinConfig,
)
from .elements import (
    Bs,
    DelayToL,
    Element,
    Hwp,
    HvSwap,
    Pbs,
    Phase,
    Rot,
    Route,
    Rpbs,
)
from .engine import (
    DetectorSpec,
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


# -- checked scalars ------------------------------------------------------------


def _integer(value, key: str) -> int:
    """A JSON integer; a float, bool or string is an error, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _boolean(value, key: str) -> bool:
    """A JSON boolean; anything else is an error, not coerced."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A JSON number; a bool or string is an error, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _string(value, key: str) -> str:
    """A JSON string; anything else is an error, not coerced."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _strings(value, key: str) -> tuple[str, ...]:
    """A JSON list of strings; a string is an error, not split into characters."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


# -- mode references ------------------------------------------------------------


def _mode_ref_to_json(registry: ModeRegistry, ref) -> Any:
    if isinstance(ref, str):
        return ref
    if isinstance(ref, int):
        label = registry.labels[ref]
        out = [label.beam, label.pol.value]
        if label.bin is not None:
            out.append(label.bin.value)
        return out
    return list(ref)  # (beam, pol[, bin]) tuple


def _mode_ref_from_json(obj, where: str):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list) and len(obj) in (2, 3) and all(isinstance(x, str) for x in obj):
        return tuple(obj)
    raise CircuitFileError(f"bad mode reference {obj!r}", where)


# -- elements ---------------------------------------------------------------------


def element_to_json(registry: ModeRegistry, el: Element) -> dict:
    if isinstance(el, Hwp):
        return {"kind": "hwp", "beam": el.beam, "theta_deg": el.theta_deg}
    if isinstance(el, Pbs):
        return {"kind": "pbs", "beam_a": el.beam_a, "beam_b": el.beam_b}
    if isinstance(el, Bs):
        return {"kind": "bs", "eta": el.eta, "a": _mode_ref_to_json(registry, el.a),
                "b": _mode_ref_to_json(registry, el.b), "signed": el.signed}
    if isinstance(el, Rpbs):
        return {"kind": "rpbs", "beam_a": el.beam_a, "beam_b": el.beam_b}
    if isinstance(el, HvSwap):
        return {"kind": "hv_swap", "beam": el.beam}
    if isinstance(el, Route):
        return {"kind": "route", "mapping": [list(m) for m in el.mapping]}
    if isinstance(el, DelayToL):
        return {"kind": "delay_to_l", "beam": el.beam}
    if isinstance(el, Phase):
        return {"kind": "phase", "target": _mode_ref_to_json(registry, el.target),
                "phi": el.phi}
    if isinstance(el, Rot):
        return {"kind": "rot", "theta": el.theta, "a": _mode_ref_to_json(registry, el.a),
                "b": _mode_ref_to_json(registry, el.b)}
    raise CircuitFileError(f"unserializable element {el!r}")


def element_from_json(obj: dict, where: str) -> Element:
    kind = obj.get("kind")
    try:
        if kind == "hwp":
            return Hwp(obj["beam"], _number(obj["theta_deg"], "theta_deg"))
        if kind == "pbs":
            return Pbs(obj["beam_a"], obj["beam_b"])
        if kind == "bs":
            return Bs(_number(obj["eta"], "eta"), _mode_ref_from_json(obj["a"], where),
                      _mode_ref_from_json(obj["b"], where), obj.get("signed", "b"))
        if kind == "rpbs":
            return Rpbs(obj["beam_a"], obj["beam_b"])
        if kind == "hv_swap":
            return HvSwap(obj["beam"])
        if kind == "route":
            return Route(tuple((a, b) for a, b in obj["mapping"]))
        if kind == "delay_to_l":
            return DelayToL(obj["beam"])
        if kind == "phase":
            return Phase(_mode_ref_from_json(obj["target"], where), _number(obj["phi"], "phi"))
        if kind == "rot":
            return Rot(_number(obj["theta"], "theta"), _mode_ref_from_json(obj["a"], where),
                       _mode_ref_from_json(obj["b"], where))
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitFileError(f"bad {kind!r} element: {exc}", where) from exc
    raise CircuitFileError(f"unknown element kind {kind!r}", where)


# -- post-selection rules ------------------------------------------------------------


def _rule_to_json(registry: ModeRegistry, rule: PostSelectionRule) -> dict:
    constraints = []
    for modes, count in rule.constraints:
        constraints.append({
            "modes": [_mode_ref_to_json(registry, m) for m in modes],
            "count": count,
        })
    return {"constraints": constraints}


def _rule_from_json(registry: ModeRegistry, obj: dict, where: str) -> PostSelectionRule:
    # files written before post-selection lost its renormalize flag carry it as false
    if _boolean(obj.get("renormalize", False), "renormalize"):
        raise ValueError("renormalize: true is not supported; post-selection never renormalizes")
    cons = []
    for c in obj.get("constraints", []):
        modes = tuple(registry.index(*_mode_ref_from_json(m, where)) for m in c["modes"])
        cons.append((modes, _integer(c["count"], "count")))
    return PostSelectionRule(tuple(cons))


# -- stages -----------------------------------------------------------------------------


def _stage_to_json(registry: ModeRegistry, st: Stage) -> dict:
    if isinstance(st, Linear):
        return {"type": "linear", "label": st.label,
                "elements": [element_to_json(registry, el) for el in st.elements]}
    if isinstance(st, ControlledFlip):
        return {"type": "controlled_flip", "label": st.label,
                "control": st.control, "target": st.target}
    if isinstance(st, Measure):
        accept = []
        for pattern, action in st.table.entries:
            if action == REJECT:
                accept.append({"pattern": list(pattern), "reject": True})
            else:
                accept.append({"pattern": list(pattern),
                               "corrections": [{"beam": b, "kind": k} for b, k in action]})
        return {"type": "measure", "label": st.label, "beam": st.detector.beam,
                "basis": st.detector.basis, "accept": accept,
                "default_reject": st.table.default_reject}
    if isinstance(st, PostSelect):
        return {"type": "post_select", "label": st.label,
                "rules": [_rule_to_json(registry, r) for r in st.rules]}
    raise CircuitFileError(f"unserializable stage {st!r}")


def _stage_from_json(registry: ModeRegistry, obj: dict, where: str) -> Stage:
    kind = obj.get("type")
    label = _string(obj.get("label", ""), "label")
    if kind == "linear":
        elements = tuple(element_from_json(e, where) for e in obj.get("elements", []))
        return Linear(elements, label=label)
    if kind == "controlled_flip":
        return ControlledFlip(obj["control"], obj["target"], label=label)
    if kind == "measure":
        entries = []
        for item in obj.get("accept", []):
            pattern = tuple(_integer(x, "pattern count") for x in item["pattern"])
            if _boolean(item.get("reject", False), "reject"):
                entries.append((pattern, REJECT))
            else:
                entries.append((pattern, tuple((c["beam"], c["kind"])
                                               for c in item.get("corrections", []))))
        default_reject = _boolean(obj.get("default_reject", True), "default_reject")
        table = FeedForwardTable(tuple(entries), default_reject=default_reject)
        return Measure(DetectorSpec(obj["beam"], obj.get("basis", "HV")), table,
                       label=label)
    if kind == "post_select":
        rules = tuple(_rule_from_json(registry, r, where) for r in obj.get("rules", []))
        return PostSelect(rules, label=label)
    raise CircuitFileError(f"unknown stage type {kind!r}", where)


# -- whole circuits ------------------------------------------------------------------------


def circuit_to_dict(circuit: Circuit) -> dict:
    reg = circuit.registry
    ancillae = []
    for anc in circuit.ancillae:
        if isinstance(anc, BellPair):
            ancillae.append({"kind": "bell_pair", "beam_a": anc.beam_a,
                             "beam_b": anc.beam_b, "state": anc.kind})
        elif isinstance(anc, SinglePhoton):
            ancillae.append({"kind": "photon", "beam": anc.beam, "pol": anc.pol.value})
        else:
            raise CircuitFileError(f"unserializable ancilla {anc!r}")
    out = {
        "version": FORMAT_VERSION,
        "name": circuit.name,
        "beams": list(reg.beams),
        "time_resolved": reg.time_resolved,
        "photons": circuit.photons,
        "qubits": list(circuit.qubit_beams),
        "outputs": list(circuit.output_beams),
        "ancillae": ancillae,
        "stages": [_stage_to_json(reg, st) for st in circuit.stages],
    }
    if circuit.time_bin_config is not None:
        cfg = circuit.time_bin_config
        out["time_bin_config"] = {
            "delta_l": cfg.delta_l, "l_spdc": cfg.l_spdc, "l_pump": cfg.l_pump,
            "delta_t": cfg.delta_t, "speed": cfg.speed,
        }
    return out


def circuit_from_dict(obj: dict, path: str = "") -> Circuit:
    """Parse a circuit document; a malformed one raises a one-line `CircuitFileError`."""
    if not isinstance(obj, dict):
        raise CircuitFileError("circuit file must hold a JSON object", path)
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise CircuitFileError(f"unsupported version {version!r}", path)
    try:
        return _circuit_from_dict(obj, path)
    except CircuitFileError:
        raise
    except KeyError as exc:
        raise CircuitFileError(f"missing key {exc}", path) from exc
    except (TypeError, AttributeError) as exc:
        raise CircuitFileError(f"malformed document: {exc}", path) from exc
    except (ValueError, OverflowError) as exc:  # float() of a huge integer overflows
        raise CircuitFileError(str(exc), path) from exc


def _circuit_from_dict(obj: dict, path: str) -> Circuit:
    time_resolved = _boolean(obj.get("time_resolved", False), "time_resolved")
    try:
        registry = register_modes(_strings(obj["beams"], "beams"), time_resolved)
    except (KeyError, ValueError) as exc:
        raise CircuitFileError(f"bad beam list: {exc}", path) from exc
    ancillae = []
    for anc in obj.get("ancillae", []):
        kind = anc.get("kind")
        if kind == "bell_pair":
            ancillae.append(BellPair(anc["beam_a"], anc["beam_b"],
                                     anc.get("state", "psi_plus")))
        elif kind == "photon":
            ancillae.append(SinglePhoton(anc["beam"], Polarization(anc.get("pol", "V"))))
        else:
            raise CircuitFileError(f"unknown ancilla kind {kind!r}", path)
    tbc = None
    if "time_bin_config" in obj:
        c = obj["time_bin_config"]
        tbc = TimeBinConfig(**{key: _number(c[key], key) for key in
                               ("delta_l", "l_spdc", "l_pump", "delta_t")},
                            speed=_number(c.get("speed", 1.0), "speed"))
    stages = []
    for i, st in enumerate(obj.get("stages", [])):
        stages.append(_stage_from_json(registry, st, f"{path}:stages[{i}]"))
    qubits = _strings(obj.get("qubits", []), "qubits")
    return Circuit(
        name=_string(obj.get("name", path or "circuit"), "name"),
        registry=registry,
        photons=_integer(obj.get("photons", len(qubits)), "photons"),
        qubit_beams=qubits,
        output_beams=_strings(obj["outputs"], "outputs") if "outputs" in obj else qubits,
        stages=tuple(stages),
        ancillae=tuple(ancillae),
        time_bin_config=tbc,
    )


def dumps_circuit(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2, sort_keys=True)


def loads_circuit(text: str, path: str = "") -> Circuit:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                               f"{exc.msg}", path) from exc
    return circuit_from_dict(obj, path)


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_circuit(fh.read(), path)


def save_circuit(circuit: Circuit, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_circuit(circuit) + "\n")
