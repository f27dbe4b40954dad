"""Registry of the verifiable gates: builders, ideal maps, expected numbers.

Each entry knows how to build its circuit, which occupation states span its
logical output space, the ideal conditional map on that space, and the
success probability it must reproduce.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .circuits import (
    Circuit,
    TimeBinConfig,
    build_fredkin_heralded,
    build_fredkin_postselected,
    build_fredkin_timebin,
    build_pittman_cnot,
    build_ralph_cnot,
    build_sanaka_cnot,
    build_simplified_cnot,
)
from .fock import ModeRegistry, Occupation, Polarization, TimeBin, basis_bits

#: Fixed modeling conventions; hashed into reports so goldens are traceable.
CONVENTIONS = {
    "mode_order": "beam-major, H<V, S<L",
    "pbs": "transmits H, reflects V with amplitude +1",
    "bs": "[[sqrt(1-eta), sqrt(eta)], [sqrt(eta), -sqrt(1-eta)]], minus on signed port",
    "hwp": "[[cos 2t, sin 2t], [sin 2t, -cos 2t]]",
    "plus_minus_detection": "22.5-degree plate then H/V counting",
    "bell_source": "(HV + VH)/sqrt(2) with a 45-degree plate on the second arm",
}


def conventions_hash() -> str:
    blob = json.dumps(CONVENTIONS, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def ideal_fredkin() -> np.ndarray:
    """8x8 controlled-swap: a V control exchanges the two target qubits."""
    k = np.zeros((8, 8))
    for i in range(8):
        c, x, y = (i >> 2) & 1, (i >> 1) & 1, i & 1
        j = (c << 2) | ((y << 1) | x if c else (x << 1) | y)
        k[j, i] = 1.0
    return k


def ideal_cnot() -> np.ndarray:
    """4x4 controlled flip of the target bit."""
    k = np.zeros((4, 4))
    for i in range(4):
        c, t = (i >> 1) & 1, i & 1
        k[(c << 1) | (t ^ c), i] = 1.0
    return k


KNOWN_TARGET_INPUT_LABELS = ("H,V", "H,vac", "V,V", "V,vac")
KNOWN_TARGET_OUTPUT_LABELS = ("H,V", "H,H", "V,V", "V,H", "H,vac", "V,vac")
# 6x4 map of the known-target CNOT: target V flips iff control V; vacuum passes through
KNOWN_TARGET_IDEAL = np.zeros((6, 4))
KNOWN_TARGET_IDEAL[0, 0] = 1.0  # H,V -> H,V
KNOWN_TARGET_IDEAL[4, 1] = 1.0  # H,vac -> H,vac
KNOWN_TARGET_IDEAL[3, 2] = 1.0  # V,V -> V,H
KNOWN_TARGET_IDEAL[5, 3] = 1.0  # V,vac -> V,vac


def _pol(bit: int) -> Polarization:
    return Polarization.V if bit else Polarization.H


def qubit_output_kets(registry: ModeRegistry, beams: Sequence[str],
                      bin_from_first: bool) -> tuple[Occupation, ...]:
    """Computational-basis occupation states on the output beams.

    In time-resolved circuits the accepted outputs share one bin fixed by the
    control polarization (H rides the short bin, V the long one), so the ket
    for index j places every photon in that bin.
    """
    n = len(beams)
    kets = []
    for j in range(1 << n):
        bits = basis_bits(n, j)
        occ = [0] * registry.size
        tb = None
        if registry.time_resolved:
            tb = TimeBin.L if (bin_from_first and bits[0]) else TimeBin.S
        for beam, bit in zip(beams, bits):
            occ[registry.index(beam, _pol(bit), tb)] += 1
        kets.append(tuple(occ))
    return tuple(kets)


@dataclass(frozen=True)
class GateInfo:
    """A verifiable gate: builder, logical space, and registered expectations."""

    name: str
    build: Callable[[], Circuit]
    n_qubits: int
    ideal: np.ndarray
    expected_probability: Fraction
    uniform: bool
    description: str
    kind: str = "qubit"  # "qubit" or "known_target"

    def output_kets(self, circuit: Circuit) -> tuple[Occupation, ...]:
        return qubit_output_kets(circuit.registry, circuit.output_beams,
                                 bin_from_first=True)


CATALOG: dict[str, GateInfo] = {}


def _register(info: GateInfo):
    CATALOG[info.name] = info


_register(GateInfo(
    name="fredkin-heralded",
    build=lambda: build_fredkin_heralded("pittman"),
    n_qubits=3,
    ideal=ideal_fredkin(),
    expected_probability=Fraction(1, 1024),
    uniform=True,
    description="Heralded Fredkin from four Bell-assisted CNOT gadgets (success 4^-5).",
))

_register(GateInfo(
    name="fredkin-postselected",
    build=lambda: build_fredkin_postselected("ideal"),
    n_qubits=3,
    ideal=ideal_fredkin(),
    expected_probability=Fraction(1, 8),
    uniform=True,
    description="Post-selected Fredkin with ideal CNOT stages (success 1/8).",
))

_register(GateInfo(
    name="fredkin-fig3",
    build=lambda: build_fredkin_postselected("fig3"),
    n_qubits=3,
    ideal=ideal_fredkin(),
    expected_probability=Fraction(1, 192),
    uniform=True,
    description="Physical post-selected Fredkin: parity-check CNOT plus the "
                "known-target mesh (success 1/192).",
))

_register(GateInfo(
    name="fredkin-timebin",
    build=lambda: build_fredkin_timebin(TimeBinConfig()),
    n_qubits=3,
    ideal=ideal_fredkin(),
    expected_probability=Fraction(1, 64),
    uniform=True,
    description="Time-bin-assisted post-selected Fredkin (success 1/64).",
))

_register(GateInfo(
    name="cnot-pittman",
    build=build_pittman_cnot,
    n_qubits=2,
    ideal=ideal_cnot(),
    expected_probability=Fraction(1, 4),
    uniform=True,
    description="Heralded CNOT from one Bell pair with feed-forward (success 1/4).",
))

_register(GateInfo(
    name="cnot-ralph",
    build=build_ralph_cnot,
    n_qubits=2,
    ideal=ideal_cnot(),
    expected_probability=Fraction(1, 9),
    uniform=True,
    description="Post-selected CNOT in the coincidence basis (success 1/9).",
))

_register(GateInfo(
    name="cnot-sanaka",
    build=lambda: build_sanaka_cnot(TimeBinConfig()),
    n_qubits=2,
    ideal=ideal_cnot(),
    expected_probability=Fraction(1, 4),
    uniform=True,
    description="Time-bin CNOT with equal-bin coincidence (success 1/4).",
))

_register(GateInfo(
    name="cnot-simplified",
    build=build_simplified_cnot,
    n_qubits=1,
    ideal=KNOWN_TARGET_IDEAL,
    expected_probability=Fraction(1, 6),
    uniform=False,
    description="Known-target (V or vacuum) CNOT mesh; worst-case success 1/6 "
                "(vacuum sector passes with 1/3 and is balanced externally).",
    kind="known_target",
))


def gate_names() -> list[str]:
    return sorted(CATALOG)


def get_gate(name: str) -> GateInfo:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown gate {name!r}; known gates: {', '.join(gate_names())}")
