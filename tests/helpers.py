"""Shared test constructions: ideal gate actions and expected-state builders.

Everything here is built from the gates' stated logic rules, independent of
the simulation path it is used to check.
"""

import numpy as np

from fredkinlab import PhotonicState, Polarization
from fredkinlab.analysis import phase_fixed_map_deviation
from fredkinlab.circuits import ControlFlipError
from fredkinlab.fock import ModeRegistry, Occupation


def fredkin_vec(values) -> np.ndarray:
    """Controlled swap on (c, t1, t2) bit triples: V control swaps the targets."""
    out = np.zeros(8, dtype=complex)
    for i, a in enumerate(values):
        c, x, y = (i >> 2) & 1, (i >> 1) & 1, i & 1
        j = (c << 2) | ((y << 1) | x if c else (x << 1) | y)
        out[j] += a
    return out


def cnot_vec(values) -> np.ndarray:
    out = np.zeros(4, dtype=complex)
    for i, a in enumerate(values):
        c, t = (i >> 1) & 1, i & 1
        out[(c << 1) | (t ^ c)] += a
    return out


def controlled_flip(state: PhotonicState, control: str, target: str) -> PhotonicState:
    """The ideal flip, term by term: a V control photon swaps the target's H
    and V occupations; a control beam holding other than one photon raises."""
    reg = state.registry
    (ctrl_h, ctrl_v), (tgt_h, tgt_v) = reg.hv_modes(control), reg.hv_modes(target)
    out = {}
    for occ, a in state.amps.items():
        nh = sum(occ[m] for m in ctrl_h)
        nv = sum(occ[m] for m in ctrl_v)
        if nh + nv != 1:
            raise ControlFlipError(
                f"control beam {control!r} carries {nh + nv} photons, needs exactly 1")
        if nv == 1:
            flipped = list(occ)
            for hm, vm in zip(tgt_h, tgt_v):
                flipped[hm], flipped[vm] = occ[vm], occ[hm]
            occ = tuple(flipped)
        out[occ] = out.get(occ, 0.0) + a
    return PhotonicState(reg, out, validate=False)


def pol(bit: int) -> Polarization:
    return Polarization.V if bit else Polarization.H


def state_from_terms(registry: ModeRegistry, terms) -> PhotonicState:
    """Build a sparse state from [(amplitude, {beam: (pol[, bin])}), ...]."""
    amps = {}
    for amplitude, content in terms:
        occ = [0] * registry.size
        for beam, spec in content.items():
            if registry.time_resolved:
                p, b = spec
                occ[registry.index(beam, p, b)] += 1
            else:
                occ[registry.index(beam, spec)] += 1
        key = tuple(occ)
        amps[key] = amps.get(key, 0.0) + amplitude
    return PhotonicState(registry, amps)


def qubit_ket(registry: ModeRegistry, beams, bits, tbin=None) -> Occupation:
    occ = [0] * registry.size
    for beam, bit in zip(beams, bits):
        if registry.time_resolved:
            occ[registry.index(beam, pol(bit), tbin)] += 1
        else:
            occ[registry.index(beam, pol(bit))] += 1
    return tuple(occ)


def bits_of(index: int, n: int):
    return tuple((index >> (n - 1 - q)) & 1 for q in range(n))


def assert_states_close(got: PhotonicState, expected: PhotonicState, tol=1e-10):
    keys = set(got.amps) | set(expected.amps)
    for k in keys:
        a = got.amps.get(k, 0.0)
        b = expected.amps.get(k, 0.0)
        assert abs(a - b) < tol, f"amplitude mismatch at {k}: {a} vs {b}"


def phase_fixed_deviation(got: PhotonicState, expected: PhotonicState) -> float:
    """Largest amplitude difference between the two states, each normalized,
    once the global phase of `expected` is turned onto that of `got`.

    Linear in an amplitude error, where 1 - `state_fidelity` is quadratic in
    it: an error of 3e-5 reads 3e-5 here and about 1e-9 there.
    """
    keys = list(got.amps.keys() | expected.amps.keys())
    return phase_fixed_map_deviation([got.amps.get(k, 0.0) for k in keys],
                                     [expected.amps.get(k, 0.0) for k in keys])
