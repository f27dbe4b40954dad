"""Optical elements compiled to unitaries over a mode registry.

Conventions (pinned by the gate verification suite):

* A half-wave plate at angle theta maps the (H, V) creation operators by
  ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]``; it is real, symmetric and its own
  inverse.
* A polarizing beam splitter transmits H (beam unchanged) and reflects V into
  the partner beam with amplitude +1 (no reflection phase).
* A plain beam splitter of reflectivity eta is the real orthogonal block
  ``[[sqrt(1-eta), sqrt(eta)], [sqrt(eta), -sqrt(1-eta)]]`` with the minus sign
  on the declared signed port (the surface giving a sign change on reflection).
* Waveplates and beam splitters given beams act identically on every time bin;
  the time-bin delay moves a whole beam from the S bin to the L bin.

A ``Rot`` element is the rotation form of a beam splitter (a signed BS
followed by a pi phase on one port); it is what interferometer meshes are
parametrized with.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .fock import (
    ModeRegistry,
    Polarization,
    TimeBin,
)

UNITARITY_TOL = 1e-12


class ElementError(ValueError):
    pass


ModeRef = Union[int, tuple]  # dense index, or (beam, pol[, bin]) tuple


@dataclass(frozen=True)
class Hwp:
    """Half-wave plate on one beam; theta in degrees, modulo 180."""
    beam: str
    theta_deg: float


@dataclass(frozen=True)
class Pbs:
    """Polarizing beam splitter: transmits H, swaps V between the two beams."""
    beam_a: str
    beam_b: str


@dataclass(frozen=True)
class Bs:
    """Beam splitter of reflectivity eta between two modes or two beams.

    When given beams, the same 2x2 block acts on the H and V (and each time
    bin) sub-pairs.  ``signed`` names the port carrying the reflection minus
    sign: "a" or "b".
    """
    eta: float
    a: ModeRef | str
    b: ModeRef | str
    signed: str = "b"


@dataclass(frozen=True)
class Rpbs:
    """PBS rotated to the +/-45 basis: transmits |+>, reflects |->.

    Built as hwp(22.5) on both beams, then a PBS, then hwp(22.5) on both.
    """
    beam_a: str
    beam_b: str


@dataclass(frozen=True)
class HvSwap:
    """Exchange H and V on one beam (a half-wave plate at 45 degrees)."""
    beam: str


@dataclass(frozen=True)
class Route:
    """Relabel beams by a permutation {old_beam: new_beam}."""
    mapping: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DelayToL:
    """Move a beam's occupation from the S bin to the L bin (a bin swap)."""
    beam: str


@dataclass(frozen=True)
class Phase:
    """Multiply one mode, or every mode of a beam, by exp(i*phi)."""
    target: ModeRef | str
    phi: float


@dataclass(frozen=True)
class Rot:
    """Givens rotation by theta between two modes:
    ``[[cos t, -sin t], [sin t, cos t]]`` (columns = inputs a, b)."""
    theta: float
    a: ModeRef
    b: ModeRef


Element = Union[Hwp, Pbs, Bs, Rpbs, HvSwap, Route, DelayToL, Phase, Rot]


class ModePlan(NamedTuple):
    """The modes a unitary moves, its sparse columns over them, its transfer
    rows, the getters that cut and splice occupations, and its occupation
    table.

    `modes` (ascending) are the modes whose column is not exactly the unit
    vector e_i, plus any mode those columns write to; every other mode passes
    through unchanged.  `columns[p]` is ``((q, U[modes[q], modes[p]]), ...)``
    over the nonzero entries, q ascending.  `rows` maps an occupation of the
    active modes to its transfer row ``((out, <out|U|in>), ...)``.
    ``take(occ)`` is the occupation of the active modes, and
    ``splice(occ + active)`` is `occ` with `active` written over them.
    `full_rows`, the occupation table, maps a full input occupation to its
    row over full output occupations, ``((splice(occ + out), <out|U|in>),
    ...)``.  Both tables start empty and `engine.apply_unitary` fills them,
    one entry per occupation it meets.
    """
    modes: tuple[int, ...]
    columns: tuple[tuple[tuple[int, complex], ...], ...]
    rows: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], complex], ...]]
    take: Callable[[tuple[int, ...]], tuple[int, ...]]
    splice: Callable[[tuple[int, ...]], tuple[int, ...]]
    full_rows: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], complex], ...]]


def _tuple_getter(idx: Sequence[int]):
    """`operator.itemgetter(*idx)`, returning a tuple for any length of `idx`."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


class ModeUnitary:
    """An M x M complex unitary tied to its registry."""

    __slots__ = ("registry", "matrix", "_plan")

    def __init__(self, registry: ModeRegistry, matrix: np.ndarray, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        m = registry.size
        if matrix.shape != (m, m):
            raise ElementError(f"matrix shape {matrix.shape} != ({m}, {m})")
        self.registry = registry
        self.matrix = matrix
        self._plan = None
        if check:
            dev = self.unitarity_deviation()
            if not dev <= UNITARITY_TOL:  # a NaN deviation fails too
                raise ElementError(f"matrix is not unitary (deviation {dev:.3e})")

    @classmethod
    def identity(cls, registry: ModeRegistry) -> "ModeUnitary":
        return cls(registry, np.eye(registry.size), check=False)

    def then(self, other: "ModeUnitary") -> "ModeUnitary":
        """This unitary followed by `other` (matrix product other @ self)."""
        if self.registry != other.registry:
            raise ElementError("registry mismatch in composition")
        return ModeUnitary(self.registry, other.matrix @ self.matrix, check=False)

    def unitarity_deviation(self) -> float:
        m = self.registry.size
        return float(np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(m))))

    @property
    def plan(self) -> ModePlan:
        """Active modes, sparse columns and getters, built once on first use
        (`matrix` is never modified), with empty row and occupation tables."""
        if self._plan is None:
            mat = self.matrix
            m = self.registry.size
            moved = (mat != np.eye(m)).any(axis=0)
            reached = (mat[:, moved] != 0.0).any(axis=1)
            modes = tuple(np.flatnonzero(moved | reached).tolist())
            src = list(range(m))
            for p, i in enumerate(modes):
                src[i] = m + p
            self._plan = ModePlan(modes, tuple(
                tuple((q, complex(mat[j, i])) for q, j in enumerate(modes) if mat[j, i] != 0.0)
                for i in modes), {}, _tuple_getter(modes), _tuple_getter(src), {})
        return self._plan


def hwp_matrix(theta_deg: float) -> np.ndarray:
    """2x2 half-wave-plate action on (H, V) creation operators."""
    t = math.radians(theta_deg % 180.0)
    c, s = math.cos(2 * t), math.sin(2 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _resolve_mode(registry: ModeRegistry, ref: ModeRef) -> int:
    if isinstance(ref, (int, np.integer)):
        idx = int(ref)
        if not 0 <= idx < registry.size:
            raise ElementError(f"mode index {idx} out of range")
        return idx
    if not (isinstance(ref, (tuple, list)) and 2 <= len(ref) <= 3):
        raise ElementError(f"mode reference {ref!r} is not an index or a (beam, pol[, bin]) label")
    return registry.index(*ref)


def _bin_iter(registry: ModeRegistry):
    return (TimeBin.S, TimeBin.L) if registry.time_resolved else (None,)


def _embed_pairs(registry: ModeRegistry, pairs: Sequence[tuple[int, int]],
                 block: np.ndarray) -> np.ndarray:
    """Identity everywhere except the given 2x2 block on each index pair."""
    u = np.eye(registry.size, dtype=complex)
    for i, j in pairs:
        if i == j:
            raise ElementError("degenerate mode pair")
        u[i, i], u[i, j] = block[0, 0], block[0, 1]
        u[j, i], u[j, j] = block[1, 0], block[1, 1]
    return u


def hwp_unitary(registry: ModeRegistry, beam: str, theta_deg: float) -> ModeUnitary:
    block = hwp_matrix(theta_deg)
    pairs = [
        (registry.index(beam, Polarization.H, tb), registry.index(beam, Polarization.V, tb))
        for tb in _bin_iter(registry)
    ]
    return ModeUnitary(registry, _embed_pairs(registry, pairs, block), check=False)


def pbs_unitary(registry: ModeRegistry, beam_a: str, beam_b: str) -> ModeUnitary:
    """H transmits (stays in its beam); V swaps beams with amplitude +1."""
    if beam_a == beam_b:
        raise ElementError("PBS needs two distinct beams")
    u = np.eye(registry.size, dtype=complex)
    for tb in _bin_iter(registry):
        va = registry.index(beam_a, Polarization.V, tb)
        vb = registry.index(beam_b, Polarization.V, tb)
        u[va, va] = u[vb, vb] = 0.0
        u[va, vb] = u[vb, va] = 1.0
    return ModeUnitary(registry, u, check=False)


def bs_block(eta: float, signed: str = "b") -> np.ndarray:
    if not 0.0 <= eta <= 1.0:
        raise ElementError(f"reflectivity {eta} outside [0, 1]")
    t, r = math.sqrt(1.0 - eta), math.sqrt(eta)
    if signed == "b":
        return np.array([[t, r], [r, -t]], dtype=complex)
    if signed == "a":
        return np.array([[-t, r], [r, t]], dtype=complex)
    raise ElementError(f"signed port must be 'a' or 'b', got {signed!r}")


def rot_block(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def bs_unitary(registry: ModeRegistry, eta: float, a: ModeRef | str, b: ModeRef | str,
               signed: str = "b") -> ModeUnitary:
    block = bs_block(eta, signed)
    pairs = _mode_pairs(registry, a, b)
    return ModeUnitary(registry, _embed_pairs(registry, pairs, block), check=False)


def _mode_pairs(registry: ModeRegistry, a: ModeRef | str, b: ModeRef | str) -> list[tuple[int, int]]:
    """Pair up the modes acted on: beam names pair pol/bin-wise, refs pair 1:1."""
    if isinstance(a, str) != isinstance(b, str):
        raise ElementError("mix of beam name and mode reference")
    if isinstance(a, str):
        pairs = []
        for pol in (Polarization.H, Polarization.V):
            for tb in _bin_iter(registry):
                pairs.append((registry.index(a, pol, tb), registry.index(b, pol, tb)))
        return pairs
    ia, ib = _resolve_mode(registry, a), _resolve_mode(registry, b)
    if ia == ib:
        raise ElementError("beam splitter needs two distinct modes")
    return [(ia, ib)]


def rpbs_unitary(registry: ModeRegistry, beam_a: str, beam_b: str) -> ModeUnitary:
    plates = hwp_unitary(registry, beam_a, 22.5).then(hwp_unitary(registry, beam_b, 22.5))
    return plates.then(pbs_unitary(registry, beam_a, beam_b)).then(plates)


def route_unitary(registry: ModeRegistry, mapping: Sequence[tuple[str, str]]) -> ModeUnitary:
    """Beam relabeling permutation; mapping must be a permutation of beams."""
    src = [m[0] for m in mapping]
    dst = [m[1] for m in mapping]
    if sorted(src) != sorted(dst):
        raise ElementError("route mapping is not a beam permutation")
    u = np.zeros((registry.size, registry.size), dtype=complex)
    moved: dict[int, int] = {}
    for old, new in mapping:
        for pol in (Polarization.H, Polarization.V):
            for tb in _bin_iter(registry):
                moved[registry.index(old, pol, tb)] = registry.index(new, pol, tb)
    for i in range(registry.size):
        u[moved.get(i, i), i] = 1.0
    return ModeUnitary(registry, u, check=False)


def delay_unitary(registry: ModeRegistry, beam: str) -> ModeUnitary:
    """Swap the S and L occupations of one beam.

    Acting on states prepared in the S bin this is the one-hop delay of a
    path-length difference; the L->S branch is never populated in scope.
    """
    if not registry.time_resolved:
        raise ElementError("time-bin delay needs a time-resolved registry")
    u = np.eye(registry.size, dtype=complex)
    for pol in (Polarization.H, Polarization.V):
        s = registry.index(beam, pol, TimeBin.S)
        litem = registry.index(beam, pol, TimeBin.L)
        u[s, s] = u[litem, litem] = 0.0
        u[s, litem] = u[litem, s] = 1.0
    return ModeUnitary(registry, u, check=False)


def phase_unitary(registry: ModeRegistry, target: ModeRef | str, phi: float) -> ModeUnitary:
    u = np.eye(registry.size, dtype=complex)
    if isinstance(target, str):
        idxs = registry.beam_modes(target)
    else:
        idxs = (_resolve_mode(registry, target),)
    for i in idxs:
        u[i, i] = complex(math.cos(phi), math.sin(phi))
    return ModeUnitary(registry, u, check=False)


def rot_unitary(registry: ModeRegistry, theta: float, a: ModeRef, b: ModeRef) -> ModeUnitary:
    ia, ib = _resolve_mode(registry, a), _resolve_mode(registry, b)
    if ia == ib:
        raise ElementError("rotation needs two distinct modes")
    return ModeUnitary(registry, _embed_pairs(registry, [(ia, ib)], rot_block(theta)), check=False)


def compile_element(registry: ModeRegistry, element: Element) -> ModeUnitary:
    if isinstance(element, Hwp):
        return hwp_unitary(registry, element.beam, element.theta_deg)
    if isinstance(element, Pbs):
        return pbs_unitary(registry, element.beam_a, element.beam_b)
    if isinstance(element, Bs):
        return bs_unitary(registry, element.eta, element.a, element.b, element.signed)
    if isinstance(element, Rpbs):
        return rpbs_unitary(registry, element.beam_a, element.beam_b)
    if isinstance(element, HvSwap):
        return hwp_unitary(registry, element.beam, 45.0)
    if isinstance(element, Route):
        return route_unitary(registry, element.mapping)
    if isinstance(element, DelayToL):
        return delay_unitary(registry, element.beam)
    if isinstance(element, Phase):
        return phase_unitary(registry, element.target, element.phi)
    if isinstance(element, Rot):
        return rot_unitary(registry, element.theta, element.a, element.b)
    raise ElementError(f"unknown element {element!r}")


def compose(registry: ModeRegistry, elements: Sequence[Element]) -> ModeUnitary:
    """Product of element unitaries in application order (first acts first)."""
    u = ModeUnitary.identity(registry)
    for el in elements:
        u = u.then(compile_element(registry, el))
    return ModeUnitary(registry, u.matrix)  # checks unitarity
