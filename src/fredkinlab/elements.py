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

An element names a mode only by its ``(beam, pol[, bin])`` label, never by
its dense index, so a circuit reads the same in Python and in its file;
an integer mode reference is an `ElementError`.

`compile_element` is the one compiler.  Six kinds are one 2x2 block on pairs
of modes and the identity elsewhere: ``Hwp`` and ``HvSwap`` (a 45-degree
plate) on each bin's H/V pair, ``Pbs`` a swap of the two V modes per bin,
``Bs`` and ``Rot`` on the named modes, ``DelayToL`` a swap of each
polarization's S/L pair.  ``Rpbs`` is plates * PBS * plates, ``Route`` a
permutation and ``Phase`` a diagonal.  `compose` multiplies a stage's
elements in application order and checks that the product is unitary.
"""

from __future__ import annotations

import functools
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


ModeRef = tuple  # a (beam, pol[, bin]) label


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
    rows, and the getters that cut and splice occupations.

    `modes` (ascending) are the modes whose column is not exactly the unit
    vector e_i, plus any mode those columns write to; every other mode passes
    through unchanged.  `columns[p]` is ``((q, U[modes[q], modes[p]]), ...)``
    over the nonzero entries, q ascending.  `rows` maps an occupation of the
    active modes to its transfer row ``((out, <out|U|in>), ...)``.
    ``take(occ)`` is the occupation of the active modes, and
    ``splice(occ + active)`` is `occ` with `active` written over them.
    `rows` starts empty and the engine's steps fill it, one entry per active
    occupation they meet.
    """
    modes: tuple[int, ...]
    columns: tuple[tuple[tuple[int, complex], ...], ...]
    rows: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], complex], ...]]
    take: Callable[[tuple[int, ...]], tuple[int, ...]]
    splice: Callable[[tuple[int, ...]], tuple[int, ...]]


def _tuple_getter(idx: Sequence[int]):
    """`operator.itemgetter(*idx)`, returning a tuple for any length of `idx`."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


class ModeUnitary:
    """An M x M complex unitary tied to its registry."""

    __slots__ = ("registry", "matrix", "_modes", "_plan")

    def __init__(self, registry: ModeRegistry, matrix: np.ndarray, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        m = registry.size
        if matrix.shape != (m, m):
            raise ElementError(f"matrix shape {matrix.shape} != ({m}, {m})")
        self.registry = registry
        self.matrix = matrix
        self._modes = self._plan = None
        if check:
            dev = self.unitarity_deviation()
            if not dev <= UNITARITY_TOL:  # a NaN deviation fails too
                raise ElementError(f"matrix is not unitary (deviation {dev:.3e})")

    @classmethod
    def identity(cls, registry: ModeRegistry) -> "ModeUnitary":
        return cls(registry, _identity(registry.size).copy(), check=False)

    def then(self, other: "ModeUnitary") -> "ModeUnitary":
        """This unitary followed by `other` (matrix product other @ self)."""
        if self.registry != other.registry:
            raise ElementError("registry mismatch in composition")
        return ModeUnitary(self.registry, other.matrix @ self.matrix, check=False)

    def unitarity_deviation(self) -> float:
        gram = self.matrix.conj().T @ self.matrix
        gram -= _identity(len(gram))
        return float(np.abs(gram).max())

    @property
    def modes(self) -> tuple[int, ...]:
        """The active modes of `plan`, found on first use without building it
        (`matrix` is never modified)."""
        if self._modes is None:
            # a column that differs from the identity's is moved, and a row
            # that does is reached from one (or is itself moved)
            diff = self.matrix != _identity(len(self.matrix))
            self._modes = tuple(np.flatnonzero(diff.any(axis=0) | diff.any(axis=1)).tolist())
        return self._modes

    @property
    def plan(self) -> ModePlan:
        """Active modes, sparse columns and getters, built once on first use,
        with an empty table of transfer rows."""
        if self._plan is None:
            mat, modes = self.matrix, self.modes
            m = self.registry.size
            src = list(range(m))
            for p, i in enumerate(modes):
                src[i] = m + p
            block = mat.take(modes, axis=1).take(modes, axis=0).T  # row p holds column p
            ps, qs = np.nonzero(block)  # by p, then q ascending
            columns: list[list[tuple[int, complex]]] = [[] for _ in modes]
            for p, q, c in zip(ps.tolist(), qs.tolist(), block[ps, qs].tolist()):
                columns[p].append((q, c))
            self._plan = ModePlan(modes, tuple(map(tuple, columns)), {},
                                  _tuple_getter(modes), _tuple_getter(src))
        return self._plan


def hwp_matrix(theta_deg: float) -> np.ndarray:
    """2x2 half-wave-plate action on (H, V) creation operators."""
    t = math.radians(theta_deg % 180.0)
    c, s = math.cos(2 * t), math.sin(2 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _resolve_mode(registry: ModeRegistry, ref: ModeRef) -> int:
    """The dense index of a mode named by its label."""
    if not (isinstance(ref, tuple) and 2 <= len(ref) <= 3):
        raise ElementError(f"mode reference {ref!r} is not a (beam, pol[, bin]) label")
    return registry.index(*ref)


def _bin_pairs(registry: ModeRegistry, a: tuple, b: tuple) -> list[tuple[int, int]]:
    """The index pairs of labels ``a + (bin,)`` and ``b + (bin,)``, per time bin."""
    bins = (TimeBin.S, TimeBin.L) if registry.time_resolved else (None,)
    return [(registry.index(*a, tb), registry.index(*b, tb)) for tb in bins]


_POLS = (Polarization.H, Polarization.V)
_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@functools.cache
def _identity(m: int) -> np.ndarray:
    """The complex m x m identity, read-only; callers copy it to write."""
    u = np.eye(m, dtype=complex)
    u.flags.writeable = False
    return u


def _embed_pairs(registry: ModeRegistry, pairs: Sequence[tuple[int, int]],
                 block: np.ndarray) -> np.ndarray:
    """Identity everywhere except the given 2x2 block on each index pair."""
    u = _identity(registry.size).copy()
    (b00, b01), (b10, b11) = block.tolist()
    for i, j in pairs:
        if i == j:
            raise ElementError("degenerate mode pair")
        u[i, i], u[i, j] = b00, b01
        u[j, i], u[j, j] = b10, b11
    return u


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


def _mode_pairs(registry: ModeRegistry, a: ModeRef | str, b: ModeRef | str) -> list[tuple[int, int]]:
    """Pair up the modes acted on: beam names pair pol/bin-wise, refs pair 1:1."""
    if isinstance(a, str) != isinstance(b, str):
        raise ElementError("mix of beam name and mode reference")
    if isinstance(a, str):
        return [p for pol in _POLS for p in _bin_pairs(registry, (a, pol), (b, pol))]
    ia, ib = _resolve_mode(registry, a), _resolve_mode(registry, b)
    if ia == ib:
        raise ElementError("beam splitter needs two distinct modes")
    return [(ia, ib)]


def _pairwise(registry: ModeRegistry,
              element: Element) -> tuple[list[tuple[int, int]], np.ndarray] | None:
    """The mode pairs and the 2x2 block of a pairwise element; None for the
    other kinds (`Rpbs`, `Route`, `Phase`)."""
    if isinstance(element, (Hwp, HvSwap)):
        block = hwp_matrix(element.theta_deg if isinstance(element, Hwp) else 45.0)
        return _bin_pairs(registry, (element.beam, Polarization.H),
                          (element.beam, Polarization.V)), block
    if isinstance(element, Pbs):  # H transmits; V swaps beams with amplitude +1
        if element.beam_a == element.beam_b:
            raise ElementError("PBS needs two distinct beams")
        return _bin_pairs(registry, (element.beam_a, Polarization.V),
                          (element.beam_b, Polarization.V)), _SWAP
    if isinstance(element, Bs):
        block = bs_block(element.eta, element.signed)
        return _mode_pairs(registry, element.a, element.b), block
    if isinstance(element, Rot):
        ia, ib = _resolve_mode(registry, element.a), _resolve_mode(registry, element.b)
        if ia == ib:
            raise ElementError("rotation needs two distinct modes")
        return [(ia, ib)], rot_block(element.theta)
    if isinstance(element, DelayToL):
        if not registry.time_resolved:
            raise ElementError("time-bin delay needs a time-resolved registry")
        return [(registry.index(element.beam, pol, TimeBin.S),
                 registry.index(element.beam, pol, TimeBin.L)) for pol in _POLS], _SWAP
    return None


def compile_element(registry: ModeRegistry, element: Element) -> ModeUnitary:
    """The unitary of one element on `registry` (see the module docstring)."""
    pairwise = _pairwise(registry, element)
    if pairwise is not None:
        return ModeUnitary(registry, _embed_pairs(registry, *pairwise), check=False)
    if isinstance(element, Rpbs):
        plates = compile_element(registry, Hwp(element.beam_a, 22.5)).then(
            compile_element(registry, Hwp(element.beam_b, 22.5)))
        pbs = compile_element(registry, Pbs(element.beam_a, element.beam_b))
        return plates.then(pbs).then(plates)
    u = _identity(registry.size).copy()
    if isinstance(element, Route):
        if not (isinstance(element.mapping, tuple) and all(
                isinstance(p, tuple) and len(p) == 2 for p in element.mapping)):
            raise ElementError(f"route mapping {element.mapping!r} is not a tuple of "
                               "(old, new) beam tuples")
        sources = [old for old, _ in element.mapping]
        if len(set(sources)) != len(sources) or sorted(sources) != sorted(
                new for _, new in element.mapping):
            raise ElementError("route mapping is not a beam permutation")
        moved = dict(p for old, new in element.mapping for pol in _POLS
                     for p in _bin_pairs(registry, (old, pol), (new, pol)))
        return ModeUnitary(registry, u[:, [moved.get(i, i) for i in range(registry.size)]],
                           check=False)
    if isinstance(element, Phase):
        target = element.target
        idxs = (registry.beam_modes(target) if isinstance(target, str)
                else (_resolve_mode(registry, target),))
        u[idxs, idxs] = complex(math.cos(element.phi), math.sin(element.phi))
        return ModeUnitary(registry, u, check=False)
    raise ElementError(f"unknown element {element!r}")


def compose(registry: ModeRegistry, elements: Sequence[Element]) -> ModeUnitary:
    """Product of element unitaries in application order (first acts first)."""
    if not elements:
        return ModeUnitary.identity(registry)
    u = compile_element(registry, elements[0])
    for el in elements[1:]:
        u = u.then(compile_element(registry, el))
    return ModeUnitary(registry, u.matrix)  # checks unitarity
