"""Mode space, Fock occupation states and sparse photonic superpositions.

A *mode* is one bosonic degree of freedom, labelled by a beam name, a
polarization (H or V) and, in time-resolved registries, a time bin (S or L).
A registry fixes the canonical dense ordering of those modes: beam-major in
registration order, H before V, S before L.  Everything downstream (unitaries,
post-selection, serialization, test goldens) relies on that ordering being
stable.

States are sparse maps from occupation tuples to complex amplitudes.  A state
may be sub-normalized; its squared norm is then the probability weight
accumulated by post-selection and heralding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Amplitudes with modulus below this are dropped from stored states.  Far
#: below any physical amplitude in scope (those are dyadic times powers of
#: 1/sqrt(2) and 1/sqrt(3)).
DEFAULT_PRUNE_EPS = 1e-14

NORMALIZATION_TOL = 1e-10


class FockError(ValueError):
    """Base class for mode/state construction errors."""


class DuplicateBeamError(FockError):
    pass


class UnknownBeamError(FockError):
    pass


class RegistryMismatchError(FockError):
    pass


class NormalizationError(FockError):
    pass


class Polarization(str, Enum):
    H = "H"
    V = "V"


class TimeBin(str, Enum):
    S = "S"  # short path / early bin
    L = "L"  # long path / late bin


@dataclass(frozen=True)
class ModeLabel:
    """One optical mode: (beam, polarization, optional time bin)."""

    beam: str
    pol: Polarization
    bin: TimeBin | None = None

    def __str__(self) -> str:
        if self.bin is None:
            return f"{self.pol.value}_{self.beam}"
        return f"{self.pol.value}^{self.bin.value}_{self.beam}"


class ModeRegistry:
    """Canonical, immutable mapping between mode labels and dense indices.

    Either every mode carries a time bin or none does; a registry is
    time-resolved as a whole.
    """

    def __init__(self, beams: Sequence[str], time_resolved: bool = False):
        beams = tuple(beams)
        seen = set()
        for b in beams:
            if b in seen:
                raise DuplicateBeamError(f"duplicate beam id {b!r}")
            seen.add(b)
        labels: list[ModeLabel] = []
        for beam in beams:
            for pol in (Polarization.H, Polarization.V):
                if time_resolved:
                    for tbin in (TimeBin.S, TimeBin.L):
                        labels.append(ModeLabel(beam, pol, tbin))
                else:
                    labels.append(ModeLabel(beam, pol))
        self._beams = beams
        self._time_resolved = time_resolved
        self._labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(labels)}

    @property
    def beams(self) -> tuple[str, ...]:
        return self._beams

    @property
    def time_resolved(self) -> bool:
        return self._time_resolved

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return self._labels

    @property
    def size(self) -> int:
        return len(self._labels)

    def index(self, beam: str, pol: Polarization | str, tbin: TimeBin | str | None = None) -> int:
        """Dense index of a mode.  `tbin` is required iff time-resolved."""
        pol = Polarization(pol)
        if self._time_resolved:
            if tbin is None:
                raise FockError("time-resolved registry needs a time bin")
            label = ModeLabel(beam, pol, TimeBin(tbin))
        else:
            if tbin is not None:
                raise FockError("registry is not time-resolved")
            label = ModeLabel(beam, pol)
        try:
            return self._index[label]
        except KeyError:
            raise UnknownBeamError(f"mode {label} not registered") from None

    def beam_modes(self, beam: str) -> tuple[int, ...]:
        """All mode indices belonging to one beam, in canonical order."""
        if beam not in self._beams:
            raise UnknownBeamError(f"beam {beam!r} not registered")
        return tuple(i for i, lab in enumerate(self._labels) if lab.beam == beam)

    def modes_where(self, beams: Iterable[str] | None = None,
                    pol: Polarization | None = None,
                    tbin: TimeBin | None = None) -> tuple[int, ...]:
        beams = set(beams) if beams is not None else None
        out = []
        for i, lab in enumerate(self._labels):
            if beams is not None and lab.beam not in beams:
                continue
            if pol is not None and lab.pol != pol:
                continue
            if tbin is not None and lab.bin != tbin:
                continue
            out.append(i)
        return tuple(out)

    def vacuum(self) -> tuple[int, ...]:
        return (0,) * self.size

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModeRegistry)
                and self._labels == other._labels)

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        kind = "time-resolved" if self._time_resolved else "plain"
        return f"ModeRegistry({list(self._beams)}, {kind}, {self.size} modes)"


def register_modes(beams: Sequence[str], time_resolved: bool = False) -> ModeRegistry:
    """Create a registry with 2 modes per beam (4 when time-resolved)."""
    return ModeRegistry(beams, time_resolved=time_resolved)


Occupation = tuple[int, ...]


def occupation_str(registry: ModeRegistry, occ: Occupation) -> str:
    """Human-readable ket, e.g. ``|H_c V_t1 V_t2>``; vacuum prints ``|vac>``."""
    parts = []
    for n, label in zip(occ, registry.labels):
        if n == 1:
            parts.append(str(label))
        elif n > 1:
            parts.append(f"{n}x{label}")
    return "|" + (" ".join(parts) if parts else "vac") + ">"


class PhotonicState:
    """Sparse superposition of Fock occupation states over one registry.

    The amplitude map is treated as immutable after construction.  States with
    squared norm < 1 are sub-normalized; the squared norm is the success
    probability accumulated so far.
    """

    __slots__ = ("registry", "amps", "prune_eps")

    def __init__(self, registry: ModeRegistry,
                 amplitudes: Mapping[Occupation, complex],
                 prune_eps: float = DEFAULT_PRUNE_EPS,
                 validate: bool = True):
        if validate:
            amps: dict[Occupation, complex] = {}
            m = registry.size
            for occ, a in amplitudes.items():
                a = complex(a)
                if abs(a) < prune_eps:
                    continue
                occ = tuple(int(n) for n in occ)
                if len(occ) != m:
                    raise FockError(f"occupation length {len(occ)} != {m} modes")
                if any(n < 0 for n in occ):
                    raise FockError(f"negative occupation in {occ}")
                amps[occ] = a
        else:
            # the caller passes complex amplitudes on well-formed keys; the
            # pruning test is the one above, so a NaN amplitude stays visible
            amps = {occ: a for occ, a in amplitudes.items() if not abs(a) < prune_eps}
        self.registry = registry
        self.amps = amps
        self.prune_eps = prune_eps

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_occupation(cls, registry: ModeRegistry, occ: Occupation,
                        amplitude: complex = 1.0) -> "PhotonicState":
        return cls(registry, {tuple(occ): amplitude})

    # -- algebra -----------------------------------------------------------

    def norm_sq(self) -> float:
        return float(sum((a.real * a.real + a.imag * a.imag) for a in self.amps.values()))

    def normalized(self) -> "PhotonicState":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise NormalizationError("cannot normalize a zero state")
        s = 1.0 / math.sqrt(n2)
        return PhotonicState(self.registry, {k: v * s for k, v in self.amps.items()},
                             prune_eps=self.prune_eps, validate=False)

    def scaled(self, factor: complex) -> "PhotonicState":
        return PhotonicState(self.registry, {k: v * factor for k, v in self.amps.items()},
                             prune_eps=self.prune_eps, validate=False)

    def photon_numbers(self) -> set[int]:
        """Distinct total photon counts present in the superposition."""
        return {sum(occ) for occ in self.amps}

    def items(self):
        """Amplitudes in canonical (sorted occupation) order."""
        return sorted(self.amps.items())

    def __len__(self) -> int:
        return len(self.amps)

    def terms_str(self) -> str:
        lines = []
        for occ, a in self.items():
            lines.append(f"({a.real:+.12g}{a.imag:+.12g}j) {occupation_str(self.registry, occ)}")
        return "\n".join(lines) if lines else "(zero state)"

    def __repr__(self) -> str:
        return f"PhotonicState({len(self.amps)} terms, norm^2={self.norm_sq():.12g})"


def inner_product(s1: PhotonicState, s2: PhotonicState) -> complex:
    """<s1|s2> by conjugate-linear pairing over shared occupation states."""
    if s1.registry != s2.registry:
        raise RegistryMismatchError("states live on different registries")
    small, large = (s1.amps, s2.amps) if len(s1.amps) <= len(s2.amps) else (s2.amps, s1.amps)
    acc = 0.0 + 0.0j
    if small is s1.amps:
        for occ, a in small.items():
            b = large.get(occ)
            if b is not None:
                acc += a.conjugate() * b
    else:
        for occ, b in small.items():
            a = large.get(occ)
            if a is not None:
                acc += a.conjugate() * b
    return acc


def state_fidelity(s1: PhotonicState, s2: PhotonicState) -> float:
    """|<s1|s2>|^2 between the normalized versions of two states."""
    n1, n2 = s1.norm_sq(), s2.norm_sq()
    if n1 <= 0 or n2 <= 0:
        return 0.0
    ov = inner_product(s1, s2)
    return float(abs(ov) ** 2 / (n1 * n2))


@dataclass(frozen=True)
class LogicalAmplitudes:
    """Coefficients of a computational-basis expansion over n polarization qubits.

    Index i runs over basis states in binary order with H=0, V=1 and the first
    qubit as the most significant bit, so for three qubits index 0 is
    |HHH> and index 7 is |VVV>.
    """

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        n = len(vals)
        if n < 2 or (n & (n - 1)) != 0:
            raise FockError(f"amplitude count {n} is not a power of two")
        norm = sum(abs(v) ** 2 for v in vals)
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # a NaN norm fails too
            raise NormalizationError(f"amplitudes not normalized: sum |a|^2 = {norm!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.values).bit_length() - 1

    def bits(self, index: int) -> tuple[int, ...]:
        n = self.n_qubits
        return tuple((index >> (n - 1 - q)) & 1 for q in range(n))

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "LogicalAmplitudes":
        vals = [0.0] * (1 << n_qubits)
        vals[index] = 1.0
        return cls(tuple(vals))

    @classmethod
    def random(cls, n_qubits: int, rng: np.random.Generator) -> "LogicalAmplitudes":
        d = 1 << n_qubits
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        return cls(tuple(v.tolist()))

    def as_vector(self) -> np.ndarray:
        return np.array(self.values, dtype=complex)


def prepare_logical_input(registry: ModeRegistry, amplitudes: LogicalAmplitudes,
                          qubit_beams: Sequence[str]) -> PhotonicState:
    """State with one photon per qubit beam, polarization encoding each bit.

    Bit 0 maps to H, bit 1 to V; photons start in the S bin when the registry
    is time-resolved.
    """
    if len(qubit_beams) != amplitudes.n_qubits:
        raise FockError(f"{len(qubit_beams)} beams for {amplitudes.n_qubits} qubits")
    amps: dict[Occupation, complex] = {}
    for i, a in enumerate(amplitudes.values):
        if a == 0:
            continue
        occ = [0] * registry.size
        for beam, bit in zip(qubit_beams, amplitudes.bits(i)):
            pol = Polarization.V if bit else Polarization.H
            tbin = TimeBin.S if registry.time_resolved else None
            occ[registry.index(beam, pol, tbin)] += 1
        amps[tuple(occ)] = a
    return PhotonicState(registry, amps)


def tensor(s1: PhotonicState, s2: PhotonicState) -> PhotonicState:
    """Product of two states on the same registry occupying disjoint modes.

    Raises `FockError` if any term of `s1` occupies a mode that any term of
    `s2` occupies.
    """
    if s1.registry != s2.registry:
        raise RegistryMismatchError("tensor needs a shared registry")
    right = s2.amps.items()
    occupied = {m for occ in s2.amps for m, n in enumerate(occ) if n}
    amps: dict[Occupation, complex] = {}
    for occ1, a1 in s1.amps.items():
        if any(occ1[m] for m in occupied):
            raise FockError("tensor factors overlap on a mode")
        for occ2, a2 in right:
            key = tuple(map(operator.add, occ1, occ2))
            amps[key] = amps.get(key, 0.0) + a1 * a2
    return PhotonicState(s1.registry, amps, prune_eps=s1.prune_eps, validate=False)
