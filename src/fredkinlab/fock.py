"""Mode space, Fock occupation states and sparse photonic superpositions.

A *mode* is one bosonic degree of freedom, labelled by a beam name, a
polarization (H or V) and, in time-resolved registries, a time bin (S or L).
A registry fixes the canonical dense ordering of those modes: beam-major in
registration order, H before V, S before L.  Everything downstream (unitaries,
post-selection, serialization, test goldens) relies on that ordering being
stable.

States are sparse maps from occupation tuples to complex amplitudes.  A state
may be sub-normalized; its squared norm is then the probability weight
accumulated by post-selection and heralding.  A `NumberedState` holds the
same amplitudes keyed by numbers that a `Numbering` gives the occupations,
so a run of many steps hashes each occupation once, not once per step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

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
        self._beam_modes: dict[str, tuple[int, ...]] = {}
        self._hv_modes: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        bins = (TimeBin.S, TimeBin.L) if time_resolved else (None,)
        for beam in beams:
            h_modes, v_modes = [], []
            for pol, modes in ((Polarization.H, h_modes), (Polarization.V, v_modes)):
                for tbin in bins:
                    modes.append(len(labels))
                    labels.append(ModeLabel(beam, pol, tbin))
            self._beam_modes[beam] = (*h_modes, *v_modes)
            self._hv_modes[beam] = (tuple(h_modes), tuple(v_modes))
        self._beams = beams
        self._time_resolved = time_resolved
        self._labels = tuple(labels)
        # keyed by plain (beam, pol, bin) values; a str enum member hashes and
        # compares as its value, so it finds them too
        self._index = {(lab.beam, lab.pol.value, None if lab.bin is None else lab.bin.value): i
                       for i, lab in enumerate(labels)}

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
        try:
            return self._index[beam, pol, tbin]
        except (KeyError, TypeError):  # not a registered mode: say why below
            pass
        pol = Polarization(pol)
        if self._time_resolved:
            if tbin is None:
                raise FockError("time-resolved registry needs a time bin")
            label = ModeLabel(beam, pol, TimeBin(tbin))
        else:
            if tbin is not None:
                raise FockError("registry is not time-resolved")
            label = ModeLabel(beam, pol)
        raise UnknownBeamError(f"mode {label} not registered")

    def beam_modes(self, beam: str) -> tuple[int, ...]:
        """All mode indices belonging to one beam, in canonical order."""
        try:
            return self._beam_modes[beam]
        except (KeyError, TypeError):  # an unhashable beam is not registered either
            raise UnknownBeamError(f"beam {beam!r} not registered") from None

    def hv_modes(self, beam: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A beam's H modes and its V modes, each in canonical order, so the
        time bins pair up (see `engine.swap_hv`)."""
        try:
            return self._hv_modes[beam]
        except (KeyError, TypeError):
            raise UnknownBeamError(f"beam {beam!r} not registered") from None

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
        return other is self or (isinstance(other, ModeRegistry)
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

    __slots__ = ("registry", "amps")

    def __init__(self, registry: ModeRegistry,
                 amplitudes: Mapping[Occupation, complex],
                 validate: bool = True):
        if validate:
            amps: dict[Occupation, complex] = {}
            m = registry.size
            for occ, a in amplitudes.items():
                a = complex(a)
                if abs(a) < DEFAULT_PRUNE_EPS:
                    continue
                occ = tuple(int(n) for n in occ)
                if len(occ) != m:
                    raise FockError(f"occupation length {len(occ)} != {m} modes")
                if any(n < 0 for n in occ):
                    raise FockError(f"negative occupation in {occ}")
                amps[occ] = a
        else:
            # the caller hands over a dict of complex amplitudes on well-formed keys
            amps = pruned(amplitudes)
        self.registry = registry
        self.amps = amps

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_occupation(cls, registry: ModeRegistry, occ: Occupation,
                        amplitude: complex = 1.0) -> "PhotonicState":
        return cls(registry, {tuple(occ): amplitude})

    # -- algebra -----------------------------------------------------------

    def norm_sq(self) -> float:
        return amplitudes_norm_sq(self.amps)

    def normalized(self) -> "PhotonicState":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise NormalizationError("cannot normalize a zero state")
        s = 1.0 / math.sqrt(n2)
        return PhotonicState(self.registry, {k: v * s for k, v in self.amps.items()},
                             validate=False)

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


def pruned(amps: dict) -> dict:
    """`amps` as it is, or a copy without the amplitudes a stored state
    drops; the test is the one `PhotonicState` makes, so a NaN amplitude
    stays visible."""
    for a in amps.values():
        if abs(a) < DEFAULT_PRUNE_EPS:
            return {k: a for k, a in amps.items() if not abs(a) < DEFAULT_PRUNE_EPS}
    return amps


class Numbering:
    """Numbers occupations in the order first seen: `index` maps an
    occupation to its number and `occupations` a number to its occupation.
    A number, once given, keeps its occupation."""

    __slots__ = ("index", "occupations")

    def __init__(self):
        self.index: dict[Occupation, int] = {}
        self.occupations: list[Occupation] = []

    def number(self, occ: Occupation) -> int:
        j = self.index.get(occ)
        if j is None:
            j = self.index[occ] = len(self.occupations)
            self.occupations.append(occ)
        return j


class NumberedState(NamedTuple):
    """The amplitudes of a `PhotonicState`, pruned and in the same order,
    keyed by the numbers `numbering` gives their occupations."""
    registry: ModeRegistry
    amps: dict[int, complex]
    numbering: Numbering

    @classmethod
    def of(cls, state: PhotonicState, numbering: Numbering) -> "NumberedState":
        number = numbering.number
        return cls(state.registry, {number(occ): a for occ, a in state.amps.items()}, numbering)

    def settled(self) -> tuple[PhotonicState, float]:
        """The `PhotonicState` of these amplitudes and its squared norm, in
        one pass; the amplitudes need no pruning."""
        occupations = self.numbering.occupations
        amps, squares = {}, []
        for j, a in self.amps.items():
            amps[occupations[j]] = a
            squares.append(a.real * a.real + a.imag * a.imag)
        state = PhotonicState.__new__(PhotonicState)
        state.registry, state.amps = self.registry, amps
        return state, float(sum(squares))  # as `amplitudes_norm_sq` sums them

    def state(self) -> PhotonicState:
        return self.settled()[0]

    def norm_sq(self) -> float:
        return amplitudes_norm_sq(self.amps)

    def photon_numbers(self) -> set[int]:
        occupations = self.numbering.occupations
        return {sum(occupations[j]) for j in self.amps}


def amplitudes_norm_sq(amps: Mapping[Occupation, complex]) -> float:
    """Sum of |a|^2 over an amplitude map, in its order."""
    return float(sum([a.real * a.real + a.imag * a.imag for a in amps.values()]))


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


#: The polarization that encodes each bit value: 0 = H, 1 = V.
BIT_POLARIZATIONS = (Polarization.H, Polarization.V)


def basis_bits(n_qubits: int, index: int) -> tuple[int, ...]:
    """The bits of basis state `index`, the first qubit's first (the most significant)."""
    return tuple((index >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits))


def basis_index(bits: Sequence[int]) -> int:
    """The basis state of `bits`, the first qubit's first: `basis_bits` inverted."""
    index = 0
    for bit in bits:
        index = (index << 1) | bit
    return index


def prepare_logical_input(registry: ModeRegistry, amplitudes: LogicalAmplitudes,
                          qubit_beams: Sequence[str]) -> PhotonicState:
    """State with one photon per qubit beam, polarization encoding each bit
    (`BIT_POLARIZATIONS`); photons start in the S bin when the registry is
    time-resolved.
    """
    if len(qubit_beams) != amplitudes.n_qubits:
        raise FockError(f"{len(qubit_beams)} beams for {amplitudes.n_qubits} qubits")
    amps: dict[Occupation, complex] = {}
    for i, a in enumerate(amplitudes.values):
        if a == 0:
            continue
        amps[basis_occupation(registry, qubit_beams, basis_bits(amplitudes.n_qubits, i))] = a
    return PhotonicState(registry, amps)


def basis_occupation(registry: ModeRegistry, qubit_beams: Sequence[str],
                     bits: Sequence[int], tbin: TimeBin | None = None) -> Occupation:
    """One photon per beam in the polarization of its bit, all in bin
    `tbin`: the occupation of one basis state of `prepare_logical_input`
    when `tbin` is None (the S bin, in a time-resolved registry)."""
    if tbin is None and registry.time_resolved:
        tbin = TimeBin.S
    occ = [0] * registry.size
    for beam, bit in zip(qubit_beams, bits):
        occ[registry.index(beam, BIT_POLARIZATIONS[bit], tbin)] += 1
    return tuple(occ)


def tensor(s1: PhotonicState | NumberedState, s2: PhotonicState,
           rows: dict[int, tuple[tuple[int, complex], ...]] | None = None,
           occupied: Iterable[int] | None = None) -> PhotonicState | NumberedState:
    """Product of two states on the same registry occupying disjoint modes,
    of the same form as `s1`: a `NumberedState` is numbered in the
    numbering of `s1`, a `PhotonicState` numbered afresh.

    Raises `FockError` if any term of `s1` occupies a mode that any term of
    `s2` occupies.  `rows` is an occupation table for one `s2` and a
    numbered `s1`: it maps the number of an occupation of `s1`, on first
    sight, to the terms ``((number, amplitude of s2), ...)`` of it tensored
    with `s2`, in the order of `s2`.  An occupation that overlaps `s2` is
    never stored, so it raises every time.  `occupied`, the modes `s2`
    occupies, is worked out from `s2` if not given.
    """
    if s1.registry != s2.registry:
        raise RegistryMismatchError("tensor needs a shared registry")
    if isinstance(s1, PhotonicState):
        return tensor(NumberedState.of(s1, Numbering()), s2, None, occupied).state()
    rows = {} if rows is None else rows
    numbering = s1.numbering
    occupations, number = numbering.occupations, numbering.number
    amps: dict[int, complex] = {}
    get = amps.get
    for j1, a1 in s1.amps.items():
        row = rows.get(j1)
        if row is None:
            occ1 = occupations[j1]
            if occupied is None:
                occupied = {m for occ in s2.amps for m, n in enumerate(occ) if n}
            if any(occ1[m] for m in occupied):
                raise FockError("tensor factors overlap on a mode")
            row = rows[j1] = tuple((number(tuple(map(operator.add, occ1, occ2))), a2)
                                   for occ2, a2 in s2.amps.items())
        for key, t in row:
            amps[key] = get(key, 0.0) + a1 * t
    return NumberedState(s1.registry, pruned(amps), numbering)
