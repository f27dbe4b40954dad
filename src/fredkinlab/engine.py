"""State evolution: unitaries, post-selection, measurement with feed-forward.

``apply_unitary`` evolves a state over the modes the unitary moves.  The
bosonic substitution a+_i -> sum_j U[j,i] a+_j is expanded once per distinct
occupation of those modes into a transfer row of output amplitudes, cached on
the unitary; each stored term is then its amplitude times that row, spliced
back into the term's passive modes.  ``transition_amplitude_oracle`` computes
the same amplitudes independently from a matrix permanent (Ryser's formula
over the row/column-repeated submatrix); the two routes cross-check each other
and must never be merged.

A transfer row keeps no entry below `ROW_EPS` (1e-15).  Products of wave
plates cancel only to the last bit, since cos and sin of 2θ come out one ulp
apart, so without the cut a row carries residue entries of at most 2.2e-16
next to real ones of at least 0.102 (every step of the catalog's gate
reports); each would make every run compute an amplitude that the pruning
(1e-14) then drops.  The cut sits far from both.  Dropping the residue
moved no amplitude, probability or branch probability of a catalog run by
more than 2.2e-16, far inside every verification tolerance.

Measurement fills its detector outcome branches, plain amplitude maps, in
one pass with feed-forward corrected terms; all accepted branches of the
gates in scope then carry the same conditional state, which is checked
amplitude by amplitude before they are pooled with their probabilities.  A
measurement right after a unitary takes that unitary in, with a +/-
detector's plate multiplied into it once: `measure_and_feedforward` expands
its incoming terms through the product into one amplitude per output and
fills the branches from them, with no state built in between.  Multiplying the plate in
first can round differently from applying it after; for the plate-times-PBS
products of the catalog every entry is a single term, so its results are
bit-identical.

Each step keeps an occupation table: a dict, filled on first sight, from an
occupation entering the step to the step's action on it (a unitary's is on
its plan; a measurement's is its row through the measurement's unitary,
each output with its pattern, the place of its corrected occupation, sign
and whether the feed-forward table accepts the pattern (`MeasureRows`), the
accept flag looked up once, when that output first keeps an amplitude; a
post-selection's whether it keeps it; an ancilla injection's terms, see
`fock.tensor`).  A terminal post-selection right after a unitary is folded
into it: the unitary keeps rows of its own, cut down to the occupations the
post-selection keeps (`KeptRows`).

Those rows expand only the photons the post-selection can keep.  For an
occupation of N photons, mode m is forbidden when every rule of the union
excludes a photon there: m lies in one of the rule's sets with count 0, or
the rule's counts sum to N and m lies in none of its sets.  The folded step
builds its transfer rows from the unitary's columns without the forbidden
modes, cut once per N (`_cut_columns`), and `_kept` still decides every
entry.  This is exact: a monomial with no forbidden photon can only be built
from partial monomials with none, so it gets the same products, added in the
same order, and the surviving keys keep their order of first insertion;
`ROW_EPS` and the factorial scaling act per entry, so every kept row is the
same tuple as the uncut row filtered by `_kept`.  An occupation that two
rules match holds no forbidden photon, so it is still built and still raises
on every run.  The cut rows live in the `KeptRows`, never in the plan's
tables, so a run cut at that linear stage still gets every row.

A `Circuit` keeps its tables across runs, so the inputs of a sweep or a
process map share per-occupation work while each input stays its own run.
A table holds the factors that would be worked out again, used in the same
order, so results are bit-identical.  An occupation whose action raises, or
a row that raises while it is built (an outcome missing from a feed-forward
table, say), is never stored, so it raises on every run.  A step called
without a table works with a fresh one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .elements import Hwp, ModePlan, ModeUnitary, compile_element
from .fock import (
    DEFAULT_PRUNE_EPS,
    ModeRegistry,
    Occupation,
    PhotonicState,
)

_FACTORIALS = [math.factorial(n) for n in range(21)]


class EngineError(ValueError):
    pass


class PhotonNumberMismatch(EngineError):
    pass


class FeedForwardError(EngineError):
    pass


def apply_unitary(state: PhotonicState, u: ModeUnitary,
                  kept: KeptRows | None = None) -> PhotonicState:
    """Evolve a state through a mode unitary; preserves the norm.

    Each term is multiplied into its row in the plan's occupation table, which
    is built on first sight from the transfer row of the term's active-mode
    occupation, the passive modes of the input key passing through.  For a
    unitary with a terminal post-selection folded into it, `kept` holds the
    table of rows cut down to the output occupations the post-selection
    keeps; such a call is the whole post-selection.
    """
    if u.registry != state.registry:
        raise EngineError("unitary acts on a different registry")
    plan = u.plan
    table = plan.full_rows if kept is None else kept.rows
    out: dict[Occupation, complex] = {}
    get = out.get
    for occ, amp in state.amps.items():
        row = table.get(occ)
        if row is None:
            row = table[occ] = _row(plan, occ, kept)
        for full, t in row:
            out[full] = get(full, 0.0) + amp * t
    return PhotonicState(state.registry, out, validate=False)


def _row(plan: ModePlan, occ: Occupation, kept: KeptRows | None = None,
         ) -> tuple[tuple[Occupation, complex], ...]:
    """The row of `occ` through the unitary of `plan`, ``((full output
    occupation, amplitude), ...)``, from the transfer row of its active-mode
    occupation; with `kept`, from the columns cut for its photon number and
    cut down to the outputs the post-selection keeps."""
    _, cols, rows, take, splice, _ = plan
    active_in = take(occ)
    if kept is not None:
        n = sum(occ)
        cut = kept.cuts.get(n)
        if cut is None:
            cut = kept.cuts[n] = (_cut_columns(plan, kept.rules, n), {})
        cols, rows = cut
    active_row = rows.get(active_in)
    if active_row is None:
        active_row = rows[active_in] = _transfer_row(cols, active_in)
    row = [(splice(occ + key), t) for key, t in active_row]
    if kept is not None:
        row = [e for e in row if _kept(kept.rules, kept.occupations, e[0])]
    return tuple(row)


#: A transfer-row entry below this modulus is rounding residue and is not
#: stored.  Over every step of the catalog's gate reports the largest residue
#: is 2.2e-16 (products of plates whose cos and sin of 2θ come out one ulp
#: apart) and the smallest real entry 0.102: the cut sits 4.5 times above the
#: one and fourteen orders of magnitude below the other.
ROW_EPS = 1e-15


def _transfer_row(cols, active_in: Occupation):
    """<out|U|in> for every active output `out` reached from `active_in`,
    with modulus at least `ROW_EPS`.

    Expands prod_p (a+_p)^n_p by a+_p -> sum_q U[q,p] a+_q; the monomial
    coefficient of `out` times sqrt(P(out) / P(in)) is the amplitude (the
    passive modes' factorials cancel).  A monomial is keyed by an int whose
    bits from `bits` * q up count the photons in mode q, `bits` wide enough
    for them all, so adding a photon is adding an int; a key is unpacked
    into an occupation only when its amplitude is kept.
    """
    bits = sum(active_in).bit_length()
    poly: dict[int, complex] = {0: 1.0}
    for p, n in enumerate(active_in):
        if not n:
            continue
        col = [(1 << bits * q, uqp) for q, uqp in cols[p]]
        for _ in range(n):
            nxt: dict[int, complex] = {}
            get = nxt.get
            for key, c in poly.items():
                for photon, uqp in col:
                    k2 = key + photon
                    nxt[k2] = get(k2, 0.0) + c * uqp
            poly = nxt
    n_modes, p_in = len(active_in), _factorial_product(active_in)
    mask = (1 << bits) - 1
    # `mask ^ 1` in each mode's field: every bit of a count but its lowest,
    # which only a count above 1 sets
    above_one = (mask ^ 1) * (((1 << bits * n_modes) - 1) // mask) if bits else 0
    unit = math.sqrt(1 / p_in)  # the scale of an output with no count above 1
    row = []
    for key, c in poly.items():
        if key & above_one:  # some mode holds more than one photon
            out = _unpack(key, bits, n_modes)
            t = c * math.sqrt(_factorial_product(out) / p_in)
        else:
            out, t = None, c * unit
        if not abs(t) < ROW_EPS:
            row.append((_unpack(key, bits, n_modes) if out is None else out, t))
    return tuple(row)


def _unpack(key: int, bits: int, n_modes: int) -> Occupation:
    """The occupation of `n_modes` modes held in `key` (see `_transfer_row`)."""
    occ = [0] * n_modes
    mask = (1 << bits) - 1
    while key:  # one pass per occupied mode
        q = ((key & -key).bit_length() - 1) // bits
        occ[q] = n = (key >> bits * q) & mask
        key ^= n << bits * q
    return tuple(occ)


def _factorial_product(occ: Occupation) -> int:
    """prod n_i!, the exact square of the norm linking monomial coefficients to
    state amplitudes."""
    p = 1
    for n in occ:
        if n > 1:
            p *= _FACTORIALS[n]
    return p


def ryser_permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code updates."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise EngineError("permanent needs a square matrix")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    row_sums = np.zeros(n, dtype=complex)
    gray = 0
    sign = 1 if n % 2 == 0 else -1  # (-1)^n prefactor folded into subset signs
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = gray ^ new_gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray = new_gray
        subset_sign = -1 if (new_gray.bit_count() % 2) else 1
        total += subset_sign * np.prod(row_sums)
    return complex(sign * total)


def transition_amplitude_oracle(u: ModeUnitary | np.ndarray,
                                in_occ: Occupation, out_occ: Occupation,
                                strict: bool = False) -> complex:
    """<out|U|in> from the permanent of the occupation-repeated submatrix.

    Equals per(U_sub) / sqrt(prod m_i! prod n_j!) with column i repeated
    m_i times and row j repeated n_j times.  A photon-number mismatch is
    amplitude 0 by definition; `strict=True` raises instead.
    """
    mat = u.matrix if isinstance(u, ModeUnitary) else np.asarray(u, dtype=complex)
    n_in, n_out = sum(in_occ), sum(out_occ)
    if n_in != n_out:
        if strict:
            raise PhotonNumberMismatch(f"{n_in} photons in, {n_out} out")
        return 0.0 + 0.0j
    rows = [j for j, n in enumerate(out_occ) for _ in range(n)]
    cols = [i for i, n in enumerate(in_occ) for _ in range(n)]
    sub = mat[np.ix_(rows, cols)] if rows else np.zeros((0, 0), dtype=complex)
    denom = 1
    for n in in_occ:
        denom *= _FACTORIALS[n]
    for n in out_occ:
        denom *= _FACTORIALS[n]
    return ryser_permanent(sub) / math.sqrt(denom)


# -- post-selection ---------------------------------------------------------


@dataclass(frozen=True)
class PostSelectionRule:
    """Conjunction of photon-count constraints over disjoint mode sets."""

    constraints: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for modes, count in self.constraints:
            if count < 0:
                raise EngineError("negative photon count in rule")
            for m in modes:
                if m in seen:
                    raise EngineError("post-selection mode sets must be disjoint")
                seen.add(m)

    def matches(self, occ: Occupation) -> bool:
        for modes, count in self.constraints:
            if sum(map(occ.__getitem__, modes)) != count:
                return False
        return True

    @classmethod
    def beam_counts(cls, registry: ModeRegistry, counts: Mapping[str, int]) -> "PostSelectionRule":
        return cls(tuple((registry.beam_modes(b), c) for b, c in counts.items()))

    @classmethod
    def mode_counts(cls, registry: ModeRegistry,
                    counts: Sequence[tuple[Sequence[int], int]]) -> "PostSelectionRule":
        return cls(tuple((tuple(ms), c) for ms, c in counts))


class KeptRows(NamedTuple):
    """A terminal post-selection folded into the unitary just before it, in
    place of a step of its own: that unitary's rows cut down to the output
    occupations the post-selection keeps, kept apart from its plan, the
    post-selection's rules and occupation table (see `_kept`), and `cuts`,
    which maps a photon number N to the unitary's columns without the modes
    forbidden for N photons and the transfer rows they give, by active
    occupation (see the module docstring)."""
    rows: dict[Occupation, tuple[tuple[Occupation, complex], ...]]
    rules: tuple[PostSelectionRule, ...]
    occupations: dict[Occupation, bool]
    cuts: dict[int, tuple[tuple, dict[Occupation, tuple[tuple[Occupation, complex], ...]]]]


def _kept(rules: Sequence[PostSelectionRule], occupations: dict[Occupation, bool],
          occ: Occupation) -> bool:
    """Whether one of `rules` matches `occ`, from and into the occupation
    table `occupations`.  An occupation two rules match raises, since the
    union is not disjoint, and is never stored."""
    kept = occupations.get(occ)
    if kept is None:
        kept = False
        for rule in rules:
            if rule.matches(occ):
                if kept:
                    raise EngineError("post-selection rule union is not disjoint")
                kept = True
        occupations[occ] = kept
    return kept


def _cut_columns(plan: ModePlan, rules: Sequence[PostSelectionRule], n: int):
    """The columns of `plan` without its forbidden modes for an occupation
    of `n` photons: those where every one of `rules` excludes a photon (see
    the module docstring)."""
    allowed: set[int] = set()  # modes some rule lets hold a photon
    for rule in rules:
        listed: set[int] = set()
        for modes, count in rule.constraints:
            listed.update(modes)
            if count:
                allowed.update(modes)
        if sum(count for _, count in rule.constraints) != n:
            allowed.update(m for m in plan.modes if m not in listed)
    keep = [m in allowed for m in plan.modes]
    return tuple([e for e in col if keep[e[0]]] for col in plan.columns)


def post_select_any(state: PhotonicState, rules: Sequence[PostSelectionRule],
                    occupations: dict[Occupation, bool] | None = None,
                    ) -> tuple[PhotonicState, float]:
    """Keep the occupation states matched by a union of disjoint conjunctive
    rules (e.g. equal-time-bin coincidence); a single rule is a 1-tuple.

    Returns the surviving terms, their amplitudes unchanged, and their
    probability (squared surviving norm relative to the input norm).  A zero
    survivor is an empty state with probability 0, not an error.
    `occupations` is the step's occupation table (see `_kept`).  A `Circuit`
    calls this only for a post-selection it cannot fold into the unitary
    before it (`KeptRows`).
    """
    occupations = {} if occupations is None else occupations
    kept = {occ: a for occ, a in state.amps.items() if _kept(rules, occupations, occ)}
    survived = PhotonicState(state.registry, kept, validate=False)
    n_in = state.norm_sq()
    return survived, survived.norm_sq() / n_in if n_in > 0 else 0.0


# -- measurement with feed-forward -------------------------------------------


class DetectorBasis:
    HV = "HV"
    PLUS_MINUS = "PM"


@dataclass(frozen=True)
class DetectorSpec:
    """Photon-number-resolving detection of one beam.

    The +/- basis is realized as a 22.5-degree half-wave plate on the beam
    followed by H/V-resolved counting, so outcome patterns are always count
    tuples over the beam's modes in canonical order (a "+" count appears in
    the H slot, "-" in the V slot).
    """
    beam: str
    basis: str = DetectorBasis.HV

    def __post_init__(self):
        if self.basis not in (DetectorBasis.HV, DetectorBasis.PLUS_MINUS):
            raise EngineError(f"unknown detector basis {self.basis!r}")

    def rotation(self, registry: ModeRegistry) -> ModeUnitary | None:
        """The plate that turns +/- counting into H/V counting (None for H/V)."""
        if self.basis == DetectorBasis.PLUS_MINUS:
            return compile_element(registry, Hwp(self.beam, 22.5))
        return None


REJECT = "reject"

#: correction kinds applicable to a beam: "flip" swaps H and V occupations,
#: "sign" multiplies by (-1)^(V photons), "flip_sign" applies sign then flip.
Correction = tuple[str, str]


@dataclass(frozen=True)
class FeedForwardTable:
    """Map detector outcome pattern -> accepted corrections or rejection.

    Unlisted patterns are rejected when `default_reject` is set; otherwise a
    nonzero-probability unlisted outcome is an error.
    """
    entries: tuple[tuple[tuple[int, ...], tuple[Correction, ...] | str], ...]
    default_reject: bool = True

    def __post_init__(self):
        for _, action in self.entries:
            for _, kind in (() if action == REJECT else action):
                if kind not in ("flip", "sign", "flip_sign"):
                    raise FeedForwardError(f"unknown correction kind {kind!r}")

    def lookup(self, pattern: tuple[int, ...]):
        for pat, action in self.entries:
            if pat == pattern:
                return action
        if self.default_reject:
            return REJECT
        raise FeedForwardError(f"outcome {pattern} missing from feed-forward table")

    @classmethod
    def build(cls, accept: Mapping[tuple[int, ...], Sequence[Correction]],
              default_reject: bool = True) -> "FeedForwardTable":
        entries = tuple((tuple(p), tuple(c)) for p, c in accept.items())
        return cls(entries, default_reject=default_reject)


@dataclass(slots=True)
class BranchRecord:
    pattern: tuple[int, ...]
    probability: float
    action: str  # "accept" or "reject"


def swap_hv(occ: Occupation, h_modes: Sequence[int], v_modes: Sequence[int]) -> Occupation:
    """Polarization flip: exchange paired H and V occupations (bins pair in canonical order)."""
    lst = list(occ)
    for hm, vm in zip(h_modes, v_modes):
        lst[hm], lst[vm] = lst[vm], lst[hm]
    return tuple(lst)


def _measure_row(registry: ModeRegistry, modes: Sequence[int], table: FeedForwardTable,
                 occupations: MeasureRows, occ: Occupation,
                 ) -> tuple[tuple[int, ...], int | None, bool, bool]:
    """The row of an output `occ` in a measurement step's `occupations`: its
    pattern on the detector's `modes`, the place in `occupations.outputs` of
    the occupation with those modes cleared and then the pattern's whole
    correction list applied (None for a rejected pattern, whose branch keeps
    no amplitude), whether the amplitude changes sign, and whether `table`
    accepts the pattern.  An outcome `table` cannot look up raises."""
    pattern = tuple([occ[m] for m in modes])
    action = table.lookup(pattern)
    if action == REJECT:
        return pattern, None, False, False
    cleared = list(occ)
    for m in modes:
        cleared[m] = 0
    out = tuple(cleared)
    negate = False
    for beam, kind in action:
        h_modes, v_modes = registry.hv_modes(beam)
        if kind in ("sign", "flip_sign") and sum(out[m] for m in v_modes) % 2 == 1:
            negate = not negate
        if kind in ("flip", "flip_sign"):
            out = swap_hv(out, h_modes, v_modes)
    _, index, outputs = occupations
    k = index.get(out)
    if k is None:
        k = index[out] = len(outputs)
        outputs.append([out, None])
    return pattern, k, negate, True


class MeasureRows(NamedTuple):
    """A measurement step's occupation table: `rows` maps an incoming
    occupation to its row through the step's unitary, ``((output index,
    amplitude), ...)``; `index` maps each output occupation those rows reach,
    and each corrected occupation of an accepted output, to its place in
    `outputs`, which holds, in first-seen order, ``[occupation, its row as
    an output (see `_measure_row`: pattern, place of the corrected
    occupation, sign, accept flag) or None]``, the row being filled once a
    run keeps an amplitude there.  The branches of a run key their
    amplitudes by place, so no occupation is hashed again.  It serves one
    unitary, detector and feed-forward table."""
    rows: dict[Occupation, tuple[tuple[int, complex], ...]]
    index: dict[Occupation, int]
    outputs: list[list]


FEEDFORWARD_CONSISTENCY_TOL = 1e-9


def measure_and_feedforward(state: PhotonicState, detector: DetectorSpec,
                            table: FeedForwardTable, unitary: ModeUnitary | None,
                            occupations: MeasureRows | None = None,
                            ) -> tuple[PhotonicState, float, list[BranchRecord]]:
    """Apply `unitary`, measure one beam, apply outcome-conditioned
    corrections, pool branches.

    `unitary` is what acts before the counting, compiled once by the caller:
    for a measurement right after a linear step, that step's product (with,
    for a +/- detector, the detector's plate after it; a `Circuit` folds
    them when it compiles a program), else the detector's
    `DetectorSpec.rotation`, or None for an H/V detector.  `occupations` is
    the step's `MeasureRows`.  Each term expands through its row into one
    amplitude per output; each output, once pruned, goes straight into its
    branch, so no rotated, uncorrected `PhotonicState` is built and no
    output that the pruning drops is looked up.  An output's pattern is
    looked up in `table` when its row is built, and the row carries the
    accept flag; a row whose lookup raises is never stored, so an unlisted
    outcome raises on every run.  Every branch keeps its squares, summed
    into its probability, and a rejected one nothing else.  Detected photons
    are consumed.  Corrected
    accepted branches, normalized, must agree amplitude by amplitude (to
    within `FEEDFORWARD_CONSISTENCY_TOL`); they are pooled with their
    outcome probabilities into one sub-normalized conditional state whose
    squared norm is the total acceptance probability times the incoming
    weight.  Only the pooled result is a `PhotonicState`.
    """
    reg = state.registry
    if unitary is None:
        if detector.basis != DetectorBasis.HV:
            raise EngineError(f"a detector in basis {detector.basis!r} needs its plate")
    elif unitary.registry != reg:
        raise EngineError("unitary acts on a different registry")

    occupations = MeasureRows({}, {}, []) if occupations is None else occupations
    rows, index, outputs = occupations
    values: dict[int, complex] = {}  # by output index, in first-reached order
    get = values.get
    for occ, amp in state.amps.items():
        row = rows.get(occ)
        if row is None:
            entries = []
            for full, t in ((occ, 1.0),) if unitary is None else _row(unitary.plan, occ):
                j = index.get(full)
                if j is None:
                    j = index[full] = len(outputs)
                    outputs.append([full, None])
                entries.append((j, t))
            row = rows[occ] = tuple(entries)
        for j, t in row:
            values[j] = get(j, 0.0) + amp * t

    # each pattern's squares, and an accepted one's corrected amplitudes by place
    branches: dict[tuple[int, ...], tuple[list[float], dict[int, complex] | None]] = {}
    squares: list[float] = []
    branch_of, add_square = branches.get, squares.append
    for j, a in values.items():
        if abs(a) < DEFAULT_PRUNE_EPS:  # as the state `apply_unitary` returns drops it
            continue
        square = a.real * a.real + a.imag * a.imag
        add_square(square)
        output = outputs[j]
        row = output[1]
        if row is None:
            row = output[1] = _measure_row(reg, reg.beam_modes(detector.beam), table,
                                           occupations, output[0])
        pattern, corrected, negate, accept = row
        branch = branch_of(pattern)
        if branch is None:
            branches[pattern] = ([square], {corrected: -a if negate else a} if accept else None)
            continue
        sq, amps = branch
        sq.append(square)
        if amps is not None:
            amps[corrected] = -a if negate else a
    n_in = float(sum(squares))  # `amplitudes_norm_sq` of the pruned output, in order
    if n_in <= 0.0:
        return PhotonicState(reg, {}, validate=False), 0.0, []

    records: list[BranchRecord] = []
    accepted: list[tuple[float, float, dict[int, complex]]] = []
    for pattern, (sq, amps) in sorted(branches.items()):  # the patterns differ
        norm_sq = float(sum(sq))  # `amplitudes_norm_sq` of the branch
        p_branch = norm_sq / n_in
        if amps is None:
            records.append(BranchRecord(pattern, p_branch, "reject"))
            continue
        records.append(BranchRecord(pattern, p_branch, "accept"))
        accepted.append((p_branch, math.sqrt(norm_sq), amps))

    if not accepted:
        return PhotonicState(reg, {}, validate=False), 0.0, records

    # linear in any disagreement, unlike comparing the pooled norm with p_total;
    # each amplitude is normalized and pruned as `PhotonicState.normalized` does
    # (every branch holds a stored amplitude, so no norm is zero)
    (_, norm, ref), *others = accepted
    ref_scale = 1.0 / norm
    deviation = 0.0
    for _, norm, amps in others:
        scale = 1.0 / norm
        for k in ref if amps.keys() == ref.keys() else amps.keys() | ref.keys():
            a = amps.get(k, 0.0) * scale
            b = ref.get(k, 0.0) * ref_scale
            d = abs((0.0 if abs(a) < DEFAULT_PRUNE_EPS else a)
                    - (0.0 if abs(b) < DEFAULT_PRUNE_EPS else b))
            if d > deviation:
                deviation = d
    if deviation > FEEDFORWARD_CONSISTENCY_TOL:
        raise FeedForwardError(
            "corrected branches disagree; feed-forward table does not make the "
            f"gate deterministic (amplitudes differ by {deviation:.3g})")

    p_total = sum([p for p, _, _ in accepted])
    pooled: dict[int, complex] = {}
    get = pooled.get
    for p_branch, norm, amps in accepted:
        w = p_branch / norm
        for k, a in amps.items():
            pooled[k] = get(k, 0.0) + w * a
    kept, squares = {}, []  # pruned as `PhotonicState` prunes, and the squares of the rest
    for k, a in pooled.items():
        if not abs(a) < DEFAULT_PRUNE_EPS:
            kept[k] = a
            squares.append(a.real * a.real + a.imag * a.imag)
    scale = math.sqrt(p_total * n_in) / math.sqrt(float(sum(squares)))
    return PhotonicState(reg, {outputs[k][0]: a * scale for k, a in kept.items()},
                         validate=False), p_total, records
