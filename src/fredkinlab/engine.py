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

Every step is one kind: its unitary's rows (the identity's, for none) into
numbered outputs, then one action per output, worked out once: keep, drop,
go to another output (a flip), or go to a detector pattern's branch with a
corrected output and a sign (`StepTable`).  A term is its amplitude times
its row, summed per output in first-reached order; an output that the
pruning (1e-14) drops takes no action.  A `Circuit` folds a step with an
action into the linear step before it, and composes actions after a flip
(see `circuits.Program`).  Every detector counts the H and V photons of
its beam; counting in another basis is a wave plate in a linear stage
before it (for a +/- detector, a 22.5-degree plate).  All accepted branches
of the gates in scope carry the same conditional state, which is checked
amplitude by amplitude; a measurement hands on the first of them (the
lowest accepted pattern), scaled to the total acceptance probability.

An action that can raise (an outcome missing from a feed-forward table, a
flip whose control beam holds other than one photon) is worked out only
for an output that survives the pruning, and is never stored when it
raises, so it raises on every run and never for an amplitude that cancels.
A post-selection right after a unitary instead decides each output when a
row reaches it, so no row holds an output it drops.  A measurement alone in
its step leaves out of each row, before numbering them, the outputs whose
pattern its table surely rejects (`rejection`); an unlisted pattern without
a default stays, so it raises only for an amplitude that survives the
pruning.  A measurement records accepted patterns only, and takes the
incoming weight from the state it is given, which its unitary keeps.

Those rows expand only the photons the post-selection can keep.  For an
occupation of N photons, mode m is forbidden when every rule of the union
excludes a photon there: m lies in one of the rule's sets with count 0, or
the rule's counts sum to N and m lies in none of its sets.  The folded step
builds its transfer rows from the unitary's columns without the forbidden
modes, cut once per N (`_cut_columns`), and the rules still decide every
output.  This is exact: a monomial with no forbidden photon can only be
built from partial monomials with none, so it gets the same products, added
in the same order, and the surviving keys keep their order of first
insertion; `ROW_EPS` and the factorial scaling act per entry, so every kept
row is the uncut row cut down to the outputs the rules keep.  An occupation
that two rules match holds no forbidden photon, so it is still built and
still raises on every run.  The cut rows live in the step's table, so a run
cut at that linear stage still gets every row.

Every step works on a `fock.NumberedState`: amplitudes keyed by the
numbers that its table's `fock.Numbering` gives their occupations, so a
step finds each term's row, and each output's action, by number, and an
occupation is hashed only when it is first numbered.  A `Circuit` gives all
its tables one numbering, so a number means one occupation in every step
and every cut program, and a run hands each step's numbered output to the
next as it is (a measurement's first accepted branch and an ancilla
injection included) and builds one `PhotonicState`, at the end.  Given a
`PhotonicState`, `apply_unitary`, `measure_and_feedforward` and
`post_select_any` number it on entry and return a `PhotonicState`, around
the same core; a numbered state must share its table's numbering.

A `Circuit` keeps its tables across runs, so the inputs of a sweep or a
process map share per-occupation work while each input stays its own run;
the factors are used in the same order, so results are bit-identical.  A
step called without a table works with a fresh one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .elements import ModePlan, ModeUnitary
from .fock import (
    DEFAULT_PRUNE_EPS,
    ModeRegistry,
    NumberedState,
    Numbering,
    Occupation,
    PhotonicState,
    pruned,
)

_FACTORIALS = [math.factorial(n) for n in range(21)]


class EngineError(ValueError):
    pass


class PhotonNumberMismatch(EngineError):
    pass


class FeedForwardError(EngineError):
    pass


def need_tuple(value, what: str, error: type[ValueError] = EngineError) -> None:
    """Refuse a list, or any other sequence, where a circuit file reads back
    a tuple, so that every circuit reads back from its file as an equal one."""
    if not isinstance(value, tuple):
        raise error(f"{what} must be a tuple, not {type(value).__name__}")


def _keep(occ: Occupation) -> Occupation:
    """The action that keeps each output where it is."""
    return occ


class StepTable(NamedTuple):
    """A step's occupation table over `numbering`, which numbers every
    output and every occupation an action sends one to: `rows` maps an
    incoming occupation's number to ``((output number, amplitude), ...)``,
    and `actions` an output's number, once worked out, to its action: an
    output number, `DROP`, or ``(pattern, corrected output number or None,
    sign flip)``.  `act` works it out from the occupation (returning
    occupations, not numbers; by default it keeps each output).  `cut`
    holds the rules of a post-selection right after the unitary, `cuts`
    their columns and transfer rows by photon number (see `_cut_columns`).
    `rejects`, for a measurement that is its step's only action, tells an
    output whose pattern the measurement's table surely rejects (see
    `rejection`); no row holds such an output."""
    numbering: Numbering
    rows: dict[int, tuple[tuple[int, complex], ...]]
    actions: dict[int, object]
    act: Callable[[Occupation], object]
    cut: tuple[PostSelectionRule, ...]
    cuts: dict[int, tuple[tuple, dict]]
    rejects: Callable[[Occupation], bool] | None

    @classmethod
    def fresh(cls, act: Callable[[Occupation], object] = _keep,
              cut: Sequence[PostSelectionRule] = (),
              numbering: Numbering | None = None,
              rejects: Callable[[Occupation], bool] | None = None) -> "StepTable":
        return cls(Numbering() if numbering is None else numbering, {}, {}, act, tuple(cut), {},
                   rejects)


#: the action of an output a post-selection drops
DROP = -1


def _table(state: PhotonicState | NumberedState, table: StepTable | None,
           act: Callable[[Occupation], object] = _keep,
           rejects: Callable[[Occupation], bool] | None = None,
           ) -> tuple[NumberedState, StepTable]:
    """`state` numbered in the numbering of `table`, and `table`, by default
    a fresh one of `act` and `rejects`: a `PhotonicState` is numbered at the
    boundary, a numbered state must already share the numbering."""
    if isinstance(state, PhotonicState):
        table = StepTable.fresh(act, rejects=rejects) if table is None else table
        return NumberedState.of(state, table.numbering), table
    if table is None:
        return state, StepTable.fresh(act, numbering=state.numbering, rejects=rejects)
    if state.numbering is not table.numbering:
        raise EngineError("state and step table number occupations differently")
    return state, table


def apply_unitary(state: PhotonicState | NumberedState, u: ModeUnitary | None,
                  table: StepTable | None = None) -> PhotonicState | NumberedState:
    """Evolve a state through a mode unitary (the identity for None), then
    keep, drop or move each output by the `act` of `table`, the step's
    occupation table; without one, every output is kept.  The result has
    the form of `state`."""
    if u is not None and u.registry != state.registry:
        raise EngineError("unitary acts on a different registry")
    numbered, table = _table(state, table)
    out = _apply(numbered, u, table)
    return out if numbered is state else out.state()


def _apply(state: NumberedState, u: ModeUnitary | None, table: StepTable) -> NumberedState:
    actions, out = table.actions, {}
    for j, a in _outputs(state, u, table).items():
        if not abs(a) < DEFAULT_PRUNE_EPS:
            k = actions.get(j)
            if k is None:
                k = _moved(table, j)
            if k != DROP:  # no two outputs go to one place, so none adds up
                out[k] = a
    return NumberedState(state.registry, out, table.numbering)


def _outputs(state: NumberedState, u: ModeUnitary | None, table: StepTable) -> dict[int, complex]:
    """Each output's amplitude by number, in first-reached order."""
    rows, occupations = table.rows, table.numbering.occupations
    values: dict[int, complex] = {}
    get = values.get
    for i, amp in state.amps.items():
        row = rows.get(i)
        if row is None:
            row = rows[i] = _row(u, occupations[i], table)
        for j, t in row:
            values[j] = get(j, 0.0) + amp * t
    return values


def _moved(table: StepTable, j: int) -> int:
    """The action of output number `j`, worked out on first sight: the
    number it goes to, or `DROP`."""
    k = table.actions.get(j)
    if k is None:
        to = table.act(table.numbering.occupations[j])
        k = table.actions[j] = DROP if to is None else table.numbering.number(to)
    return k


def _row(u: ModeUnitary | None, occ: Occupation, table: StepTable,
         ) -> tuple[tuple[int, complex], ...]:
    """The row of `occ` through `u`, ``((output number, amplitude), ...)``,
    from the transfer row of its active-mode occupation; with `table.cut`,
    from the columns cut for its photon number and without the outputs the
    post-selection drops, each decided here; with `table.rejects`, without
    the outputs the measurement surely rejects, each left out before it is
    numbered."""
    number, rejects = table.numbering.number, table.rejects
    if u is None:
        outs = ((occ, 1.0),)
    else:
        _, cols, rows, take, splice = u.plan
        active_in = take(occ)
        if table.cut:
            n = sum(occ)
            cut = table.cuts.get(n)
            if cut is None:
                cut = table.cuts[n] = (_cut_columns(u.plan, table.cut, n), {})
            cols, rows = cut
        active_row = rows.get(active_in)
        if active_row is None:
            active_row = rows[active_in] = _transfer_row(cols, active_in)
        outs = [(splice(occ + key), t) for key, t in active_row]
    row = [(number(out), t) for out, t in outs if rejects is None or not rejects(out)]
    if table.cut:
        return tuple([e for e in row if _moved(table, e[0]) != DROP])
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
        need_tuple(self.constraints, "the constraints of a post-selection rule")
        seen: set[int] = set()
        for constraint in self.constraints:
            need_tuple(constraint, "a constraint of a post-selection rule")
            modes, count = constraint
            need_tuple(modes, "the modes of a constraint")
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


def selection(rules: Sequence[PostSelectionRule]) -> Callable[[Occupation], Occupation | None]:
    """The action of a post-selection on the union of disjoint `rules`: keep
    an output one rule matches, drop one that none does.  An output that
    two rules match raises, since the union is not disjoint."""
    def select(occ: Occupation) -> Occupation | None:
        kept = None
        for rule in rules:
            if rule.matches(occ):
                if kept is not None:
                    raise EngineError("post-selection rule union is not disjoint")
                kept = occ
        return kept
    return select


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


def post_select_any(state: PhotonicState | NumberedState, rules: Sequence[PostSelectionRule],
                    table: StepTable | None = None,
                    ) -> tuple[PhotonicState | NumberedState, float]:
    """Keep the occupation states matched by a union of disjoint conjunctive
    rules (e.g. equal-time-bin coincidence); a single rule is a 1-tuple.

    Returns the surviving terms, their amplitudes unchanged, and their
    probability (squared surviving norm relative to the input norm).  A zero
    survivor is an empty state with probability 0, not an error.  `table`
    is the step's occupation table, whose `act` ends in this post-selection;
    by default a fresh one of `selection` (rules).  The surviving terms have
    the form of `state`.
    """
    numbered, table = _table(state, table, selection(rules) if table is None else table.act)
    survived = _apply(numbered, None, table)
    n_in = numbered.norm_sq()
    p = survived.norm_sq() / n_in if n_in > 0 else 0.0
    return (survived if numbered is state else survived.state()), p


# -- measurement with feed-forward -------------------------------------------


REJECT = "reject"

#: correction kinds applicable to a beam: "flip" swaps H and V occupations,
#: "sign" multiplies by (-1)^(V photons); a pattern's corrections apply in
#: their listed order.
Correction = tuple[str, str]


@dataclass(frozen=True)
class FeedForwardTable:
    """Map detector outcome pattern -> accepted corrections or rejection.

    A pattern counts the detector beam's photons mode by mode in canonical
    order (H before V).  Unlisted patterns are rejected when
    `default_reject` is set; otherwise a nonzero-probability unlisted
    outcome is an error.
    """
    entries: tuple[tuple[tuple[int, ...], tuple[Correction, ...] | str], ...]
    default_reject: bool = True

    def __post_init__(self):
        need_tuple(self.entries, "the entries of a feed-forward table")
        seen: set[tuple[int, ...]] = set()
        for entry in self.entries:
            need_tuple(entry, "an entry of a feed-forward table")
            pattern, action = entry
            need_tuple(pattern, "an outcome pattern")
            if pattern in seen:
                raise EngineError(f"outcome {pattern} is listed twice in a feed-forward table")
            seen.add(pattern)
            if action == REJECT:
                continue
            need_tuple(action, "the corrections of an outcome")
            for correction in action:
                need_tuple(correction, "a correction")
                _, kind = correction
                if kind not in ("flip", "sign"):
                    raise FeedForwardError(f"unknown correction kind {kind!r}")

    def lookup(self, pattern: tuple[int, ...]):
        for pat, action in self.entries:
            if pat == pattern:
                return action
        if self.default_reject:
            return REJECT
        raise FeedForwardError(f"outcome {pattern} missing from feed-forward table")

    def rejects(self, pattern: tuple[int, ...]) -> bool:
        """Whether `lookup` surely rejects `pattern`: it is listed as
        rejected, or unlisted under `default_reject`.  It never raises."""
        for pat, action in self.entries:
            if pat == pattern:
                return action == REJECT
        return self.default_reject

    @classmethod
    def build(cls, accept: Mapping[tuple[int, ...], Sequence[Correction]],
              default_reject: bool = True) -> "FeedForwardTable":
        entries = tuple((tuple(p), tuple(map(tuple, c))) for p, c in accept.items())
        return cls(entries, default_reject=default_reject)


@dataclass(slots=True)
class BranchRecord:
    """An accepted detector pattern of one measurement and its probability,
    relative to the weight that entered the measurement.  A rejected
    pattern is not recorded, so `action` is always "accept"."""
    pattern: tuple[int, ...]
    probability: float
    action: str


def swap_hv(occ: Occupation, h_modes: Sequence[int], v_modes: Sequence[int]) -> Occupation:
    """Polarization flip: exchange paired H and V occupations (bins pair in canonical order)."""
    lst = list(occ)
    for hm, vm in zip(h_modes, v_modes):
        lst[hm], lst[vm] = lst[vm], lst[hm]
    return tuple(lst)


def detection(registry: ModeRegistry, beam: str, table: FeedForwardTable,
              ) -> Callable[[Occupation], tuple[tuple[int, ...], Occupation | None, bool]]:
    """The action of H/V counting of `beam` on an output: its pattern on
    the beam's modes, the occupation with those modes cleared and the
    pattern's corrections applied (None if `table` rejects the pattern),
    and whether the sign flips.  An outcome `table` cannot look up raises."""
    modes = registry.beam_modes(beam)

    def detect(occ: Occupation) -> tuple[tuple[int, ...], Occupation | None, bool]:
        pattern = tuple([occ[m] for m in modes])
        action = table.lookup(pattern)
        if action == REJECT:
            return pattern, None, False
        cleared = list(occ)
        for m in modes:
            cleared[m] = 0
        out = tuple(cleared)
        negate = False
        for corrected, kind in action:
            h_modes, v_modes = registry.hv_modes(corrected)
            if kind == "flip":
                out = swap_hv(out, h_modes, v_modes)
            elif sum(out[m] for m in v_modes) % 2 == 1:
                negate = not negate
        return pattern, out, negate
    return detect


def rejection(registry: ModeRegistry, beam: str, table: FeedForwardTable,
              ) -> Callable[[Occupation], bool]:
    """Whether `table` surely rejects the pattern of H/V counting of `beam`
    in an output (`FeedForwardTable.rejects`): the measurement's drop when
    it is its step's only action, so that its rows hold no such output."""
    modes, rejects = registry.beam_modes(beam), table.rejects
    return lambda occ: rejects(tuple([occ[m] for m in modes]))


FEEDFORWARD_CONSISTENCY_TOL = 1e-9


def measure_and_feedforward(state: PhotonicState | NumberedState, beam: str,
                            table: FeedForwardTable, unitary: ModeUnitary | None,
                            occupations: StepTable | None = None,
                            ) -> tuple[PhotonicState | NumberedState, float, list[BranchRecord]]:
    """Apply `unitary`, count the H and V photons of `beam`, apply
    outcome-conditioned corrections, hand on the first accepted branch.

    `unitary` is what acts before the counting, compiled once by the caller:
    for a measurement right after a linear step, that step's product (a
    `Circuit` folds them when it compiles a program), else None.
    `occupations` is the step's `StepTable`, whose `act` ends in this
    measurement's `detection`; by default a fresh one, whose rows leave out
    every output whose pattern `table` surely rejects (`rejection`).  Each
    term expands through its row into one amplitude per output; each
    output, once pruned, goes straight into its branch, so no evolved,
    uncorrected `PhotonicState` is built.  A rejected output that a row
    still holds (its table has no `rejects`) is passed over.  Each accepted
    branch keeps its squares, summed into its probability relative to the
    squared norm of `state`, which `unitary` keeps; the records list the
    accepted patterns only, in pattern order.  Detected photons are
    consumed.  Corrected accepted branches, normalized, must agree
    amplitude by amplitude (to within `FEEDFORWARD_CONSISTENCY_TOL`).  The
    result is the first of them, that of the lowest accepted pattern, scaled
    so that its squared norm is the total acceptance probability times the
    incoming weight, and pruned; it has the form of `state`.
    """
    reg = state.registry
    if unitary is not None and unitary.registry != reg:
        raise EngineError("unitary acts on a different registry")

    if occupations is None:
        numbered, occupations = _table(
            state, None, detection(reg, beam, table), rejection(reg, beam, table))
    else:
        numbered, occupations = _table(state, occupations)
    result = _measure(numbered, unitary, occupations)
    return result if numbered is state else (result[0].state(), *result[1:])


def _measure(state: NumberedState, unitary: ModeUnitary | None, occupations: StepTable,
             ) -> tuple[NumberedState, float, list[BranchRecord]]:
    reg, numbering = state.registry, occupations.numbering
    values, actions = _outputs(state, unitary, occupations), occupations.actions
    # each accepted pattern's squares and corrected amplitudes by place
    branches: dict[tuple[int, ...], tuple[list[float], dict[int, complex]]] = {}
    branch_of = branches.get
    for j, a in values.items():
        if abs(a) < DEFAULT_PRUNE_EPS:  # as the state `apply_unitary` returns drops it
            continue
        action = actions.get(j)
        if action is None:
            pattern, corrected, negate = occupations.act(numbering.occupations[j])
            action = actions[j] = (
                pattern, None if corrected is None else numbering.number(corrected), negate)
        pattern, corrected, negate = action
        if corrected is None:  # rejected, where the rows do not leave it out
            continue
        square = a.real * a.real + a.imag * a.imag
        branch = branch_of(pattern)
        if branch is None:
            branches[pattern] = ([square], {corrected: -a if negate else a})
            continue
        sq, amps = branch
        sq.append(square)
        amps[corrected] = -a if negate else a
    if not branches:
        return NumberedState(reg, {}, numbering), 0.0, []
    n_in = state.norm_sq()  # the incoming weight, which `unitary` keeps

    records: list[BranchRecord] = []
    accepted: list[tuple[float, float, dict[int, complex]]] = []
    for pattern, (sq, amps) in sorted(branches.items()):  # the patterns differ
        norm_sq = float(sum(sq))  # `amplitudes_norm_sq` of the branch
        p_branch = norm_sq / n_in
        records.append(BranchRecord(pattern, p_branch, "accept"))
        accepted.append((p_branch, math.sqrt(norm_sq), amps))

    # amplitude by amplitude, so linear in any disagreement; each amplitude is
    # normalized and pruned as `PhotonicState.normalized` does (every branch
    # holds a stored amplitude, so no norm is zero)
    (_, first_norm, first), *others = accepted
    first_scale = 1.0 / first_norm
    deviation = 0.0
    for _, norm, amps in others:
        scale = 1.0 / norm
        for k in first if amps.keys() == first.keys() else amps.keys() | first.keys():
            a = amps.get(k, 0.0) * scale
            b = first.get(k, 0.0) * first_scale
            d = abs((0.0 if abs(a) < DEFAULT_PRUNE_EPS else a)
                    - (0.0 if abs(b) < DEFAULT_PRUNE_EPS else b))
            if d > deviation:
                deviation = d
    if deviation > FEEDFORWARD_CONSISTENCY_TOL:
        raise FeedForwardError(
            "corrected branches disagree; feed-forward table does not make the "
            f"gate deterministic (amplitudes differ by {deviation:.3g})")

    p_total = sum([p for p, _, _ in accepted])
    scale = math.sqrt(p_total * n_in) / first_norm
    return NumberedState(reg, pruned({k: a * scale for k, a in first.items()}), numbering), \
        p_total, records
