"""A folded post-selection expands only the photons it can keep.

The last linear step of a circuit that ends in a post-selection builds its
rows from columns without the forbidden modes (see `engine`).  On random
small circuits, each such row must be the uncut row filtered by the rules,
entry for entry and bit for bit; an occupation that two rules match must
still raise on every run; and a run cut at the folded linear stage must
still get every row.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from fredkinlab import engine
from fredkinlab.circuits import Circuit, Linear, PostSelect, run
from fredkinlab.elements import Bs, Hwp, ModeUnitary, Rot
from fredkinlab.engine import (
    EngineError, PostSelectionRule, StepTable, apply_unitary, post_select_any,
)
from fredkinlab.fock import PhotonicState, register_modes

#: the elements act on beams a and b; beam c is always passive
BEAMS = ("a", "b", "c")
MODE_REFS = [(beam, pol) for beam in BEAMS[:2] for pol in ("H", "V")]
N_MODES = 2 * len(BEAMS)


def _hex(t):
    return float(t.real).hex(), float(t.imag).hex()


def _bits(entries):
    return [(occ, _hex(t)) for occ, t in entries]


def _occupations(table, row):
    """`row` with each output number replaced by its occupation."""
    return [(table.outputs[j][0], t) for j, t in row]


@st.composite
def elements(draw):
    kind = draw(st.sampled_from(("bs", "rot", "hwp")))
    if kind == "hwp":
        return Hwp(draw(st.sampled_from(BEAMS[:2])), draw(st.floats(0.0, 180.0)))
    a, b = draw(st.lists(st.sampled_from(MODE_REFS), min_size=2, max_size=2, unique=True))
    if kind == "bs":
        return Bs(draw(st.floats(0.0, 1.0)), a, b)
    return Rot(draw(st.floats(-math.pi, math.pi)), a, b)


@st.composite
def rules(draw, n: int, kind: str):
    """A rule over 1-3 disjoint mode sets: every count 0 ("zero"), counts
    summing to the photon number `n` ("closed"), or any counts ("any")."""
    modes = draw(st.permutations(range(N_MODES)))[:draw(st.integers(1, N_MODES))]
    cuts = sorted(draw(st.sets(st.integers(1, len(modes) - 1), max_size=2))) \
        if len(modes) > 1 else []
    sets = [tuple(modes[i:j]) for i, j in zip([0, *cuts], [*cuts, len(modes)])]
    if kind == "zero":
        counts = [0] * len(sets)
    elif kind == "closed":
        counts = [0] * len(sets)
        for _ in range(n):
            counts[draw(st.integers(0, len(sets) - 1))] += 1
    else:
        counts = [draw(st.integers(0, 2)) for _ in sets]
    return PostSelectionRule(tuple(zip(sets, counts)))


@st.composite
def folded_circuits(draw):
    """A circuit of one linear stage and a post-selection, and an input
    state of 1-3 terms of n photons each, some of them in passive modes."""
    reg = register_modes(BEAMS)
    n = draw(st.integers(1, 3))
    kinds = draw(st.sampled_from([("zero",), ("closed",), ("any",), ("zero", "closed"),
                                  ("closed", "closed"), ("any", "any"), ("zero", "any")]))
    union = tuple(draw(rules(n, kind)) for kind in kinds)
    stages = (Linear(tuple(draw(st.lists(elements(), min_size=1, max_size=4)))),
              PostSelect(union))
    circuit = Circuit("folded", reg, n, (), (), stages)
    occupations = draw(st.lists(
        st.lists(st.integers(0, N_MODES - 1), min_size=n, max_size=n), min_size=1, max_size=3))
    amps = {}
    for photons in occupations:
        occ = [0] * N_MODES
        for m in photons:
            occ[m] += 1
        amps[tuple(occ)] = complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
    return circuit, PhotonicState(reg, amps), n


@settings(max_examples=150, deadline=None)
@given(folded_circuits())
def test_cut_rows_are_the_uncut_rows_that_the_post_selection_keeps(case):
    circuit, state, n = case
    (step,) = circuit.program(len(circuit.stages)).steps
    assert isinstance(step.table, StepTable) and step.table.cut
    rules = circuit.stages[-1].rules
    fresh = ModeUnitary(circuit.registry, step.unitary.matrix, check=False)
    uncut = StepTable.fresh()
    overlap = False
    for occ in state.amps:
        row = _occupations(uncut, engine._row(fresh, occ, uncut))
        if any(sum(rule.matches(out) for rule in rules) > 1 for out, _ in row):
            overlap = True
            with pytest.raises(EngineError, match="not disjoint"):
                engine._row(step.unitary, occ, step.table)
            continue
        expected = [e for e in row if any(rule.matches(e[0]) for rule in rules)]
        got = _occupations(step.table, engine._row(step.unitary, occ, step.table))
        assert _bits(got) == _bits(expected)

    if overlap:
        for _ in range(2):  # never stored, so it raises on every run
            with pytest.raises(EngineError, match="not disjoint"):
                run(circuit, state, expected_photons=n)
    else:
        kept, _ = post_select_any(apply_unitary(state, fresh), rules)
        for _ in range(2):  # cold, then from the tables
            got = run(circuit, state, expected_photons=n).state
            assert _bits(got.amps.items()) == _bits(kept.amps.items())

    # a run cut at the folded linear stage gets every row of its unitary
    through = run(circuit, state, upto=1, expected_photons=n).state
    assert _bits(through.amps.items()) == _bits(apply_unitary(state, fresh).amps.items())


def test_an_occupation_that_two_rules_match_raises_on_every_run():
    reg = register_modes(("a", "b"))
    one_in = tuple(PostSelectionRule.beam_counts(reg, {beam: 1}) for beam in ("a", "b"))
    circuit = Circuit("overlap", reg, 2, (), (), (Linear((Bs(0.5, "a", "b"),)), PostSelect(one_in)))
    # H in a and V in b: one photon in each beam survives the splitter, and both rules match it
    state = PhotonicState(reg, {(1, 0, 0, 1): 1.0})
    for _ in range(2):
        with pytest.raises(EngineError, match="not disjoint"):
            run(circuit, state)
    assert run(circuit, state, upto=1).state.norm_sq() == pytest.approx(1.0)
