import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fredkinlab import (
    DEFAULT_PRUNE_EPS,
    EngineError,
    FeedForwardError,
    FeedForwardTable,
    Hwp,
    ModeUnitary,
    PhotonNumberMismatch,
    PhotonicState,
    PostSelectionRule,
    apply_unitary,
    compose,
    measure_and_feedforward,
    post_select_any,
    register_modes,
    ryser_permanent,
    transition_amplitude_oracle,
)
from fredkinlab.catalog import CATALOG, get_gate
from conftest import haar_unitary

S2 = 1 / math.sqrt(2)


def brute_force_permanent(m: np.ndarray) -> complex:
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    return sum(
        np.prod([m[i, p[i]] for i in range(n)])
        for p in itertools.permutations(range(n))
    )


# -- permanent ----------------------------------------------------------------

def test_ryser_matches_brute_force(rng):
    for n in range(0, 6):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert ryser_permanent(m) == pytest.approx(brute_force_permanent(m), abs=1e-10)


def test_ryser_known_values():
    assert ryser_permanent(np.eye(3)) == pytest.approx(1.0)
    assert ryser_permanent(np.ones((3, 3))) == pytest.approx(6.0)


# -- transition amplitude oracle ------------------------------------------------

def test_oracle_identity_diagonal():
    reg = register_modes(["a", "b"])
    u = ModeUnitary.identity(reg)
    assert transition_amplitude_oracle(u, (1, 0, 2, 0), (1, 0, 2, 0)) == pytest.approx(1.0)
    assert transition_amplitude_oracle(u, (1, 0, 2, 0), (0, 1, 2, 0)) == pytest.approx(0.0)


def test_oracle_hom_dip():
    # balanced splitter: coincidence amplitude is the permanent of
    # [[1/sqrt2, 1/sqrt2], [1/sqrt2, -1/sqrt2]], which vanishes
    m = np.array([[S2, S2], [S2, -S2]])
    assert transition_amplitude_oracle(m, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert transition_amplitude_oracle(m, (1, 1), (2, 0)) == pytest.approx(S2)
    assert transition_amplitude_oracle(m, (1, 1), (0, 2)) == pytest.approx(-S2)


def test_oracle_photon_number_mismatch():
    m = np.eye(2)
    assert transition_amplitude_oracle(m, (1, 0), (1, 1)) == 0.0
    with pytest.raises(PhotonNumberMismatch):
        transition_amplitude_oracle(m, (1, 0), (1, 1), strict=True)


def test_apply_unitary_matches_oracle_random(rng):
    # engine amplitudes against the independent permanent route
    for trial in range(30):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        u = haar_unitary(m, rng)
        occ_in = [0] * m
        for _ in range(n):
            occ_in[int(rng.integers(0, m))] += 1
        occ_in = tuple(occ_in)
        beams = [f"b{i}" for i in range((m + 1) // 2)]
        reg = register_modes(beams)
        full = np.eye(reg.size, dtype=complex)
        full[:m, :m] = u
        mu = ModeUnitary(reg, full)
        state = PhotonicState.from_occupation(reg, occ_in + (0,) * (reg.size - m))
        out = apply_unitary(state, mu)
        assert abs(out.norm_sq() - 1.0) < 1e-12
        for occ_out, amp in out.items():
            oracle = transition_amplitude_oracle(mu, state_occ(occ_in, reg.size), occ_out)
            assert amp == pytest.approx(oracle, abs=1e-10)


@st.composite
def subset_unitary_and_state(draw):
    """A Haar unitary on a random subset of modes (identity elsewhere) and a
    multi-term input of at most 4 photons per term over at most 8 modes; the
    first term bunches two photons in a mode the unitary does not touch."""
    reg = register_modes([f"b{i}" for i in range(draw(st.integers(1, 4)))])
    m = reg.size
    active = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1)))
    passive = [i for i in range(m) if i not in active]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    full = np.eye(m, dtype=complex)
    full[np.ix_(active, active)] = haar_unitary(len(active), rng)
    modes = st.integers(0, m - 1)
    terms = [[draw(st.sampled_from(passive))] * 2 + draw(st.lists(modes, max_size=2))]
    terms += draw(st.lists(st.lists(modes, min_size=1, max_size=4), max_size=3))
    amps = {}
    for photons in terms:
        occ = [0] * m
        for i in photons:
            occ[i] += 1
        amps[tuple(occ)] = complex(rng.normal(), rng.normal())
    return ModeUnitary(reg, full), active, PhotonicState(reg, amps)


@settings(max_examples=60, deadline=None)
@given(subset_unitary_and_state())
def test_apply_unitary_matches_oracle_on_mode_subsets(case):
    # every output occupation, present or not, against the permanent route
    mu, active, state = case
    assert mu.plan.modes == tuple(active)
    m = state.registry.size
    out = apply_unitary(state, mu)
    for n in {sum(occ) for occ in state.amps}:
        for photons in itertools.combinations_with_replacement(range(m), n):
            occ_out = tuple(photons.count(i) for i in range(m))
            want = sum(a * transition_amplitude_oracle(mu, occ_in, occ_out)
                       for occ_in, a in state.amps.items())
            assert abs(out.amps.get(occ_out, 0.0) - want) <= 1e-10


def full_length_expansion(state, u):
    """The expansion over every mode's column, passive ones included, term by
    term: the reference for the engine's cached transfer rows."""
    m = state.registry.size
    mat = u.matrix

    def norm(occ):
        return math.sqrt(math.prod(math.factorial(n) for n in occ))

    out = {}
    for occ, amp in state.amps.items():
        poly = {(0,) * m: amp / norm(occ)}
        for i, n in enumerate(occ):
            col = [(j, complex(mat[j, i])) for j in range(m) if mat[j, i] != 0.0]
            for _ in range(n):
                nxt = {}
                for key, c in poly.items():
                    for j, uji in col:
                        k2 = list(key)
                        k2[j] += 1
                        k2 = tuple(k2)
                        nxt[k2] = nxt.get(k2, 0.0) + c * uji
                poly = nxt
        for key, c in poly.items():
            out[key] = out.get(key, 0.0) + c * norm(key)
    return PhotonicState(state.registry, out, validate=False)


def random_terms(registry, rng):
    """Four random terms of 1-4 photons anywhere in the registry."""
    m = registry.size
    amps = {}
    for _ in range(4):
        occ = [0] * m
        for i in rng.integers(0, m, size=rng.integers(1, 5)):
            occ[i] += 1
        amps[tuple(occ)] = complex(rng.normal(), rng.normal())
    return PhotonicState(registry, amps)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_apply_unitary_equals_full_length_expansion(name, rng):
    # same terms in the same order; amplitudes to rounding, since a row is
    # expanded once at unit amplitude and then scaled by each term's amplitude
    circuit = get_gate(name).build()
    for u in filter(None, circuit.unitaries):
        state = random_terms(circuit.registry, rng)
        got = list(apply_unitary(state, u).amps.items())
        want = list(full_length_expansion(state, u).amps.items())
        assert [k for k, _ in got] == [k for k, _ in want]
        assert max(abs(a - b) for (_, a), (_, b) in zip(got, want)) <= 1e-14


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_apply_unitary_cold_and_warm_rows_agree_exactly(name, rng):
    # rows cached by earlier calls, on other terms, give what fresh rows give
    circuit = get_gate(name).build()
    for u in filter(None, circuit.unitaries):
        state = random_terms(circuit.registry, rng)
        cold = apply_unitary(state, ModeUnitary(circuit.registry, u.matrix, check=False))
        apply_unitary(random_terms(circuit.registry, rng), u)
        for _ in range(2):
            assert list(apply_unitary(state, u).amps.items()) == list(cold.amps.items())


def state_occ(occ, size):
    return tuple(occ) + (0,) * (size - len(occ))


def test_apply_unitary_identity_fixes_state(rng):
    reg = register_modes(["a", "b"])
    s = PhotonicState(reg, {(1, 0, 1, 0): S2, (0, 1, 0, 1): S2 * 1j})
    out = apply_unitary(s, ModeUnitary.identity(reg))
    assert out.amps == s.amps


def test_apply_unitary_preserves_norm_100_random(rng):
    reg = register_modes(["a", "b", "c"])
    m = reg.size
    for _ in range(100):
        u = ModeUnitary(reg, haar_unitary(m, rng))
        occ = tuple(int(x) for x in rng.integers(0, 2, size=m))
        if sum(occ) == 0:
            occ = (1,) + occ[1:]
        s = PhotonicState.from_occupation(reg, occ)
        assert abs(apply_unitary(s, u).norm_sq() - 1.0) < 1e-12


def test_apply_unitary_registry_mismatch():
    reg_a = register_modes(["a"])
    reg_b = register_modes(["b"])
    s = PhotonicState.from_occupation(reg_a, (1, 0))
    with pytest.raises(EngineError):
        apply_unitary(s, ModeUnitary.identity(reg_b))


def test_photon_number_conserved_by_linear_stage(rng):
    reg = register_modes(["a", "b"])
    u = ModeUnitary(reg, haar_unitary(reg.size, rng))
    s = PhotonicState.from_occupation(reg, (2, 1, 0, 0))
    out = apply_unitary(s, u)
    assert out.photon_numbers() == {3}


# -- post-selection ---------------------------------------------------------------

def test_post_select_single_mode():
    reg = register_modes(["a"])
    s = PhotonicState(reg, {(1, 0): S2, (0, 1): S2})
    rule = PostSelectionRule.mode_counts(reg, [((0,), 1)])
    kept, p = post_select_any(s, (rule,))
    assert p == pytest.approx(0.5)
    assert kept.amps.keys() == {(1, 0)}


def test_post_select_impossible_count_gives_zero():
    reg = register_modes(["a"])
    s = PhotonicState.from_occupation(reg, (1, 0))
    rule = PostSelectionRule.mode_counts(reg, [((0,), 2)])
    kept, p = post_select_any(s, (rule,))
    assert p == 0.0
    assert len(kept) == 0


def test_post_select_composition_equals_conjunction(rng):
    reg = register_modes(["a", "b"])
    amps = {}
    for occ in itertools.product(range(2), repeat=4):
        amps[occ] = rng.normal() + 1j * rng.normal()
    s = PhotonicState(reg, amps).normalized()
    rule_a = PostSelectionRule.mode_counts(reg, [((0,), 1)])
    rule_b = PostSelectionRule.mode_counts(reg, [((2,), 0)])
    rule_ab = PostSelectionRule.mode_counts(reg, [((0,), 1), ((2,), 0)])
    s1, p1 = post_select_any(s, (rule_a,))
    s2, p2 = post_select_any(s1, (rule_b,))
    s12, p12 = post_select_any(s, (rule_ab,))
    assert p1 * p2 == pytest.approx(p12, abs=1e-12)
    assert s2.amps.keys() == s12.amps.keys()
    for k in s2.amps:
        assert s2.amps[k] == pytest.approx(s12.amps[k])


def test_post_select_rules_must_be_disjoint():
    reg = register_modes(["a"])
    with pytest.raises(EngineError):
        PostSelectionRule.mode_counts(reg, [((0,), 1), ((0, 1), 1)])


def test_post_select_any_union():
    reg = register_modes(["a"])
    s = PhotonicState(reg, {(1, 0): 0.6, (0, 1): 0.8})
    r1 = PostSelectionRule.mode_counts(reg, [((0,), 1), ((1,), 0)])
    r2 = PostSelectionRule.mode_counts(reg, [((0,), 0), ((1,), 1)])
    kept, p = post_select_any(s, [r1, r2])
    assert p == pytest.approx(1.0)
    assert kept.amps.keys() == {(1, 0), (0, 1)}


def test_pruning_soundness():
    # an amplitude below the pruning constant is dropped, and a post-selected
    # probability moves by no more than its square
    reg = register_modes(["a"])
    small = DEFAULT_PRUNE_EPS / 2
    state = PhotonicState(reg, {(1, 0): math.sqrt(1 - small ** 2), (0, 1): small})
    assert state.amps.keys() == {(1, 0)}
    for modes, p_exact in (((0,), 1 - small ** 2), ((1,), small ** 2)):
        _, p = post_select_any(state, (PostSelectionRule.mode_counts(reg, [(modes, 1)]),))
        assert abs(p - p_exact) <= DEFAULT_PRUNE_EPS ** 2


# -- measurement and feed-forward ---------------------------------------------------

def test_measure_bell_pair_hv():
    reg = register_modes(["a", "b"])
    bell = PhotonicState(reg, {(1, 0, 1, 0): S2, (0, 1, 0, 1): S2})
    table = FeedForwardTable.build({(1, 0): [], (0, 1): [("b", "flip")]})
    out, p, log = measure_and_feedforward(bell, "a", table, None)
    assert p == pytest.approx(1.0)
    # H outcome leaves H_b, V outcome flips V_b to H_b: branches agree
    assert out.amps.keys() == {(0, 0, 1, 0)}
    assert {r.action for r in log} == {"accept"}
    assert sum(r.probability for r in log) == pytest.approx(1.0)


def test_measure_branch_probabilities_sum_to_one(rng):
    reg = register_modes(["a", "b"])
    amps = {}
    for occ in [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)]:
        amps[occ] = rng.normal() + 1j * rng.normal()
    s = PhotonicState(reg, amps).normalized()
    table = FeedForwardTable.build({})  # reject everything
    out, p, log = measure_and_feedforward(s, "a", table, None)
    assert p == 0.0
    assert sum(r.probability for r in log) == pytest.approx(1.0, abs=1e-12)


def test_measure_plus_minus_basis():
    # |+>_a counted in the +/- basis, a 22.5-degree plate then H/V counting,
    # clicks "+" (H slot) with certainty
    reg = register_modes(["a"])
    plus = PhotonicState(reg, {(1, 0): S2, (0, 1): S2})
    table = FeedForwardTable.build({(1, 0): []})
    out, p, _ = measure_and_feedforward(plus, "a", table, compose(reg, (Hwp("a", 22.5),)))
    assert p == pytest.approx(1.0)


def test_measure_rejected_outcomes_excluded():
    reg = register_modes(["a", "b"])
    s = PhotonicState(reg, {(1, 0, 1, 0): S2, (0, 0, 1, 1): S2})  # second: nothing at a
    table = FeedForwardTable.build({(1, 0): []})  # the (0,0) branch rejected by default
    out, p, _ = measure_and_feedforward(s, "a", table, None)
    assert p == pytest.approx(0.5)


def test_measure_missing_outcome_without_default_raises():
    reg = register_modes(["a"])
    s = PhotonicState.from_occupation(reg, (1, 0))
    table = FeedForwardTable(entries=(), default_reject=False)
    with pytest.raises(FeedForwardError):
        measure_and_feedforward(s, "a", table, None)


def test_measure_inconsistent_corrections_raise():
    # branches that remain different states after "correction" must be refused
    reg = register_modes(["a", "b"])
    bell = PhotonicState(reg, {(1, 0, 1, 0): S2, (0, 1, 0, 1): S2})
    table = FeedForwardTable.build({(1, 0): [], (0, 1): []})  # no flip: H_b vs V_b
    with pytest.raises(FeedForwardError):
        measure_and_feedforward(bell, "a", table, None)


def test_measure_consumes_detected_photons():
    reg = register_modes(["a", "b"])
    s = PhotonicState.from_occupation(reg, (1, 0, 1, 0))
    table = FeedForwardTable.build({(1, 0): []})
    out, p, _ = measure_and_feedforward(s, "a", table, None)
    assert out.photon_numbers() == {1}


def test_measure_branches_a_small_rotation_apart_raise():
    # after correction the branches differ by a 1e-6 rotation of beam b; the
    # norm of their probability-weighted sum differs from the sum of branch
    # weights only by ~1e-13
    reg = register_modes(["a", "b"])
    d = 1e-6
    s = PhotonicState(reg, {(1, 0, 1, 0): S2 * math.cos(d), (1, 0, 0, 1): S2 * math.sin(d),
                            (0, 1, 0, 1): S2})
    table = FeedForwardTable.build({(1, 0): [], (0, 1): [("b", "flip")]})
    with pytest.raises(FeedForwardError, match="differ by 1e-06"):
        measure_and_feedforward(s, "a", table, None)


def test_measure_hands_on_the_lowest_accepted_branch():
    # the corrected branches agree only to ~1e-11, inside the consistency
    # tolerance: the output is the lowest accepted pattern's branch, scaled,
    # and no mixture of the two
    from fredkinlab.engine import BranchRecord

    reg = register_modes(["a", "b"])
    d = 1e-11
    a1, a2, a3 = 0.6 * math.cos(d), 0.6 * math.sin(d), 0.8
    s = PhotonicState(reg, {(0, 1, 0, 1): a1, (0, 1, 1, 0): a2, (1, 0, 1, 0): a3})
    table = FeedForwardTable.build({(0, 1): [], (1, 0): [("b", "flip")]})
    out, p, log = measure_and_feedforward(s, "a", table, None)
    n_in = a1 * a1 + a2 * a2 + a3 * a3
    first_sq = a1 * a1 + a2 * a2
    p_first, p_second = first_sq / n_in, a3 * a3 / n_in
    assert log == [BranchRecord((0, 1), p_first, "accept"),
                   BranchRecord((1, 0), p_second, "accept")]
    assert p == p_first + p_second
    scale = math.sqrt(p * n_in) / math.sqrt(first_sq)
    assert list(out.amps.items()) == [((0, 0, 0, 1), a1 * scale), ((0, 0, 1, 0), a2 * scale)]


def test_a_numbered_state_keeps_its_form_and_its_numbering():
    # a numbered state comes back numbered, in its own numbering; a table that
    # numbers occupations otherwise is refused, since a number would mean
    # another occupation there
    from fredkinlab.engine import StepTable
    from fredkinlab.fock import NumberedState, Numbering

    reg = register_modes(["a", "b"])
    state = PhotonicState(reg, {(1, 0, 0, 1): 0.6, (0, 1, 1, 0): 0.8})
    u = ModeUnitary(reg, haar_unitary(reg.size, np.random.default_rng(3)))
    numbered = NumberedState.of(state, Numbering())
    out = apply_unitary(numbered, u)
    assert isinstance(out, NumberedState) and out.numbering is numbered.numbering
    assert list(out.state().amps.items()) == list(apply_unitary(state, u).amps.items())
    kept, p = post_select_any(numbered, (PostSelectionRule.mode_counts(reg, [((0,), 1)]),))
    assert isinstance(kept, NumberedState) and kept.state().amps == {(1, 0, 0, 1): 0.6}
    assert p == pytest.approx(0.36, abs=1e-15)
    with pytest.raises(EngineError, match="number occupations differently"):
        apply_unitary(numbered, u, StepTable.fresh())
