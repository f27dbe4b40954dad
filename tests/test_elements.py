import math

import numpy as np
import pytest

from fredkinlab import (
    Bs,
    DelayToL,
    ElementError,
    Hwp,
    ModeUnitary,
    Pbs,
    Phase,
    PhotonicState,
    Polarization,
    Rot,
    Route,
    Rpbs,
    apply_unitary,
    compile_element,
    compose,
    hwp_matrix,
    register_modes,
)
from fredkinlab.elements import bs_block, rot_block

S2 = 1 / math.sqrt(2)


# -- half-wave plate: the published transformations, exactly -----------------

def test_hwp_67_5_maps_h_to_minus_h_plus_v():
    m = hwp_matrix(67.5)
    # columns are inputs (H, V); rows outputs
    assert np.allclose(m[:, 0], [-S2, S2], atol=1e-12)


def test_hwp_67_5_maps_v_to_h_plus_v():
    m = hwp_matrix(67.5)
    assert np.allclose(m[:, 1], [S2, S2], atol=1e-12)


def test_hwp_22_5_maps_h_to_h_plus_v():
    m = hwp_matrix(22.5)
    assert np.allclose(m[:, 0], [S2, S2], atol=1e-12)


def test_hwp_22_5_maps_v_to_h_minus_v():
    m = hwp_matrix(22.5)
    assert np.allclose(m[:, 1], [S2, -S2], atol=1e-12)


def test_hwp_45_swaps_h_and_v():
    m = hwp_matrix(45.0)
    assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 10.0, 22.5, 45.0, 67.5, 90.0, 123.4])
def test_hwp_is_real_symmetric_involution(theta):
    m = hwp_matrix(theta)
    assert np.allclose(m.imag, 0)
    assert np.allclose(m, m.T)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)


def test_hwp_angle_mod_180():
    assert np.allclose(hwp_matrix(22.5), hwp_matrix(202.5), atol=1e-12)


# -- PBS ----------------------------------------------------------------------

def test_pbs_transmits_h_reflects_v():
    reg = register_modes(["a", "b"])
    u = compile_element(reg, Pbs("a", "b"))
    s = PhotonicState.from_occupation(reg, (1, 0, 0, 0))  # H_a
    out = apply_unitary(s, u)
    assert out.amps == {(1, 0, 0, 0): 1.0 + 0j}
    s = PhotonicState.from_occupation(reg, (0, 1, 0, 0))  # V_a
    out = apply_unitary(s, u)
    assert out.amps == {(0, 0, 0, 1): 1.0 + 0j}  # V_b, amplitude +1


def test_pbs_splits_h_and_v_of_one_beam():
    reg = register_modes(["a", "b"])
    u = compile_element(reg, Pbs("a", "b"))
    s = PhotonicState.from_occupation(reg, (1, 1, 0, 0))  # H_a and V_a
    out = apply_unitary(s, u)
    assert out.amps == {(1, 0, 0, 1): 1.0 + 0j}


def test_pbs_is_permutation_matrix():
    reg = register_modes(["a", "b"])
    m = compile_element(reg, Pbs("a", "b")).matrix
    assert np.allclose(np.abs(m) @ np.ones(4), np.ones(4))
    assert np.allclose(np.sort(np.abs(m), axis=0)[-1], 1.0)


# -- BS -----------------------------------------------------------------------

def test_bs_block_balanced():
    b = bs_block(0.5, "b")
    assert np.allclose(b, [[S2, S2], [S2, -S2]], atol=1e-12)


def test_bs_single_photon_splits():
    reg = register_modes(["a", "b"])
    u = compile_element(reg, Bs(0.5, ("a", "H"), ("b", "H")))
    out = apply_unitary(PhotonicState.from_occupation(reg, (1, 0, 0, 0)), u)
    assert out.amps[(1, 0, 0, 0)] == pytest.approx(S2)
    assert out.amps[(0, 0, 1, 0)] == pytest.approx(S2)


def _brute_force_permanent(m):
    import itertools
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    return sum(
        np.prod([m[i, p[i]] for i in range(n)])
        for p in itertools.permutations(range(n))
    )


def test_bs_hong_ou_mandel_against_permanent():
    # expected amplitudes derived from the brute-force permanent of the
    # occupation-repeated 2x2 block
    b = bs_block(0.5, "b")
    amp_20 = _brute_force_permanent(np.array([[b[0, 0], b[0, 1]], [b[0, 0], b[0, 1]]])) / math.sqrt(2)
    amp_02 = _brute_force_permanent(np.array([[b[1, 0], b[1, 1]], [b[1, 0], b[1, 1]]])) / math.sqrt(2)
    amp_11 = _brute_force_permanent(b)
    assert amp_20 == pytest.approx(S2)
    assert amp_02 == pytest.approx(-S2)
    assert amp_11 == pytest.approx(0.0, abs=1e-12)

    reg = register_modes(["a", "b"])
    u = compile_element(reg, Bs(0.5, ("a", "H"), ("b", "H")))
    out = apply_unitary(PhotonicState.from_occupation(reg, (1, 0, 1, 0)), u)
    assert out.amps[(2, 0, 0, 0)] == pytest.approx(amp_20)
    assert out.amps[(0, 0, 2, 0)] == pytest.approx(amp_02)
    assert (1, 0, 1, 0) not in out.amps


def test_bs_eta_third_amplitudes():
    b = bs_block(1 / 3, "b")
    assert b[0, 0] == pytest.approx(math.sqrt(2 / 3))
    assert b[0, 1] == pytest.approx(math.sqrt(1 / 3))


def test_bs_eta_limits():
    assert np.allclose(bs_block(0.0, "b"), [[1, 0], [0, -1]])
    assert np.allclose(bs_block(1.0, "b"), [[0, 1], [1, 0]])


def test_bs_rejects_bad_reflectivity():
    with pytest.raises(ElementError):
        bs_block(1.5)


def test_bs_on_beams_acts_per_polarization():
    reg = register_modes(["a", "b"])
    u = compile_element(reg, Bs(0.5, "a", "b"))
    out = apply_unitary(PhotonicState.from_occupation(reg, (0, 1, 0, 0)), u)
    assert out.amps[(0, 1, 0, 0)] == pytest.approx(S2)
    assert out.amps[(0, 0, 0, 1)] == pytest.approx(S2)


# -- RPBS ----------------------------------------------------------------------

def test_rpbs_transmits_plus_reflects_minus():
    reg = register_modes(["a", "b"])
    u = compile_element(reg, Rpbs("a", "b"))
    plus_a = PhotonicState(reg, {(1, 0, 0, 0): S2, (0, 1, 0, 0): S2})
    out = apply_unitary(plus_a, u)
    assert out.amps[(1, 0, 0, 0)] == pytest.approx(S2)
    assert out.amps[(0, 1, 0, 0)] == pytest.approx(S2)
    minus_a = PhotonicState(reg, {(1, 0, 0, 0): S2, (0, 1, 0, 0): -S2})
    out = apply_unitary(minus_a, u)
    assert out.amps.keys() == {(0, 0, 1, 0), (0, 0, 0, 1)}
    assert out.amps[(0, 0, 1, 0)] == pytest.approx(S2)
    assert out.amps[(0, 0, 0, 1)] == pytest.approx(-S2)


def test_rpbs_equals_hwp_sandwich():
    reg = register_modes(["a", "b"])
    sandwich = compose(reg, [Hwp("a", 22.5), Hwp("b", 22.5), Pbs("a", "b"),
                             Hwp("a", 22.5), Hwp("b", 22.5)])
    direct = compile_element(reg, Rpbs("a", "b"))
    assert np.max(np.abs(sandwich.matrix - direct.matrix)) < 1e-12


def test_rpbs_permutation_like_in_its_eigenbasis():
    # conjugating by the 22.5-degree plates exposes the +/- routing: one unit
    # entry per row/column, exactly like a PBS in H/V
    reg = register_modes(["a", "b"])
    plates = compose(reg, [Hwp("a", 22.5), Hwp("b", 22.5)]).matrix
    m = plates @ compile_element(reg, Rpbs("a", "b")).matrix @ plates
    assert np.allclose(np.abs(m) @ np.ones(4), np.ones(4), atol=1e-12)
    assert np.allclose(np.sort(np.abs(m), axis=0)[-1], 1.0, atol=1e-12)


# -- other elements -------------------------------------------------------------

def test_route_permutes_beams():
    reg = register_modes(["a", "b"])
    u = compile_element(reg, Route((("a", "b"), ("b", "a"))))
    out = apply_unitary(PhotonicState.from_occupation(reg, (0, 1, 0, 0)), u)
    assert out.amps == {(0, 0, 0, 1): 1.0 + 0j}


def test_delay_moves_s_to_l():
    reg = register_modes(["a"], time_resolved=True)
    u = compile_element(reg, DelayToL("a"))
    out = apply_unitary(PhotonicState.from_occupation(reg, (1, 0, 0, 0)), u)
    assert out.amps == {(0, 1, 0, 0): 1.0 + 0j}


def test_hwp_acts_on_both_time_bins():
    reg = register_modes(["a"], time_resolved=True)
    u = compile_element(reg, Hwp("a", 45.0))
    out = apply_unitary(PhotonicState.from_occupation(reg, (0, 1, 0, 0)), u)  # H^L
    assert out.amps == {(0, 0, 0, 1): 1.0 + 0j}  # V^L


def test_phase_on_mode_and_beam():
    reg = register_modes(["a"])
    u = compile_element(reg, Phase(("a", "V"), math.pi))
    out = apply_unitary(PhotonicState.from_occupation(reg, (0, 1)), u)
    assert out.amps[(0, 1)] == pytest.approx(-1.0)
    u = compile_element(reg, Phase("a", math.pi / 2))
    out = apply_unitary(PhotonicState.from_occupation(reg, (1, 0)), u)
    assert out.amps[(1, 0)] == pytest.approx(1j)


def test_rot_block_is_rotation():
    r = rot_block(0.3)
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
    assert np.linalg.det(r).real == pytest.approx(1.0)


@pytest.mark.parametrize("element, ref", [
    (Rot(0.3, "a", "b"), "'a'"),
    (Rot(0.3, ("a", "H"), ("b",)), "('b',)"),
    (Phase(("a",), 0.5), "('a',)"),
    (Rot(0.3, ("a", "H"), 4), "4"),
    (Phase(-1, 0.5), "-1"),
    (Bs(0.5, ("a", "H"), np.int64(2)), "np.int64(2)"),
])
def test_mode_reference_that_is_no_label_is_an_element_error(element, ref):
    # a mode is named by its label only: a beam name, a short tuple or a
    # dense index is none
    with pytest.raises(ElementError) as info:
        compile_element(register_modes(["a", "b"]), element)
    assert str(info.value) == f"mode reference {ref} is not a (beam, pol[, bin]) label"


# -- the compiler, pinned entry by entry -------------------------------------------

T3, R3 = math.sqrt(2 / 3), math.sqrt(1 / 3)
C3, S3 = math.cos(0.3), math.sin(0.3)
PLAIN = register_modes(["a", "b"])  # H_a, V_a, H_b, V_b
BINS = register_modes(["a", "b"], time_resolved=True)  # a: H^S H^L V^S V^L, then b
THREE = register_modes(["a", "b", "c"])
# the +/- PBS on (H_a, V_a, H_b, V_b): |+> stays in its beam, |-> changes beam
RPBS = [[0.5, 0.5, 0.5, -0.5], [0.5, 0.5, -0.5, 0.5],
        [0.5, -0.5, 0.5, 0.5], [-0.5, 0.5, 0.5, 0.5]]


def _eye_with(size, entries):
    """The size x size identity with the given (row, column) entries set."""
    m = np.eye(size, dtype=complex)
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


def _case_id(value):
    for reg, name in ((PLAIN, "plain"), (BINS, "bins"), (THREE, "three")):
        if value is reg:
            return name
    return None if isinstance(value, (dict, str)) else type(value).__name__


def _swaps(*pairs):
    """The entries that exchange the two modes of each (i, j) pair."""
    return {e: v for i, j in pairs for e, v in (((i, i), 0), ((i, j), 1), ((j, i), 1), ((j, j), 0))}


@pytest.mark.parametrize("reg, element, entries", [
    (PLAIN, Hwp("b", 67.5), {(2, 2): -S2, (2, 3): S2, (3, 2): S2, (3, 3): S2}),
    (BINS, Hwp("b", 67.5), {(4, 4): -S2, (4, 6): S2, (6, 4): S2, (6, 6): S2,
                            (5, 5): -S2, (5, 7): S2, (7, 5): S2, (7, 7): S2}),
    (PLAIN, Hwp("a", 45.0), _swaps((0, 1))),
    (BINS, Hwp("a", 45.0), _swaps((0, 2), (1, 3))),
    (PLAIN, Pbs("a", "b"), _swaps((1, 3))),
    (BINS, Pbs("a", "b"), _swaps((2, 6), (3, 7))),
    (PLAIN, Bs(1 / 3, "a", "b"), {(0, 0): T3, (0, 2): R3, (2, 0): R3, (2, 2): -T3,
                                  (1, 1): T3, (1, 3): R3, (3, 1): R3, (3, 3): -T3}),
    (BINS, Bs(1 / 3, "a", "b"), {e: v for i, j in ((0, 4), (1, 5), (2, 6), (3, 7)) for e, v in (
        ((i, i), T3), ((i, j), R3), ((j, i), R3), ((j, j), -T3))}),
    (PLAIN, Bs(0.5, ("a", "H"), ("b", "V"), "a"),
     {(0, 0): -S2, (0, 3): S2, (3, 0): S2, (3, 3): S2}),
    (BINS, Bs(0.5, ("a", "H", "L"), ("b", "V", "S"), "a"),
     {(1, 1): -S2, (1, 6): S2, (6, 1): S2, (6, 6): S2}),
    (PLAIN, Rpbs("a", "b"), {(i, j): RPBS[i][j] for i in range(4) for j in range(4)}),
    (BINS, Rpbs("a", "b"), {(modes[i], modes[j]): RPBS[i][j]
                            for modes in ((0, 2, 4, 6), (1, 3, 5, 7))  # per time bin
                            for i in range(4) for j in range(4)}),
    (PLAIN, Route((("a", "b"), ("b", "a"))), _swaps((0, 2), (1, 3))),
    (BINS, Route((("a", "b"), ("b", "a"))), _swaps((0, 4), (1, 5), (2, 6), (3, 7))),
    (THREE, Route((("a", "b"), ("b", "c"), ("c", "a"))),  # column i is e_(where i goes)
     {**{(i, i): 0 for i in range(6)}, (2, 0): 1, (3, 1): 1, (4, 2): 1, (5, 3): 1,
      (0, 4): 1, (1, 5): 1}),
    (PLAIN, Route((("a", "a"),)), {}),  # an identity entry is allowed
    (BINS, Route((("b", "b"), ("a", "a"))), {}),
    (BINS, DelayToL("a"), _swaps((0, 1), (2, 3))),
    (PLAIN, Phase("a", math.pi / 2), {(0, 0): 1j, (1, 1): 1j}),
    (BINS, Phase("b", math.pi / 2), {(4, 4): 1j, (5, 5): 1j, (6, 6): 1j, (7, 7): 1j}),
    (PLAIN, Phase(("b", "V"), math.pi), {(3, 3): -1}),
    (BINS, Phase(("a", "V", "L"), math.pi), {(3, 3): -1}),
    (PLAIN, Rot(0.3, ("a", "V"), ("b", "H")), {(1, 1): C3, (1, 2): -S3, (2, 1): S3, (2, 2): C3}),
    (BINS, Rot(0.3, ("a", "V", "S"), ("b", "H", "L")), {(2, 2): C3, (2, 5): -S3, (5, 2): S3, (5, 5): C3}),
], ids=_case_id)
def test_compile_element_pins_every_kind(reg, element, entries):
    got = compile_element(reg, element)
    assert got.registry is reg
    np.testing.assert_allclose(got.matrix, _eye_with(reg.size, entries), rtol=0, atol=1e-15)


@pytest.mark.parametrize("reg, element, message", [
    (PLAIN, Pbs("a", "a"), "PBS needs two distinct beams"),
    (PLAIN, Rpbs("b", "b"), "PBS needs two distinct beams"),
    (PLAIN, Bs(0.5, "a", "a"), "degenerate mode pair"),
    (PLAIN, Bs(0.5, ("a", "H"), ("a", "H")), "beam splitter needs two distinct modes"),
    (PLAIN, Bs(0.5, "a", ("b", "H")), "mix of beam name and mode reference"),
    (PLAIN, Bs(1.5, "a", "b"), "reflectivity 1.5 outside [0, 1]"),
    (PLAIN, Bs(0.5, "a", "b", "c"), "signed port must be 'a' or 'b', got 'c'"),
    (BINS, Rot(0.3, ("a", "V", "L"), ("a", "V", "L")), "rotation needs two distinct modes"),
    (PLAIN, DelayToL("a"), "time-bin delay needs a time-resolved registry"),
    (BINS, Route((("a", "b"),)), "route mapping is not a beam permutation"),
    # sources and targets agree as multisets, but source a is sent twice
    (THREE, Route((("a", "b"), ("a", "c"), ("b", "a"), ("c", "a"))),
     "route mapping is not a beam permutation"),
    (PLAIN, ("hwp", "a"), "unknown element ('hwp', 'a')"),
], ids=_case_id)
def test_compile_element_errors_name_their_cause(reg, element, message):
    with pytest.raises(ElementError) as info:
        compile_element(reg, element)
    assert str(info.value) == message


# -- composition ----------------------------------------------------------------

def test_compose_empty_is_identity():
    reg = register_modes(["a", "b"])
    assert np.allclose(compose(reg, []).matrix, np.eye(4))


def test_compose_application_order():
    reg = register_modes(["a"])
    # HWP(22.5) then HWP(45) on the same beam: matrix product in that order
    u = compose(reg, [Hwp("a", 22.5), Hwp("a", 45.0)])
    assert np.allclose(u.matrix, hwp_matrix(45.0) @ hwp_matrix(22.5))
    s = PhotonicState.from_occupation(reg, (1, 0))
    step = apply_unitary(apply_unitary(s, compose(reg, [Hwp("a", 22.5)])),
                         compose(reg, [Hwp("a", 45.0)]))
    once = apply_unitary(s, u)
    assert step.amps.keys() == once.amps.keys()
    for occ in step.amps:
        assert once.amps[occ] == pytest.approx(step.amps[occ])


@pytest.mark.parametrize("elements", [
    [Hwp("a", 67.5), Pbs("a", "b"), Bs(1 / 3, "a", "b"), Rpbs("a", "b")],
    [Bs(0.7, ("a", "H"), ("b", "V"), "a"), Phase("b", 1.1), Rot(0.4, ("a", "V"), ("b", "H"))],
])
def test_compositions_are_unitary(elements):
    reg = register_modes(["a", "b"])
    u = compose(reg, elements)
    assert u.unitarity_deviation() < 1e-12


# -- active-mode plan -----------------------------------------------------------

def test_plan_lists_only_moved_modes():
    reg = register_modes(["a", "b", "c"])
    assert ModeUnitary.identity(reg).plan.modes == ()
    u = compile_element(reg, Pbs("a", "c"))
    plan = u.plan
    assert u.plan is plan  # built once, getters included
    assert plan.modes == (reg.index("a", Polarization.V), reg.index("c", Polarization.V))
    # the two V modes swap with amplitude 1; columns are indexed by plan position
    assert plan.columns == (((1, 1.0),), ((0, 1.0),))
    occ = (1, 2, 3, 4, 5, 6)
    assert plan.take(occ) == (2, 6)
    assert plan.splice(occ + (7, 8)) == (1, 7, 3, 4, 5, 8)


def test_plan_includes_modes_an_active_column_writes_to():
    reg = register_modes(["a", "b"])
    mat = np.eye(4, dtype=complex)
    mat[2, 0] = 1e-17  # column 0 leaks into mode 2, whose own column is e_2
    plan = ModeUnitary(reg, mat, check=False).plan
    assert plan.modes == (0, 2)
    assert plan.columns == (((0, 1.0), (1, 1e-17)), ((1, 1.0),))
