import math

import numpy as np
import pytest

from fredkinlab import (
    DuplicateBeamError,
    FockError,
    LogicalAmplitudes,
    NormalizationError,
    PhotonicState,
    Polarization,
    TimeBin,
    inner_product,
    prepare_logical_input,
    register_modes,
    tensor,
)
from fredkinlab.fock import (
    RegistryMismatchError,
    UnknownBeamError,
    basis_bits,
    occupation_str,
    state_fidelity,
)

from helpers import phase_fixed_deviation


def test_register_modes_counts():
    reg = register_modes(["c", "t1", "t2"])
    assert reg.size == 6
    reg_t = register_modes(["c", "t1", "t2"], time_resolved=True)
    assert reg_t.size == 12


def test_register_modes_duplicate_beam():
    with pytest.raises(DuplicateBeamError):
        register_modes(["c", "c"])


def test_canonical_order_beam_major_h_before_v_s_before_l():
    reg = register_modes(["a", "b"], time_resolved=True)
    expected = [
        ("a", "H", "S"), ("a", "H", "L"), ("a", "V", "S"), ("a", "V", "L"),
        ("b", "H", "S"), ("b", "H", "L"), ("b", "V", "S"), ("b", "V", "L"),
    ]
    got = [(l.beam, l.pol.value, l.bin.value) for l in reg.labels]
    assert got == expected
    assert reg.index("b", Polarization.V, TimeBin.L) == 7


@pytest.mark.parametrize("time_resolved", [False, True])
def test_beam_and_hv_modes_match_modes_where(time_resolved):
    reg = register_modes(["c", "t1", "t2"], time_resolved=time_resolved)
    for beam in reg.beams:
        assert reg.beam_modes(beam) == reg.modes_where(beams=[beam])
        assert reg.hv_modes(beam) == (reg.modes_where(beams=[beam], pol=Polarization.H),
                                      reg.modes_where(beams=[beam], pol=Polarization.V))
    assert len(reg.hv_modes("t1")[0]) == (2 if time_resolved else 1)
    for lookup in (reg.beam_modes, reg.hv_modes):
        with pytest.raises(UnknownBeamError, match="beam 'zz' not registered"):
            lookup("zz")


def test_prepare_logical_basis_states():
    reg = register_modes(["c", "t1", "t2"])
    # first computational basis state: every qubit H
    s = prepare_logical_input(reg, LogicalAmplitudes.basis(3, 0), ["c", "t1", "t2"])
    assert s.amps == {(1, 0, 1, 0, 1, 0): 1.0 + 0j}
    # last: every qubit V
    s = prepare_logical_input(reg, LogicalAmplitudes.basis(3, 7), ["c", "t1", "t2"])
    assert s.amps == {(0, 1, 0, 1, 0, 1): 1.0 + 0j}


def test_prepare_logical_four_term_superposition():
    reg = register_modes(["c", "t1", "t2"])
    amps = LogicalAmplitudes((0.5, 0, 0, 0.5, 0.5, 0, 0, 0.5))
    s = prepare_logical_input(reg, amps, ["c", "t1", "t2"])
    assert len(s) == 4
    assert abs(s.norm_sq() - 1.0) < 1e-12


def test_prepare_logical_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        LogicalAmplitudes((0.5, 0, 0, 0, 0, 0, 0, 0))
    # a NaN norm compares False with everything, so it must fail the check
    with pytest.raises(NormalizationError, match="nan"):
        LogicalAmplitudes((float("nan"), 0, 0, 1))


def test_prepare_logical_rejects_unknown_beam():
    reg = register_modes(["c", "t1", "t2"])
    with pytest.raises(FockError):
        prepare_logical_input(reg, LogicalAmplitudes.basis(3, 0), ["c", "t1", "nope"])


def test_inner_product_orthonormal_basis():
    reg = register_modes(["a", "b"])
    s1 = PhotonicState.from_occupation(reg, (1, 0, 0, 0))
    s2 = PhotonicState.from_occupation(reg, (0, 1, 0, 0))
    assert inner_product(s1, s1) == pytest.approx(1.0)
    assert inner_product(s1, s2) == 0.0


def test_inner_product_registry_mismatch():
    r1 = register_modes(["a"])
    r2 = register_modes(["b"])
    s1 = PhotonicState.from_occupation(r1, (1, 0))
    s2 = PhotonicState.from_occupation(r2, (1, 0))
    with pytest.raises(RegistryMismatchError):
        inner_product(s1, s2)


def test_inner_product_conjugate_linearity(rng):
    reg = register_modes(["a", "b"])
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    v1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    v2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    s1 = PhotonicState(reg, dict(zip(basis, v1)))
    s2 = PhotonicState(reg, dict(zip(basis, v2)))
    assert inner_product(s1, s2) == pytest.approx(np.vdot(v1, v2))


def test_pruning_drops_tiny_amplitudes():
    reg = register_modes(["a"])
    s = PhotonicState(reg, {(1, 0): 1.0, (0, 1): 1e-16})
    assert (0, 1) not in s.amps


def test_unvalidated_state_prunes_alike():
    reg = register_modes(["a", "b"])
    amps = {(1, 0, 0, 0): 1j, (0, 1, 0, 0): 1e-16 + 0j, (0, 0, 1, 0): complex("nan"),
            (0, 0, 0, 1): 1e-14 + 0j}
    checked = PhotonicState(reg, amps).amps
    fast = PhotonicState(reg, amps, validate=False).amps
    assert list(fast) == list(checked) == [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_occupation_str():
    reg = register_modes(["c", "t1"])
    assert occupation_str(reg, (1, 0, 0, 1)) == "|H_c V_t1>"
    assert occupation_str(reg, (0, 0, 0, 0)) == "|vac>"


def test_tensor_disjoint_beams():
    reg = register_modes(["a", "b"])
    sa = PhotonicState(reg, {(1, 0, 0, 0): 1 / math.sqrt(2), (0, 1, 0, 0): 1 / math.sqrt(2)})
    sb = PhotonicState.from_occupation(reg, (0, 0, 1, 0))
    st = tensor(sa, sb)
    assert st.amps.keys() == {(1, 0, 1, 0), (0, 1, 1, 0)}
    assert abs(st.norm_sq() - 1.0) < 1e-12


def test_logical_amplitudes_bit_order():
    a = LogicalAmplitudes.basis(3, 5)  # binary 101 -> V H V
    assert basis_bits(a.n_qubits, 5) == (1, 0, 1)
    reg = register_modes(["a", "b", "c"])
    (occ,) = prepare_logical_input(reg, a, ("a", "b", "c")).amps
    assert occupation_str(reg, occ) == "|V_a H_b V_c>"


def test_tensor_overlap_in_a_later_left_term_raises():
    # only the second term of the left factor shares a mode with the right one
    reg = register_modes(["a", "b"])
    left = PhotonicState(reg, {(1, 0, 0, 0): 0.6, (0, 0, 1, 0): 0.8})
    right = PhotonicState(reg, {(0, 0, 0, 1): 0.8, (0, 0, 1, 0): 0.6})
    with pytest.raises(FockError, match="overlap"):
        tensor(left, right)
    with pytest.raises(FockError, match="overlap"):
        tensor(right, left)


def test_phase_fixed_deviation_is_linear_in_an_amplitude_error():
    reg = register_modes(["a"])
    h, v = (1, 0), (0, 1)
    exact = PhotonicState(reg, {h: 0.6, v: 0.8})
    assert phase_fixed_deviation(PhotonicState(reg, {h: 0.6j, v: 0.8j}), exact) < 1e-15
    off = PhotonicState(reg, {h: 0.6 + 3e-5, v: 0.8})
    assert 1e-5 < phase_fixed_deviation(off, exact) < 3e-5
    assert state_fidelity(off, exact) > 1 - 1e-9  # the quadratic check misses it
