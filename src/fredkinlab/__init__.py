"""Fock-state simulation and verification of linear-optical Fredkin/CNOT gates."""

from .fock import (
    DEFAULT_PRUNE_EPS,
    DuplicateBeamError,
    FockError,
    LogicalAmplitudes,
    ModeLabel,
    ModeRegistry,
    NormalizationError,
    PhotonicState,
    Polarization,
    TimeBin,
    inner_product,
    prepare_logical_input,
    register_modes,
    state_fidelity,
    tensor,
)
from .elements import (
    Bs,
    DelayToL,
    Element,
    ElementError,
    Hwp,
    ModeUnitary,
    Pbs,
    Phase,
    Rot,
    Route,
    Rpbs,
    compile_element,
    compose,
    hwp_matrix,
)
from .engine import (
    DetectorBasis,
    DetectorSpec,
    EngineError,
    FeedForwardError,
    FeedForwardTable,
    PhotonNumberMismatch,
    PostSelectionRule,
    apply_unitary,
    measure_and_feedforward,
    post_select_any,
    ryser_permanent,
    transition_amplitude_oracle,
)

__version__ = "0.1.0"
