"""Numerical toolkit for classical and quantum liftings.

Covers classical channels and their operator forms, lifting tensors and
Markov chain states, compound-state operators of unital channels, nonlinear
liftings, lifting-assisted positive maps, and circulant two-party states
with Bell-diagonal liftings, plus seeded verification suites and a JSON
command line.
"""
from .errors import (
    BlockNotPSDError,
    DimensionMismatchError,
    EigensolverError,
    IndexOutOfRangeError,
    LiftlabError,
    MapNotPositiveError,
    MathDomainError,
    NegativeEntryError,
    NotAStateError,
    NotCompatibleError,
    NotCPError,
    NotFaithfulError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitalError,
    SchemaError,
    TraceNotOneError,
)
from .matcore import (
    FactoredOperator,
    check_state,
    herm_sqrt,
    is_psd,
    partial_trace,
    partial_transpose,
    tensor,
    trace_out,
    unit_matrix,
)
from .classical import (
    apply_kraus,
    apply_to_observable,
    apply_to_state,
    as_channel,
    as_permutation,
    as_probability_vector,
    channel_from_dilation,
    classical_choi,
    classical_teleport,
    is_doubly_stochastic,
    is_stochastic,
    is_unital,
    kraus_from_channel,
    max_correlated_state,
    permutation_channel,
    permutation_inverse,
)
from .clift import (
    MarkovSpec,
    as_lifting_tensor,
    gamma_lifting,
    is_markovian_lifting,
    is_nondemolition,
    lift,
    markov_operator,
    markov_state,
    markov_tensor,
    markov_weights,
    n_lift,
    ohya_tensor,
    product_tensor,
    pure_tensor,
    separable_n_state,
    transition_expectation_sides,
    verify_transition_expectation,
)
from .qlift import (
    CpMap,
    QcpOperator,
    channel_from_compound,
    choi_matrix,
    classical_cpmap,
    compose_qcp,
    cp_from_kraus,
    cp_identity,
    lifting_assisted_map,
    n_compose_qcp,
    n_nonlinear_lift,
    nonlinear_lift,
    ohya_lift,
    qcp_from_channel,
    robertson_map,
)
from .circulant import (
    BellSpectrum,
    CirculantSpec,
    assemble_partial_transpose,
    bell_diagonal_lift,
    bell_state,
    bell_unitary,
    build_circulant,
    circulant_lift,
    circulant_lift_isometry,
    circulant_partial_transpose,
    circulant_subspaces,
    is_ppt_circulant,
    maximally_entangled,
    shift_matrix,
)
from .verify import Check, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
