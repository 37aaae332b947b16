"""The tolerance policy: which functions take a tolerance, and the edges of the fixed ones.

The values live in one block in ``liftlab.matcore``; these tests pin the
edges that each fixed check sits on.
"""
import inspect

import numpy as np
import pytest

import liftlab
from liftlab import matcore
from liftlab.circulant import circulant_lift_isometry
from liftlab.classical import as_probability_vector, is_stochastic, is_unital
from liftlab.clift import MarkovSpec, as_lifting_tensor, gamma_lifting, is_nondemolition, ohya_tensor
from liftlab.errors import NegativeEntryError, NotAStateError, NotCompatibleError, NotNormalizedError, NotPSDError
from liftlab.matcore import check_state, herm_sqrt, is_psd
from liftlab.qlift import CpMap, channel_from_compound, cp_identity, nonlinear_lift, qcp_from_channel

TUNABLE = {
    "is_unital",
    "is_stochastic",
    "is_doubly_stochastic",
    "run_suite",
}


def test_only_the_checks_callers_tune_take_a_tolerance():
    tunable = set()
    for name in liftlab.__all__:
        obj = getattr(liftlab, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # some builtin classes expose no signature
            continue
        if {"tol", "atol"} & set(params):
            tunable.add(name)
    assert tunable == TUNABLE


@pytest.mark.parametrize("helper", [
    "_check_hermitian", "_hermitian_spectra", "_psd_verdicts", "_psd_stack", "_cholesky_certifies", "is_psd",
])
def test_the_psd_threshold_takes_no_tolerance(helper):
    # The PSD rule reads TOL in place: no helper on its path carries a knob.
    params = inspect.signature(getattr(matcore, helper)).parameters
    assert not {"tol", "atol"} & set(params)


def test_state_trace_tolerance_is_ten_times_the_spectral_one():
    check_state(np.eye(2) * (0.5 + 4.5e-9))  # trace 1 + 9e-9
    with pytest.raises(NotAStateError, match="trace"):
        check_state(np.eye(2) * (0.5 + 1e-8))  # trace 1 + 2e-8


def test_isometry_vector_norms_use_the_spectral_tolerance():
    rho = np.eye(2) / 2
    circulant_lift_isometry(np.eye(2) * (1 + 5e-10), rho)
    with pytest.raises(NotNormalizedError, match="norm"):
        circulant_lift_isometry(np.eye(2) * (1 + 2e-9), rho)


# The lowest eigenvalue's edge, -TOL times the spectral norm floored at 1,
# at norms 1 and 10: herm_sqrt refuses exactly what is_psd refuses.
@pytest.mark.parametrize("diagonal, accepted", [
    ([1, -1e-9], True),
    ([10, -1e-8], True),
    ([1, -1.1e-9], False),
    ([10, -1.1e-8], False),
])
def test_herm_sqrt_and_is_psd_share_one_psd_edge(diagonal, accepted):
    m = np.diag(diagonal)
    assert is_psd(m)[0] is accepted
    try:
        herm_sqrt(m)
    except NotPSDError:
        assert not accepted
    else:
        assert accepted


def test_probability_sum_tolerance_scales_with_the_entry_count():
    # One entry: |sum - 1| <= 1e-12.
    as_probability_vector([1 + 5e-13])
    with pytest.raises(NotNormalizedError):
        as_probability_vector([1 + 2e-12])
    # Ten entries: |sum - 1| <= 1e-11, so 5e-12 passes where one entry would fail.
    v = np.full(10, 0.1)
    v[0] += 5e-12
    as_probability_vector(v)
    v[0] += 1.5e-11
    with pytest.raises(NotNormalizedError):
        as_probability_vector(v)
    # Entries down to -1e-12 pass and are clipped to 0; the bound does not scale.
    assert as_probability_vector([-5e-13, 1 + 5e-13])[0] == 0.0
    with pytest.raises(NegativeEntryError):
        as_probability_vector([-2e-12, 1 + 2e-12])


def _accepts(check, *args, **kwargs) -> bool:
    """Run a validator or predicate: False when it raises NotNormalizedError
    or NotCompatibleError or returns False, True otherwise."""
    try:
        return check(*args, **kwargs) is not False
    except (NotNormalizedError, NotCompatibleError):
        return False


def _nondemolition_tensor(deficit):
    """n1=4, n2=1: each retained marginal loses ``deficit`` on the diagonal,
    spread evenly over the three other letters, so slices still sum to 1."""
    spread = np.full((4, 4), deficit / 3)
    np.fill_diagonal(spread, 1 - deficit)
    return spread[:, None, :]


_THETA_RHO = np.diag([0.6, 0.4])
_THETA = nonlinear_lift(qcp_from_channel(cp_identity(2)), _THETA_RHO)

# Each sum check at scale 1 + 5e-6, which numpy's default rtol=1e-5 let
# through, and at a scale inside its absolute bound.
SUM_CHECKS = {
    "as_lifting_tensor": lambda s: _accepts(as_lifting_tensor, ohya_tensor(2) * s),
    "gamma_lifting": lambda s: _accepts(gamma_lifting, np.eye(4) * s, [0.5, 0.5], [0.5, 0.5]),
    "MarkovSpec": lambda s: _accepts(MarkovSpec, np.eye(2) * s, [0.5, 0.5]),
    "is_nondemolition": lambda s: _accepts(is_nondemolition, _nondemolition_tensor(s - 1)),
    "is_unital": lambda s: _accepts(is_unital, np.eye(2) * s),
    "is_stochastic": lambda s: _accepts(is_stochastic, np.eye(2) * s),
    "CpMap.unital": lambda s: CpMap(cp_identity(2).units * s).unital,
    "channel_from_compound": lambda s: _accepts(channel_from_compound, _THETA, _THETA_RHO * s),
}


@pytest.mark.parametrize("name", SUM_CHECKS)
def test_sum_checks_carry_no_relative_tolerance(name):
    check = SUM_CHECKS[name]
    assert check(1 + 1e-13)
    assert not check(1 + 5e-6)
