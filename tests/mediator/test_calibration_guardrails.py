"""Property-based guardrail battery (hypothesis).

The guardrails are the reason online recalibration is safe to leave on:
whatever the drift window claims, a proposal (a) never leaves the clamp
range, (b) never moves more than ``max_step`` from its predecessor, and
(c) on *stationary* drift the residual ``|log(R / m)|`` contracts
monotonically until the coefficient converges.  These are exactly the
invariants ISSUE.md names; hypothesis explores the policy × ratio space
instead of a few hand-picked points.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mediator.calibration import (
    CalibrationPolicy,
    CalibrationState,
    Calibrator,
    CoefficientKey,
)

#: Measured window ratios spanning pathological under- and over-estimates.
ratios = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)

policies = st.builds(
    CalibrationPolicy,
    min_samples=st.just(1),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    max_step=st.floats(min_value=1.01, max_value=16.0),
    clamp_min=st.floats(min_value=1e-3, max_value=1.0),
    clamp_max=st.floats(min_value=1.0, max_value=1e3),
    min_change=st.just(0.0),
)


def previous_within(policy: CalibrationPolicy, fraction: float) -> float:
    """A prior coefficient interpolated (in log space) across the clamp."""
    low, high = math.log(policy.clamp_min), math.log(policy.clamp_max)
    return math.exp(low + fraction * (high - low))


@settings(max_examples=200, deadline=None)
@given(policy=policies, fraction=st.floats(0.0, 1.0), ratio=ratios)
def test_proposal_never_leaves_clamp_range(policy, fraction, ratio):
    previous = previous_within(policy, fraction)
    proposed = Calibrator(policy).propose(previous, ratio)
    assert policy.clamp_min <= proposed <= policy.clamp_max


@settings(max_examples=200, deadline=None)
@given(policy=policies, fraction=st.floats(0.0, 1.0), ratio=ratios)
def test_proposal_never_exceeds_max_step(policy, fraction, ratio):
    previous = previous_within(policy, fraction)
    proposed = Calibrator(policy).propose(previous, ratio)
    # The range clamp may shrink a step further, never enlarge it.
    tolerance = 1.0 + 1e-9
    assert proposed <= previous * policy.max_step * tolerance
    assert proposed >= previous / policy.max_step / tolerance


@settings(max_examples=100, deadline=None)
@given(
    policy=policies,
    fraction=st.floats(0.0, 1.0),
    true_fraction=st.floats(0.0, 1.0),
)
def test_residual_contracts_monotonically_on_stationary_drift(
    policy, fraction, true_fraction
):
    """Iterating the update rule against a fixed truth never diverges.

    The true correction R is placed inside the clamp range; each round
    the fitter observes the residual ratio ``R / m`` and proposes the
    next ``m``.  The log-residual must never grow, and after enough
    rounds must shrink below any fixed tolerance.
    """
    calibrator = Calibrator(policy)
    target = previous_within(policy, true_fraction)
    multiplier = previous_within(policy, fraction)
    residual = abs(math.log(target / multiplier))
    # Worst case crosses the whole clamp range in max_step-bounded hops,
    # then converges geometrically at rate (1 - alpha).
    rounds = 100 + math.ceil(residual / math.log(policy.max_step))
    if policy.alpha < 1.0:
        rounds += math.ceil(math.log(1e4) / -math.log1p(-policy.alpha))
    for _ in range(rounds):
        multiplier = calibrator.propose(multiplier, target / multiplier)
        next_residual = abs(math.log(target / multiplier))
        assert next_residual <= residual + 1e-9
        residual = next_residual
        if residual < 1e-4:
            break
    assert residual < 1e-3


@settings(max_examples=100, deadline=None)
@given(
    ratio=ratios,
    count=st.integers(min_value=1, max_value=50),
    policy=policies,
)
def test_full_fit_respects_guardrails_end_to_end(ratio, count, policy):
    """Same invariants through Calibrator.fit on a synthetic snapshot."""
    state = CalibrationState()
    snapshot = {
        "rules": [
            {
                "scope": "wrapper",
                "source": "__mediator__",
                "wrapper": "w",
                "variable": "TotalTime",
                "count": count,
                "sum_log_ratio": count * math.log(ratio),
                "mean_q_error": max(ratio, 1.0 / ratio),
            }
        ]
    }
    fit = Calibrator(policy).fit(snapshot, state)
    for update in fit.updates:
        assert update.key == CoefficientKey("w", "TotalTime")
        assert policy.clamp_min <= update.proposed <= policy.clamp_max
        assert update.proposed <= update.previous * policy.max_step * (1 + 1e-9)
        assert update.proposed >= update.previous / policy.max_step / (1 + 1e-9)
        assert update.measured_ratio == pytest.approx(ratio, rel=1e-6)
