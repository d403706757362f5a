import pytest
from hypothesis import given, strategies as st

from cyclecast.core import JobConfig, NegativePredictionWarning
from cyclecast.regression import ModelCoefficients, predict
from cyclecast.scaling import (
    CostModel,
    DegenerateInputError,
    NonPositiveReferenceError,
    ScalingModel,
    fit_scaling,
    scale_prediction,
)

GIB = 2**30


def test_two_point_hand_example():
    # Line through (1e9, 2e12) and (2e9, 3e12): slope 1e3, intercept 1e12.
    model = fit_scaling([(10**9, 2.0e12), (2 * 10**9, 3.0e12)], ref_bytes=10**9)
    assert model.slope == pytest.approx(1.0e3, rel=1e-10)
    assert model.intercept == pytest.approx(1.0e12, rel=1e-10)


def test_exact_proportional_points_recover_zero_intercept():
    points = [(10**9, 1.0e12), (2 * 10**9, 2.0e12), (3 * 10**9, 3.0e12)]
    model = fit_scaling(points, ref_bytes=10**9)
    assert model.slope == pytest.approx(1.0e3, rel=1e-10)
    # True intercept is 0; allow only rounding at the scale of the data.
    assert abs(model.intercept) <= 1e-10 * 3.0e12


def test_scale_factor_hand_example():
    # line(2e9)/line(1e9) = 3e12/2e12 = 1.5.
    model = ScalingModel(slope=1.0e3, intercept=1.0e12, ref_bytes=10**9)
    assert scale_prediction(1.0e13, model, 2 * 10**9) == pytest.approx(
        1.5e13, rel=1e-15
    )


def test_pure_proportional_scaling_is_exact():
    model = ScalingModel(slope=1.0e3, intercept=0.0, ref_bytes=10**9)
    assert scale_prediction(1.0e13, model, 2 * 10**9) == 2.0e13


def test_identity_at_reference_size():
    model = ScalingModel(slope=7.3e2, intercept=4.2e11, ref_bytes=12 * GIB)
    base = 9.87654321e12
    assert scale_prediction(base, model, 12 * GIB) == base


def test_single_size_is_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_scaling([(GIB, 1.0e12), (GIB, 1.1e12)], ref_bytes=GIB)


def test_non_positive_reference_rejected_at_construction():
    with pytest.raises(NonPositiveReferenceError):
        ScalingModel(slope=-1.0e3, intercept=0.0, ref_bytes=10**9)
    with pytest.raises(NonPositiveReferenceError):
        ScalingModel(slope=0.0, intercept=0.0, ref_bytes=10**9)


def test_negative_scaled_prediction_clamps_with_warning():
    # Line is positive at ref but crosses zero before the target size.
    model = ScalingModel(slope=-1.0, intercept=2.0e9, ref_bytes=10**9)
    with pytest.warns(NegativePredictionWarning):
        assert scale_prediction(5.0e12, model, 3 * 10**9) == 0.0


def test_scale_prediction_input_validation():
    model = ScalingModel(slope=1.0, intercept=0.0, ref_bytes=GIB)
    with pytest.raises(ValueError):
        scale_prediction(-1.0, model, GIB)
    with pytest.raises(ValueError):
        scale_prediction(1.0, model, 0)


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        fit_scaling([(GIB, 1.0), (2 * GIB, 2.0)], ref_bytes=0)
    with pytest.raises(ValueError):
        fit_scaling([(0, 1.0), (GIB, 2.0)], ref_bytes=GIB)


@given(
    st.floats(1e2, 1e4),
    st.floats(0.0, 1e12),
    st.integers(1, 64).map(lambda g: g * GIB),
    st.integers(1, 64).map(lambda g: g * GIB),
    st.integers(1, 64).map(lambda g: g * GIB),
    st.floats(1e10, 1e14),
)
def test_transitivity(slope, intercept, ref, mid, target, base):
    model = ScalingModel(slope=slope, intercept=intercept, ref_bytes=ref)
    via_mid_model = ScalingModel(slope=slope, intercept=intercept, ref_bytes=mid)
    direct = scale_prediction(base, model, target)
    chained = scale_prediction(
        scale_prediction(base, model, mid), via_mid_model, target
    )
    assert chained == pytest.approx(direct, rel=1e-12)


@given(
    st.integers(0, 40).map(lambda k: float(2**k)),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.floats(0.0, 1e14),
)
def test_intercept_zero_reduces_to_byte_ratio_exactly(slope, ref, target, base):
    model = ScalingModel(slope=slope, intercept=0.0, ref_bytes=ref)
    assert scale_prediction(base, model, target) == base * (target / ref)


def test_recovery_from_synthetic_line_with_many_points():
    slope, intercept = 2.5e2, 7.0e11
    sizes = [g * GIB for g in (1, 2, 4, 8, 16, 32)]
    points = [(s, slope * s + intercept) for s in sizes]
    model = fit_scaling(points, ref_bytes=sizes[0])
    assert model.slope == pytest.approx(slope, rel=1e-10)
    assert model.intercept == pytest.approx(intercept, rel=1e-10)


SURFACE = ModelCoefficients(
    a=(1.0e12 / 3.0, 2.0e10, 3.0e8 / 7.0, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=12 * GIB,
)


@pytest.mark.parametrize("input_bytes", [None, 12 * GIB])
def test_cost_model_at_reference_is_the_surface(input_bytes):
    line = ScalingModel(slope=7.3e2, intercept=4.2e11, ref_bytes=12 * GIB)
    for model in (CostModel(SURFACE), CostModel(SURFACE, line)):
        for mappers, reducers in ((1, 1), (6, 10), (32, 3)):
            want = predict(SURFACE, JobConfig(mappers, reducers, 12 * GIB))
            assert model.predict(mappers, reducers, input_bytes) == want


def test_cost_model_needs_one_reference_size():
    with pytest.raises(ValueError):
        CostModel(ModelCoefficients(a=SURFACE.a, condition_estimate=1.0, training_residual=0.0))
    with pytest.raises(ValueError):
        CostModel(SURFACE, ScalingModel(slope=1.0, intercept=0.0, ref_bytes=6 * GIB))
