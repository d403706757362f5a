import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclecast.core import NegativePredictionWarning, ProfileTable, ShapeMismatchError
from cyclecast.regression import CostModel, MixedApplicationsError, predict
from cyclecast.scaling import (
    DegenerateInputError,
    NonPositiveReferenceError,
    fit_scaling,
    scale_prediction,
)

GIB = 2**30

SURFACE = CostModel(
    app="sort",
    a=(1.0e12 / 3.0, 2.0e10, 3.0e8 / 7.0, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=12 * GIB,
)


def _sized(slope, intercept, ref_bytes):
    """SURFACE with the line (slope, intercept) anchored at ref_bytes."""
    return dataclasses.replace(SURFACE, ref_input_bytes=ref_bytes, line=(slope, intercept))


def test_two_point_hand_example():
    # Line through (1e9, 2e12) and (2e9, 3e12): slope 1e3, intercept 1e12.
    slope, intercept = fit_scaling([(10**9, 2.0e12), (2 * 10**9, 3.0e12)])
    assert slope == pytest.approx(1.0e3, rel=1e-10)
    assert intercept == pytest.approx(1.0e12, rel=1e-10)


def test_exact_proportional_points_recover_zero_intercept():
    points = [(10**9, 1.0e12), (2 * 10**9, 2.0e12), (3 * 10**9, 3.0e12)]
    slope, intercept = fit_scaling(points)
    assert slope == pytest.approx(1.0e3, rel=1e-10)
    # True intercept is 0; allow only rounding at the scale of the data.
    assert abs(intercept) <= 1e-10 * 3.0e12


def test_scale_factor_hand_example():
    # line(2e9)/line(1e9) = 3e12/2e12 = 1.5.
    model = _sized(1.0e3, 1.0e12, 10**9)
    assert scale_prediction(1.0e13, model, 2 * 10**9) == pytest.approx(
        1.5e13, rel=1e-15
    )


def test_pure_proportional_scaling_is_exact():
    model = _sized(1.0e3, 0.0, 10**9)
    assert scale_prediction(1.0e13, model, 2 * 10**9) == 2.0e13


def test_identity_at_reference_size():
    model = _sized(7.3e2, 4.2e11, 12 * GIB)
    base = 9.87654321e12
    assert scale_prediction(base, model, 12 * GIB) == base


def test_single_size_is_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_scaling([(GIB, 1.0e12), (GIB, 1.1e12)])


def test_non_positive_reference_rejected_at_construction():
    with pytest.raises(NonPositiveReferenceError):
        _sized(-1.0e3, 0.0, 10**9)
    with pytest.raises(NonPositiveReferenceError):
        _sized(0.0, 0.0, 10**9)


def test_negative_scaled_prediction_clamps_with_warning():
    # Line is positive at ref but crosses zero before the target size.
    model = _sized(-1.0, 2.0e9, 10**9)
    with pytest.warns(NegativePredictionWarning):
        assert scale_prediction(5.0e12, model, 3 * 10**9) == 0.0


def test_scale_prediction_over_arrays_warns_once_naming_the_first_clamp():
    # Positive up to 2e9 bytes, negative beyond.
    model = _sized(-1.0, 2.0e9, 10**9)
    targets = np.array([10**9, 3 * 10**9, 4 * 10**9])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scaled = scale_prediction(np.array([5.0e12, 5.0e12, 1.0e12]), model, targets)
    assert scaled.tolist() == [5.0e12, 0.0, 0.0]
    assert [str(w.message) for w in caught] == [
        "scaling to 3000000000 bytes gives -5e+12 cycles; clamping to 0"
    ]


@pytest.mark.parametrize("intercept", [0.0, 4.2e11])
def test_scale_prediction_over_arrays_is_the_per_point_ratio_bit_for_bit(intercept):
    slope, ref = 7.3e2, 12 * GIB
    model = _sized(slope, intercept, ref)
    targets = np.arange(1, 200) * (GIB // 7)
    base = 9.87654321e12 / np.arange(1, 200)
    scaled = scale_prediction(base, model, targets)
    assert type(scaled) is np.ndarray

    def ratio(t):
        if intercept == 0.0:
            return t / ref
        return (slope * t + intercept) / (slope * ref + intercept)

    assert scaled.tolist() == [b * ratio(t) for b, t in zip(base.tolist(), targets.tolist())]
    assert type(scale_prediction(1.0, model, GIB)) is float


def test_scale_prediction_input_validation():
    model = _sized(1.0, 0.0, GIB)
    with pytest.raises(ValueError):
        scale_prediction(-1.0, model, GIB)
    with pytest.raises(ValueError):
        scale_prediction(1.0, model, 0)
    with pytest.raises(ValueError, match="got nan"):
        scale_prediction([1.0, float("nan")], model, [GIB, GIB])
    with pytest.raises(ValueError, match="got 0"):
        scale_prediction([1.0, 1.0], model, [GIB, 0])


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        fit_scaling([(0, 1.0), (GIB, 2.0)])
    with pytest.raises(ValueError):
        fit_scaling([(GIB, 1.0), (2 * GIB, float("nan"))])


@given(
    st.floats(1e2, 1e4),
    st.floats(0.0, 1e12),
    st.integers(1, 64).map(lambda g: g * GIB),
    st.integers(1, 64).map(lambda g: g * GIB),
    st.integers(1, 64).map(lambda g: g * GIB),
    st.floats(1e10, 1e14),
)
def test_transitivity(slope, intercept, ref, mid, target, base):
    model = _sized(slope, intercept, ref)
    via_mid_model = _sized(slope, intercept, mid)
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
    model = _sized(slope, 0.0, ref)
    assert scale_prediction(base, model, target) == base * (target / ref)


def test_recovery_from_synthetic_line_with_many_points():
    slope, intercept = 2.5e2, 7.0e11
    sizes = [g * GIB for g in (1, 2, 4, 8, 16, 32)]
    points = [(s, slope * s + intercept) for s in sizes]
    fitted_slope, fitted_intercept = fit_scaling(points)
    assert fitted_slope == pytest.approx(slope, rel=1e-10)
    assert fitted_intercept == pytest.approx(intercept, rel=1e-10)


@pytest.mark.parametrize("input_bytes", [None, 12 * GIB])
def test_cost_model_at_reference_is_the_surface(input_bytes):
    for model in (SURFACE, _sized(7.3e2, 4.2e11, 12 * GIB)):
        for mappers, reducers in ((1, 1), (6, 10), (32, 3)):
            want = predict(SURFACE, mappers, reducers)
            assert model.predict(mappers, reducers, input_bytes) == want


def test_cost_model_needs_one_reference_size():
    # A model cannot lack a reference size, or hold one outside the count
    # rule's [1, 2**63).  A file's second, disagreeing size is a store test.
    with pytest.raises(TypeError, match="ref_input_bytes"):
        CostModel(app="sort", a=SURFACE.a, condition_estimate=1.0, training_residual=0.0)
    for size, message in ((0, ">= 1, got 0"), (-GIB, ">= 1, got -"), (2**63, r"< 2\*\*63, got")):
        with pytest.raises(ValueError, match=f"^ref_input_bytes must be {message}"):
            dataclasses.replace(SURFACE, ref_input_bytes=size)


@pytest.mark.parametrize("scaled", [False, True])
def test_cost_model_over_arrays_is_the_scalar_one_bit_for_bit(scaled):
    model = _sized(7.3e2, 4.2e11, 12 * GIB) if scaled else SURFACE
    mappers = np.array([1, 6, 32, 7, 40])
    reducers = np.array([1, 10, 3, 7, 2])
    sizes = np.array([12, 24, 12, 6, 48]) * GIB
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = model.predict(mappers, reducers, sizes)
        # Without a size line, one warning for the call, not one per size.
        assert len(caught) == (0 if scaled else 1)
        assert values.tolist() == [
            model.predict(m, r, size)
            for m, r, size in zip(mappers.tolist(), reducers.tolist(), sizes.tolist())
        ]
    assert model.predict(mappers, reducers).tolist() == [
        predict(SURFACE, m, r) for m, r in zip(mappers.tolist(), reducers.tolist())
    ]
    assert type(model.predict(6, 10, 12 * GIB)) is float


@pytest.mark.parametrize(
    "args, error",
    [
        (([1, True], [1, 1]), TypeError),
        ((np.array([True]), [1]), TypeError),
        (([1, 2.0], [1, 1]), TypeError),
        ((np.array([1.0]), [1]), TypeError),
        (([1, 0], [1, 1]), ValueError),
        (([1, 1], [1, 2**63]), ValueError),
        (([1, 1], [1, 1], [GIB, 2**64]), ValueError),
        (([1, 1], [1, 1, 1]), ShapeMismatchError),
    ],
)
def test_cost_model_holds_arrays_to_job_config_rules(args, error):
    with pytest.raises(error):
        SURFACE.predict(*args)


def test_cost_model_takes_numpy_integer_scalars():
    model = SURFACE
    assert model.predict(np.arange(4, 9)[0], 8) == model.predict(4, 8)
    assert model.predict(np.uint8(4), np.int32(8), np.int64(SURFACE.ref_input_bytes)) == model.predict(4, 8)
    with pytest.raises(TypeError, match="^mappers must be an int"):
        model.predict(np.bool_(True), 8)


def test_a_size_line_must_be_finite():
    for line in ((float("inf"), 0.0), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="size line slope and intercept must be finite"):
            _sized(*line, GIB)


def _profiles(apps, sizes):
    """One profile per (app, size), on the line 1e3 cycles/byte + 1e12."""
    n = len(sizes)
    return ProfileTable(
        apps=tuple(apps),
        mappers=[4] * n,
        reducers=[4] * n,
        input_bytes=list(sizes),
        mean_cycles=[1.0e3 * size + 1.0e12 for size in sizes],
        repetitions=[1] * n,
    )


def test_with_size_line_adds_the_line_through_the_profiles():
    sizes = [6 * GIB, 12 * GIB, 24 * GIB]
    sized = SURFACE.with_size_line(_profiles(["sort"] * 3, sizes))
    assert sized.line == pytest.approx((1.0e3, 1.0e12), rel=1e-10)
    assert dataclasses.replace(sized, line=None) == SURFACE


@pytest.mark.parametrize("apps", [["grep", "grep"], ["sort", "grep"]], ids=["other", "mixed"])
def test_with_size_line_refuses_another_application(apps):
    with pytest.raises(MixedApplicationsError, match=r"\['grep'\] cannot size the model of 'sort'"):
        SURFACE.with_size_line(_profiles(apps, [6 * GIB, 12 * GIB]))
