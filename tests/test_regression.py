import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclecast.core import (
    EmptyInputError,
    JobConfig,
    JobProfile,
    NegativePredictionWarning,
    ShapeMismatchError,
)
from cyclecast.regression import (
    BASIS_TAG,
    DesignMatrix,
    IllConditionedError,
    MixedApplicationsError,
    MixedInputSizesError,
    ModelCoefficients,
    RankDeficientError,
    SingularNormalMatrixError,
    TargetVector,
    build_design_matrix,
    design_row,
    fit_least_squares,
    predict,
    solve_normal_equations,
)

TRUTH = (1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8)


def _model(a, **kwargs):
    defaults = dict(condition_estimate=1.0, training_residual=0.0)
    defaults.update(kwargs)
    return ModelCoefficients(a=tuple(a), **defaults)


def _matrix_for(pairs, app="bench", input_bytes=1):
    configs = tuple(JobConfig(m, r, input_bytes) for m, r in pairs)
    rows = np.vstack([design_row(c) for c in configs])
    return DesignMatrix(rows=rows, configs=configs, app=app)


def _surface(a, m, r):
    return a[0] + a[1] * m + a[2] * m * m + a[3] * r + a[4] * r * r


def _grid_profiles(a, grid, app="bench"):
    return [
        JobProfile(
            app=app,
            config=JobConfig(m, r, 1024),
            mean_cycles=_surface(a, m, r),
            repetitions=1,
        )
        for m in grid
        for r in grid
    ]


def test_design_row():
    row = design_row(JobConfig(mappers=3, reducers=7, input_bytes=1))
    assert row.tolist() == [1.0, 3.0, 9.0, 7.0, 49.0]


def test_design_matrix_rejects_rows_that_disagree_with_configs():
    configs = (JobConfig(2, 3, 1),)
    with pytest.raises(ValueError):
        DesignMatrix(rows=np.array([[1.0, 2.0, 4.0, 3.0, 10.0]]), configs=configs)


def test_predict_hand_example():
    # 1e12 + 2e10*4 + 3e8*16 + 4e10*8 + 5e8*64 = 1.4368e12, exactly.
    model = _model(TRUTH)
    assert predict(model, JobConfig(4, 8, 1)) == 1.4368e12


def test_predict_clamps_negative_to_zero_with_warning():
    model = _model((-1.0e12, 0.0, 0.0, 0.0, 0.0))
    with pytest.warns(NegativePredictionWarning):
        assert predict(model, JobConfig(1, 1, 1)) == 0.0


def test_noiseless_grid_recovery_is_nearly_exact():
    profiles = _grid_profiles(TRUTH, range(4, 33, 4))
    matrix, targets = build_design_matrix(profiles)
    fitted = fit_least_squares(matrix, targets)
    for got, want in zip(fitted.a, TRUTH):
        assert got == pytest.approx(want, rel=1e-12)
    assert fitted.app == "bench"
    assert fitted.ref_input_bytes == 1024
    assert fitted.basis_tag == BASIS_TAG
    assert fitted.condition_estimate < 100
    assert fitted.training_residual < 1e-3 * abs(TRUTH[0]) ** 0.5


def test_normal_equations_match_on_clean_grid():
    profiles = _grid_profiles(TRUTH, range(4, 33, 4))
    matrix, targets = build_design_matrix(profiles)
    production = fit_least_squares(matrix, targets)
    literal = solve_normal_equations(matrix, targets)
    for a, b in zip(production.a, literal.a):
        assert a == pytest.approx(b, rel=1e-8)
    assert literal.condition_estimate == pytest.approx(
        production.condition_estimate, rel=1e-12
    )


def test_fewer_than_five_distinct_configs():
    pairs = [(4, 4), (4, 8), (8, 4), (8, 8), (4, 4), (8, 8)]
    matrix = _matrix_for(pairs)
    targets = TargetVector(np.ones(len(pairs)))
    with pytest.raises(RankDeficientError):
        fit_least_squares(matrix, targets)


def test_collinear_configs_are_rank_deficient():
    # Five distinct points but constant reducers: the R and R^2 columns
    # collapse onto the constant column.
    pairs = [(m, 6) for m in (2, 4, 8, 16, 32)]
    matrix = _matrix_for(pairs)
    targets = TargetVector(np.ones(len(pairs)))
    with pytest.raises(RankDeficientError):
        fit_least_squares(matrix, targets)


def test_tight_cluster_is_ill_conditioned():
    # A 3x3 box at 60000 has scaled condition ~4.5e10: full rank, but past
    # the 1e10 limit.
    base = 60000
    pairs = [(m, r) for m in range(base, base + 3) for r in range(base, base + 3)]
    matrix = _matrix_for(pairs)
    targets = TargetVector(np.ones(len(pairs)))
    with pytest.raises(IllConditionedError):
        fit_least_squares(matrix, targets)


def test_normal_equations_singular_on_repeated_config():
    pairs = [(4, 8)] * 5
    matrix = _matrix_for(pairs)
    targets = TargetVector(np.ones(5))
    with pytest.raises(SingularNormalMatrixError):
        solve_normal_equations(matrix, targets)


def test_mixed_apps_rejected():
    profiles = _grid_profiles(TRUTH, (4, 8, 12, 16, 20))
    profiles[0] = JobProfile(
        app="other",
        config=profiles[0].config,
        mean_cycles=profiles[0].mean_cycles,
        repetitions=1,
    )
    with pytest.raises(MixedApplicationsError):
        build_design_matrix(profiles)


def test_empty_profiles_rejected():
    with pytest.raises(EmptyInputError):
        build_design_matrix([])


def test_target_length_mismatch():
    matrix = _matrix_for([(4, 4), (4, 8), (8, 4), (8, 8), (12, 12)])
    with pytest.raises(ShapeMismatchError):
        fit_least_squares(matrix, TargetVector(np.ones(4)))


def test_fit_residual_matches_residual_norm():
    rng = np.random.default_rng(42)
    profiles = _grid_profiles(TRUTH, range(4, 25, 4))
    noisy = [
        JobProfile(
            app=p.app,
            config=p.config,
            mean_cycles=p.mean_cycles * (1.0 + rng.normal(0, 0.02)),
            repetitions=1,
        )
        for p in profiles
    ]
    matrix, targets = build_design_matrix(noisy)
    fitted = fit_least_squares(matrix, targets)
    residual = np.linalg.norm(matrix.rows @ np.asarray(fitted.a) - targets.values)
    assert fitted.training_residual == pytest.approx(residual, rel=1e-12)
    assert fitted.training_residual > 0


def test_mixed_input_sizes_have_no_reference():
    profiles = _grid_profiles(TRUTH, (4, 8, 12, 16, 20))
    other = JobProfile(
        app="bench",
        config=JobConfig(24, 24, 2048),
        mean_cycles=_surface(TRUTH, 24, 24),
        repetitions=1,
    )
    matrix, targets = build_design_matrix(profiles + [other])
    with pytest.raises(MixedInputSizesError):
        fit_least_squares(matrix, targets)
    with pytest.raises(MixedInputSizesError):
        solve_normal_equations(matrix, targets)


def test_model_coefficients_validation():
    with pytest.raises(ShapeMismatchError):
        ModelCoefficients(a=(1.0, 2.0), condition_estimate=1.0, training_residual=0.0)
    with pytest.raises(ValueError):
        _model(TRUTH, condition_estimate=0.0)
    with pytest.raises(ValueError):
        _model(TRUTH, condition_estimate=float("nan"))
    with pytest.raises(ValueError):
        _model(TRUTH, training_residual=-1.0)
    with pytest.raises(ValueError):
        _model(TRUTH, ref_input_bytes=0)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(
        st.floats(1e8, 1e12),
        st.floats(1e6, 1e10),
        st.floats(1e4, 1e8),
        st.floats(1e6, 1e10),
        st.floats(1e4, 1e8),
    )
)
def test_noiseless_recovery_property(truth):
    profiles = _grid_profiles(truth, range(4, 33, 4))
    matrix, targets = build_design_matrix(profiles)
    fitted = fit_least_squares(matrix, targets)
    for got, want in zip(fitted.a, truth):
        assert got == pytest.approx(want, rel=1e-9)
