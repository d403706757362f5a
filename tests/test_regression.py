import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import rows, solve_normal_equations, table

from cyclecast import regression, store
from cyclecast.cli import main
from cyclecast.core import (
    CyclecastError,
    EmptyInputError,
    NegativePredictionWarning,
    ProfileTable,
    RunTable,
    ShapeMismatchError,
)
from cyclecast.metrics import evaluate
from cyclecast.regression import (
    CostModel,
    DegenerateInputError,
    IllConditionedError,
    MixedApplicationsError,
    MixedInputSizesError,
    RankDeficientError,
    build_design_matrix,
    fit_least_squares,
    predict,
)

TRUTH = (1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8)


def _model(a, **kwargs):
    defaults = dict(app="bench", condition_estimate=1.0, training_residual=0.0, ref_input_bytes=1)
    defaults.update(kwargs)
    return CostModel(a=tuple(a), **defaults)


def _profiles_for(pairs, app="bench", input_bytes=1):
    """Profiles of one cycle each at the (mappers, reducers) pairs."""
    return table(ProfileTable, [(app, m, r, input_bytes, 1.0, 1) for m, r in pairs])


def _surface(a, m, r):
    return a[0] + a[1] * m + a[2] * m * m + a[3] * r + a[4] * r * r


def _grid_rows(a, grid, app="bench"):
    """Profile rows of the surface a over the grid, at 1024 bytes."""
    return [(app, m, r, 1024, _surface(a, m, r), 1) for m in grid for r in grid]


def _grid_profiles(a, grid, app="bench"):
    return table(ProfileTable, _grid_rows(a, grid, app))


def test_design_row():
    assert build_design_matrix(3, 7).tolist() == [[1.0, 3.0, 9.0, 7.0, 49.0]]
    design = build_design_matrix([3, 2], np.array([7, 1]))
    assert design.tolist() == [[1.0, 3.0, 9.0, 7.0, 49.0], [1.0, 2.0, 4.0, 1.0, 1.0]]
    assert not design.flags.writeable


@pytest.mark.parametrize(
    "value", [2.5, True, np.bool_(True), 0, 2**63, "4"],
    ids=["float", "bool", "numpy-bool", "zero", "2**63", "str"],
)
def test_every_prediction_step_holds_mappers_to_the_count_rule(value):
    # One rule, in _pair: the model, the surface step and the design
    # matrix refuse a bad count with the same error.
    model = _model(TRUTH)
    errors = []
    for call in (
        lambda: predict(model, value, 4),
        lambda: build_design_matrix(value, 4),
        lambda: model.predict(value, 4),
    ):
        with pytest.raises((TypeError, ValueError)) as caught:
            call()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0][1].startswith("mappers must be")
    assert errors == [errors[0]] * 3


def test_mappers_and_reducers_must_share_a_shape():
    with pytest.raises(ShapeMismatchError):
        build_design_matrix([1, 2], [1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        predict(_model(TRUTH), [1, 2], 3)


def test_predict_hand_example():
    # 1e12 + 2e10*4 + 3e8*16 + 4e10*8 + 5e8*64 = 1.4368e12, exactly.
    model = _model(TRUTH)
    value = predict(model, 4, 8)
    assert value == 1.4368e12 and type(value) is float


def test_predict_over_arrays_is_the_per_point_formula_bit_for_bit():
    a = (1.0e12 / 3.0, 2.0e10 / 7.0, 3.0e8 / 11.0, 4.0e10 / 13.0, 5.0e8 / 17.0)
    mappers, reducers = np.meshgrid(np.arange(1, 257), np.arange(1, 257))
    mappers, reducers = mappers.ravel(), reducers.ravel()
    values = predict(_model(a), mappers, reducers)
    assert values.shape == mappers.shape
    # _surface on Python ints and floats is the scalar arithmetic, in its order.
    assert values.tolist() == [
        _surface(a, m, r) for m, r in zip(mappers.tolist(), reducers.tolist())
    ]


def test_predict_clamps_negative_to_zero_with_warning():
    model = _model((-1.0e12, 0.0, 0.0, 0.0, 0.0))
    with pytest.warns(NegativePredictionWarning):
        assert predict(model, 1, 1) == 0.0


def test_predict_over_arrays_warns_once_naming_the_first_clamp():
    # Negative at reducers >= 3 only.
    model = _model((2.0e12, 0.0, 0.0, -1.0e12, 0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = predict(model, [5, 6, 7], [1, 3, 4])
    assert values.tolist() == [1.0e12, 0.0, 0.0]
    assert len(caught) == 1
    assert str(caught[0].message) == (
        "surface predicts -1e+12 cycles at (mappers=6, reducers=3); clamping to 0"
    )


OVERFLOWS = (0.0, 1e300, 0.0, 0.0, -1e300)
SURFACE_AT = "surface predicts {} cycles at (mappers={}, reducers={})"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "model, args, message",
    [
        (_model(OVERFLOWS), (2**62, 2**62), SURFACE_AT.format("nan", 2**62, 2**62)),
        (_model(OVERFLOWS), (2**62, 1), SURFACE_AT.format("inf", 2**62, 1)),
        (_model((0.0, 1e307, 0.0, 0.0, 0.0)), ([1, 100, 1000], [1, 1, 1]),
         SURFACE_AT.format("inf", 100, 1)),
        (_model(TRUTH, line=(1e300, 1.0)), (4, 8, [1, 2**62]),
         f"scaling to {2**62} bytes gives inf cycles"),
    ],
    ids=["nan", "inf", "first-of-an-array", "size-line"],
)
def test_a_prediction_that_is_not_finite_is_an_error(model, args, message):
    # numpy's overflow warnings are errors here: the typed error is the
    # only report.
    with pytest.raises(CyclecastError) as caught:
        model.predict(*args)
    assert str(caught.value) == f"{message}; a cycle count must be finite"


def test_noiseless_grid_recovery_is_nearly_exact():
    profiles = _grid_profiles(TRUTH, range(4, 33, 4))
    fitted = fit_least_squares(profiles)
    for got, want in zip(fitted.a, TRUTH):
        assert got == pytest.approx(want, rel=1e-12)
    assert fitted.app == "bench"
    assert fitted.ref_input_bytes == 1024
    assert fitted.line is None
    assert fitted.condition_estimate < 100
    assert fitted.training_residual < 1e-3 * abs(TRUTH[0]) ** 0.5


def test_normal_equations_match_on_clean_grid():
    profiles = _grid_profiles(TRUTH, range(4, 33, 4))
    production = fit_least_squares(profiles)
    design = build_design_matrix(profiles.mappers, profiles.reducers)
    literal = solve_normal_equations(design, profiles.mean_cycles)
    for a, b in zip(production.a, literal):
        assert a == pytest.approx(b, rel=1e-8)


def test_fewer_than_five_distinct_configs():
    pairs = [(4, 4), (4, 8), (8, 4), (8, 8), (4, 4), (8, 8)]
    with pytest.raises(RankDeficientError):
        fit_least_squares(_profiles_for(pairs))


def test_collinear_configs_are_rank_deficient():
    # Five distinct points but constant reducers: the R and R^2 columns
    # collapse onto the constant column.
    pairs = [(m, 6) for m in (2, 4, 8, 16, 32)]
    with pytest.raises(RankDeficientError):
        fit_least_squares(_profiles_for(pairs))


def test_tight_cluster_is_ill_conditioned():
    # A 3x3 box at 60000 has scaled condition ~4.5e10: full rank, but past
    # the 1e10 limit.
    base = 60000
    pairs = [(m, r) for m in range(base, base + 3) for r in range(base, base + 3)]
    with pytest.raises(IllConditionedError):
        fit_least_squares(_profiles_for(pairs))


def test_mixed_apps_rejected():
    first, *rest = _grid_rows(TRUTH, (4, 8, 12, 16, 20))
    profiles = table(ProfileTable, [("other", *first[1:]), *rest])
    with pytest.raises(MixedApplicationsError):
        fit_least_squares(profiles)


def test_empty_profiles_rejected():
    with pytest.raises(EmptyInputError):
        fit_least_squares(table(ProfileTable, []))


def test_fit_residual_matches_residual_norm():
    rng = np.random.default_rng(42)
    noisy = table(ProfileTable, [
        (app, m, r, b, cycles * (1.0 + rng.normal(0, 0.02)), reps)
        for app, m, r, b, cycles, reps in rows(_grid_profiles(TRUTH, range(4, 25, 4)))
    ])
    fitted = fit_least_squares(noisy)
    design = build_design_matrix(noisy.mappers, noisy.reducers)
    residual = np.linalg.norm(design @ np.asarray(fitted.a) - noisy.mean_cycles)
    assert fitted.training_residual == pytest.approx(residual, rel=1e-12)
    assert fitted.training_residual > 0


def test_mixed_input_sizes_have_no_reference():
    other = ("bench", 24, 24, 2048, _surface(TRUTH, 24, 24), 1)
    profiles = table(ProfileTable, _grid_rows(TRUTH, (4, 8, 12, 16, 20)) + [other])
    with pytest.raises(MixedInputSizesError):
        fit_least_squares(profiles)


def test_model_coefficients_validation():
    with pytest.raises(ShapeMismatchError):
        _model((1.0, 2.0))
    with pytest.raises(ValueError):
        _model(TRUTH, condition_estimate=0.0)
    with pytest.raises(ValueError):
        _model(TRUTH, condition_estimate=float("nan"))
    with pytest.raises(ValueError, match="condition_estimate must be finite and > 0"):
        _model(TRUTH, condition_estimate=float("inf"))
    with pytest.raises(ValueError):
        _model(TRUTH, training_residual=-1.0)
    with pytest.raises(ValueError):
        _model(TRUTH, ref_input_bytes=0)
    with pytest.raises(ValueError, match="^app must be non-empty$"):
        _model(TRUTH, app="")


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
    fitted = fit_least_squares(profiles)
    for got, want in zip(fitted.a, truth):
        assert got == pytest.approx(want, rel=1e-9)


def _runs(cells, app="bench"):
    """One run of cycles 1e12 + i at each (mappers, reducers, input_bytes) cell, in order."""
    return table(RunTable, [
        (app, f"run-{i}", m, r, size, 1.0e12 + i) for i, (m, r, size) in enumerate(cells)
    ])


def test_score_keeps_the_runs_at_the_configs_in_table_order():
    runs = _runs([(8, 4, 1), (4, 8, 1), (12, 12, 1), (8, 4, 1), (4, 4, 1)])
    with mock.patch.object(regression, "evaluate", wraps=evaluate) as scored:
        report = _model(TRUTH).score(runs, {(4, 8), (8, 4), (16, 16)})
    (actual, predicted), _ = scored.call_args
    assert actual.tolist() == [1.0e12, 1.0e12 + 1, 1.0e12 + 3]
    assert predicted.tolist() == [_surface(TRUTH, m, r) for m, r in [(8, 4), (4, 8), (8, 4)]]
    assert report.n == 3


@pytest.mark.parametrize(
    "cells, configs, n",
    [([(4, 8, 1), (8, 4, 1)], {(16, 16)}, 0), ([(4, 8, 1), (8, 4, 1)], [(8, 4)], 1),
     ([(4, 8, 1)], None, 1), ([], None, 0)],
    ids=["no-cell", "one-cell", "one-run", "no-run"],
)
def test_score_needs_two_runs_to_score(cells, configs, n):
    with pytest.raises(
        DegenerateInputError, match=f"^need >= 2 runs to evaluate, got {n} after filtering$"
    ):
        _model(TRUTH).score(_runs(cells), configs)


@pytest.mark.parametrize("configs", [None, set()], ids=["all", "none-kept"])
def test_score_refuses_runs_of_another_app(configs):
    runs = table(RunTable, rows(_runs([(4, 8, 1), (8, 4, 1)])) + rows(_runs([(4, 4, 1)], "grep")))
    with pytest.raises(
        MixedApplicationsError, match=r"^runs of \['grep'\] cannot score the model of 'bench'$"
    ):
        _model(TRUTH).score(runs, configs)


def test_score_predicts_each_run_at_its_own_size_bit_for_bit():
    model = _model(TRUTH, ref_input_bytes=2**30, line=(1.0e3 / 7.0, 1.0e11))
    runs = _runs([(m, r, gib * 2**30) for m, r in [(4, 8), (8, 4), (12, 16)] for gib in (1, 3, 7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = model.score(runs)
    want = evaluate(runs.total_cycles, model.predict(runs.mappers, runs.reducers, runs.input_bytes))
    assert json.dumps(report.to_json_dict()) == json.dumps(want.to_json_dict())
    assert report.n == 9


def test_score_without_a_size_line_warns_once():
    runs = _runs([(4, 8, 1), (8, 4, 2), (12, 16, 3)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _model(TRUTH).score(runs)
    assert [w.category for w in caught] == [UserWarning]
    assert "no scaling section" in str(caught[0].message)
    assert report == evaluate(runs.total_cycles, _model(TRUTH).predict(runs.mappers, runs.reducers))


def test_evaluate_on_the_command_line_prints_the_score(tmp_path, capsys):
    model = _model(TRUTH, ref_input_bytes=2**30, line=(150.0, 5.0e11))
    runs = _runs([(m, r, gib * 2**30) for m in (4, 8, 12) for r in (4, 16) for gib in (1, 2)])
    paths = [str(tmp_path / name) for name in ("model.json", "runs.jsonl", "holdout.txt")]
    store.save_model(paths[0], model)
    store.append_runs(paths[1], runs)
    Path(paths[2]).write_text("4 16\n12 4\n")
    argv = ["evaluate", "--model", paths[0], "--runs", paths[1], "--app", "bench"]
    for configs, flags in [(None, []), ({(4, 16), (12, 4)}, ["--holdout-list", paths[2]])]:
        capsys.readouterr()
        assert main(argv + flags) == 0
        assert capsys.readouterr().out == json.dumps(model.score(runs, configs).to_json_dict()) + "\n"
