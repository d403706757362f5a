import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclecast import metrics
from cyclecast.core import ShapeMismatchError
from cyclecast.metrics import (
    DEFAULT_PRED_THRESHOLD,
    EvaluationReport,
    ZeroActualError,
    evaluate,
    mape,
    pred25,
    r2_paper,
    r2_standard,
    rmse,
)

vectors = st.lists(st.floats(1.0, 1e6), min_size=2, max_size=40)


def paired(draw_len=st.integers(2, 40)):
    return draw_len.flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1.0, 1e6), min_size=n, max_size=n),
            st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n),
        )
    )


class TestHandExamples:
    def test_mape(self):
        # Relative errors 0.1, 0.05, 0.1 average to 1/12.
        value = mape([100.0, 200.0, 400.0], [110.0, 190.0, 440.0])
        assert abs(value - 1.0 / 12.0) <= 1e-12

    def test_mape_is_zero_for_perfect_predictions(self):
        assert mape([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_pred25(self):
        # Relative errors 0.10, 0.30, 0.20, 0.26: two strictly below 0.25.
        value = pred25(
            [100.0, 100.0, 100.0, 100.0], [110.0, 130.0, 120.0, 126.0]
        )
        assert value == 0.5

    def test_pred25_threshold_is_strict(self):
        assert pred25([100.0], [125.0]) == 0.0
        assert pred25([100.0], [124.0]) == 1.0

    def test_rmse(self):
        # Differences [0, 2] give sqrt(4/2) = sqrt(2).
        value = rmse([1.0, 1.0], [1.0, 3.0])
        assert abs(value - math.sqrt(2.0)) <= 1e-12

    def test_r2_paper(self):
        # SSE 1; predictions spread about mean(actual)=2 is 1+0+4=5.
        value = r2_paper([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert abs(value - 0.8) <= 1e-12

    def test_r2_standard_zero_for_mean_predictor(self):
        value = r2_standard([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert value == 0.0

    def test_r2_paper_none_when_predictions_sit_on_actual_mean(self):
        assert r2_paper([1.0, 3.0], [2.0, 2.0]) is None

    def test_r2_standard_none_for_constant_actuals(self):
        assert r2_standard([2.0, 2.0], [1.0, 3.0]) is None

    def test_r2_variants_disagree_by_construction(self):
        actual = [1.0, 2.0, 3.0]
        predicted = [1.0, 2.0, 4.0]
        assert r2_paper(actual, predicted) != r2_standard(actual, predicted)


class TestErrors:
    def test_zero_actual(self):
        with pytest.raises(ZeroActualError):
            mape([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ZeroActualError):
            pred25([0.0], [1.0])

    def test_length_mismatch(self):
        for fn in (mape, pred25, rmse, r2_paper, r2_standard):
            with pytest.raises(ShapeMismatchError):
                fn([1.0, 2.0], [1.0])

    def test_empty(self):
        for fn in (mape, pred25, rmse):
            with pytest.raises(ShapeMismatchError):
                fn([], [])

    def test_not_1d(self):
        for fn in (mape, pred25, rmse, r2_paper, r2_standard):
            with pytest.raises(ShapeMismatchError, match="^actual and predicted must be 1-d$"):
                fn([[1.0]], [[1.0]])

    def test_r2_needs_two_points(self):
        for fn in (r2_paper, r2_standard):
            with pytest.raises(ShapeMismatchError):
                fn([1.0], [1.0])

    @pytest.mark.parametrize(
        "actual, predicted, error, message",
        [
            (["1.0", "2.0"], [1, 2], TypeError, "actual must hold numbers, got str"),
            ([1.0, 2.0], [True, 2], TypeError, "predicted must hold numbers, got bool"),
            ([b"1", b"2"], [1.0, 2.0], TypeError, "actual must hold numbers, got bytes"),
            ([1.0, math.nan], [1.0, 2.0], ValueError, "actual must be finite, got nan"),
            (np.array([1.0, 2.0]), np.array([-math.inf, 2.0]), ValueError,
             "predicted must be finite, got -inf"),
        ],
        ids=["str", "bool", "bytes", "nan", "infinite-array"],
    )
    def test_vectors_follow_the_real_rule(self, actual, predicted, error, message):
        for fn in (evaluate, mape, pred25, rmse, r2_paper, r2_standard):
            with pytest.raises(error, match=f"^{message}$"):
                fn(actual, predicted)

    def test_negative_values_are_reals(self):
        assert rmse([-1.0, 2.0], [1.0, 2.0]) == math.sqrt(2.0)


class TestInvariants:
    @given(paired(), st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, pair, c):
        actual, predicted = pair
        a = [c * v for v in actual]
        p = [c * v for v in predicted]
        assert mape(a, p) == pytest.approx(mape(actual, predicted), rel=1e-12, abs=1e-12)
        # Scaling rounds each relative error by an ulp or so, which can carry
        # one that sits on the threshold across it: only those may move.
        # Counted as rows, since a difference of two fractions rounds too.
        errors = np.abs(np.subtract(actual, predicted)) / np.abs(actual)
        on_threshold = np.isclose(errors, DEFAULT_PRED_THRESHOLD, rtol=1e-12, atol=0).sum()
        n = len(actual)
        assert abs(round(pred25(a, p) * n) - round(pred25(actual, predicted) * n)) <= on_threshold
        assert rmse(a, p) == pytest.approx(c * rmse(actual, predicted), rel=1e-12)

    @given(paired(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pair, rand):
        actual, predicted = pair
        order = list(range(len(actual)))
        rand.shuffle(order)
        a = [actual[i] for i in order]
        p = [predicted[i] for i in order]
        assert mape(a, p) == pytest.approx(mape(actual, predicted), rel=1e-12, abs=1e-15)
        assert rmse(a, p) == pytest.approx(rmse(actual, predicted), rel=1e-12, abs=1e-15)
        assert pred25(a, p) == pred25(actual, predicted)

    @given(paired())
    def test_ranges(self, pair):
        actual, predicted = pair
        assert 0.0 <= pred25(actual, predicted) <= 1.0
        assert mape(actual, predicted) >= 0.0
        assert rmse(actual, predicted) >= 0.0


class TestEvaluate:
    def test_report_composition(self):
        actual = [100.0, 200.0, 400.0]
        predicted = [110.0, 190.0, 440.0]
        report = evaluate(actual, predicted)
        assert report.n == 3
        assert report.mape == mape(actual, predicted)
        assert report.pred25 == pred25(actual, predicted)
        assert report.rmse == rmse(actual, predicted)
        assert report.r2_paper == r2_paper(actual, predicted)
        assert report.r2_standard == r2_standard(actual, predicted)
        mean_actual = sum(actual) / len(actual)
        assert report.rmse_norm == pytest.approx(report.rmse / mean_actual, rel=1e-15)

    def test_json_dict_key_set_and_null_mapping(self):
        report = evaluate([2.0, 2.0], [1.0, 3.0])
        payload = report.to_json_dict()
        assert list(payload) == [
            "n",
            "mape",
            "pred25",
            "rmse",
            "rmse_norm",
            "r2_paper",
            "r2_standard",
        ]
        assert payload["r2_standard"] is None
        assert json.loads(json.dumps(payload))["r2_standard"] is None

    def test_needs_two_points(self):
        with pytest.raises(ShapeMismatchError):
            evaluate([1.0], [1.0])

    def test_report_validation(self):
        with pytest.raises(ValueError):
            EvaluationReport(
                n=1, mape=0.0, pred25=0.0, rmse=0.0, rmse_norm=0.0,
                r2_paper=None, r2_standard=None,
            )
        with pytest.raises(ValueError):
            EvaluationReport(
                n=2, mape=0.0, pred25=1.5, rmse=0.0, rmse_norm=0.0,
                r2_paper=None, r2_standard=None,
            )
        with pytest.raises(ValueError):
            EvaluationReport(
                n=2, mape=-0.1, pred25=0.5, rmse=0.0, rmse_norm=0.0,
                r2_paper=None, r2_standard=None,
            )

    def test_accepts_numpy_arrays(self):
        report = evaluate(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert report.mape == 0.0


def test_evaluate_checks_its_pair_once(monkeypatch):
    # One check of the pair feeds every field: two core._reals calls, one
    # per vector, where calling each metric would make twelve.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return reals(*args, **kwargs)

    reals = metrics._reals
    monkeypatch.setattr(metrics, "_reals", counted)
    actual, predicted = [100.0, 200.0, 300.0], [110.0, 190.0, 330.0]
    report = evaluate(actual, predicted)
    assert calls == ["actual", "predicted"]
    assert report == EvaluationReport(
        n=3,
        mape=mape(actual, predicted),
        pred25=pred25(actual, predicted),
        rmse=rmse(actual, predicted),
        rmse_norm=rmse(actual, predicted) / 200.0,
        r2_paper=r2_paper(actual, predicted),
        r2_standard=r2_standard(actual, predicted),
    )
