"""Prediction-quality metrics over aligned actual/predicted cycle vectors.

mape and pred25 are fractions in [0, 1]; presentation layers multiply by
100.  Two R-squared variants are exposed because their denominators
differ: r2_paper spreads the predictions about the mean of the actuals,
r2_standard is the conventional coefficient of determination (actuals
about their own mean).  Either returns None instead of raising when its
denominator is degenerate, and report serialization maps None to null.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from .core import CyclecastError, ShapeMismatchError, _check_count, _real, _reals

DEFAULT_PRED_THRESHOLD = 0.25

# Denominators below this are treated as exactly degenerate.
_DENOM_FLOOR = 1e-300


class ZeroActualError(CyclecastError):
    """Relative error against a zero actual value is undefined."""


def _paired(
    actual: Sequence[float], predicted: Sequence[float], min_len: int
) -> tuple[np.ndarray, np.ndarray]:
    a = _reals("actual", actual, -math.inf)
    p = _reals("predicted", predicted, -math.inf)
    if a.ndim != 1 or p.ndim != 1:
        raise ShapeMismatchError("actual and predicted must be 1-d")
    if a.shape != p.shape:
        raise ShapeMismatchError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] < min_len:
        raise ShapeMismatchError(f"need >= {min_len} observations, got {a.shape[0]}")
    return a, p


def _relative_errors(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    if np.any(a == 0):
        raise ZeroActualError("actual values must be nonzero for relative errors")
    return np.abs(a - p) / np.abs(a)


def mape(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute relative error, as a fraction."""
    a, p = _paired(actual, predicted, min_len=1)
    return float(np.mean(_relative_errors(a, p)))


def pred25(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Fraction of observations with relative error strictly below
    DEFAULT_PRED_THRESHOLD, 0.25."""
    a, p = _paired(actual, predicted, min_len=1)
    return float(np.mean(_relative_errors(a, p) < DEFAULT_PRED_THRESHOLD))


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error, in cycles."""
    return _rmse(*_paired(actual, predicted, min_len=1))


def _rmse(a: np.ndarray, p: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - p) ** 2)))


def r2_paper(actual: Sequence[float], predicted: Sequence[float]) -> float | None:
    """1 - SSE / sum((predicted - mean(actual))^2), or None when degenerate.

    The denominator measures how the predictions spread around the actual
    mean, so this is not the conventional R-squared; see r2_standard.
    """
    a, p = _paired(actual, predicted, min_len=2)
    return _r2(a, p, spread=p)


def r2_standard(actual: Sequence[float], predicted: Sequence[float]) -> float | None:
    """Conventional coefficient of determination, or None for constant actuals."""
    a, p = _paired(actual, predicted, min_len=2)
    return _r2(a, p, spread=a)


def _r2(a: np.ndarray, p: np.ndarray, spread: np.ndarray) -> float | None:
    """1 - SSE / sum((spread - mean(a))^2), or None when that sum is degenerate."""
    denom = float(np.sum((spread - np.mean(a)) ** 2))
    if denom < _DENOM_FLOOR:
        return None
    return 1.0 - float(np.sum((a - p) ** 2)) / denom


@dataclass(frozen=True)
class EvaluationReport:
    """All metrics for one evaluation set, plus its size."""

    n: int
    mape: float
    pred25: float
    rmse: float
    rmse_norm: float | None
    r2_paper: float | None
    r2_standard: float | None

    def __post_init__(self) -> None:
        _check_count("n", self.n, 2)
        if not 0 <= self.pred25 <= 1:
            raise ValueError(f"pred25 must be in [0, 1], got {self.pred25}")
        for name in ("mape", "rmse"):
            _real(name, getattr(self, name))

    def to_json_dict(self) -> dict[str, Any]:
        """Plain dict of the fields, in order; None becomes null downstream."""
        return asdict(self)


def evaluate(actual: Sequence[float], predicted: Sequence[float]) -> EvaluationReport:
    """Compute every metric over one evaluation set (needs >= 2 points);
    the pair is checked, and its relative errors computed, once."""
    a, p = _paired(actual, predicted, min_len=2)
    errors = _relative_errors(a, p)
    rmse_value = _rmse(a, p)
    mean_actual = float(np.mean(a))
    rmse_norm = rmse_value / mean_actual if abs(mean_actual) >= _DENOM_FLOOR else None
    return EvaluationReport(
        n=int(a.shape[0]),
        mape=float(np.mean(errors)),
        pred25=float(np.mean(errors < DEFAULT_PRED_THRESHOLD)),
        rmse=rmse_value,
        rmse_norm=rmse_norm,
        r2_paper=_r2(a, p, spread=p),
        r2_standard=_r2(a, p, spread=a),
    )
