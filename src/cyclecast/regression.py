"""Quadratic cost-surface model over (mappers, reducers).

The model form is

    cycles(M, R) = a0 + a1*M + a2*M^2 + a3*R + a4*R^2

fitted by least squares in fit_least_squares.  It rescales each design
column by its max absolute value and solves via SVD (numpy.linalg.lstsq),
which keeps the solve well conditioned even though M^2 and R^2 dwarf the
constant column.  The result, ModelCoefficients, carries a condition
estimate (ratio of extreme singular values of the scaled design matrix)
and the training residual norm.

build_design_matrix and predict take (M, R) as two scalars or two
equal-length integer arrays, so a whole grid is one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .core import (
    CyclecastError,
    EmptyInputError,
    NegativePredictionWarning,
    ProfileTable,
    ShapeMismatchError,
)

BASIS_TAG = "quad-mr-v1"
N_COEFFS = 5
CONDITION_LIMIT = 1e10
RANK_RTOL = 1e-12


class MixedApplicationsError(CyclecastError):
    """Profiles from different applications cannot share one fit."""


class MixedInputSizesError(CyclecastError):
    """Profiles of different input sizes cannot share one surface."""


class RankDeficientError(CyclecastError):
    """The design matrix does not determine all five coefficients."""


class IllConditionedError(CyclecastError):
    """The scaled design matrix's condition estimate exceeds the limit."""


@dataclass(frozen=True)
class ModelCoefficients:
    """A fitted quadratic surface plus fit diagnostics.

    ref_input_bytes is the input size the training profiles shared;
    predictions at other sizes need a scaling model.
    """

    a: tuple[float, float, float, float, float]
    condition_estimate: float
    training_residual: float
    basis_tag: str = BASIS_TAG
    app: str = ""
    ref_input_bytes: int | None = None

    def __post_init__(self) -> None:
        a = tuple(float(v) for v in self.a)
        if len(a) != N_COEFFS:
            raise ShapeMismatchError(f"need {N_COEFFS} coefficients, got {len(a)}")
        if not all(math.isfinite(v) for v in a):
            raise ValueError("coefficients must be finite")
        if not 0 < self.condition_estimate < math.inf:
            raise ValueError(
                f"condition_estimate must be finite and > 0, got {self.condition_estimate}"
            )
        if not math.isfinite(self.training_residual) or self.training_residual < 0:
            raise ValueError(
                f"training_residual must be finite and >= 0, "
                f"got {self.training_residual}"
            )
        # The upper bound is the count rule's: no run can have a larger size.
        if self.ref_input_bytes is not None and not 1 <= self.ref_input_bytes < 2**63:
            raise ValueError(
                f"ref_input_bytes must be in [1, 2**63) or None, got {self.ref_input_bytes}"
            )
        object.__setattr__(self, "a", a)


def _pair(mappers: ArrayLike, reducers: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    m, r = np.asarray(mappers), np.asarray(reducers)
    if m.shape != r.shape:
        raise ShapeMismatchError(f"mappers have shape {m.shape} but reducers {r.shape}")
    return m, r


def build_design_matrix(mappers: ArrayLike, reducers: ArrayLike) -> np.ndarray:
    """The read-only (K, 5) basis [1, M, M^2, R, R^2] at each (M, R) pair."""
    m, r = (np.ravel(v).astype(float) for v in _pair(mappers, reducers))
    rows = np.column_stack([np.ones_like(m), m, m * m, r, r * r])
    rows.setflags(write=False)
    return rows


def fit_least_squares(profiles: ProfileTable) -> ModelCoefficients:
    """Fit the surface through the profiles' mean cycles.

    The profiles must share one app and one input size, which becomes the
    surface's reference size.  Fewer than five distinct (M, R) points or
    a numerically rank-deficient design raise RankDeficientError, a
    condition estimate above CONDITION_LIMIT IllConditionedError.
    """
    if not len(profiles):
        raise EmptyInputError("no profiles to fit")
    apps = sorted(set(profiles.apps))
    if len(apps) > 1:
        raise MixedApplicationsError(f"profiles span applications {apps}")
    sizes = sorted(set(profiles.input_bytes.tolist()))
    if len(sizes) > 1:
        raise MixedInputSizesError(f"profiles span input sizes {sizes}")
    points = len(set(zip(profiles.mappers.tolist(), profiles.reducers.tolist())))
    if points < N_COEFFS:
        raise RankDeficientError(
            f"need >= {N_COEFFS} distinct (mappers, reducers) points, got {points}"
        )
    rows = build_design_matrix(profiles.mappers, profiles.reducers)
    y = profiles.mean_cycles
    scale = np.max(np.abs(rows), axis=0)
    scaled = rows / scale
    solution, _, rank, singular_values = np.linalg.lstsq(scaled, y, rcond=RANK_RTOL)
    if rank < N_COEFFS:
        raise RankDeficientError(
            f"design matrix is numerically rank deficient (rank {rank})"
        )
    condition = float(singular_values[0] / singular_values[-1])
    if condition > CONDITION_LIMIT:
        raise IllConditionedError(
            f"condition estimate {condition:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    a = solution / scale
    residual = float(np.linalg.norm(rows @ a - y))
    return ModelCoefficients(
        a=tuple(float(v) for v in a),
        condition_estimate=condition,
        training_residual=residual,
        app=apps[0],
        ref_input_bytes=sizes[0],
    )


def predict(
    model: ModelCoefficients, mappers: ArrayLike, reducers: ArrayLike
) -> float | np.ndarray:
    """Evaluate the surface at (mappers, reducers): a float for scalars,
    an array for arrays.

    A negative evaluation is clamped to 0.0; cycle counts cannot be
    negative, so a negative value means the config sits outside the
    region the fit represents well.  One NegativePredictionWarning per
    call names the first clamped point.
    """
    m_in, r_in = _pair(mappers, reducers)
    m, r = m_in.astype(float), r_in.astype(float)
    a0, a1, a2, a3, a4 = model.a
    value = a0 + a1 * m + a2 * m * m + a3 * r + a4 * r * r
    return _clamp_negative(
        value,
        lambda i: f"surface predicts {value.flat[i]:.6g} cycles at "
        f"(mappers={m_in.flat[i]}, reducers={r_in.flat[i]})",
    )


def _clamp_negative(value: np.ndarray, where: Callable[[int], str]) -> float | np.ndarray:
    """value with negatives set to 0.0, a float when 0-d.  A clamp warns
    once; where(i) describes the first clamped element, at flat index i."""
    negative = value < 0
    if negative.any():
        warnings.warn(
            f"{where(np.flatnonzero(negative)[0])}; clamping to 0",
            NegativePredictionWarning,
            stacklevel=3,
        )
        value = np.where(negative, 0.0, value)
    return float(value) if np.ndim(value) == 0 else value
