"""Quadratic cost-surface model over (mappers, reducers).

The model form is

    cycles(M, R) = a0 + a1*M + a2*M^2 + a3*R + a4*R^2

fitted by least squares.  Two solvers are provided on purpose:

* fit_least_squares is the production path.  It rescales each design
  column by its max absolute value and solves via SVD (numpy.linalg.lstsq),
  which keeps the solve well conditioned even though M^2 and R^2 dwarf the
  constant column.
* solve_normal_equations forms H^T H and solves it directly.  It is the
  textbook closed form, kept unscaled and unpolished so it can serve as an
  independent cross-check of the production path.

Both return ModelCoefficients carrying a condition estimate (ratio of
extreme singular values of the scaled design matrix) and the training
residual norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CyclecastError,
    EmptyInputError,
    JobConfig,
    JobProfile,
    NegativePredictionWarning,
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


class SingularNormalMatrixError(CyclecastError):
    """The normal matrix H^T H is singular or yielded a non-finite solution."""


def design_row(config: JobConfig) -> np.ndarray:
    """The basis evaluation [1, M, M^2, R, R^2] at one configuration."""
    m = float(config.mappers)
    r = float(config.reducers)
    return np.array([1.0, m, m * m, r, r * r])


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Stacked basis rows plus the configurations they came from."""

    rows: np.ndarray
    configs: tuple[JobConfig, ...]
    app: str = ""

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != N_COEFFS:
            raise ShapeMismatchError(
                f"design matrix must be (K, {N_COEFFS}), got {rows.shape}"
            )
        if rows.shape[0] != len(self.configs):
            raise ShapeMismatchError(
                f"{rows.shape[0]} rows but {len(self.configs)} configs"
            )
        expected = np.vstack([design_row(c) for c in self.configs])
        if not np.array_equal(rows, expected):
            raise ValueError("rows do not match the basis evaluated at configs")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "configs", tuple(self.configs))


@dataclass(frozen=True, eq=False)
class TargetVector:
    """Observed mean cycle counts aligned with the design matrix rows."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ShapeMismatchError(f"targets must be 1-d, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("targets must be finite")
        if np.any(values < 0):
            raise ValueError("targets must be >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


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
        if not self.condition_estimate > 0:
            raise ValueError(
                f"condition_estimate must be > 0, got {self.condition_estimate}"
            )
        if not math.isfinite(self.training_residual) or self.training_residual < 0:
            raise ValueError(
                f"training_residual must be finite and >= 0, "
                f"got {self.training_residual}"
            )
        if self.ref_input_bytes is not None and self.ref_input_bytes < 1:
            raise ValueError(
                f"ref_input_bytes must be >= 1 or None, got {self.ref_input_bytes}"
            )
        object.__setattr__(self, "a", a)


def build_design_matrix(
    profiles: Sequence[JobProfile],
) -> tuple[DesignMatrix, TargetVector]:
    """Stack basis rows and targets from profiles of a single application."""
    if not profiles:
        raise EmptyInputError("no profiles to build a design matrix from")
    apps = sorted({p.app for p in profiles})
    if len(apps) > 1:
        raise MixedApplicationsError(f"profiles span applications {apps}")
    rows = np.vstack([design_row(p.config) for p in profiles])
    matrix = DesignMatrix(
        rows=rows, configs=tuple(p.config for p in profiles), app=apps[0]
    )
    targets = TargetVector(values=np.array([p.mean_cycles for p in profiles]))
    return matrix, targets


def _shared_input_bytes(configs: Sequence[JobConfig]) -> int:
    sizes = {c.input_bytes for c in configs}
    if len(sizes) > 1:
        raise MixedInputSizesError(f"profiles span input sizes {sorted(sizes)}")
    return sizes.pop()


def fit_least_squares(matrix: DesignMatrix, targets: TargetVector) -> ModelCoefficients:
    """Fit the surface by column-scaled SVD least squares.

    Raises RankDeficientError when fewer than five distinct (M, R) points
    are present or the scaled matrix is numerically rank deficient,
    IllConditionedError when the condition estimate exceeds CONDITION_LIMIT,
    and MixedInputSizesError when the rows span several input sizes.
    """
    rows = matrix.rows
    y = targets.values
    if rows.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"{rows.shape[0]} design rows but {y.shape[0]} targets"
        )
    distinct = {(c.mappers, c.reducers) for c in matrix.configs}
    if len(distinct) < N_COEFFS:
        raise RankDeficientError(
            f"need >= {N_COEFFS} distinct (mappers, reducers) points, "
            f"got {len(distinct)}"
        )
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
        app=matrix.app,
        ref_input_bytes=_shared_input_bytes(matrix.configs),
    )


def solve_normal_equations(
    matrix: DesignMatrix, targets: TargetVector
) -> ModelCoefficients:
    """Solve (H^T H) a = H^T y directly, with no scaling.

    Kept deliberately literal as a cross-check for fit_least_squares.
    The condition estimate reported is the same scaled-matrix estimate the
    production path uses, so the two are comparable.
    """
    rows = matrix.rows
    y = targets.values
    if rows.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"{rows.shape[0]} design rows but {y.shape[0]} targets"
        )
    gram = rows.T @ rows
    try:
        a = np.linalg.solve(gram, rows.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularNormalMatrixError(f"normal matrix is singular: {exc}") from None
    if not np.all(np.isfinite(a)):
        raise SingularNormalMatrixError("normal equations produced non-finite values")
    scaled = rows / np.max(np.abs(rows), axis=0)
    singular_values = np.linalg.svd(scaled, compute_uv=False)
    condition = float(singular_values[0] / singular_values[-1])
    residual = float(np.linalg.norm(rows @ a - y))
    return ModelCoefficients(
        a=tuple(float(v) for v in a),
        condition_estimate=condition,
        training_residual=residual,
        app=matrix.app,
        ref_input_bytes=_shared_input_bytes(matrix.configs),
    )


def predict(model: ModelCoefficients, config: JobConfig) -> float:
    """Evaluate the surface at one configuration.

    A negative evaluation is clamped to 0.0 with a NegativePredictionWarning;
    cycle counts cannot be negative, so a negative value means the config
    sits outside the region the fit represents well.
    """
    m = float(config.mappers)
    r = float(config.reducers)
    a0, a1, a2, a3, a4 = model.a
    value = a0 + a1 * m + a2 * m * m + a3 * r + a4 * r * r
    if value < 0:
        warnings.warn(
            f"surface predicts {value:.6g} cycles at (mappers={config.mappers}, "
            f"reducers={config.reducers}); clamping to 0",
            NegativePredictionWarning,
            stacklevel=2,
        )
        return 0.0
    return value
