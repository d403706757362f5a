"""The cost model: a quadratic surface over (mappers, reducers) plus an
optional input-size line.

The surface is

    cycles(M, R) = a0 + a1*M + a2*M^2 + a3*R + a4*R^2

fitted by least squares in fit_least_squares.  It rescales each design
column by its max absolute value and solves via SVD (numpy.linalg.lstsq),
which keeps the solve well conditioned even though M^2 and R^2 dwarf the
constant column.  The fit returns a CostModel: the coefficients, a
condition estimate (ratio of extreme singular values of the scaled
design matrix), the training residual norm and the input size the
profiles shared.  CostModel.with_size_line adds the line that carries
predictions to other sizes (the math is in scaling).

CostModel.predict is the one prediction; the steps behind it (predict,
build_design_matrix, scaling's functions) are not exported.  The first two
take (M, R) as two ints or two equal-shaped integer arrays under core's
count rule, so a whole grid is one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import ArrayLike

from .core import (
    CyclecastError,
    EmptyInputError,
    ProfileTable,
    ShapeMismatchError,
    _check_count,
    _clamp_negative,
    _ints,
    _real,
    _reals,
    _text,
)
from .scaling import NonPositiveReferenceError, fit_scaling, scale_prediction

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
class CostModel:
    """One application's fitted surface, its diagnostics, the input size
    it was trained at, and the optional size line (slope in cycles per
    byte, intercept in cycles) that carries it to other sizes.

    Checked once, here, by core's rules, and each field stored as a plain
    Python value: app a non-empty str, a five finite floats, a condition
    > 0 and a residual >= 0, ref_input_bytes a count like a run's, and a
    line of two finite floats that is positive at ref_input_bytes
    (NonPositiveReferenceError otherwise).
    """

    app: str
    a: tuple[float, float, float, float, float]
    condition_estimate: float
    training_residual: float
    ref_input_bytes: int
    line: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _text("app", self.app)
        ref = _check_count("ref_input_bytes", self.ref_input_bytes)
        a = _reals("a", self.a, -math.inf)
        if a.shape != (N_COEFFS,):
            raise ShapeMismatchError(f"a must hold {N_COEFFS} numbers, got shape {a.shape}")
        fields = {
            "a": tuple(a.tolist()),
            "condition_estimate": _real(
                "condition_estimate", self.condition_estimate, strict=True
            ),
            "training_residual": _real("training_residual", self.training_residual),
            "ref_input_bytes": ref,
        }
        if self.line is not None:
            line = _reals("size line slope and intercept", self.line, -math.inf)
            if line.shape != (2,):
                raise ShapeMismatchError(f"a size line holds 2 numbers, got shape {line.shape}")
            slope, intercept = fields["line"] = tuple(line.tolist())
            if slope * ref + intercept <= 0:
                raise NonPositiveReferenceError(
                    f"size line evaluates to {slope * ref + intercept:.6g} cycles at "
                    f"ref_input_bytes={ref}; must be > 0"
                )
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def predict(
        self, mappers: ArrayLike, reducers: ArrayLike, input_bytes: ArrayLike | None = None
    ) -> float | np.ndarray:
        """Cycles at (mappers, reducers), carried to input_bytes if given:
        a float for scalars, an array for arrays.

        Each argument is an int or an array of ints, each an int in
        [1, 2**63).  mappers and reducers share one shape; input_bytes is one
        size or has that shape too.  None or the reference size gives the
        surface itself.  Other sizes are scaled along the size line;
        without one, the surface is returned unscaled with one UserWarning.
        """
        ref = self.ref_input_bytes
        sizes = ref if input_bytes is None else _ints("input_bytes", input_bytes)
        value = predict(self, mappers, reducers)
        if np.all(sizes == ref):
            return value
        if self.line is None:
            warnings.warn(
                f"model has no scaling section; predicting as if at the "
                f"reference size {ref} bytes",
                stacklevel=2,
            )
            return value
        return scale_prediction(value, self, sizes)

    def with_size_line(self, profiles: ProfileTable) -> CostModel:
        """This model with a size line fitted through per-size mean cycles.

        A size's point is the fsum mean of its profiles' mean cycles.
        Profiles of an app other than this model's raise
        MixedApplicationsError.
        """
        others = sorted(set(profiles.apps) - {self.app})
        if others:
            raise MixedApplicationsError(
                f"profiles of {others} cannot size the model of {self.app!r}"
            )
        by_size: dict[int, list[float]] = {}
        for size, cycles in zip(profiles.input_bytes.tolist(), profiles.mean_cycles.tolist()):
            by_size.setdefault(size, []).append(cycles)
        points = [(size, math.fsum(v) / len(v)) for size, v in sorted(by_size.items())]
        return replace(self, line=fit_scaling(points))


def _pair(mappers: ArrayLike, reducers: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """mappers and reducers as int64 arrays of one shape, under the count rule."""
    m, r = _ints("mappers", mappers), _ints("reducers", reducers)
    if m.shape != r.shape:
        raise ShapeMismatchError(f"mappers have shape {m.shape} but reducers {r.shape}")
    return m, r


def build_design_matrix(mappers: ArrayLike, reducers: ArrayLike) -> np.ndarray:
    """The read-only (K, 5) basis [1, M, M^2, R, R^2] at each (M, R) pair."""
    m, r = (np.ravel(v).astype(float) for v in _pair(mappers, reducers))
    rows = np.column_stack([np.ones_like(m), m, m * m, r, r * r])
    rows.setflags(write=False)
    return rows


def fit_least_squares(profiles: ProfileTable) -> CostModel:
    """Fit the surface through the profiles' mean cycles.

    The profiles must share one app and one input size, which becomes the
    model's reference size.  Fewer than five distinct (M, R) points or
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
    return CostModel(
        app=apps[0],
        a=a,
        condition_estimate=condition,
        training_residual=residual,
        ref_input_bytes=sizes[0],
    )


@np.errstate(over="ignore", invalid="ignore")  # _clamp_negative reports an overflow
def predict(
    model: CostModel, mappers: ArrayLike, reducers: ArrayLike
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
