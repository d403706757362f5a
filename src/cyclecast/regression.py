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
profiles shared.

Total cycles grow close to linearly with input bytes for the workloads
this package targets.  CostModel.with_size_line fits the line
cycles = slope * bytes + intercept across sizes, and CostModel.predict
carries a prediction at ref_input_bytes to a target size by its ratio:

    scaled = base * line(target_bytes) / line(ref_bytes)

So scaling to the reference size itself is exactly the identity, and
chaining scalings agrees with scaling directly up to rounding.

CostModel.predict is the one prediction.  The steps behind it (predict,
build_design_matrix, fit_scaling, scale_prediction) are not exported and
take what CostModel has checked; the first two take (M, R) as two ints or
two equal-shaped integer arrays under core's count rule.

CostModel.score(runs, configs) is the one scoring: it predicts each run of
the model's app, or each at an (M, R) pair in configs, at its own config
and input size, and hands the predictions to metrics.evaluate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Container, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import (
    CyclecastError,
    EmptyInputError,
    ProfileTable,
    RunTable,
    ShapeMismatchError,
    _check_count,
    _clamp_negative,
    _ints,
    _real,
    _reals,
    check_text,
)
from .metrics import EvaluationReport, evaluate

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


class DegenerateInputError(CyclecastError):
    """Too few points to go on: a size line needs at least two distinct
    input sizes, and a score at least two runs."""


class NonPositiveReferenceError(CyclecastError):
    """The fitted line is not positive at the reference size."""


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
        check_text("app", self.app)
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
        self._refuse_other_apps(profiles.apps, "profiles", "size")
        by_size: dict[int, list[float]] = {}
        for size, cycles in zip(profiles.input_bytes.tolist(), profiles.mean_cycles.tolist()):
            by_size.setdefault(size, []).append(cycles)
        points = [(size, math.fsum(v) / len(v)) for size, v in sorted(by_size.items())]
        return replace(self, line=fit_scaling(points))

    def score(
        self, runs: RunTable, configs: Container[tuple[int, int]] | None = None
    ) -> EvaluationReport:
        """metrics.evaluate of the runs' total cycles against this model's
        prediction at each run's own (mappers, reducers) and input size;
        given configs, of the runs at a pair in configs alone, in order.
        Runs of an app other than this model's raise MixedApplicationsError,
        fewer than two runs to score DegenerateInputError."""
        self._refuse_other_apps(runs.apps, "runs", "score")
        columns = (runs.mappers, runs.reducers, runs.input_bytes, runs.total_cycles)
        if configs is not None:
            pairs = zip(runs.mappers.tolist(), runs.reducers.tolist())
            keep = np.fromiter((pair in configs for pair in pairs), bool, len(runs))
            columns = tuple(column[keep] for column in columns)
        mappers, reducers, sizes, actual = columns
        if len(actual) < 2:
            raise DegenerateInputError(
                f"need >= 2 runs to evaluate, got {len(actual)} after filtering"
            )
        return evaluate(actual, self.predict(mappers, reducers, sizes))

    def _refuse_other_apps(self, apps: Sequence[str], kind: str, use: str) -> None:
        """MixedApplicationsError if any of apps, those of kind, is not this model's."""
        others = sorted(set(apps) - {self.app})
        if others:
            raise MixedApplicationsError(
                f"{kind} of {others} cannot {use} the model of {self.app!r}"
            )


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


def fit_scaling(points: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """(slope, intercept) of cycles = slope * bytes + intercept, fitted over
    (input_bytes, cycles) points held to a ProfileTable's rules on a design
    whose scaled size column keeps gigabytes well conditioned.  Needs two
    sizes float64 tells apart."""
    sizes = [size for size, _ in points]
    cycles = [c for _, c in points]
    size_scale = float(max(sizes, default=1))
    design = np.column_stack([np.array(sizes) / size_scale, np.ones(len(sizes))])
    (scaled_slope, intercept), _, rank, _ = np.linalg.lstsq(design, cycles, rcond=None)
    if rank < 2:
        raise DegenerateInputError(
            f"need >= 2 input sizes that float64 tells apart, got {sorted(set(sizes))}"
        )
    return float(scaled_slope) / size_scale, float(intercept)


@np.errstate(over="ignore", invalid="ignore")  # _clamp_negative reports an overflow
def scale_prediction(
    base_cycles: ArrayLike, model: CostModel, target_bytes: ArrayLike
) -> float | np.ndarray:
    """Carry surface values base_cycles at model.ref_input_bytes along
    model.line to sizes target_bytes that CostModel.predict has checked: a
    float for scalars, an array for arrays.  The reference size returns
    base_cycles unchanged, exactly.  A negative result (the line crosses
    zero below the target) is clamped to 0.0; one NegativePredictionWarning
    per call names the first clamped point.
    """
    slope, intercept = model.line
    ref = model.ref_input_bytes
    base, target = np.broadcast_arrays(base_cycles, target_bytes)
    if intercept == 0.0:
        # Slope cancels from the ratio when the line passes through the
        # origin; folding it out keeps the pure-proportional case exact.
        factor = target / ref
    else:
        factor = (slope * target + intercept) / (slope * ref + intercept)
    scaled = base * factor
    return _clamp_negative(
        scaled, lambda i: f"scaling to {target.flat[i]} bytes gives {scaled.flat[i]:.6g} cycles"
    )
