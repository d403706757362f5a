"""Linear input-size scaling of cycle predictions.

Total cycles grow close to linearly with input bytes for the workloads
this package targets, so a straight line cycles = slope * bytes + intercept
is fitted across sizes and predictions made at the reference size are
carried to a target size multiplicatively:

    scaled = base * line(target_bytes) / line(ref_bytes)

The ratio form means scaling to the reference size itself is exactly the
identity, and chaining scalings agrees with scaling directly up to
rounding.

CostModel pairs a surface with its optional size line and decides how
every prediction is sized.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import CyclecastError, ProfileTable, _ints
from .regression import ModelCoefficients, _clamp_negative, predict


class DegenerateInputError(CyclecastError):
    """Fitting a line needs at least two distinct input sizes."""


class NonPositiveReferenceError(CyclecastError):
    """The fitted line is not positive at the reference size."""


@dataclass(frozen=True)
class ScalingModel:
    """A fitted cycles-vs-bytes line anchored at a reference size.

    slope is cycles per byte, intercept cycles.  The line must be positive
    at ref_bytes, otherwise the multiplicative transfer below is undefined.
    """

    slope: float
    intercept: float
    ref_bytes: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.slope) or not math.isfinite(self.intercept):
            raise ValueError("slope and intercept must be finite")
        if not 1 <= self.ref_bytes < 2**63:  # the count rule's bound on input_bytes
            raise ValueError(f"ref_bytes must be in [1, 2**63), got {self.ref_bytes}")
        if self.slope * self.ref_bytes + self.intercept <= 0:
            raise NonPositiveReferenceError(
                f"line evaluates to {self.slope * self.ref_bytes + self.intercept:.6g} "
                f"cycles at ref_bytes={self.ref_bytes}; must be > 0"
            )

    def line(self, input_bytes: int) -> float:
        return self.slope * input_bytes + self.intercept


def fit_scaling(
    points: Sequence[tuple[int, float]], ref_bytes: int
) -> ScalingModel:
    """Fit cycles = slope * bytes + intercept over (input_bytes, cycles) points.

    Solved by least squares on a column-scaled design so byte counts in the
    gigabytes do not wreck conditioning.  Needs at least two distinct sizes.
    """
    sizes = np.array([float(b) for b, _ in points])
    cycles = np.array([float(c) for _, c in points])
    if len({b for b, _ in points}) < 2:
        raise DegenerateInputError(
            f"need >= 2 distinct input sizes, got {len(set(b for b, _ in points))}"
        )
    if np.any(sizes < 1):
        raise ValueError("input sizes must be >= 1 byte")
    if not np.all(np.isfinite(cycles)):
        raise ValueError("cycle values must be finite")
    size_scale = float(np.max(sizes))
    design = np.column_stack([sizes / size_scale, np.ones_like(sizes)])
    (scaled_slope, intercept), _, _, _ = np.linalg.lstsq(design, cycles, rcond=None)
    return ScalingModel(
        slope=float(scaled_slope) / size_scale,
        intercept=float(intercept),
        ref_bytes=ref_bytes,
    )


def scale_prediction(
    base_cycles: ArrayLike, model: ScalingModel, target_bytes: ArrayLike
) -> float | np.ndarray:
    """Carry reference-size predictions to target_bytes along the fitted
    line: a float for scalars, an array for arrays.

    target_bytes == ref_bytes returns base_cycles unchanged, exactly.  A
    negative result (possible when the line crosses zero below the target)
    is clamped to 0.0; one NegativePredictionWarning per call names the
    first clamped point.
    """
    base, target = np.broadcast_arrays(np.asarray(base_cycles, dtype=float), target_bytes)
    bad = base[~((base >= 0) & (base < math.inf))]
    if bad.size:
        raise ValueError(f"base_cycles must be finite and >= 0, got {bad[0]}")
    bad = target[target < 1]
    if bad.size:
        raise ValueError(f"target_bytes must be >= 1, got {bad[0]}")
    if model.intercept == 0.0:
        # Slope cancels from the ratio when the line passes through the
        # origin; folding it out keeps the pure-proportional case exact.
        factor = target / model.ref_bytes
    else:
        factor = model.line(target) / model.line(model.ref_bytes)
    scaled = base * factor
    return _clamp_negative(
        scaled, lambda i: f"scaling to {target.flat[i]} bytes gives {scaled.flat[i]:.6g} cycles"
    )


@dataclass(frozen=True)
class CostModel:
    """A fitted surface plus the optional line that carries it across sizes.

    Validated once, here: the surface must record the input size it was
    trained at, and a size line must be anchored at that same size.
    """

    surface: ModelCoefficients
    scaling: ScalingModel | None = None

    def __post_init__(self) -> None:
        ref = self.surface.ref_input_bytes
        if ref is None:
            raise ValueError("surface records no reference input size")
        if self.scaling is not None and self.scaling.ref_bytes != ref:
            raise ValueError(f"size line is anchored at {self.scaling.ref_bytes} bytes, not {ref}")

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
        ref = self.surface.ref_input_bytes
        m, r = _ints("mappers", mappers), _ints("reducers", reducers)
        sizes = ref if input_bytes is None else _ints("input_bytes", input_bytes)
        value = predict(self.surface, m, r)
        if np.all(sizes == ref):
            return value
        if self.scaling is None:
            warnings.warn(
                f"model has no scaling section; predicting as if at the "
                f"reference size {ref} bytes",
                stacklevel=2,
            )
            return value
        return scale_prediction(value, self.scaling, sizes)

    def with_size_line(self, profiles: ProfileTable) -> CostModel:
        """This surface with a size line fitted through per-size mean cycles.

        A size's point is the fsum mean of its profiles' mean cycles; the
        line is anchored at the surface's reference size.
        """
        by_size: dict[int, list[float]] = {}
        for size, cycles in zip(profiles.input_bytes.tolist(), profiles.mean_cycles.tolist()):
            by_size.setdefault(size, []).append(cycles)
        points = [(size, math.fsum(v) / len(v)) for size, v in sorted(by_size.items())]
        return CostModel(self.surface, fit_scaling(points, ref_bytes=self.surface.ref_input_bytes))
