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

from .core import CyclecastError, JobConfig, JobProfile, NegativePredictionWarning
from .regression import ModelCoefficients, predict


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
        if self.ref_bytes < 1:
            raise ValueError(f"ref_bytes must be >= 1, got {self.ref_bytes}")
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
    base_cycles: float, model: ScalingModel, target_bytes: int
) -> float:
    """Carry a reference-size prediction to target_bytes along the fitted line.

    target_bytes == ref_bytes returns base_cycles unchanged, exactly.  A
    negative result (possible when the line crosses zero below the target)
    is clamped to 0.0 with a NegativePredictionWarning.
    """
    if not math.isfinite(base_cycles) or base_cycles < 0:
        raise ValueError(f"base_cycles must be finite and >= 0, got {base_cycles}")
    if target_bytes < 1:
        raise ValueError(f"target_bytes must be >= 1, got {target_bytes}")
    if model.intercept == 0.0:
        # Slope cancels from the ratio when the line passes through the
        # origin; folding it out keeps the pure-proportional case exact.
        factor = target_bytes / model.ref_bytes
    else:
        factor = model.line(target_bytes) / model.line(model.ref_bytes)
    scaled = base_cycles * factor
    if scaled < 0:
        warnings.warn(
            f"scaling to {target_bytes} bytes gives {scaled:.6g} cycles; clamping to 0",
            NegativePredictionWarning,
            stacklevel=2,
        )
        return 0.0
    return scaled


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

    def predict(self, mappers: int, reducers: int, input_bytes: int | None = None) -> float:
        """Cycles at (mappers, reducers), carried to input_bytes if given.

        None or the reference size gives the surface itself.  Another size
        is scaled along the size line; without one, the surface is returned
        unscaled with a UserWarning.
        """
        ref = self.surface.ref_input_bytes
        config = JobConfig(mappers, reducers, ref if input_bytes is None else input_bytes)
        value = predict(self.surface, config)
        if input_bytes is None or input_bytes == ref:
            return value
        if self.scaling is None:
            warnings.warn(
                f"model has no scaling section; predicting as if at the "
                f"reference size {ref} bytes",
                stacklevel=2,
            )
            return value
        return scale_prediction(value, self.scaling, input_bytes)

    def with_size_line(self, profiles: Sequence[JobProfile]) -> CostModel:
        """This surface with a size line fitted through per-size mean cycles.

        A size's point is the fsum mean of its profiles' mean cycles; the
        line is anchored at the surface's reference size.
        """
        by_size: dict[int, list[float]] = {}
        for profile in profiles:
            by_size.setdefault(profile.config.input_bytes, []).append(profile.mean_cycles)
        points = [(size, math.fsum(v) / len(v)) for size, v in sorted(by_size.items())]
        return CostModel(self.surface, fit_scaling(points, ref_bytes=self.surface.ref_input_bytes))
