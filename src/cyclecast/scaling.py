"""Linear input-size scaling of cycle predictions.

Total cycles grow close to linearly with input bytes for the workloads
this package targets, so a straight line cycles = slope * bytes + intercept
is fitted across sizes and predictions made at the reference size are
carried to a target size multiplicatively:

    scaled = base * line(target_bytes) / line(ref_bytes)

The ratio form means scaling to the reference size itself is exactly the
identity, and chaining scalings agrees with scaling directly up to
rounding.

This module holds the line's math only.  The line itself is a
CostModel's (slope, intercept), anchored at the model's ref_input_bytes
and checked by the model (see regression).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import CyclecastError, _clamp_negative

if TYPE_CHECKING:
    from .regression import CostModel


class DegenerateInputError(CyclecastError):
    """Fitting a line needs at least two distinct input sizes."""


class NonPositiveReferenceError(CyclecastError):
    """The fitted line is not positive at the reference size."""


def fit_scaling(points: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Fit cycles = slope * bytes + intercept over (input_bytes, cycles)
    points; returns (slope, intercept).

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
    return float(scaled_slope) / size_scale, float(intercept)


def scale_prediction(
    base_cycles: ArrayLike, model: CostModel, target_bytes: ArrayLike
) -> float | np.ndarray:
    """Carry predictions at model.ref_input_bytes to target_bytes along
    model.line: a float for scalars, an array for arrays.

    target_bytes == ref_input_bytes returns base_cycles unchanged, exactly.
    A negative result (possible when the line crosses zero below the
    target) is clamped to 0.0; one NegativePredictionWarning per call
    names the first clamped point.  A model without a line is a ValueError.
    """
    if model.line is None:
        raise ValueError("model has no size line")
    slope, intercept = model.line
    ref = model.ref_input_bytes
    base, target = np.broadcast_arrays(np.asarray(base_cycles, dtype=float), target_bytes)
    bad = base[~((base >= 0) & (base < math.inf))]
    if bad.size:
        raise ValueError(f"base_cycles must be finite and >= 0, got {bad[0]}")
    bad = target[target < 1]
    if bad.size:
        raise ValueError(f"target_bytes must be >= 1, got {bad[0]}")
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
