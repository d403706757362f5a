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

from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import CyclecastError, _check_count, _clamp_negative, _ints, _real, _reals

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
    Each size is held to core's count rule and each cycle value to its
    real rule: an int in [1, 2**63), a finite number >= 0.
    """
    sizes = [_check_count("input_bytes", b) for b, _ in points]
    cycles = [_real("cycles", c) for _, c in points]
    if len(set(sizes)) < 2:
        raise DegenerateInputError(f"need >= 2 distinct input sizes, got {len(set(sizes))}")
    size_scale = float(max(sizes))
    design = np.column_stack([np.array(sizes) / size_scale, np.ones(len(sizes))])
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
    names the first clamped point.  A model without a line is a ValueError,
    and so is a base_cycles outside core's real rule (finite, >= 0) or a
    target_bytes outside its count rule (an int in [1, 2**63)).
    """
    if model.line is None:
        raise ValueError("model has no size line")
    slope, intercept = model.line
    ref = model.ref_input_bytes
    base, target = np.broadcast_arrays(
        _reals("base_cycles", base_cycles), _ints("target_bytes", target_bytes)
    )
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
