"""The size line's two steps under the names the benchmark's tracer wraps.

They live in regression, with the CostModel whose line they use; the
tracer finds them by these names and wraps them wherever they are bound.
"""

from .regression import fit_scaling, scale_prediction
