"""A reference least-squares solve for cross-checking the package's fit.

solve_normal_equations forms H^T H and solves it directly: the textbook
closed form, kept unscaled and unpolished so that it shares nothing with
cyclecast.regression.fit_least_squares (column scaling, then SVD) but
the data.
"""

import numpy as np


def solve_normal_equations(rows, targets) -> np.ndarray:
    """The coefficients a solving (H^T H) a = H^T y for H = rows, y = targets.

    Raises numpy.linalg.LinAlgError when H^T H is singular.
    """
    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    return np.linalg.solve(rows.T @ rows, rows.T @ targets)
