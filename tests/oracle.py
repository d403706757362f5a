"""References the tests compare the package against.

solve_normal_equations forms H^T H and solves it directly: the textbook
closed form, kept unscaled and unpolished so that it shares nothing with
cyclecast.regression.fit_least_squares (column scaling, then SVD) but
the data.  rows and table turn the package's columnar tables into rows
and back, and record spells a run row as the store's wire dict.
"""

import dataclasses

import numpy as np


def solve_normal_equations(rows, targets) -> np.ndarray:
    """The coefficients a solving (H^T H) a = H^T y for H = rows, y = targets.

    Raises numpy.linalg.LinAlgError when H^T H is singular.
    """
    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    return np.linalg.solve(rows.T @ rows, rows.T @ targets)


def rows(table) -> list[tuple]:
    """A RunTable's or ProfileTable's rows as tuples of Python values, in
    column order, so tables compare by value and row order."""
    columns = [getattr(table, field.name) for field in dataclasses.fields(table)]
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def table(cls, rows) -> object:
    """A cls, RunTable or ProfileTable, of the given rows, each a tuple in
    column order."""
    names = [field.name for field in dataclasses.fields(cls)]
    rows = list(rows)
    columns = list(zip(*rows)) if rows else [()] * len(names)
    return cls(**dict(zip(names, columns)))


def record(app, run_id, mappers, reducers, input_bytes, total_cycles) -> dict:
    """A run row's store record: its fields under the store's keys, in the
    store's canonical order."""
    return {
        "schema_version": 1,
        "app": app,
        "run_id": run_id,
        "mappers": mappers,
        "reducers": reducers,
        "input_bytes": input_bytes,
        "total_cycles": total_cycles,
    }
