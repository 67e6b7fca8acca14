"""A test helper for the stacked calls of the kernels: `row_by_row(fn, n)`
stands for fn, but a call whose first n arguments are arrays stacked on a
new first axis is made as one call of fn per row, each on the row's
arrays, and the results stacked again.  A function that stacks its
arguments gives bit for bit the values it gives with its callee replaced
by row_by_row(callee, n) exactly when stacking changes no value."""

from __future__ import annotations

import numpy as np


def row_by_row(fn, n_arrays: int):
    def call(*args, **kwargs):
        arrays, rest = args[:n_arrays], args[n_arrays:]
        if np.ndim(arrays[0]) == 0:
            return fn(*args, **kwargs)
        rows = [fn(*(a[i] for a in arrays), *rest, **kwargs) for i in range(len(arrays[0]))]
        if isinstance(rows[0], tuple):
            return tuple(np.stack(parts) for parts in zip(*rows))
        return np.stack(rows)

    return call
