"""Least-squares power-law fit of a rate curve, the tests' tool for reading
the exponents 2/z - 2 and 2z - 2 off gamma(omega)."""

import math
from typing import Tuple

import numpy as np

from bscat.errors import InsufficientData
from bscat.twopoint import RateCurve


def fit_power_law(curve: RateCurve, window: Tuple[float, float]) -> Tuple[float, float]:
    """Least-squares slope of log gamma vs log omega over the window; returns
    (exponent, r_squared)."""
    lo, hi = window
    xs, ys = [], []
    for w, g in zip(curve.omegas, curve.gamma):
        if lo <= w <= hi and g > 0:
            xs.append(math.log(w))
            ys.append(math.log(g))
    if len(xs) < 8:
        raise InsufficientData(
            f"need >= 8 grid points with gamma > 0 in [{lo}, {hi}], got {len(xs)}"
        )
    x = np.array(xs)
    y = np.array(ys)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
