"""Error taxonomy shared by all bscat modules."""

import numpy as np


class BscatError(Exception):
    """Base class for all bscat errors."""


class DomainError(BscatError):
    """Input outside the mathematical domain of an operation."""


class ToleranceNotMet(BscatError):
    """An integral finished but its error estimate exceeds the requested tolerance.

    Carries the best value and the estimate so callers can decide to accept.
    """

    def __init__(self, message, value=None, abs_error_estimate=None):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate


class InsufficientData(BscatError):
    """Not enough data to derive a result from: `twopoint.rates_from_r` with no
    reflection data."""


def offending(values, mask):
    """The first element of `values` (broadcast to mask's shape) where
    `mask` holds: the point an elementwise refusal names."""
    return np.broadcast_to(values, np.shape(mask))[mask].flat[0].item()
