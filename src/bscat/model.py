"""Model parameters, breather masses and unit conventions.

All downstream frequencies are measured in units of the boundary scale T_B
(i.e. T_B = 1, boundary rapidity lambda_B = 0).  The converter from physical
junction parameters to T_B lives here and nowhere else.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .errors import DomainError

_P_INT_TOL = 1e-9
# the logs of the largest finite and the smallest normal float
_LOG_HUGE = math.log(sys.float_info.max)
_LOG_TINY = math.log(sys.float_info.min)
# the smallest frequency served: the integrands divide by products of up to
# four line energies, each at most omega, which underflow once omega nears
# the fourth root of the smallest normal float, 1.2e-77 (the first spectrum
# point fails at 1e-80); the floor leaves a margin for energies below omega
_OMEGA_MIN = 1e-50


class ModelKind(enum.Enum):
    BoundarySineGordon = "bsg"
    Kondo = "kondo"


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description: kind, coupling z and derived constants."""

    kind: ModelKind
    z: float
    xi: float = field(init=False)
    p: float = field(init=False)
    p_int: int | None = field(init=False)
    n_breathers: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.z < 1.0):
            raise DomainError(f"coupling z must lie in (0, 1), got {self.z}")
        p = 1.0 / self.z
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "xi", math.pi / (p - 1.0))
        p_round = round(p)
        p_int = p_round if abs(p - p_round) < _P_INT_TOL else None
        object.__setattr__(self, "p_int", p_int)
        n_b = (p_int - 2) if p_int is not None else (math.ceil(p) - 2)
        object.__setattr__(self, "n_breathers", max(0, n_b))

    @property
    def is_bsg(self) -> bool:
        return self.kind is ModelKind.BoundarySineGordon

    @property
    def is_kondo(self) -> bool:
        return self.kind is ModelKind.Kondo


def make_model(kind: ModelKind | str, z: float) -> ModelSpec:
    """Construct a validated ModelSpec for coupling z in (0, 1); the kind may
    be given as a ModelKind or its string value ("bsg" / "kondo")."""
    if not isinstance(kind, ModelKind):
        try:
            kind = ModelKind(kind)
        except ValueError:
            names = " or ".join(k.value for k in ModelKind)
            raise DomainError(
                f"unknown model kind {kind!r}: expected {names}"
            ) from None
    return ModelSpec(kind=kind, z=z)


def check_breather(m: int, spec: ModelSpec) -> None:
    """Raise DomainError unless breather m exists at the model's coupling."""
    # int first: it short-circuits the slower ABC check on the hot path
    if not isinstance(m, (int, numbers.Integral)):
        raise DomainError(f"breather index must be an integer, got {m!r}")
    if not (1 <= m <= spec.n_breathers):
        raise DomainError(
            f"breather m={m} does not exist at z={spec.z} "
            f"(n_breathers={spec.n_breathers})"
        )


def breather_mass(m: int, spec: ModelSpec) -> float:
    """Mass of breather m in units of the soliton mass: 2 sin(m xi / 2)."""
    check_breather(m, spec)
    return 2.0 * math.sin(m * spec.xi / 2.0)


def line_shifts(lines: Sequence[int], spec: ModelSpec) -> List[float]:
    """Rapidity shift log(mass) of each line of a diagram or excitation set,
    coded 0 for a soliton line and m for breather m."""
    return [math.log(breather_mass(b, spec)) if b else 0.0 for b in lines]


def check_omega(omega) -> None:
    """Raise DomainError unless the frequency omega, or each of an array of
    them, is finite and >= _OMEGA_MIN; the message names the first that is
    not."""
    for w in np.ravel(omega).tolist():
        if not (math.isfinite(w) and w > 0):
            raise DomainError(f"omega must be finite and positive, got {w}")
        if w < _OMEGA_MIN:
            raise DomainError(f"omega = {w} is below the floor {_OMEGA_MIN}")


def t_b_from_physical(epsilon_J: float, cutoff_Lambda: float, z: float) -> float:
    """Boundary scale T_B from junction energy, UV cutoff and coupling z.

    T_B = Gamma(z/(2(1-z))) / (sqrt(pi) Gamma(1/(2(1-z))))
          * (pi * epsilon_J / (Gamma(z) Lambda^z))^(1/(1-z))
    """
    if not all(math.isfinite(x) and x > 0 for x in (epsilon_J, cutoff_Lambda)):
        raise DomainError("epsilon_J and cutoff_Lambda must be finite and positive")
    if not (0.0 < z < 1.0):
        raise DomainError(f"z must lie in (0, 1), got {z}")
    if z > 0.999:
        raise DomainError("z too close to 1: the exponent 1/(1-z) diverges")
    # log T_B from lgamma differences: the Gamma ratio is inf/inf near z = 1,
    # and an out-of-range T_B is refused before it is formed
    log_t_b = (
        math.lgamma(z / (2.0 * (1.0 - z)))
        - math.lgamma(1.0 / (2.0 * (1.0 - z)))
        - 0.5 * math.log(math.pi)
        + (
            math.log(math.pi)
            + math.log(epsilon_J)
            - math.lgamma(z)
            - z * math.log(cutoff_Lambda)
        )
        / (1.0 - z)
    )
    if not _LOG_TINY < log_t_b < _LOG_HUGE:
        raise DomainError(
            f"T_B = exp({log_t_b:.6g}) is not a finite positive float: epsilon_J = "
            f"{epsilon_J}, cutoff_Lambda = {cutoff_Lambda} and z = {z} are out of range"
        )
    return math.exp(log_t_b)
