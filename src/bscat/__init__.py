"""Photon-scattering observables of boundary sine-Gordon and Kondo impurities.

Computes the photon reflection coefficient r(omega), the inelastic decay rate
gamma(omega) = -ln|r|^2, the elastic phase shift delta(omega), and the
energy-resolved decay spectrum gamma(omega'|omega) from integrable-QFT data
(exact S-matrices, boundary reflection matrices and current form factors),
with an independent free-fermion oracle at z = 1/2.  All frequencies are in
units of the boundary scale T_B.
"""

from .errors import (
    BscatError,
    DomainError,
    InsufficientData,
    ToleranceNotMet,
)
from .model import (
    ANTISOLITON,
    SOLITON,
    Excitation,
    ExcitationKind,
    ModelKind,
    ModelSpec,
    breather,
    make_model,
    mass_ratio,
    t_b_from_physical,
)
from .referm import conductance_finite_T, r_half_closed, spectrum_half
from .spectrum import (
    SpectrumCurve,
    SpectrumDiagram,
    active_diagrams,
    spectrum_curve,
    spectrum_point,
    sum_rule_check,
)
from .twopoint import (
    RateCurve,
    ReflectionBreakdown,
    fit_power_law,
    rates_from_r,
    reflection_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "ANTISOLITON",
    "BscatError",
    "DomainError",
    "Excitation",
    "ExcitationKind",
    "InsufficientData",
    "ModelKind",
    "ModelSpec",
    "RateCurve",
    "ReflectionBreakdown",
    "SOLITON",
    "SpectrumCurve",
    "SpectrumDiagram",
    "ToleranceNotMet",
    "__version__",
    "active_diagrams",
    "breather",
    "conductance_finite_T",
    "fit_power_law",
    "make_model",
    "mass_ratio",
    "r_half_closed",
    "rates_from_r",
    "reflection_coefficient",
    "spectrum_curve",
    "spectrum_half",
    "spectrum_point",
    "sum_rule_check",
    "t_b_from_physical",
]
