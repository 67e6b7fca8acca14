"""Bulk two-particle S-matrix of the sine-Gordon model (massless kinematics).

The soliton sector (`soliton_s_matrix`, one array indexed by charge) is
built from the scalar factor S0(theta), |Im theta| <= pi, which Watson's
equation for the pair function gives as the exchange ratio
-e^{I(-theta)}/e^{I(theta)} of `formfactors.exp_I`; it is refused at
|Im theta| > pi and at its poles theta = i k xi, where e^{I(theta)}
vanishes.  Breather-soliton and breather-breather amplitudes are diagonal,
finite products of elementary factors, read by the breathers' integer
indices.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, offending
from .formfactors import exp_I
from .model import ModelSpec, check_breather

_POLE_TOL = 1e-12


def _sin_ratio(theta: complex, spec: ModelSpec) -> complex:
    """sin(-(pi/xi) i theta) / sin((pi/xi)(pi + i theta)), non-integer p."""
    a = math.pi / spec.xi  # = p - 1
    num = cmath.sin(-a * 1j * theta)
    den = cmath.sin(a * (math.pi + 1j * theta))
    if abs(den) < _POLE_TOL:
        raise DomainError(f"soliton S-matrix pole at theta = {theta}")
    return num / den


def s0(theta, spec: ModelSpec):
    """Scalar (anti)soliton exchange factor S0(theta) = -e^{I(-theta)}/e^{I(theta)},
    |Im theta| <= pi (Watson's equation for the pair function), elementwise.

    DomainError for |Im theta| > pi and at the poles theta = i k xi, where
    e^{I(theta)} vanishes, also when approached off the imaginary axis; it
    names the first offending theta."""
    theta = np.asarray(theta, dtype=complex)
    outside = np.abs(theta.imag) > math.pi + 1e-12
    if outside.any():
        raise DomainError(f"|Im theta| > pi unsupported (got {offending(theta.imag, outside)})")
    # one lookup for both: for real theta, -theta and theta lie on one line
    num, den = exp_I(np.stack([-theta, theta]), spec)
    pole = np.abs(den) <= _POLE_TOL * np.abs(num)
    if pole.any():
        raise DomainError(f"S0 pole at theta = {offending(theta, pole)}")
    if theta.ndim == 0:
        # a number divides as Python complex numbers: numpy's complex division
        # rounds differently, and the pinned `bscat validate` rows read S0's bits
        return -complex(num) / complex(den)
    return -num / den


def soliton_s_matrix(theta: complex, spec: ModelSpec) -> np.ndarray:
    """Soliton-sector S-matrix as a (2, 2, 2, 2) array s[a, b, c, d]: 0 is a
    soliton, 1 an antisoliton, (a, b) the incoming pair and (c, d) the
    outgoing one.  Same-charge pairs scatter with S0 alone (`s0`);
    soliton-antisoliton pairs by transmission (c, d) = (a, b) and
    reflection (c, d) = (b, a), the reflection vanishing at integer p.
    Every charge-changing entry is an exact 0."""
    theta = complex(theta)
    s_0 = s0(theta, spec)
    if spec.p_int is not None:
        transmission = ((-1.0) ** spec.p_int) * s_0
        reflection = 0.0j
    else:
        transmission = s_0 * _sin_ratio(theta, spec)  # refuses the pole of den
        den = cmath.sin(math.pi / spec.xi * (math.pi + 1j * theta))
        reflection = s_0 * math.sin(math.pi**2 / spec.xi) / den
    s = np.zeros((2, 2, 2, 2), dtype=complex)
    s[0, 0, 0, 0] = s[1, 1, 1, 1] = s_0
    s[0, 1, 0, 1] = s[1, 0, 1, 0] = transmission
    s[0, 1, 1, 0] = s[1, 0, 0, 1] = reflection
    return s


def s_breather_soliton(theta: complex, m: int, spec: ModelSpec) -> complex:
    """Breather-m / (anti)soliton exchange amplitude (diagonal)."""
    check_breather(m, spec)
    theta = complex(theta)
    xi = spec.xi
    c = 1j * math.cos(xi / 2.0)
    # overall sign (-1)^m: each elementary factor tends to -1 as theta -> +infinity,
    # so this sign is required by the massless right-left limit S~ = 1 and by the
    # fusion bootstrap S_{m+} = prod of shifted S_{1+} factors.
    out = complex((-1.0) ** m)
    for j in range(1, m + 1):
        sh = cmath.sinh(theta - 1j * xi / 2.0 * (m + 1 - 2 * j))
        den = c - sh
        if abs(den) < _POLE_TOL:
            raise DomainError(
                f"breather-soliton S-matrix pole at theta = {theta} (factor j={j})"
            )
        out *= (c + sh) / den
    return out


def _tanh_ratio(theta: complex, alpha: float) -> complex:
    """F_alpha(theta) = tanh((theta + i alpha)/2) / tanh((theta - i alpha)/2)."""
    num = cmath.tanh((theta + 1j * alpha) / 2.0)
    den = cmath.tanh((theta - 1j * alpha) / 2.0)
    if abs(den) < _POLE_TOL:
        raise DomainError(
            f"breather-breather S-matrix pole at theta = {theta} (alpha = {alpha})"
        )
    return num / den


def s_breather_breather(theta: complex, m1: int, m2: int, spec: ModelSpec) -> complex:
    """Breather-m1 / breather-m2 exchange amplitude (diagonal).

    S = F_{(m1+m2) xi/2} * F_{|m1-m2| xi/2} * prod_{j=1}^{min-1} F_{(|m1-m2|+2j) xi/2}^2
    with F_alpha(theta) = tanh((theta+i alpha)/2)/tanh((theta-i alpha)/2); this
    form is fixed by the fusion bootstrap from S_{11} and satisfies unitarity
    and |S| = 1 on the real line.
    """
    check_breather(m1, spec)
    check_breather(m2, spec)
    theta = complex(theta)
    xi = spec.xi
    d = abs(m1 - m2)
    s = m1 + m2
    out = _tanh_ratio(theta, s * xi / 2.0)
    if d > 0:
        out *= _tanh_ratio(theta, d * xi / 2.0)
    for j in range(1, min(m1, m2)):
        out *= _tanh_ratio(theta, (d + 2 * j) * xi / 2.0) ** 2
    return out
