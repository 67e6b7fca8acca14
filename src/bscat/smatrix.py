"""Bulk two-particle S-matrix of the sine-Gordon model (massless kinematics).

Soliton-sector amplitudes are built from the scalar factor S0(theta),
|Im theta| <= pi, which Watson's equation for the pair function gives as the
exchange ratio -e^{I(-theta)}/e^{I(theta)} of `formfactors.exp_I`; it is
refused at |Im theta| > pi and at its poles theta = i k xi, where e^{I(theta)}
vanishes.  Breather-soliton and breather-breather amplitudes are finite
products of elementary factors; `s_entry` reads any of them by excitation
labels.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError
from .formfactors import exp_I
from .model import Excitation, ExcitationKind, ModelSpec, check_breather, validate_excitation

_POLE_TOL = 1e-12


def _sin_ratio(theta: complex, spec: ModelSpec) -> complex:
    """sin(-(pi/xi) i theta) / sin((pi/xi)(pi + i theta)), with the integer-p limit."""
    a = math.pi / spec.xi  # = p - 1
    num = cmath.sin(-a * 1j * theta)
    den = cmath.sin(a * (math.pi + 1j * theta))
    if abs(den) < _POLE_TOL:
        if spec.p_int is not None and abs(num) < _POLE_TOL:
            return complex((-1.0) ** spec.p_int)
        raise DomainError(f"soliton S-matrix pole at theta = {theta}")
    return num / den


def s0(theta: complex, spec: ModelSpec) -> complex:
    """Scalar (anti)soliton exchange factor S0(theta) = -e^{I(-theta)}/e^{I(theta)},
    |Im theta| <= pi (Watson's equation for the pair function).

    DomainError for |Im theta| > pi and at the poles theta = i k xi, where
    e^{I(theta)} vanishes, also when approached off the imaginary axis."""
    theta = complex(theta)
    if abs(theta.imag) > math.pi + 1e-12:
        raise DomainError(f"|Im theta| > pi unsupported (got {theta.imag})")
    num = exp_I(-theta, spec)
    den = exp_I(theta, spec)
    if abs(den) <= _POLE_TOL * abs(num):
        raise DomainError(f"S0 pole at theta = {theta}")
    return -num / den


def s_soliton(theta: complex, channel: str, spec: ModelSpec) -> complex:
    """Soliton-antisoliton S-matrix entry.

    channel in {"pm_pm", "mp_mp", "pm_mp", "mp_pm"}: the incoming pair, then
    the outgoing one (p = soliton, m = antisoliton); "pm_pm" and "mp_mp" are
    transmission, "pm_mp" and "mp_pm" reflection.  Same-charge pairs scatter
    with S0 alone (`s0`).
    """
    theta = complex(theta)
    if channel in ("pm_pm", "mp_mp"):
        if spec.p_int is not None:
            return ((-1.0) ** spec.p_int) * s0(theta, spec)
        return s0(theta, spec) * _sin_ratio(theta, spec)
    if channel in ("pm_mp", "mp_pm"):
        if spec.p_int is not None:
            return 0.0j
        a = math.pi / spec.xi
        den = cmath.sin(a * (math.pi + 1j * theta))
        if abs(den) < _POLE_TOL:
            raise DomainError(f"soliton S-matrix pole at theta = {theta}")
        return s0(theta, spec) * math.sin(math.pi**2 / spec.xi) / den
    raise DomainError(f"unknown soliton channel {channel!r}")


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


def s_entry(
    e1: Excitation,
    e2: Excitation,
    o1: Excitation,
    o2: Excitation,
    theta: complex,
    spec: ModelSpec,
) -> complex:
    """General S-matrix entry S_{e1 e2}^{o1 o2}(theta); zero unless allowed."""
    for e in (e1, e2, o1, o2):
        validate_excitation(e, spec)
    k = (e1.kind, e2.kind)
    ko = (o1.kind, o2.kind)
    B = ExcitationKind.Breather
    S_, A_ = ExcitationKind.Soliton, ExcitationKind.Antisoliton
    if B in k or B in ko:
        # diagonal in breather content
        if (e1, e2) != (o1, o2):
            return 0.0j
        if e1.kind is B and e2.kind is B:
            return s_breather_breather(theta, e1.m, e2.m, spec)
        if e1.kind is B:
            return s_breather_soliton(theta, e1.m, spec)
        return s_breather_soliton(theta, e2.m, spec)
    # soliton sector: U(1) conservation
    if e1.charge + e2.charge != o1.charge + o2.charge:
        return 0.0j
    if k == (S_, S_) or k == (A_, A_):
        return s0(theta, spec) if (o1, o2) == (e1, e2) else 0.0j
    if (o1, o2) == (e1, e2):
        return s_soliton(theta, "pm_pm" if k == (S_, A_) else "mp_mp", spec)
    return s_soliton(theta, "pm_mp" if k == (S_, A_) else "mp_pm", spec)
