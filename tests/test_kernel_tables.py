"""The per-line Chebyshev tables of e^{I} and of the R_s phase against the
direct evaluations they are built from, and what a spectrum point costs in
table builds."""

import math

import numpy as np
import pytest

import bscat.formfactors as formfactors_mod
import bscat.quadrature as quadrature_mod
import bscat.reflection as reflection_mod
from bscat.errors import DomainError
from bscat.formfactors import _TABLE_N, _exp_i_direct, exp_I, r0_weights
from bscat.model import make_model
from bscat.spectrum import spectrum_point

_SCAN_Z = (0.15, 0.2, 0.25, 1.0 / 3.0, 0.4, 0.6, 0.75)
# |Re lambda| <= 30, off 0 and off the power-of-two panel edges
_SCAN_RE = tuple(s * (0.05 + 1.19 * k) for k in range(26) for s in (1.0, -1.0))


def _form_factor_lines(xi):
    """The lines Im lambda = const the form factors evaluate e^{I} on: the
    real line, +-theta1/2, +-pi and -pi +- theta1/2."""
    half = 0.5 * (math.pi - xi)
    return (0.0, half, -half, math.pi, -math.pi, -math.pi + half, -math.pi - half)


def _nan_aware_max(errors):
    return max(errors, key=lambda e: math.inf if math.isnan(e) else e)


@pytest.mark.parametrize("z", _SCAN_Z, ids=lambda z: f"{z:.4g}")
def test_exp_I_tables_match_direct(z):
    spec = make_model("bsg", z)
    errors = []
    for im in _form_factor_lines(spec.xi):
        for re in _SCAN_RE:
            lam = complex(re, im)
            ref = _exp_i_direct(lam, spec.xi, _TABLE_N)
            # the table raises neither ToleranceNotMet nor DomainError here
            errors.append(abs(exp_I(lam, spec) / ref - 1.0))
    assert _nan_aware_max(errors) <= 1e-12


# lines Im lambda = f(xi) of e^{I}, theta1 = pi - xi
_LINES = {
    "0": lambda xi: 0.0,
    "-pi": lambda xi: -math.pi,
    "theta1": lambda xi: math.pi - xi,
    "-theta1": lambda xi: xi - math.pi,
}


@pytest.mark.parametrize(
    "z, line, width",
    [
        pytest.param(z, line, width, id=f"z={z}-{line}")
        for z, line, width in (
            (0.63, "0", 8.0),
            (0.61, "-pi", 8.0),
            (0.30, "theta1", 2.0),
            (0.72, "-theta1", 8.0),
        )
    ],
)
def test_exp_I_table_next_to_the_panel_width_cap(z, line, width):
    # strip_panel_width gives these lines 1.40-1.50 strip half-widths, where
    # the degree-20 panel 0 missed its 1e-12 check (1.17e-12 to 1.73e-12)
    # and the lookup raised ToleranceNotMet; the line is now tabulated at
    # half that width, and reads as the direct sum does
    spec = make_model("bsg", z)
    lam = complex(0.5, _LINES[line](spec.xi))
    ref = _exp_i_direct(lam, spec.xi, _TABLE_N)
    assert abs(exp_I(lam, spec) / ref - 1.0) <= 1e-12
    assert formfactors_mod._exp_i_line(spec.xi, lam.imag)._width == width


def test_exp_I_line_keeps_a_width_that_passes():
    # panel 0 is built when the line is set up; a line whose panel 0 passes
    # keeps strip_panel_width's width (z = 1/3: 4 on every line)
    xi = make_model("bsg", 1.0 / 3.0).xi
    for im in _form_factor_lines(xi):
        table = formfactors_mod._exp_i_line(xi, im)
        assert table._width == 4.0
        assert table._built[0]


@pytest.mark.parametrize("z", _SCAN_Z, ids=lambda z: f"{z:.4g}")
def test_rs_phase_tables_match_direct(z):
    xi = make_model("bsg", z).xi
    errors = []
    for im in _form_factor_lines(xi):
        for re in _SCAN_RE:
            try:
                ref = reflection_mod._rs_phase_direct(complex(re, im), xi)
            except DomainError:
                # outside the phase's strip the table refuses the line too
                with pytest.raises(DomainError, match="diverges"):
                    reflection_mod._rs_phase_cached(re, im, xi)
                continue
            errors.append(abs(reflection_mod._rs_phase_cached(re, im, xi) - ref))
    assert errors and _nan_aware_max(errors) <= 1e-12


@pytest.mark.parametrize("z", [0.25, 1.0 / 3.0, 0.4])
def test_tables_use_the_mirror_symmetry(z):
    # e^{I(-conj lambda)} = conj e^{I(lambda)} and phase(-conj lambda) =
    # -conj phase(lambda): both tables hold Re lambda >= 0 only, and the
    # direct evaluations meet the symmetry to rounding
    spec = make_model("bsg", z)
    for lam in (complex(2.3, 0.4), complex(0.7, -1.1), complex(11.2, math.pi)):
        mirror = -lam.conjugate()
        direct = _exp_i_direct(mirror, spec.xi, _TABLE_N)
        assert abs(direct / _exp_i_direct(lam, spec.xi, _TABLE_N).conjugate() - 1.0) <= 1e-13
        assert exp_I(mirror, spec) == exp_I(lam, spec).conjugate()
    for lam in (complex(2.3, 0.4), complex(0.7, -0.2)):
        phase = reflection_mod._rs_phase_cached(lam.real, lam.imag, spec.xi)
        mirror = reflection_mod._rs_phase_cached(-lam.real, lam.imag, spec.xi)
        assert mirror == -phase.conjugate()
        direct = reflection_mod._rs_phase_direct(-lam.conjugate(), spec.xi)
        assert abs(direct + phase.conjugate()) <= 1e-12
    for line in (
        formfactors_mod._exp_i_line(spec.xi, 0.4),
        reflection_mod._rs_phase_line(spec.xi, 0.4),
    ):
        with pytest.raises(DomainError, match="not in"):
            line(-1.0)


def test_panel_width_follows_the_strip():
    # power-of-two widths, at most 1.5 times the strip's half-width
    assert quadrature_mod.strip_panel_width(math.pi) == 4.0
    assert quadrature_mod.strip_panel_width(1.3) == 1.0
    assert quadrature_mod.strip_panel_width(0.1) == 0.125
    with pytest.raises(DomainError):
        quadrature_mod.strip_panel_width(0.0)
    # the phase at z = 1/3 is analytic in |Im lambda| < 3 xi/2 = 3 pi/4
    xi = make_model("bsg", 1.0 / 3.0).xi
    assert reflection_mod._rs_phase_line(xi, 0.0)._width == 2.0
    assert reflection_mod._rs_phase_line(xi, 1.2)._width == 1.0


def _clear_kernel_caches():
    for module in (formfactors_mod, reflection_mod):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_table_builds_for_a_spectrum_point_and_cold_r0(monkeypatch):
    # cold kernel caches, then r0_weights and spectrum_point at the lowest
    # spectrum-third node (bsG z = 1/3, omega = 1).  The counts are the
    # integrated members, one kappa each, not the integral calls: a table
    # panel's 41 points are one call.  With residual-only e^{I} tables of
    # width 1 and an integral per phase miss this took 7,421 residual
    # integrals, 742 phase integrals and 181 table panels; the
    # whole-exponent and phase tables on strip-sized panels take 1,559
    # residual members in 39 calls (38 panels and the constant c), 369
    # phase members in 9 calls, and 47 panels
    counts = {"residual": 0, "phase": 0, "panels": 0, "calls": 0}
    members = {"_exp_i_kernel": "residual", "_rs_phase_kernel": "phase"}

    def counted_integral(real):
        def counted(kernel, args, kappa, *rest, **kwargs):
            if kernel.__name__ in members:
                counts[members[kernel.__name__]] += np.size(kappa)
                counts["calls"] += 1
            return real(kernel, args, kappa, *rest, **kwargs)

        return counted

    real_build = quadrature_mod.ChebyshevTable._build

    def counted_build(*args, **kwargs):
        counts["panels"] += 1
        return real_build(*args, **kwargs)

    for module in (formfactors_mod, reflection_mod):
        monkeypatch.setattr(
            module, "integrate_semi_infinite", counted_integral(module.integrate_semi_infinite)
        )
    monkeypatch.setattr(quadrature_mod.ChebyshevTable, "_build", counted_build)
    _clear_kernel_caches()
    try:
        spec = make_model("bsg", 1.0 / 3.0)
        r0_weights(spec)
        node = ((np.polynomial.legendre.leggauss(4)[0][0] + 1.0) / 2.0) ** 2
        spectrum_point(node, 1.0, spec)
    finally:
        _clear_kernel_caches()
    assert counts["residual"] <= 2000
    assert counts["phase"] <= 400
    assert counts["panels"] <= 60
    # one call per table panel, not one per point
    assert counts["calls"] <= counts["panels"] + 2
