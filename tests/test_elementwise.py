"""The array paths of the special functions, form factors and brackets
against elementwise scalar evaluation.

A diagram or excitation-set integrand calls each function once on the
array of an adaptive_1d call's nodes; a number takes the same code, e^{I} and the R_s
phase through their memos.  Each array result must equal the scalar calls
element by element, including the branches a node can land on: the zeros
and poles of e^{I} at Re lambda = 0 and its mirrored Re lambda < 0, both
sides of the R_s phase's asymptote switch, and f_pm's removable 0/0 and
its breather pole.
"""

import math
import re

import numpy as np
import pytest

from bscat.errors import DomainError
from bscat.formfactors import _exp_i_fold, _ZERO_FACTOR, exp_I, f_pm, f_pm1
from bscat.model import make_model
from bscat.quadrature import lookup_by_line
from bscat.reflection import (
    _rs_phase_cached,
    _rs_phase_decay,
    _rs_phase_integral,
    _rs_phase_on_line,
    _rs_phase_pole,
    r_s,
    soliton_pair_bracket,
    soliton_split_bracket,
)
from bscat.smatrix import s0

ZS = (0.25, 1.0 / 3.0, 0.4)
KINDS = ("bsg", "kondo")
# real parts on both sides of 0, with 0 itself
RE = np.array([-3.1, -0.7, -1e-9, 0.0, 1e-9, 0.45, 2.2, 6.9])


def _elementwise(f, *arrays):
    """f called on each element of the broadcast arrays, as an array."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=complex) for a in arrays))
    values = [complex(f(*point)) for point in zip(*(a.ravel().tolist() for a in arrays))]
    return np.array(values, dtype=complex).reshape(arrays[0].shape)


def _assert_equal(array, scalars, rtol=1e-14):
    # numpy's exp, log and sin may round an array's elements and a lone
    # number differently, by an ulp: 1e-14 is a few tens of ulp
    assert array.shape == scalars.shape
    assert np.allclose(array, scalars, rtol=rtol, atol=0.0), np.max(np.abs(array - scalars))


def _vanishing_lines(spec):
    """The lines Im lambda = k xi/2, |k xi/2| <= 2 pi, on which a factor of
    the e^{I} fold vanishes at Re lambda = 0: {Im lambda: 'zero' or 'pole'}."""
    lines = {}
    for k in range(-8, 9):
        lam_i = 0.5 * k * spec.xi
        if abs(lam_i) > 2.0 * math.pi:
            continue
        weights = [w for b, w in _exp_i_fold(spec.xi, lam_i)[1] if abs(b) <= _ZERO_FACTOR]
        if weights:
            lines[lam_i] = "pole" if weights[0] > 0.0 else "zero"
    return lines


@pytest.mark.parametrize("z", ZS, ids=str)
def test_exp_I_on_lines_with_a_zero_or_pole(z):
    spec = make_model("bsg", z)
    lines = _vanishing_lines(spec)
    assert "zero" in lines.values() and "pole" in lines.values()
    for lam_i, kind in lines.items():
        lam = RE + 1j * lam_i
        if kind == "zero":
            value = exp_I(lam, spec)
            _assert_equal(value, _elementwise(lambda x: exp_I(x, spec), lam))
            assert value[RE == 0.0] == 0.0
        else:
            with pytest.raises(DomainError, match=r"e\^I has a pole at lambda = "):
                exp_I(lam, spec)
            off = lam[RE != 0.0]
            _assert_equal(exp_I(off, spec), _elementwise(lambda x: exp_I(x, spec), off))


@pytest.mark.parametrize("z", ZS, ids=str)
def test_exp_I_on_several_lines_at_once(z):
    # one array mixing lines, each mirrored in Re lambda
    spec = make_model("bsg", z)
    half = 0.5 * (math.pi - spec.xi)
    lam = np.add.outer(RE[RE != 0.0], 1j * np.array([0.0, half, -half, math.pi]))
    value = exp_I(lam, spec)
    _assert_equal(value, _elementwise(lambda x: exp_I(x, spec), lam))
    # e^{I(-conj lambda)} = conj e^{I(lambda)}
    assert np.allclose(exp_I(-lam.conjugate(), spec), value.conjugate(), rtol=1e-14, atol=0.0)


# z = 0.6 too: past z = 1/2 the limit pi (pi - xi)/(4 xi) is negative
@pytest.mark.parametrize("z", ZS + (0.6,), ids=str)
def test_rs_phase_on_both_sides_of_the_asymptote_switch(z):
    spec = make_model("bsg", z)
    switch = 16.0 / _rs_phase_pole(spec.xi)
    re = np.array([-1.001, -0.999, -0.5, 0.5, 0.999, 1.001]) * switch
    for lam_i in (0.0, 0.4, -0.4):
        lam = re + 1j * lam_i
        phase = lookup_by_line(_rs_phase_on_line, _rs_phase_cached, lam, spec.xi)
        scalars = np.array([_rs_phase_cached(x, lam_i, spec.xi) for x in re])
        _assert_equal(phase, scalars)
        # both sides against the integral itself, limit and table alike
        decay = _rs_phase_decay(lam_i, spec.xi)
        rule = [_rs_phase_integral(complex(x, lam_i), spec.xi, decay) for x in re]
        assert np.max(np.abs(phase - rule)) <= 1e-11
        # the limit past the switch, mirrored: odd in Re lambda
        assert phase[0] == -phase[-1]
        _assert_equal(r_s(lam, spec), _elementwise(lambda x: r_s(x, spec), lam))


def test_f_pm_removable_zero_over_zero():
    # even p = 4: f_pm's ratio is 0/0 at coinciding rapidities
    spec = make_model("bsg", 0.25)
    l1 = np.array([0.3, -1.2, 0.8, 2.0])
    l2 = np.array([0.3, 0.4, 0.8, -0.5])
    value = f_pm(l1, l2, spec)
    _assert_equal(value, _elementwise(lambda a, b: f_pm(a, b, spec), l1, l2))
    assert np.all(np.isfinite(value))


@pytest.mark.parametrize("z", ZS, ids=str)
def test_f_pm_breather_pole_is_refused_naming_the_point(z):
    spec = make_model("bsg", z)
    pole = 1j * math.pi * (1.0 / (spec.p - 1.0) - 1.0)
    with pytest.raises(DomainError, match="breather pole"):
        f_pm(pole, 0.0, spec)
    d = np.array([0.3, pole, -0.2])
    named = re.escape(f"breather pole at lambda1 - lambda2 = {complex(d[1]) - 0j};")
    with pytest.raises(DomainError, match=named):
        f_pm(d, np.zeros(3), spec)
    ok = d[[0, 2]] + 1j * math.pi
    _assert_equal(f_pm(ok, 0.25, spec), _elementwise(lambda a: f_pm(a, 0.25, spec), ok))


def _rapidities(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 2.5, (3, 4, 5))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("z", ZS, ids=str)
def test_brackets(kind, z):
    spec = make_model(kind, z)
    l1, l2, _ = _rapidities(1)
    for sign in (-1, 1):
        _assert_equal(
            soliton_pair_bracket(l1, l2, spec, sign),
            _elementwise(lambda a, b: soliton_pair_bracket(a, b, spec, sign), l1, l2),
        )
    _assert_equal(
        soliton_split_bracket(l1, l2, spec),
        _elementwise(lambda a, b: soliton_split_bracket(a, b, spec), l1, l2),
    )


@pytest.mark.parametrize("z", [0.25, 1.0 / 3.0], ids=str)
def test_f_pm1(z):
    spec = make_model("bsg", z)
    l1, l2, l3 = _rapidities(2)
    cross = 1j * math.pi
    for a, b, c in ((l1, l2, l3), (l1 + cross, l2 + cross, l3), (l1, l1, l3)):
        # H's coefficient sum cancels: at z = 1/4 an ulp of its exponentials
        # moves the crossed value by 8e-14
        _assert_equal(
            f_pm1(a, b, c, spec),
            _elementwise(lambda x, y, w: f_pm1(x, y, w, spec), a, b, c),
            rtol=1e-12,
        )


@pytest.mark.parametrize("z", ZS, ids=str)
def test_s0(z):
    spec = make_model("bsg", z)
    l1, l2, _ = _rapidities(3)
    for theta in (l1 - l2, 1j * math.pi - (l1 - l2), l1 - l2 + 0.5j):
        _assert_equal(s0(theta, spec), _elementwise(lambda t: s0(t, spec), theta))
    with pytest.raises(DomainError, match=r"\|Im theta\| > pi unsupported \(got 4"):
        s0(np.array([0.2, 0.3 + 4.0j]), spec)
