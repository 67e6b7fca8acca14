"""The two soliton-antisoliton pairs form factor f_{+-+-}, a test oracle for
f_{+-1}: its soliton pair fuses to breather 1 with the constant that fuses
f_{+-} to f_1 (`test_formfactors.py::TestBreatherFusion`)."""

import cmath
import math

from bscat.errors import DomainError
from bscat.formfactors import _check_strip, bigH, c_const, zeta


def f_pmpm(l1, l2, l3, l4, spec):
    """Two soliton-antisoliton pairs form factor f_{+-+-} (integer p only)."""
    if spec.p_int is None:
        raise DomainError("f_pmpm is implemented for integer p only")
    p = spec.p_int
    if p == 2:
        return 0.0 + 0.0j
    lams = [complex(l) for l in (l1, l2, l3, l4)]
    _check_strip(*[lams[i] - lams[j] for i in range(4) for j in range(i + 1, 4)])
    xi = spec.xi
    c = c_const(spec)
    pref = (
        2.0 * math.pi**2 / (c * c * xi) * ((-1.0) ** (p - 1)) / math.sqrt(2.0 * spec.z)
    )
    out = pref * cmath.exp(sum(lams) / 2.0)
    for i in range(4):
        for j in range(i + 1, 4):
            out *= zeta(lams[i] - lams[j], spec)
    out *= bigH(*lams, spec)
    pm1 = p - 1.0
    s41 = cmath.sinh(pm1 * (lams[3] - lams[0]))
    s23 = cmath.sinh(pm1 * (lams[1] - lams[2]))
    if min(abs(s41), abs(s23)) < 1e-12:
        raise DomainError("f_pmpm exchange pole (coinciding rapidities)")
    out /= s41 * s23
    h21 = 0.5 * pm1 * (lams[1] - lams[0])
    h43 = 0.5 * pm1 * (lams[3] - lams[2])
    sh21, ch21 = cmath.sinh(h21), cmath.cosh(h21)
    sh43, ch43 = cmath.sinh(h43), cmath.cosh(h43)
    if min(abs(ch21 * sh43), abs(sh21 * ch43)) < 1e-12:
        raise DomainError("f_pmpm exchange pole (coinciding rapidities)")
    return out * (1.0 / (ch21 * sh43) + 1.0 / (sh21 * ch43))
