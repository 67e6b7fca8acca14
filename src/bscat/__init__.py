"""Photon-scattering observables of boundary sine-Gordon and Kondo impurities.

Computes the photon reflection coefficient r(omega), the inelastic decay rate
gamma(omega) = -ln|r|^2, the elastic phase shift delta(omega), and the
energy-resolved decay spectrum gamma(omega'|omega) from integrable-QFT data
(exact S-matrices, boundary reflection matrices and current form factors),
with an independent free-fermion oracle at z = 1/2.  All frequencies are in
units of the boundary scale T_B.

The package holds only `__version__`: import each name from the module that
defines it (`bscat.twopoint` for r, gamma and delta, `bscat.spectrum` for
gamma(omega'|omega)), so that importing a module loads only what it uses.
"""

__version__ = "0.1.0"
