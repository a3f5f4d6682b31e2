"""The closed-form reference solution of ``convergence-study``.

``annulus_radial_solution`` is the radial solution of the power-law
conduction equation between two concentric circles, with energy and
ohmic power obtained by 1D quadrature of the closed form.  It avoids the
finite-element machinery it certifies: this module imports neither the
solver nor, until the quadrature runs, scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class RadialSolution:
    """u(r) = coef_a * r^beta + coef_b (or coef_a * ln r + coef_b at p = 2),
    beta = (p - 2)/(p - 1); the unique radial solution of
    (1/r) d/dr (r * sigma(|u'|) * u') = 0 with the given circle traces."""

    p: float
    sigma_bar: float
    e0: float
    coef_a: float
    coef_b: float
    energy: float
    power: float


def annulus_radial_solution(p: float, sigma_bar: float, e0: float,
                            r_inner: float, r_outer: float,
                            u_inner: float, u_outer: float) -> RadialSolution:
    """Exact radial power-law solution on an annulus with circle traces.

    Energy and ohmic power are 2D integrals of the closed form reduced to
    1D and evaluated with adaptive quadrature to ~1e-12 relative accuracy.
    """
    if not 0 < r_inner < r_outer:
        raise OracleError("need 0 < r_inner < r_outer")
    if p <= 1:
        raise OracleError("exponent p must exceed 1")
    if p == 2.0:
        a = (u_outer - u_inner) / np.log(r_outer / r_inner)
        b = u_inner - a * np.log(r_inner)
    else:
        beta = (p - 2.0) / (p - 1.0)
        a = (u_outer - u_inner) / (r_outer ** beta - r_inner ** beta)
        b = u_inner - a * r_inner ** beta

    def field(r: float) -> float:
        if p == 2.0:
            return abs(a) / r
        beta = (p - 2.0) / (p - 1.0)
        return abs(a * beta) * r ** (beta - 1.0)

    def q_density(e: float) -> float:
        return sigma_bar * e0 ** 2 / p * (e / e0) ** p

    def sig(e: float) -> float:
        return sigma_bar * (e / e0) ** (p - 2.0)

    if u_inner == u_outer:
        energy = power = 0.0
    else:
        # imported here, so that only the commands that call this oracle
        # pay for loading scipy.integrate
        from scipy import integrate

        energy, _ = integrate.quad(
            lambda r: 2.0 * np.pi * r * q_density(field(r)),
            r_inner, r_outer, epsabs=0.0, epsrel=1e-12, limit=200)
        power, _ = integrate.quad(
            lambda r: 2.0 * np.pi * r * sig(field(r)) * field(r) ** 2,
            r_inner, r_outer, epsabs=0.0, epsrel=1e-12, limit=200)
    return RadialSolution(p, sigma_bar, e0, float(a), float(b),
                          float(energy), float(power))
