"""The closed-form reference solution of ``convergence-study``.

``annulus_radial_solution`` is the radial solution of the power-law
conduction equation between two concentric circles, with its energy and
ohmic power in closed form.  It avoids the finite-element machinery it
certifies: this module imports neither the solver nor scipy.
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


@np.errstate(over="raise", invalid="raise")
def annulus_radial_solution(p: float, sigma_bar: float, e0: float,
                            r_inner: float, r_outer: float,
                            u_inner: float, u_outer: float) -> RadialSolution:
    """Exact radial power-law solution on an annulus with circle traces.

    Energy and ohmic power are the 2D integrals of the closed form, in
    closed form: the integrands are pure powers of r.
    """
    if not 0 < r_inner < r_outer:
        raise OracleError("need 0 < r_inner < r_outer")
    if p <= 1:
        raise OracleError("exponent p must exceed 1")
    try:
        if p == 2.0:
            a = (u_outer - u_inner) / np.log(r_outer / r_inner)
            b = u_inner - a * np.log(r_inner)
            energy = np.pi * sigma_bar * a ** 2 * np.log(r_outer / r_inner)
        else:
            # |u'| = |a beta| r^(beta - 1), and r * Q(|u'|) is a multiple of
            # r^(beta - 1), since 1 + p (beta - 1) = beta - 1
            beta = (p - 2.0) / (p - 1.0)
            span = r_outer ** beta - r_inner ** beta
            a = (u_outer - u_inner) / span
            b = u_inner - a * r_inner ** beta
            energy = (2.0 * np.pi * sigma_bar * e0 ** 2 / p
                      * (abs(a * beta) / e0) ** p * span / beta)
        # sigma(E) E^2 = p Q(E) pointwise for a pure power law
        power = p * energy
    except ArithmeticError:  # Python's float overflow, or numpy's, raised
        power = float("inf")
    if not np.isfinite(power):
        raise OracleError(f"the exact solution at p = {p:g} overflows: "
                          f"u_inner, u_outer, sigma_bar or E0 is too large")
    return RadialSolution(p, sigma_bar, e0, float(a), float(b),
                          float(energy), float(power))
