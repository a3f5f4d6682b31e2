"""Independent reference solutions used to check the finite-element path.

Three oracles, each deliberately avoiding the machinery it certifies:

* ``annulus_radial_solution``: closed-form radial solution of the power-law
  conduction equation between two concentric circles, with energy and ohmic
  power obtained by 1D quadrature of the closed form.
* ``two_layer_strip``: series composition of two nonlinear laws in 1D,
  solved by bracketed bisection on the shared flux.
* ``brute_force_min``: derivative-free minimization of the discrete energy
  with random restarts, for tiny meshes only.  It shares the energy
  evaluation with the solver (that evaluation is itself checked against the
  closed forms above) but none of the Newton machinery.

Three cross-checks restate by another route what the solver computes:
the unknown map as a sparse matrix (``prolongation``), the nodal energy
gradient of a state (``nodal_residual``) and the boundary pairing in
volumetric form (``dtn_pairing_via_lift``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .solver import (BoundaryDatum, PotentialField, Problem,
                     harmonic_initial_guess)


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
    r_inner: float
    r_outer: float
    u_inner: float
    u_outer: float
    coef_a: float
    coef_b: float
    energy: float
    power: float

    @property
    def is_log(self) -> bool:
        return self.p == 2.0

    def u(self, r):
        r = np.asarray(r, dtype=float)
        if self.is_log:
            return self.coef_a * np.log(r) + self.coef_b
        beta = (self.p - 2.0) / (self.p - 1.0)
        return self.coef_a * r ** beta + self.coef_b

    def du(self, r):
        r = np.asarray(r, dtype=float)
        if self.is_log:
            return self.coef_a / r
        beta = (self.p - 2.0) / (self.p - 1.0)
        return self.coef_a * beta * r ** (beta - 1.0)

    def field(self, r):
        return np.abs(self.du(r))

    def flux_times_r(self, r):
        """r * sigma(|u'|) * |u'|; constant in r for the exact solution."""
        r = np.asarray(r, dtype=float)
        e = self.field(r)
        return r * self.sigma_bar * self.e0 * (e / self.e0) ** (self.p - 1.0)


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
    return RadialSolution(p, sigma_bar, e0, r_inner, r_outer,
                          u_inner, u_outer, float(a), float(b),
                          float(energy), float(power))


@dataclass(frozen=True)
class StripSolution:
    """1D series solution of two nonlinear layers under a voltage drop.

    The shared flux ``j`` satisfies flux_left(e_left) = flux_right(e_right)
    = j with thickness-weighted fields summing to the voltage.  ``u_at``
    gives the rising piecewise-linear potential profile with u(0) = 0.
    """

    e_left: float
    e_right: float
    j: float
    split_x: float
    length: float
    width: float
    voltage: float
    energy: float
    power: float

    def u_at(self, x):
        x = np.asarray(x, dtype=float)
        left = np.clip(x, 0.0, self.split_x) * self.e_left
        right = np.clip(x - self.split_x, 0.0, None) * self.e_right
        return left + right


def _flux_inverse(model, j: float, e_seed: float, n_bisect: int = 80) -> float:
    """Solve flux(e) = j for e >= 0 by bracket expansion plus bisection."""
    if j <= 0.0:
        return 0.0
    hi = max(e_seed, 1e-300)
    for _ in range(600):
        if model.flux_raw(hi) >= j:
            break
        hi *= 2.0
    else:
        raise OracleError("flux bracket expansion failed")
    lo = 0.0
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        if model.flux_raw(mid) < j:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_layer_strip(model_left, model_right, split: float, voltage: float,
                    length: float = 1.0, width: float = 1.0) -> StripSolution:
    """Series composition of two laws across a strip of given length.

    The left layer occupies x in [0, split * length].  Solved by bisection
    on the shared flux after bracket expansion (monotone laws only).
    """
    if not 0.0 < split < 1.0:
        raise OracleError("split must lie strictly inside (0, 1)")
    if voltage < 0.0:
        raise OracleError("voltage must be nonnegative")
    t_l = split * length
    t_r = (1.0 - split) * length
    if voltage == 0.0:
        return StripSolution(0.0, 0.0, 0.0, t_l, length, width, 0.0, 0.0, 0.0)
    e_seed = voltage / length

    def total_v(j: float) -> float:
        return t_l * _flux_inverse(model_left, j, e_seed) \
            + t_r * _flux_inverse(model_right, j, e_seed)

    j_hi = max(model_left.flux_raw(e_seed), model_right.flux_raw(e_seed),
               1e-300)
    for _ in range(600):
        if total_v(j_hi) >= voltage:
            break
        j_hi *= 2.0
    else:
        raise OracleError("voltage bracket expansion failed")
    j_lo = 0.0
    for _ in range(80):
        mid = 0.5 * (j_lo + j_hi)
        if total_v(mid) < voltage:
            j_lo = mid
        else:
            j_hi = mid
    j = 0.5 * (j_lo + j_hi)
    e_l = _flux_inverse(model_left, j, e_seed)
    e_r = _flux_inverse(model_right, j, e_seed)
    energy = width * (t_l * model_left.energy_density_raw(e_l)
                      + t_r * model_right.energy_density_raw(e_r))
    power = width * j * (t_l * e_l + t_r * e_r)
    return StripSolution(float(e_l), float(e_r), float(j), t_l, length,
                         width, voltage, float(energy), float(power))


@dataclass(frozen=True)
class BruteForceResult:
    u: np.ndarray
    energy: float
    n_free: int


def brute_force_min(mesh, materials, datum, seed: int = 0,
                    n_restarts: int = 3, max_free: int = 60,
                    maxiter: int = 40000) -> BruteForceResult:
    """Derivative-free discrete energy minimization for tiny meshes.

    Runs Powell's method from a zero interior state and ``n_restarts``
    random perturbations of it, keeping the best minimizer.  Refuses more
    than ``max_free`` unknowns.  None of the Newton/line-search machinery
    is touched; only the energy evaluation is shared.
    """
    from scipy import optimize  # slow to load; only this oracle uses it

    problem = Problem(mesh, materials)
    if problem.n_free > max_free:
        raise OracleError(f"{problem.n_free} unknowns exceed the brute-force "
                          f"limit of {max_free}")
    u_fix = np.zeros(mesh.n_nodes)
    u_fix[datum.node_ids] = datum.values
    scale = float(np.max(np.abs(datum.values))) or 1.0

    def objective(x: np.ndarray) -> float:
        return problem.energy(problem.nodal_state(u_fix, x))

    rng = np.random.default_rng(seed)
    starts = [np.zeros(problem.n_free)]
    for _ in range(n_restarts):
        starts.append(rng.uniform(-scale, scale, size=problem.n_free))
    best_x, best_e = None, np.inf
    for x0 in starts:
        res = optimize.minimize(objective, x0, method="Powell",
                                options={"xtol": 1e-12, "ftol": 1e-14,
                                         "maxiter": maxiter,
                                         "maxfev": 20 * maxiter})
        if res.fun < best_e:
            best_x, best_e = res.x, float(res.fun)
    u = problem.nodal_state(u_fix, best_x)
    return BruteForceResult(u, best_e, problem.n_free)


def prolongation(problem: Problem) -> sparse.csr_matrix:
    """The unknown map of ``problem`` as a sparse (n_nodes, n_free) 0/1
    matrix P: u = u_fix + P x away from removed nodes, and P^T sums a
    nodal vector onto the free unknowns."""
    return sparse.csr_matrix(
        (np.ones(len(problem.free_nodes)), (problem.free_nodes,
                                            problem.free_cols)),
        shape=(problem.mesh.n_nodes, problem.n_free))


def nodal_residual(problem: Problem, u: np.ndarray) -> np.ndarray:
    """Assembled energy gradient of ``problem`` at every node of the nodal
    state ``u`` (no boundary projection)."""
    grads, norms = problem.grad_norms(u)
    return problem.assemble(problem.element_flux(
        grads, problem.per_tri(norms, "sigma")))


def dtn_pairing_via_lift(fld: PotentialField, phi: BoundaryDatum,
                         lift: np.ndarray | None = None) -> float:
    """Volumetric evaluation sum_T area sigma grad u . grad Phi.

    ``lift`` is a full nodal extension of phi; defaults to the discrete
    harmonic one.  Any admissible lift (exact trace, constant on each PEC
    component) gives the same value within solver tolerance.
    """
    problem = fld.problem
    if lift is None:
        u_fix = np.zeros(problem.mesh.n_nodes)
        u_fix[phi.node_ids] = phi.values
        lift = problem.nodal_state(u_fix,
                                   harmonic_initial_guess(problem, u_fix))
    keep = np.isfinite(lift)
    return float(lift[keep] @ fld.residual[keep])
