"""Reference code that the tests exercise and no ``condlab`` command runs.

``src/condlab`` holds only what the eight subcommands run.  The
certificates, studies, oracles and cross-checks below serve the tests
alone; each definition keeps the text it had in the module its section
names, so the tests check the same code.  Two members sit on subclasses
of their classes; the radial profile of a ``RadialSolution`` and the
``outer_exponent`` of a ``MaterialMap`` are functions that take one.
``delaunay`` is the mesher that ``condlab.mesh.delaunay`` replaced, with
its text as it stood there; the tests hold the two to the same triangles.
Importing this module loads ``scipy.sparse``, for ``prolongation``.

pytest collects only ``test_*.py``, so this module is imported, not run.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from condlab import imaging, monotonicity
from condlab.constitutive import ConstitutiveError, MaterialMap
from condlab.dtn import _alpha_sweep, dtn_pairing, gauss_on_unit
from condlab.mesh import Mesh, MeshError, _incircle, _orient, boundary_mass
from condlab.oracle import OracleError, RadialSolution
from condlab.solver import (BoundaryDatum, DatumTerm, Point, PotentialField,
                            Problem, harmonic_initial_guess, make_datum,
                            solve)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# condlab.constitutive: certificates


def flux(model, e):
    """The current magnitude sigma(E) * E of a ``PowerLaw``."""
    return model.sigma(e) * np.asarray(e, dtype=float)


def flux_raw(model, e):
    """The ideal (unfloored) current magnitude sigma_bar e0 (E/e0)^(p-1)
    of a ``PowerLaw``."""
    e = np.asarray(e, dtype=float)
    out = model.sigma_bar * model.e0 * (e / model.e0) ** (model.p - 1.0)
    return out if out.ndim else float(out)


def dflux(model, e):
    """d flux / dE of a ``PowerLaw``, evaluated as its own law pass:
    (p - 1) sigma above the floor, the frozen sigma(reg_eps) below it."""
    e = np.asarray(e, dtype=float)
    lo = e < model.reg_eps
    out = (model.p - 1.0) * model.sigma_raw(np.maximum(e, model.reg_eps))
    out = np.where(lo, model.sigma_raw(model.reg_eps), out)
    return out if out.ndim else float(out)


def default_e_grid(e_scale: float, n: int = 61) -> np.ndarray:
    """Log-spaced field-magnitude grid, three decades either side of a
    characteristic scale."""
    return e_scale * np.logspace(-3.0, 3.0, n)


@dataclass(frozen=True)
class GrowthBoundsResult:
    passed: bool
    witness_e: float | None
    witness_side: str | None
    margin: float


def check_growth_bounds(model, e0: float, p: float, sigma_lo: float,
                        sigma_hi: float, grid: np.ndarray | None = None,
                        rtol: float = 1e-9) -> GrowthBoundsResult:
    """Two-sided growth certificate for the ideal law on a field grid.

    For p >= 2 the admissible corridor is

        sigma_lo * (E/e0)^(p-2) <= sigma(E) <= sigma_hi * (1 + (E/e0)^(p-2))

    and for 1 < p < 2 both sides use the bare power (E/e0)^(p-2).  The
    unregularized law is evaluated: the floor is a solver device and is
    excluded from admissibility checks.
    """
    if model.is_structural:
        raise ConstitutiveError("growth bounds apply to pointwise laws only")
    if grid is None:
        grid = default_e_grid(e0)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise ConstitutiveError("growth grid must be strictly positive")
    s = np.asarray(model.sigma_raw(grid), dtype=float)
    power = (grid / e0) ** (p - 2.0)
    lo = sigma_lo * power
    hi = sigma_hi * (1.0 + power) if p >= 2.0 else sigma_hi * power
    scale = np.maximum(np.abs(s), 1e-300)
    lo_margin = (s - lo) / scale
    hi_margin = (hi - s) / scale
    margins = np.minimum(lo_margin, hi_margin)
    k = int(np.argmin(margins))
    if margins[k] < -rtol:
        side = "lower" if lo_margin[k] < hi_margin[k] else "upper"
        return GrowthBoundsResult(False, float(grid[k]), side,
                                  float(margins[k]))
    return GrowthBoundsResult(True, None, None, float(margins[k]))


@dataclass(frozen=True)
class StrongMonotonicityResult:
    passed: bool
    kappa_best: float
    witness: tuple[tuple[float, float], tuple[float, float]] | None


def check_strong_monotonicity(model, p: float, kappa: float,
                              n_pairs: int = 400, seed: int = 0,
                              e_scale: float | None = None,
                              rtol: float = 1e-9) -> StrongMonotonicityResult:
    """Sampled vector-field strong monotonicity certificate.

    Draws random field pairs (a, b) in R^2 and checks

        (sigma(|b|) b - sigma(|a|) a) . (b - a) >= kappa * S(a, b)

    with shape S = |b - a|^p for p >= 2 and
    S = (1 + |a|^2 + |b|^2)^((p-2)/2) |b - a|^2 for 1 < p < 2.
    Returns the smallest sampled ratio as ``kappa_best``.
    """
    if model.is_structural:
        raise ConstitutiveError("monotonicity applies to pointwise laws only")
    rng = np.random.default_rng(seed)
    scale = e_scale if e_scale is not None else model.e0
    mag = scale * 10.0 ** rng.uniform(-3, 3, size=(n_pairs, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n_pairs, 2))
    a = mag[:, 0, None] * np.stack([np.cos(ang[:, 0]), np.sin(ang[:, 0])],
                                   axis=1)
    b = mag[:, 1, None] * np.stack([np.cos(ang[:, 1]), np.sin(ang[:, 1])],
                                   axis=1)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    fa = np.asarray(flux_raw(model, na)) / na
    fb = np.asarray(flux_raw(model, nb)) / nb
    lhs = np.einsum("ij,ij->i", fb[:, None] * b - fa[:, None] * a, b - a)
    d2 = np.einsum("ij,ij->i", b - a, b - a)
    if p >= 2.0:
        shape = d2 ** (p / 2.0)
    else:
        shape = (1.0 + na ** 2 + nb ** 2) ** ((p - 2.0) / 2.0) * d2
    ok = shape > 0
    ratio = lhs[ok] / shape[ok]
    k = int(np.argmin(ratio))
    kappa_best = float(ratio[k])
    passed = bool(kappa_best >= kappa * (1.0 - rtol))
    witness = None
    if not passed:
        ai, bi = a[ok][k], b[ok][k]
        witness = ((float(ai[0]), float(ai[1])), (float(bi[0]), float(bi[1])))
    return StrongMonotonicityResult(passed, kappa_best, witness)


def check_flux_monotone(model, grid: np.ndarray,
                        rtol: float = 1e-12) -> tuple[bool, float | None]:
    """Strict increase of E -> sigma(E)*E on a grid (ideal law)."""
    if model.is_structural:
        return True, None
    grid = np.sort(np.asarray(grid, dtype=float))
    f = np.asarray(flux_raw(model, grid))
    bad = np.nonzero(np.diff(f) <= rtol * np.maximum(np.abs(f[:-1]), 1e-300))[0]
    if len(bad):
        return False, float(grid[bad[0] + 1])
    return True, None


def outer_exponent(materials: MaterialMap) -> float:
    """The exponent p of the law on label 0."""
    return materials.models[0].p


# ---------------------------------------------------------------------------
# condlab.solver: data families and continuity studies


def datum_family(mesh: Mesh,
                 specs: Sequence[tuple[str, Sequence[DatumTerm]]]
                 ) -> list[BoundaryDatum]:
    """Build a named family of zero-mean data on one mesh."""
    bm = boundary_mass(mesh)
    return [make_datum(mesh, terms, name, bm) for name, terms in specs]


@dataclass(frozen=True)
class ContinuityRow:
    eps: float
    grad_diff_norm: float


@dataclass(frozen=True)
class ContinuityStudy:
    rows: tuple[ContinuityRow, ...]
    slope: float
    exponent: float


def boundary_data_continuity_study(mesh: Mesh, materials: MaterialMap,
                                   datum: BoundaryDatum,
                                   direction: BoundaryDatum,
                                   eps_list: Sequence[float]
                                   ) -> ContinuityStudy:
    """Gradient-difference decay under boundary perturbations f + eps*phi.

    Reports || grad u^(f + eps phi) - grad u^f ||_{L^p} over the conducting
    triangles with p the declared background exponent, plus the fitted
    log-log slope (least squares over the given eps ladder).
    """
    p = outer_exponent(materials)
    problem = Problem(mesh, materials)
    base = solve(mesh, materials, datum, problem=problem)
    g_base, _ = problem.grad_norms(base.u)
    rows = []
    for eps in sorted(eps_list, reverse=True):
        fld = solve(mesh, materials, datum.plus(direction, eps),
                    initial_guess=base.u, problem=problem)
        g_eps, _ = problem.grad_norms(fld.u)
        d = np.linalg.norm(g_eps - g_base, axis=1)
        norm = float((problem.areas @ d ** p) ** (1.0 / p))
        rows.append(ContinuityRow(float(eps), norm))
    le = np.log([r.eps for r in rows])
    ln = np.log([max(r.grad_diff_norm, 1e-300) for r in rows])
    slope = float(np.polyfit(le, ln, 1)[0])
    return ContinuityStudy(tuple(rows), slope, p)


# ---------------------------------------------------------------------------
# condlab.dtn: the state's own power and averaged cross pairings


def ohmic_power(fld: PotentialField) -> float:
    """<Lambda(f), f> for the state's own datum."""
    return dtn_pairing(fld, fld.datum)


def _node_pairings(what: str, problem: Problem, datum: BoundaryDatum,
                   phi: BoundaryDatum, alphas: np.ndarray,
                   quad_order: int) -> tuple[np.ndarray, PotentialField]:
    """Pairings <Lambda(alpha_k f), phi> at the ascending ``alphas`` and
    the last field solved: one solve at alpha = 1 on a linear map (the
    homogeneity path), else ``_alpha_sweep``.  Logs the averaged ``what``.
    """
    linear = problem.is_linear
    if linear:
        fld = solve(problem.mesh, problem.materials, datum, problem=problem)
        pairings = alphas * dtn_pairing(fld, phi)
    else:
        fields = _alpha_sweep(problem, datum, alphas)
        fld = fields[-1]
        pairings = np.array([dtn_pairing(f, phi) for f in fields])
    logger.debug("averaged %s %r: quadrature order %d, %d solves, %s",
                 what, datum.name, quad_order, 1 if linear else len(alphas),
                 "homogeneity path" if linear else "alpha sweep")
    return pairings, fld


def average_dtn_pairing(mesh: Mesh, materials: MaterialMap,
                        datum: BoundaryDatum, phi: BoundaryDatum,
                        quad_order: int = 16) -> float:
    """Averaged cross pairing integral_0^1 <Lambda(alpha f), phi> d alpha;
    one solve on a linear map, one per alpha node otherwise."""
    alphas, weights = gauss_on_unit(quad_order)
    pairings, _ = _node_pairings("pairing", Problem(mesh, materials), datum,
                                 phi, alphas, quad_order)
    return float(weights @ pairings)


# ---------------------------------------------------------------------------
# condlab.oracle: the radial profile, layered strip, brute force and
# cross-checks


def radial_is_log(sol: RadialSolution) -> bool:
    return sol.p == 2.0


def radial_u(sol: RadialSolution, r):
    r = np.asarray(r, dtype=float)
    if radial_is_log(sol):
        return sol.coef_a * np.log(r) + sol.coef_b
    beta = (sol.p - 2.0) / (sol.p - 1.0)
    return sol.coef_a * r ** beta + sol.coef_b


def radial_du(sol: RadialSolution, r):
    r = np.asarray(r, dtype=float)
    if radial_is_log(sol):
        return sol.coef_a / r
    beta = (sol.p - 2.0) / (sol.p - 1.0)
    return sol.coef_a * beta * r ** (beta - 1.0)


def radial_field(sol: RadialSolution, r):
    return np.abs(radial_du(sol, r))


def radial_flux_times_r(sol: RadialSolution, r):
    """r * sigma(|u'|) * |u'|; constant in r for the exact solution."""
    r = np.asarray(r, dtype=float)
    e = radial_field(sol, r)
    return r * sol.sigma_bar * sol.e0 * (e / sol.e0) ** (sol.p - 1.0)


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
        if flux_raw(model, hi) >= j:
            break
        hi *= 2.0
    else:
        raise OracleError("flux bracket expansion failed")
    lo = 0.0
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        if flux_raw(model, mid) < j:
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

    j_hi = max(flux_raw(model_left, e_seed), flux_raw(model_right, e_seed),
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
        return Point.evaluate(problem, problem.nodal_state(u_fix, x)).energy

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
    return Point.evaluate(problem, u).residual


def dflux_hessian(point: Point) -> np.ndarray:
    """The reduced Hessian at ``point`` in band storage, assembled from
    the slope that ``dflux`` evaluates by a law pass of its own, where
    ``Point.hessian`` reads it off the point's sigma."""
    problem, grads, norms, sig = point.problem, point.grads, point.norms, \
        point.sig
    dfl = np.empty(len(norms))
    for model, sel in point.groups:
        dfl[sel] = dflux(model, norms[sel])
    v = np.einsum("mik,mi->mk", problem.grads, grads) \
        / np.maximum(norms, 1e-300)[:, None]
    elem = sig[:, None, None] * problem.unit_elements \
        + ((dfl - sig) * problem.areas)[:, None, None] \
        * (v[:, :, None] * v[:, None, :])
    return problem.band.assemble(elem)


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


# ---------------------------------------------------------------------------
# condlab.mesh: the mesher on flat vertex and neighbour lists, the oracle of
# the one that replaced it (same insertion, same predicates, same triangles)


def delaunay(points: np.ndarray) -> np.ndarray:
    """Delaunay triangles of a planar point cloud: counterclockwise index
    triples, each starting at its smallest index, rows in sorted order.

    Bowyer-Watson insertion (Bowyer, Comput. J. 24, 1981; Watson, Comput.
    J. 24, 1981) in cloud order.  Each point is located by a visibility
    walk from the last triangle made; the triangles whose open circumdisk
    holds it form a cavity, which is replaced by the fan from the point to
    the cavity's boundary.  Ghost triangles join each hull edge to a
    vertex at infinity; the disk of a ghost is the open half-plane beyond
    its edge plus the open edge, so points outside the hull insert the
    same way.  The orientation and in-circle tests are exact: a float
    filter, then integer arithmetic, on the coordinates scaled by a power
    of two to below 1 in magnitude.  That scaling changes no sign, so a
    cloud and its power-of-two multiples get the same triangles.  A point
    exactly on a circumcircle leaves that triangle standing, so on
    cocircular points the triangles made first stay: the triangulation
    depends on the points and their order alone.  Every triangle has
    positive exact orientation.

    Raises ``MeshError`` when a coordinate is not finite, when points
    coincide in float, or when no three points span a triangle.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if not np.isfinite(pts).all():
        raise MeshError("point coordinates must be finite")
    xy = np.ldexp(pts, -np.frexp(np.abs(pts).max(initial=0.0))[1])
    twins = n - len(np.unique(xy, axis=0))
    if twins:
        raise MeshError(f"points coincide in float ({twins} repeated)")
    x, y = xy[:, 0].tolist(), xy[:, 1].tolist()
    rest = list(range(2, n))
    for i, k in enumerate(rest):
        turn = _orient(x, y, 0, 1, k)
        if turn:
            break
    else:
        raise MeshError("no three points span a triangle")
    del rest[i]
    a, b = (1, k) if turn > 0 else (k, 1)
    ghost = n  # the vertex at infinity
    # vertex j of triangle t is verts[3t + j]; nbrs[3t + j] is the triangle
    # across the side opposite it.  Start: triangle (0, a, b) and the ghosts
    # on its sides (a, 0), (b, a) and (0, b).
    verts = [0, a, b, a, 0, ghost, b, a, ghost, 0, b, ghost]
    nbrs = [2, 3, 1, 3, 2, 0, 1, 3, 0, 2, 1, 0]
    free: list[int] = []

    def in_disk(t: int, p: int) -> bool:
        a, b, c = verts[3 * t:3 * t + 3]
        if ghost not in (a, b, c):
            return _incircle(x, y, a, b, c, p) > 0
        # the hull edge (a, b) with the outside on its left
        a, b = (b, c) if a == ghost else (c, a) if b == ghost else (a, b)
        turn = _orient(x, y, a, b, p)
        if turn:
            return turn > 0
        # on the edge's line: in the disk strictly between its ends
        if x[a] != x[b]:
            return min(x[a], x[b]) < x[p] < max(x[a], x[b])
        return min(y[a], y[b]) < y[p] < max(y[a], y[b])

    last = 0
    for p in rest:
        t = last
        # a visibility walk in a Delaunay triangulation enters no triangle
        # twice, so the bound only guards against a defect
        for _ in range(len(verts)):
            a, b, c = verts[3 * t:3 * t + 3]
            if ghost in (a, b, c):  # p lies beyond this hull edge
                break
            if _orient(x, y, b, c, p) < 0:
                t = nbrs[3 * t]
            elif _orient(x, y, c, a, p) < 0:
                t = nbrs[3 * t + 1]
            elif _orient(x, y, a, b, p) < 0:
                t = nbrs[3 * t + 2]
            else:  # p lies in the closed triangle t
                break
        else:
            raise MeshError("point location did not terminate")
        cavity, seen, rim = [t], {t}, []
        for t in cavity:
            for j in range(3):
                o = nbrs[3 * t + j]
                if o in seen:
                    continue
                if in_disk(o, p):
                    seen.add(o)
                    cavity.append(o)
                else:  # side (u, v) of t, o's slot that points back at t
                    rim.append((verts[3 * t + (j + 1) % 3],
                                verts[3 * t + (j + 2) % 3], o,
                                nbrs.index(t, 3 * o, 3 * o + 3)))
        free += cavity
        # the fan: triangle (p, u, v) on each rim side (u, v)
        fan = {}
        for u, v, o, slot in rim:
            if free:
                t = free.pop()
                verts[3 * t:3 * t + 3] = [p, u, v]
                nbrs[3 * t] = o
            else:
                t = len(nbrs) // 3
                verts += [p, u, v]
                nbrs += [o, -1, -1]
            nbrs[slot] = t
            fan[u] = t
            if ghost != u and ghost != v:
                last = t
        for u, v, _, _ in rim:
            t, w = fan[u], fan[v]
            nbrs[3 * t + 1] = w
            nbrs[3 * w + 2] = t
    tris = np.array(verts, dtype=np.int64).reshape(-1, 3)
    live = (tris != ghost).all(axis=1)
    live[free] = False
    tris = tris[live]
    first = np.argmin(tris, axis=1)[:, None]
    tris = np.take_along_axis(tris, (first + np.arange(3)) % 3, axis=1)
    return tris[np.lexsort(tris.T[::-1])]


# ---------------------------------------------------------------------------
# members no command reads, on subclasses of their classes


class CellGrid(imaging.CellGrid):
    """``imaging.CellGrid`` with ``cell_centers``; build one from a grid
    by ``CellGrid(**vars(grid))``."""

    def cell_centers(self) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.bbox
        dx = (xmax - xmin) / self.nx
        dy = (ymax - ymin) / self.ny
        return np.array([[xmin + (c.ix + 0.5) * dx, ymin + (c.iy + 0.5) * dy]
                         for c in self.cells])


class LadderReport(monotonicity.LadderReport):
    """``monotonicity.LadderReport`` with ``n_certified_pairs``; build one
    from a report by ``LadderReport(**vars(report))``."""

    @property
    def n_certified_pairs(self) -> int:
        return sum(1 for _, _, rep in self.pair_reports
                   if rep.certificate.ok)
