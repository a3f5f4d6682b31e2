"""Scalar constitutive laws sigma(E) for isotropic nonlinear conduction.

Each law maps field magnitude E = |grad u| >= 0 to a conductivity sigma(E),
with derived quantities used by the solver:

    flux(E)           = sigma(E) * E          (current magnitude)
    energy_density(E) = integral_0^E flux     (convex potential)
    dflux(E)          = d flux / dE           (Newton linearization)

One kernel, ``PowerLaw``, covers the ohmic, power and E-J laws:
``Linear`` (p = 2) and ``EJPowerLaw`` (p = (n + 1) / n) construct it.
Power-type laws are regularized below a floor ``reg_eps`` by freezing sigma
at sigma(reg_eps), which splices a quadratic energy density below the floor
with a C^1 match.  ``energy_density`` is the exact integral of the
regularized flux, so the spliced branch is consistent by construction.  The
``*_raw`` variants evaluate the ideal (unfloored) law; certificates use
those, the solver uses the regularized ones.

PEC (perfectly conducting, sigma = +inf) and PEI (perfectly insulating,
sigma = 0) are structural markers: they change the solver's unknown
structure and never evaluate pointwise.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

REG_EPS_FACTOR = 1e-6


class ConstitutiveError(Exception):
    """Raised for invalid law parameters or misuse of structural markers."""


def default_e_grid(e_scale: float, decades_down: float = 3.0,
                   decades_up: float = 3.0, n: int = 61) -> np.ndarray:
    """Log-spaced field-magnitude grid around a characteristic scale."""
    return e_scale * np.logspace(-decades_down, decades_up, n)


@dataclass(frozen=True)
class PowerLaw:
    """sigma(E) = sigma_bar * (E / e0)^(p - 2), regularized below reg_eps.

    Parameters
    ----------
    sigma_bar : float
        Conductivity at E = e0 (law scale), S/m.
    e0 : float
        Reference field magnitude, V/m.
    p : float
        Growth exponent, > 1.  p = 2 reduces to the ohmic law.
    reg_eps : float, optional
        Regularization floor; defaults to ``REG_EPS_FACTOR * e0``.
    """

    sigma_bar: float
    e0: float
    p: float
    reg_eps: float | None = None

    def __post_init__(self) -> None:
        if self.sigma_bar <= 0 or self.e0 <= 0:
            raise ConstitutiveError("sigma_bar and e0 must be positive")
        if self.p <= 1:
            raise ConstitutiveError("exponent p must exceed 1")
        if self.reg_eps is None:
            object.__setattr__(self, "reg_eps", REG_EPS_FACTOR * self.e0)
        elif self.reg_eps <= 0:
            raise ConstitutiveError("reg_eps must be positive")
        # the quadratic branch a * E^2 below the floor and the shift that
        # makes the energy continuous there
        a = 0.5 * self.sigma_raw(self.reg_eps)
        object.__setattr__(self, "_below_floor", (
            a, a * self.reg_eps ** 2 - self.energy_density_raw(self.reg_eps)))

    kind = "power"
    is_structural = False

    @property
    def effective_p(self) -> float:
        return self.p

    def with_reg_eps(self, eps: float) -> "PowerLaw":
        return replace(self, reg_eps=eps)

    def sigma_raw(self, e):
        e = np.asarray(e, dtype=float)
        with np.errstate(divide="ignore"):
            out = self.sigma_bar * (e / self.e0) ** (self.p - 2.0)
        return out if out.ndim else float(out)

    def sigma(self, e):
        return self.sigma_raw(np.maximum(e, self.reg_eps))

    def flux_raw(self, e):
        e = np.asarray(e, dtype=float)
        out = self.sigma_bar * self.e0 * (e / self.e0) ** (self.p - 1.0)
        return out if out.ndim else float(out)

    def flux(self, e):
        return self.sigma(e) * np.asarray(e, dtype=float)

    def dflux(self, e):
        e = np.asarray(e, dtype=float)
        lo = e < self.reg_eps
        out = (self.p - 1.0) * self.sigma_raw(np.maximum(e, self.reg_eps))
        out = np.where(lo, self.sigma_raw(self.reg_eps), out)
        return out if out.ndim else float(out)

    def energy_density_raw(self, e):
        e = np.asarray(e, dtype=float)
        out = (self.sigma_bar * self.e0 ** 2 / self.p) \
            * (e / self.e0) ** self.p
        return out if out.ndim else float(out)

    def energy_density(self, e):
        e = np.asarray(e, dtype=float)
        a, shift = self._below_floor
        out = np.where(e < self.reg_eps, a * e * e,
                       self.energy_density_raw(np.maximum(e, self.reg_eps))
                       + shift)
        return out if out.ndim else float(out)


def Linear(sigma: float) -> PowerLaw:
    """Ohmic law sigma(E) = sigma: the p = 2 power law
    ``PowerLaw(sigma_bar=sigma, e0=1, p=2)``, whose floor changes nothing."""
    if sigma <= 0:
        raise ConstitutiveError("linear conductivity must be positive")
    return PowerLaw(sigma_bar=sigma, e0=1.0, p=2.0)


def EJPowerLaw(jc: float, e0: float, n: float,
               reg_eps: float | None = None) -> PowerLaw:
    """Superconductor E-J characteristic J = Jc * (E / e0)^(1/n).

    This is ``PowerLaw(sigma_bar=jc/e0, e0=e0, p=(n+1)/n)`` since
    sigma(E) = J/E = (Jc/e0) * (E/e0)^((1-n)/n) and (1-n)/n = p - 2.
    """
    if jc <= 0 or e0 <= 0:
        raise ConstitutiveError("jc and e0 must be positive")
    if n < 1:
        raise ConstitutiveError("creep exponent n must be >= 1")
    return PowerLaw(sigma_bar=jc / e0, e0=e0, p=(n + 1.0) / n,
                    reg_eps=reg_eps)


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear flux law through sampled (E, sigma(E)*E) pairs.

    Samples must start at (0, 0) and be strictly increasing in E.  The flux
    is interpolated linearly between knots and extrapolated with the last
    slope; the energy density is its exact integral (piecewise quadratic).
    Non-monotone flux samples are accepted at construction so that
    certificate checks can exhibit them; ``is_monotone`` reports the defect.
    """

    e_samples: tuple[float, ...]
    flux_samples: tuple[float, ...]

    def __post_init__(self) -> None:
        e = np.asarray(self.e_samples, dtype=float)
        f = np.asarray(self.flux_samples, dtype=float)
        if e.shape != f.shape or e.ndim != 1 or len(e) < 2:
            raise ConstitutiveError("need matching 1D sample arrays, >= 2 knots")
        if e[0] != 0.0 or f[0] != 0.0:
            raise ConstitutiveError("samples must start at (0, 0)")
        if np.any(np.diff(e) <= 0):
            raise ConstitutiveError("e_samples must be strictly increasing")
        object.__setattr__(self, "_e", e)
        object.__setattr__(self, "_f", f)
        seg = np.diff(f) / np.diff(e)
        object.__setattr__(self, "_slopes", seg)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1])
                                               * np.diff(e))])
        object.__setattr__(self, "_cum_q", cum)

    kind = "tabulated"
    is_structural = False

    @property
    def effective_p(self) -> float | None:
        return None

    @classmethod
    def from_model(cls, model, e_max: float, n: int = 64) -> "Tabulated":
        """Sample another law's regularized flux on [0, e_max]."""
        e = np.linspace(0.0, e_max, n)
        f = np.concatenate([[0.0], np.asarray(model.flux(e[1:]))])
        return cls(tuple(e), tuple(f))

    def is_monotone(self) -> tuple[bool, float | None]:
        """Strict flux monotonicity across knots; returns (ok, witness E)."""
        bad = np.nonzero(np.diff(self._f) <= 0)[0]
        if len(bad):
            return False, float(self._e[bad[0] + 1])
        return True, None

    def _seg(self, e: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self._e, e, side="right") - 1,
                       0, len(self._slopes) - 1)

    def flux(self, e):
        arr = np.asarray(e, dtype=float)
        idx = self._seg(arr)
        out = self._f[idx] + self._slopes[idx] * (arr - self._e[idx])
        return out if out.ndim else float(out)

    flux_raw = flux

    def sigma(self, e):
        arr = np.asarray(e, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(arr > 0.0, self.flux(arr) / np.maximum(arr, 1e-300),
                           self._slopes[0])
        return out if out.ndim else float(out)

    sigma_raw = sigma

    def dflux(self, e):
        arr = np.asarray(e, dtype=float)
        out = self._slopes[self._seg(arr)]
        return out if out.ndim else float(out)

    def energy_density(self, e):
        arr = np.asarray(e, dtype=float)
        idx = self._seg(arr)
        fl = self._f[idx]
        fe = fl + self._slopes[idx] * (arr - self._e[idx])
        out = self._cum_q[idx] + 0.5 * (fl + fe) * (arr - self._e[idx])
        return out if out.ndim else float(out)

    energy_density_raw = energy_density


class _Structural:
    is_structural = True

    @property
    def effective_p(self):
        return None

    def _refuse(self, *_a, **_k):
        raise ConstitutiveError(f"{self.kind} is structural; sigma(E) is "
                                f"never evaluated pointwise")

    sigma = sigma_raw = flux = flux_raw = dflux = _refuse
    energy_density = energy_density_raw = _refuse

    def __eq__(self, other) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self).__name__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PEC(_Structural):
    """Perfectly conducting region: the potential is one unknown constant
    per component and the net interface flux of each component vanishes."""

    kind = "pec"


class PEI(_Structural):
    """Perfectly insulating region: interior unknowns are removed and the
    interface sees a natural zero-flux condition."""

    kind = "pei"


@dataclass(frozen=True)
class MaterialMap:
    """Region label -> constitutive model for one mesh.

    Label 0 (background) must be present and must not be structural.
    """

    models: Mapping[int, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", dict(self.models))
        if 0 not in self.models:
            raise ConstitutiveError("material map must cover region 0")
        if getattr(self.models[0], "is_structural", False):
            raise ConstitutiveError("region 0 cannot be PEC or PEI")

    def model_for(self, label: int):
        try:
            return self.models[label]
        except KeyError:
            raise ConstitutiveError(f"no material for region label {label}") \
                from None

    @property
    def labels(self) -> list[int]:
        return sorted(self.models)

    def check_covers(self, mesh_labels: np.ndarray) -> None:
        missing = set(np.unique(mesh_labels).tolist()) - set(self.models)
        if missing:
            raise ConstitutiveError(f"mesh labels without material: "
                                    f"{sorted(missing)}")

    @property
    def outer_exponent(self) -> float:
        p = self.models[0].effective_p
        if p is None:
            raise ConstitutiveError("region 0 law has no declared exponent")
        return p

    @property
    def is_linear(self) -> bool:
        return all(m.is_structural or m.effective_p == 2.0
                   for m in self.models.values())

    def replaced(self, label: int, model) -> "MaterialMap":
        new = dict(self.models)
        new[label] = model
        return MaterialMap(new)

    def with_reg_eps_scale(self, factor: float) -> "MaterialMap":
        return MaterialMap({lab: scale_reg_eps(m, factor)
                            for lab, m in self.models.items()})


def scale_reg_eps(model, factor: float):
    """``model`` with its regularization floor multiplied by ``factor``;
    p = 2 laws (a floor leaves their constant sigma as it is), laws
    without a floor and structural markers come back unchanged."""
    if getattr(model, "p", 2.0) != 2.0:
        return model.with_reg_eps(model.reg_eps * factor)
    return model


# ---------------------------------------------------------------------------
# certificates


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
    scale = e_scale if e_scale is not None else getattr(model, "e0", 1.0)
    mag = scale * 10.0 ** rng.uniform(-3, 3, size=(n_pairs, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n_pairs, 2))
    a = mag[:, 0, None] * np.stack([np.cos(ang[:, 0]), np.sin(ang[:, 0])],
                                   axis=1)
    b = mag[:, 1, None] * np.stack([np.cos(ang[:, 1]), np.sin(ang[:, 1])],
                                   axis=1)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    fa = np.asarray(model.flux_raw(na)) / na
    fb = np.asarray(model.flux_raw(nb)) / nb
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
    f = np.asarray(model.flux_raw(grid))
    bad = np.nonzero(np.diff(f) <= rtol * np.maximum(np.abs(f[:-1]), 1e-300))[0]
    if len(bad):
        return False, float(grid[bad[0] + 1])
    return True, None
