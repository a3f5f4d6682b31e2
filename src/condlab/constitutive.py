"""Scalar constitutive laws sigma(E) for isotropic nonlinear conduction.

Every conducting law is a ``PowerLaw``, sigma(E) = sigma_bar (E/e0)^(p-2)
with growth exponent p > 1, mapping field magnitude E = |grad u| >= 0 to a
conductivity.  Its current magnitude is the flux sigma(E) * E, and

    energy_density(E) = integral_0^E flux     (convex potential)

The solver reads only ``sigma`` and ``energy_density``: the element fluxes
and the Newton slope d flux / dE are read off sigma (``solver.Point``).

``Linear(sigma)`` (p = 2) and ``EJPowerLaw(jc, e0, n)`` (p = (n + 1) / n,
the superconductor E-J law) construct it with the default floor.  A law is
regularized below a floor ``reg_eps`` by freezing sigma at sigma(reg_eps),
which splices a quadratic energy density below the floor with a C^1
match; continuation moves the floor with ``scale_reg_eps``.
``energy_density`` is the exact integral of the regularized flux, so the
spliced branch is consistent by construction.  The ``*_raw`` variants
evaluate the ideal (unfloored) law; the solver and the order certificate
use the regularized ones.

PEC (perfectly conducting, sigma = +inf) and PEI (perfectly insulating,
sigma = 0) are structural markers: they change the solver's unknown
structure and never evaluate pointwise.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .mesh import distinct

REG_EPS_FACTOR = 1e-6


class ConstitutiveError(Exception):
    """Raised for invalid law parameters or misuse of structural markers."""


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

    def sigma_raw(self, e):
        e = np.asarray(e, dtype=float)
        with np.errstate(divide="ignore"):
            out = self.sigma_bar * (e / self.e0) ** (self.p - 2.0)
        return out if out.ndim else float(out)

    def sigma(self, e):
        return self.sigma_raw(np.maximum(e, self.reg_eps))

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


def EJPowerLaw(jc: float, e0: float, n: float) -> PowerLaw:
    """Superconductor E-J characteristic J = Jc * (E / e0)^(1/n).

    This is ``PowerLaw(sigma_bar=jc/e0, e0=e0, p=(n+1)/n)`` since
    sigma(E) = J/E = (Jc/e0) * (E/e0)^((1-n)/n) and (1-n)/n = p - 2.
    """
    if jc <= 0 or e0 <= 0:
        raise ConstitutiveError("jc and e0 must be positive")
    if n < 1:
        raise ConstitutiveError("creep exponent n must be >= 1")
    return PowerLaw(sigma_bar=jc / e0, e0=e0, p=(n + 1.0) / n)


class _Structural:
    is_structural = True

    def _refuse(self, *_a, **_k):
        raise ConstitutiveError(f"{self.kind} is structural; sigma(E) is "
                                f"never evaluated pointwise")

    sigma = sigma_raw = _refuse
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
        if self.models[0].is_structural:
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
        missing = set(distinct(mesh_labels).tolist()) - set(self.models)
        if missing:
            raise ConstitutiveError(f"mesh labels without material: "
                                    f"{sorted(missing)}")

    def replaced(self, label: int, model) -> "MaterialMap":
        new = dict(self.models)
        new[label] = model
        return MaterialMap(new)


def scale_reg_eps(model: PowerLaw, factor: float) -> PowerLaw:
    """``model`` with its regularization floor multiplied by ``factor``;
    a p = 2 law comes back unchanged, since a floor leaves its constant
    sigma as it is."""
    if model.p != 2.0:
        return replace(model, reg_eps=model.reg_eps * factor)
    return model

