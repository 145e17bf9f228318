"""Experimental feasibility estimates for the delta-line idealization.

A physical line defect is a groove or ridge of depth V0 and width rho.
Modeling it as a delta line of strength xi = V0 * rho is justified when

  * the defect is deep:   V0 >> E (the particle's energy),
  * the defect is narrow: rho << lambda_dB (the de Broglie wavelength,
    equivalently k * rho << 1),
  * the defect is thin on the bump scale: rho << sigma.

This module evaluates those ratios in SI units for given V0, rho, E, the
effective-mass ratio m/m_e, and the bump width sigma, and reports the
dimensionless inputs of the scattering engine: K = k sigma and the
sigma-scaled coupling sigma_z = 2 m sigma xi / hbar^2.

This is the only part of the package that deals in SI quantities; the
engine itself works in sigma-scaled units throughout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

__all__ = ["FeasibilityReport", "assess", "parse_energy", "parse_length"]

HBAR = 1.054571817e-34  # J s
M_E = 9.1093837015e-31  # kg
EV = 1.602176634e-19  # J

# Ratio of scales we accept as "well separated" for the flag columns.
SEPARATION = 10.0

_NUM = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*"

_ENERGY_UNITS = {"j": 1.0, "ev": EV, "mev": 1e-3 * EV, "uev": 1e-6 * EV,
                 "kev": 1e3 * EV}
_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9,
                 "angstrom": 1e-10, "a": 1e-10, "pm": 1e-12}


def _parse_with_units(text: str, units: dict, default_unit: str, what: str) -> float:
    m = re.fullmatch(_NUM + r"([a-zA-Z]*)", str(text).strip())
    if not m:
        raise ValueError(f"cannot parse {what} value {text!r}")
    mag = float(m.group(1))
    unit = m.group(2).lower() or default_unit
    if unit not in units:
        raise ValueError(
            f"unknown {what} unit {m.group(2)!r}; known: {sorted(units)}"
        )
    return mag * units[unit]


def parse_energy(text: str) -> float:
    """Energy in joules from strings like '1eV', '5meV', '2.4e-19J'."""
    return _parse_with_units(text, _ENERGY_UNITS, "j", "energy")


def parse_length(text: str) -> float:
    """Length in meters from strings like '1nm', '50nm', '0.5um', '3angstrom'."""
    return _parse_with_units(text, _LENGTH_UNITS, "m", "length")


@dataclass(frozen=True)
class FeasibilityReport:
    """Derived scales and delta-line validity flags (SI inputs)."""

    v0_joule: float
    rho_m: float
    energy_joule: float
    mass_kg: float
    sigma_m: float
    k_per_m: float
    de_broglie_m: float
    k_rho: float
    energy_over_v0: float
    rho_over_sigma: float
    k_sigma: float
    sigma_z: float

    @property
    def deep_defect_ok(self) -> bool:
        """V0 >> E by at least the separation factor."""
        return self.energy_over_v0 <= 1.0 / SEPARATION

    @property
    def narrow_defect_ok(self) -> bool:
        """rho << de Broglie wavelength (k rho << 1)."""
        return self.k_rho <= 2.0 * math.pi / SEPARATION

    @property
    def thin_on_bump_ok(self) -> bool:
        """rho << sigma."""
        return self.rho_over_sigma <= 1.0 / SEPARATION

    def lines(self):
        yield f"k = {self.k_per_m:.6g} 1/m"
        yield f"de_broglie = {self.de_broglie_m:.6g} m"
        yield f"k_rho = {self.k_rho:.6g}"
        yield f"energy_over_v0 = {self.energy_over_v0:.6g}"
        yield f"rho_over_sigma = {self.rho_over_sigma:.6g}"
        yield f"k_sigma = {self.k_sigma:.6g}"
        yield f"sigma_z = {self.sigma_z:.6g}"
        yield f"deep_defect (V0 >> E): {'ok' if self.deep_defect_ok else 'VIOLATED'}"
        yield (
            "narrow_defect (rho << de Broglie): "
            f"{'ok' if self.narrow_defect_ok else 'VIOLATED'}"
        )
        yield f"thin_on_bump (rho << sigma): {'ok' if self.thin_on_bump_ok else 'VIOLATED'}"


def assess(v0_joule: float, rho_m: float, energy_joule: float,
           mass_ratio: float, sigma_m: float) -> FeasibilityReport:
    """Evaluate the delta-line validity scales.

    k = sqrt(2 m E) / hbar, xi = V0 rho, sigma_z = 2 m sigma xi / hbar^2.
    Every input must be positive and finite (NaN and inf raise ValueError),
    and so must k and every derived scale: inputs whose products overflow
    or whose k underflows to 0 raise ValueError too.
    """
    values = (v0_joule, rho_m, energy_joule, mass_ratio, sigma_m)
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError("v0, rho, energy, mass ratio, and sigma must be positive and finite")
    mass = mass_ratio * M_E
    k = math.sqrt(2.0 * mass * energy_joule) / HBAR
    if not k > 0.0:
        raise ValueError("k = sqrt(2 m E) / hbar underflows to 0 for these inputs")
    xi = v0_joule * rho_m
    rep = FeasibilityReport(
        v0_joule=v0_joule,
        rho_m=rho_m,
        energy_joule=energy_joule,
        mass_kg=mass,
        sigma_m=sigma_m,
        k_per_m=k,
        de_broglie_m=2.0 * math.pi / k,
        k_rho=k * rho_m,
        energy_over_v0=energy_joule / v0_joule,
        rho_over_sigma=rho_m / sigma_m,
        k_sigma=k * sigma_m,
        sigma_z=2.0 * mass * sigma_m * xi / HBAR**2,
    )
    bad = [f.name for f in fields(rep) if not math.isfinite(getattr(rep, f.name))]
    if bad:
        raise ValueError(f"derived scales overflow for these inputs: {', '.join(bad)}")
    return rep
