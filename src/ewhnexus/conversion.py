"""Hydrogen production, chemical synthesis stoichiometry, and product revenue.

Each product is made by hydrogenating CO2, and its molecular formula fixes
that reaction, so every product balances its atoms by construction; every
mass ratio is derived from the reaction and the stored atomic masses, so it
balances mass exactly.  The atomic mass table travels with the product: the
shipped definitions reproduce the reference hydrogen requirements (182 g H2
per kg CO2 for methane, 137.4 g for methanol and ethanol) exactly, methane's
from integer atomic masses, the alcohols' from standard ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .quantities import (DomainError, EconParams, FrozenMap, PlantSpec, Quantity, add_hourly,
                         check_beta, check_nonneg, check_type)


@dataclass(frozen=True)
class AtomicMasses:
    """Atomic masses [kg/mol], each a number > 0, from which all molecular masses derive."""

    C: float
    H: float
    O: float

    def __post_init__(self):
        for el, mass in (("C", self.C), ("H", self.H), ("O", self.O)):
            check_nonneg(f"atomic mass of {el}", mass)
            if mass == 0:
                raise DomainError(f"atomic mass of {el} must be > 0, got {mass!r}")


INTEGER_MASSES = AtomicMasses(C=0.012, H=0.001, O=0.016)
STANDARD_MASSES = AtomicMasses(C=0.012011, H=0.001008, O=0.015999)


@dataclass(frozen=True)
class ProductSpec:
    """A product made by hydrogenating CO2; its mass ratios are computed at construction.

    The formula fixes the reaction k CO2 + b H2 -> n P + e H2O: the C, O and H
    balances give k = n c, e = n (2c - o) and b = (n h + 2e) / 2, with n = 2
    when h is odd and 1 otherwise.  ``formula`` is read-only, since every loaded
    config shares the built-ins.
    """

    name: str
    formula: Mapping[str, int]        # atoms per product molecule, e.g. {"C": 1, "H": 4}
    atomic_masses: AtomicMasses = STANDARD_MASSES
    # per kg CO2 reused: kg H2, kg product, liters of electrolysis feed water (one mole
    # per mole of H2; 1 kg == 1 L), kg reaction water out (closes the mass balance)
    xi_h: float = field(init=False, repr=False, compare=False)
    xi_chi: float = field(init=False, repr=False, compare=False)
    water_demand: float = field(init=False, repr=False, compare=False)
    water_byproduct: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise DomainError(f"product name must be a non-empty string, got {self.name!r}")
        check_type("formula", self.formula, Mapping, "a map of elements to atom counts")
        check_type("atomic_masses", self.atomic_masses, AtomicMasses)
        for el, v in self.formula.items():
            if type(v) is not int or v < 0:
                raise DomainError(f"{self.name}: atom count of {el!r} must be an int >= 0, "
                                  f"got {v!r}")
        f = FrozenMap((el, v) for el, v in self.formula.items() if v)
        object.__setattr__(self, "formula", f)
        unknown = set(f) - {"C", "H", "O"}
        if unknown:
            raise DomainError(f"unsupported elements in formula: {sorted(unknown)}")
        c, h, o = f.get("C", 0), f.get("H", 0), f.get("O", 0)
        if c == 0 or 2 * c < o:
            raise DomainError(f"{self.name} cannot be made from CO2 and H2 alone: {dict(f)}")
        n = 2 if h % 2 else 1     # product molecules: H2 brings hydrogen in pairs
        k, e = n * c, n * (2 * c - o)
        b = (n * h + 2 * e) // 2
        am = self.atomic_masses
        co2 = am.C + 2.0 * am.O   # molar masses [kg/mol]
        h2 = 2.0 * am.H
        h2o = 2.0 * am.H + am.O
        chi = c * am.C + h * am.H + o * am.O
        for name, mass in (("xi_h", b * h2), ("xi_chi", n * chi),
                           ("water_demand", b * h2o), ("water_byproduct", e * h2o)):
            object.__setattr__(self, name, mass / (k * co2))


METHANE = ProductSpec("methane", {"C": 1, "H": 4}, INTEGER_MASSES)
METHANOL = ProductSpec("methanol", {"C": 1, "H": 4, "O": 1})
ETHANOL = ProductSpec("ethanol", {"C": 2, "H": 6, "O": 1})

BUILTIN_PRODUCTS: dict[str, ProductSpec] = {
    p.name: p for p in (METHANE, METHANOL, ETHANOL)
}


def _reuse_rates(product: ProductSpec, cbar: float, beta: float) -> tuple[float, float, float]:
    """(H2 [ton/h], water [m3/h], product [ton/h]) for full-load carbon cbar [ton/h]."""
    return (product.xi_h * beta * cbar,
            product.water_demand * beta * cbar,   # L/kg * ton/h == m3/h
            product.xi_chi * beta * cbar)


def nexus_rates(plant: PlantSpec, product: ProductSpec,
                beta: float) -> tuple[Quantity, Quantity, Quantity]:
    """Hydrogen, feed-water and product rates for a reuse fraction beta.

    Returns (H2 [ton/h], water [m3/h], product [ton/h]); each is
    beta * C_bar * the corresponding stoichiometric ratio.  The water rate
    covers electrolysis feed only.
    """
    check_type("plant", plant, PlantSpec)
    check_type("product", product, ProductSpec)
    check_beta(beta)
    h2, water, chem = _reuse_rates(product, plant.cbar, beta)
    return (Quantity(h2, "ton/h"), Quantity(water, "m3/h"), Quantity(chem, "ton/h"))


def power_capital(h_max: float, econ: EconParams) -> float:
    """Capital of the wind farm powering electrolysis [$].

    c_wind * (xi_p * H_bar) / capacity_factor, with H_bar = h_max the peak
    hydrogen rate [ton/h] and xi_p * H_bar the electrolyzer demand in kW.
    """
    return econ.c_wind * (econ.xi_p * (h_max * 1000.0)) / econ.wind_capacity_factor


def hydrogen_capital(product: ProductSpec, cbar: float, beta: float,
                     econ: EconParams) -> float:
    """Electrolyzer fleet capital, sized to the peak H2 demand [$].

    cbar is the plant's full-load carbon rate [ton/h].
    """
    return product.xi_h * beta * (cbar * 1000.0) * econ.c_we


def chemical_revenue(product: ProductSpec, captured: Sequence[tuple[float, int]],
                     beta: float, econ: EconParams) -> float:
    """Daily revenue of a priced product as a negative cost [$ / day].

    ``captured`` is the day's captured carbon [ton/h] as (c, hours) runs, added by ``add_hourly``.
    """
    k = econ.product_prices[product.name] * product.xi_chi * beta   # [$ / ton captured]
    total = 0.0
    for c, hours in captured:
        total = add_hourly(total, k * c, hours)
    return -total
