"""Hydrogen production, chemical synthesis stoichiometry, and product revenue.

Each product is defined by its hydrogenation reaction; every mass ratio is
derived from the stored atomic masses, so atom balance implies exact mass
balance.  The atomic mass table travels with the product: the shipped
definitions reproduce the reference hydrogen requirements (182 g H2 per kg
CO2 for methane, 137.4 g for methanol and ethanol) exactly, methane's from
integer atomic masses, the alcohols' from standard ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .quantities import (
    DomainError, EconParams, FrozenMap, PlantSpec, Quantity, check_beta,
)


@dataclass(frozen=True)
class AtomicMasses:
    """Atomic masses [kg/mol] from which all molecular masses derive."""

    C: float
    H: float
    O: float


INTEGER_MASSES = AtomicMasses(C=0.012, H=0.001, O=0.016)
STANDARD_MASSES = AtomicMasses(C=0.012011, H=0.001008, O=0.015999)


@dataclass(frozen=True)
class Reaction:
    """Moles in a CO2 + b H2 -> c product + e H2O."""

    co2: int
    h2: int
    product: int
    h2o: int

    def __post_init__(self):
        for name, n in (("co2", self.co2), ("h2", self.h2),
                        ("product", self.product), ("h2o", self.h2o)):
            if not isinstance(n, int) or n < 0:
                raise DomainError(f"reaction coefficient {name} must be a non-negative int")
        if self.co2 < 1 or self.product < 1:
            raise DomainError("reaction must consume CO2 and yield a product")


@dataclass(frozen=True)
class ProductSpec:
    """A synthesizable chemical product; its mass ratios are computed at construction.

    ``formula`` is read-only, since every loaded config shares the built-ins.
    """

    name: str
    formula: Mapping[str, int]        # atoms per product molecule, e.g. {"C": 1, "H": 4}
    reaction: Reaction
    atomic_masses: AtomicMasses = STANDARD_MASSES
    # per kg CO2 reused: kg H2, kg product, liters of electrolysis feed water (one mole
    # per mole of H2; 1 kg == 1 L), kg reaction water out (closes the mass balance)
    xi_h: float = field(init=False, repr=False, compare=False)
    xi_chi: float = field(init=False, repr=False, compare=False)
    water_demand: float = field(init=False, repr=False, compare=False)
    water_byproduct: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "formula",
                           FrozenMap((k, int(v)) for k, v in self.formula.items() if v))
        unknown = set(self.formula) - {"C", "H", "O"}
        if unknown:
            raise DomainError(f"unsupported elements in formula: {sorted(unknown)}")
        am, f, r = self.atomic_masses, self.formula, self.reaction
        balances = {
            "C": r.co2 - r.product * f.get("C", 0),
            "H": 2 * r.h2 - r.product * f.get("H", 0) - 2 * r.h2o,
            "O": 2 * r.co2 - r.product * f.get("O", 0) - r.h2o,
        }
        bad = {el: d for el, d in balances.items() if d != 0}
        if bad:
            raise DomainError(f"reaction for {self.name!r} does not balance: {bad}")
        co2 = am.C + 2.0 * am.O   # molar masses [kg/mol]
        h2 = 2.0 * am.H
        h2o = 2.0 * am.H + am.O
        chi = f.get("C", 0) * am.C + f.get("H", 0) * am.H + f.get("O", 0) * am.O
        for name, mass in (("xi_h", r.h2 * h2), ("xi_chi", r.product * chi),
                           ("water_demand", r.h2 * h2o), ("water_byproduct", r.h2o * h2o)):
            object.__setattr__(self, name, mass / (r.co2 * co2))


METHANE = ProductSpec("methane", {"C": 1, "H": 4}, Reaction(1, 4, 1, 2), INTEGER_MASSES)
METHANOL = ProductSpec("methanol", {"C": 1, "H": 4, "O": 1}, Reaction(1, 3, 1, 1))
ETHANOL = ProductSpec("ethanol", {"C": 2, "H": 6, "O": 1}, Reaction(2, 6, 1, 3))

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


def chemical_revenue(product: ProductSpec, captured: Sequence[float], beta: float,
                     econ: EconParams) -> float:
    """Daily product revenue as a negative cost [$ / day].

    ``captured`` holds the hourly captured carbon [ton/h]; the product has a price.
    """
    k = econ.product_prices[product.name] * product.xi_chi * beta   # [$ / ton captured]
    total = 0.0   # left to right, as ccss_operational
    for c in captured:
        total += k * c
    return -total
