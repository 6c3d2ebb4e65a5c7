"""Units at the boundary, and the core domain types shared by every module.

Every supported unit maps to the base unit of its dimension and an exact
integer ratio to it: 1 MW is 1000/1 kW, 1 ton/day is 1000/24 kg/h.  Two
units share a dimension exactly when they share a base unit, so a
conversion between incompatible units (say, $/ton to kWh/kg) fails loudly
instead of silently producing garbage.

Units are checked where data enters: config load, ``PlantSpec``,
``NetworkTransfer`` and a scenario's capture profile.  Each check is the
conversion that boundary makes anyway, into the unit the core uses; the cost
terms then compute on plain floats in the units their docstrings state.

Values are kept in the unit they were given and only rescaled on demand.
That keeps round-decimal inputs (230 g/kWh, 15 $/ton, 500 MW) bit-exact
through conversion.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Mapping


class UnitError(ValueError):
    """Combination or conversion of dimensionally incompatible quantities."""


class DomainError(ValueError):
    """Input outside the physical or economic domain of an operation."""


# unit name -> (base unit of its dimension, scale to that base as an integer
# ratio).  Rational scales keep conversions correctly rounded: 820 g/kWh
# becomes 820/1000 kg/kWh, one exact division, not a multiply by an inexact 1e-3.
UNITS: dict[str, tuple[str, tuple[int, int]]] = {
    "dimensionless": ("dimensionless", (1, 1)),
    # mass
    "kg": ("kg", (1, 1)),
    "g": ("kg", (1, 1000)),
    "ton": ("kg", (1000, 1)),
    # energy
    "kWh": ("kWh", (1, 1)),
    "MWh": ("kWh", (1000, 1)),
    # time
    "h": ("h", (1, 1)),
    "day": ("h", (24, 1)),
    # money
    "$": ("$", (1, 1)),
    "M$": ("$", (1000000, 1)),
    # volume
    "m3": ("m3", (1, 1)),
    "L": ("m3", (1, 1000)),
    # length
    "m": ("m", (1, 1)),
    "km": ("m", (1000, 1)),
    # power
    "kW": ("kW", (1, 1)),
    "MW": ("kW", (1000, 1)),
    # mass flow
    "kg/h": ("kg/h", (1, 1)),
    "ton/h": ("kg/h", (1000, 1)),
    "ton/day": ("kg/h", (1000, 24)),
    # volume flow
    "m3/h": ("m3/h", (1, 1)),
    "L/h": ("m3/h", (1, 1000)),
    # tariffs and unit costs
    "$/kWh": ("$/kWh", (1, 1)),
    "$/kg": ("$/kg", (1, 1)),
    "$/ton": ("$/kg", (1, 1000)),
    "$/kW": ("$/kW", (1, 1)),
    "$/(m3/h)": ("$/(m3/h)", (1, 1)),
    "$/(kg/h)": ("$/(kg/h)", (1, 1)),
    "$/(ton/day)": ("$/(kg/h)", (24, 1000)),
    "$/m": ("$/m", (1, 1)),
    "$/km": ("$/m", (1, 1000)),
    "$/h": ("$/h", (1, 1)),
    "$/day": ("$/h", (1, 24)),
    # specific energies
    "kWh/kg": ("kWh/kg", (1, 1)),
    "kWh/m3": ("kWh/m3", (1, 1)),
    # emission factors
    "kg/kWh": ("kg/kWh", (1, 1)),
    "g/kWh": ("kg/kWh", (1, 1000)),
}


def _unit_name(unit: object) -> str:
    """The one unit rule: a string ``UNITS`` holds, as is or spelled ``m³`` as printed tables do."""
    if isinstance(unit, str):
        unit = unit.replace("³", "3").strip()
        if unit in UNITS:
            return unit
    raise UnitError(f"unknown unit {unit!r}")


def _convert(value: float, unit: str, to: str) -> float:
    """``value`` in ``unit`` as ``to``, names ``_unit_name`` read: the one place units are scaled.

    Scales up to the shared base unit (x num, / den), then down to ``to``
    (x den_to, / num_to); raises UnitError when the dimensions differ.  ``value_in``
    and ``values_in`` return a value already in ``to`` as is: the round trip through
    the base is not exact for every scale (x / 24 * 24 for $/day).
    """
    base, (num, den) = UNITS[unit]
    base_to, (num_to, den_to) = UNITS[to]
    if base != base_to:
        raise UnitError(f"cannot convert {unit!r} to {to!r}")
    return value * num / den * den_to / num_to


@dataclass(frozen=True, slots=True)
class Quantity:
    """A finite magnitude tagged with one of the registered units."""

    magnitude: float
    unit: str = "dimensionless"

    def __post_init__(self):
        object.__setattr__(self, "unit", _unit_name(self.unit))
        check_number("magnitude", self.magnitude)
        object.__setattr__(self, "magnitude", float(self.magnitude))
        if not math.isfinite(self.magnitude):
            raise UnitError(f"magnitude must be finite, got {self.magnitude!r}")

    @classmethod
    def _computed(cls, magnitude: float, unit: str) -> "Quantity":
        """``_quantity`` after a finiteness check, for a float the core computed."""
        if not math.isfinite(magnitude):
            raise UnitError(f"magnitude must be finite, got {magnitude!r}")
        return _quantity(magnitude, unit)

    def value_in(self, unit: str) -> float:
        to = _unit_name(unit)
        return self.magnitude if to == self.unit else _convert(self.magnitude, self.unit, to)

    def __str__(self) -> str:
        return f"{self.magnitude:g} {self.unit}"


class FrozenMap(Mapping):
    """A read-only map of names to values, equal to a dict of the same items.

    A loaded config is shared by every caller that loads the same text, so
    its maps refuse item writes with a TypeError.  It pickles and copies
    like any object with slots, and hashes when its values do.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Mapping | Iterable[tuple] = ()):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __contains__(self, key) -> bool:   # Mapping's calls __getitem__ inside a try
        return key in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"FrozenMap({self._items!r})"

    def __hash__(self) -> int:   # equal maps hold equal items, so they hash alike
        return hash(frozenset(self._items.items()))


def _field_value(quantity: Quantity, unit: str, rule: str) -> float:
    """``quantity`` in ``unit``; a non-quantity or a unit of another dimension breaks ``rule``."""
    if not isinstance(quantity, Quantity):
        raise UnitError(f"{rule}, got {quantity!r}")
    try:
        return quantity.value_in(unit)
    except UnitError:
        raise UnitError(f"{rule}, got {quantity.unit!r}") from None


def check_number(name: str, value: object) -> None:
    """The one number rule: the named parameter's value is an int or a float, never a bool."""
    if type(value) is bool or not isinstance(value, (int, float)):   # bool has no subclasses
        raise DomainError(f"{name} must be a number, got {value!r}")


def check_beta(beta: float) -> None:
    """Reject a reuse fraction that is not a number, or one outside [0, 1]."""
    check_number("reuse fraction", beta)
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"reuse fraction must lie in [0, 1], got {beta!r}")


@dataclass(frozen=True)
class PlantSpec:
    """A conventional power plant targeted for the retrofit, named by a non-empty string."""

    name: str
    capacity: Quantity          # electrical capacity [kW]
    emission_factor: Quantity   # carbon emitted per unit generated [kg/kWh]
    capacity_kw: float = field(init=False, repr=False, compare=False)  # capacity [kW]
    cbar: float = field(init=False, repr=False, compare=False)  # full-load carbon [ton/h]
    cbar_day: float = field(init=False, repr=False, compare=False)  # its daily mass [ton/day]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise DomainError(f"plant name must be a non-empty string, got {self.name!r}")
        capacity_kw = _field_value(self.capacity, "kW", "capacity must be a power")
        kg_per_kwh = _field_value(self.emission_factor, "kg/kWh",
                                  "emission_factor must be mass per energy")
        if not self.capacity.magnitude > 0:
            raise DomainError(f"plant {self.name!r}: capacity must be positive")
        if not self.emission_factor.magnitude > 0:
            raise DomainError(f"plant {self.name!r}: emission_factor must be positive")
        cbar = capacity_kw * kg_per_kwh / 1000.0
        if not math.isfinite(cbar):   # false for an infinite capacity in kW too
            raise DomainError(f"plant {self.name!r}: capacity in kW and full-load carbon rate "
                              f"must be finite, got {capacity_kw!r} kW and {cbar!r} ton/h")
        if not cbar > 0:   # the product underflowed: no cell could divide by it
            raise DomainError(f"plant {self.name!r}: full-load carbon rate must be positive, "
                              f"got {cbar!r} ton/h")
        object.__setattr__(self, "capacity_kw", capacity_kw)
        object.__setattr__(self, "cbar", cbar)
        object.__setattr__(self, "cbar_day", cbar * HOURS_PER_DAY)


def check_map(name: str, value: object) -> None:
    """Reject a value of the named map parameter that is not a map."""
    if not isinstance(value, Mapping):
        raise DomainError(f"{name} must be a map of names to numbers, got {value!r}")


def check_nonneg(name: str, value: float) -> None:
    """Reject a value of the named parameter that is not a number, not finite, or negative."""
    check_number(name, value)
    if not math.isfinite(value) or value < 0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


HOURS_PER_DAY = 24
DAYS_PER_YEAR = 365


def daily_capital_charge(capital: float, econ: EconParams) -> float:
    """Daily charge recovering a capital stock [$] over the payback horizon [$ / day].

    capital * (1 + lambda)^(N-1) / (365 N), exactly capital / 365 for N = 1 and
    lambda = 0.  ``EconParams`` checks that N is an int >= 1 and the factor can be formed.
    """
    n = econ.horizon_years
    return capital * (1.0 + econ.interest_rate) ** (n - 1) / (DAYS_PER_YEAR * n)


def add_hourly(total: float, amount: float, hours: int) -> float:
    """``total`` plus a run's hourly ``amount`` once per hour: the kernels' one hourly fold.

    Bit for bit ``total += amount`` ``hours`` times (eight hours in one left-to-right
    expression), so any split of a day into runs sums as hour by hour; not ``sum()``,
    which compensates on Python >= 3.12, nor ``hours * amount``, which rounds once.
    """
    while hours >= 8:
        total = total + amount + amount + amount + amount + amount + amount + amount + amount
        hours -= 8
    while hours > 0:
        total += amount
        hours -= 1
    return total


# EconParams' scalar numbers in field order: the fractions lie in (0, 1], the optional
# costs may be None, every other one (and each e_des entry and price) is finite and >= 0
_FRACTIONS = ("wind_capacity_factor", "eta_pump")
_OPTIONAL_FIELDS = ("c_ccs", "c_sw")
_NUMBER_FIELDS = ("elec_price", "r_cts", "r_ccs", "c_cts", "c_wind", "c_des", "c_tw",
                  *_FRACTIONS, *_OPTIONAL_FIELDS, "c_we", "xi_p", "r_w_per_100km",
                  "interest_rate")


@dataclass(frozen=True)
class EconParams:
    """Cost and process parameters, one named field per model symbol.

    Scalars are stored in the unit stated on each field; the config layer converts
    "value unit" inputs into them and leaves the type rules to this class.
    ``c_ccs`` and ``c_sw`` have no defensible defaults, so they stay unset until a
    config or preset provides them; pricing a scenario that needs an unset cost, or
    a product without a price, is an error (``economics._column``).
    """

    elec_price: float                       # electricity tariff [$ / kWh]
    r_cts: float                            # carbon transfer operating cost [$ / ton]
    r_ccs: float                            # carbon capture operating cost [$ / ton]
    c_cts: float                            # carbon pipeline capital [$ per ton/day]
    c_wind: float                           # wind farm capital [$ / kW]
    c_des: float                            # desalination capital [$ per m3/h]
    c_tw: float                             # water pipeline capital [$ / m]
    wind_capacity_factor: float             # annual net capacity factor [-]
    eta_pump: float                         # pump efficiency [-]
    c_ccs: float | None = None              # capture plant capital [$ per ton/day]
    c_sw: float | None = None               # solar-seawater capital [$ per m3/h]
    c_we: float = 500.0                     # electrolyzer capital [$ per kg/h of H2]
    xi_p: float = 52.5                      # electrolysis energy demand [kWh / kg H2]
    r_w_per_100km: float = 2.0e-4           # pipe head-loss coefficient [h2/m5 per 100 km]
    e_des: tuple[float, ...] = (3.5, 3.8, 4.1, 4.4)   # segment energies [kWh / m3]
    interest_rate: float = 0.05             # capital interest rate [-]
    horizon_years: int = 20                 # payback horizon [years]
    include_hydrogen_capital: bool = False  # count c_we * peak H2 rate as capital
    product_prices: Mapping[str, float] = field(default_factory=dict)  # [$ / ton]

    def __post_init__(self):
        check_map("product_prices", self.product_prices)
        for name, value in ([(n, getattr(self, n)) for n in _NUMBER_FIELDS]
                            + [(f"e_des[{i + 1}]", e) for i, e in enumerate(self.e_des)]
                            + [(f"product_prices[{k}]", v) for k, v in self.product_prices.items()]):
            if name in _FRACTIONS:
                check_number(name, value)
                if not 0.0 < value <= 1.0:
                    raise DomainError(f"{name} must lie in (0, 1]")
            elif value is not None or name not in _OPTIONAL_FIELDS:
                check_nonneg(name, value)
        if type(self.horizon_years) is not int or self.horizon_years < 1:   # a bool is no int
            raise DomainError(f"horizon_years must be an integer >= 1, got {self.horizon_years!r}")
        if type(self.include_hydrogen_capital) is not bool:
            raise DomainError("include_hydrogen_capital must be true or false, got "
                              f"{self.include_hydrogen_capital!r}")
        object.__setattr__(self, "e_des", tuple(float(e) for e in self.e_des))
        object.__setattr__(self, "product_prices",
                           FrozenMap((k, float(v)) for k, v in self.product_prices.items()))
        if len(self.e_des) != 4:
            raise DomainError("e_des needs exactly 4 segment coefficients")
        try:   # float ** raises on overflow
            daily_capital_charge(1.0, self)
        except OverflowError:
            raise DomainError("interest_rate and horizon_years overflow the capital charge "
                              f"(1 + interest_rate)^(horizon_years - 1) / ({DAYS_PER_YEAR} "
                              "horizon_years)") from None


@dataclass(frozen=True)
class TimeSeries:
    """Hourly profile of a physical flow; values share one unit, step is 1 h."""

    values: tuple[float, ...]
    unit: str

    def __post_init__(self):
        object.__setattr__(self, "unit", _unit_name(self.unit))
        vals = tuple(self.values)
        if not vals:
            raise DomainError("time series must not be empty")
        for i, v in enumerate(vals):
            check_nonneg(f"series value at step {i}", v)
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def __len__(self) -> int:
        return len(self.values)

    def values_in(self, unit: str) -> tuple[float, ...]:
        """Values rescaled to another unit of the same dimension."""
        to = _unit_name(unit)
        return (self.values if to == self.unit
                else tuple(_convert(v, self.unit, to) for v in self.values))


CAPITAL = "capital"
OPERATIONAL = "operational"
REVENUE = "revenue"
_KINDS = (CAPITAL, OPERATIONAL, REVENUE)


class LedgerItem(namedtuple("LedgerItem", "label term kind amount unit")):
    """One itemized flow: a capital stock [$] or a daily flow [$/day].

    ``term`` tags the producing formula (e.g. "ccss-capital"), ``kind`` is
    capital, operational or revenue.  A checked named tuple: immutable, equal
    by value (also to a plain tuple of its fields), with a dataclass's repr.
    """

    __slots__ = ()

    def __new__(cls, label: str, term: str, kind: str, amount: float, unit: str):
        if kind not in _KINDS:
            raise DomainError(f"ledger kind must be one of {_KINDS}, got {kind!r}")
        if unit not in ("$", "$/day"):
            raise DomainError(f"ledger unit must be '$' or '$/day', got {unit!r}")
        check_number("ledger amount", amount)
        if not math.isfinite(amount):
            raise DomainError(f"ledger amount must be finite ({label})")
        return tuple.__new__(cls, (label, term, kind, amount, unit))

    @classmethod
    def _make(cls, iterable) -> "LedgerItem":
        return cls(*iterable)   # namedtuple's own, which _replace calls, skips the checks


@dataclass(frozen=True, slots=True)
class CostLedger:
    """Itemized cost breakdown whose totals are exact sums of the items.

    Totals use ``math.fsum``, so they are independent of item order.
    """

    items: tuple[LedgerItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def totals(self) -> tuple[float, float, float, float]:
        """Capital stock [$], then daily cost, operations and revenue [$ / day], in one pass:
        a '$' item is stock whatever its kind, a '$/day' one counts to daily and its kind."""
        stock, capital, operational, revenue = [], [], [], []
        for _, _, kind, amount, unit in self.items:
            (stock if unit == "$" else capital if kind == CAPITAL
             else operational if kind == OPERATIONAL else revenue).append(amount)
        return (math.fsum(stock), math.fsum(capital + operational + revenue),
                math.fsum(operational), math.fsum(revenue))

    def capital_total(self) -> float:
        """Total capital stock [$]."""
        return self.totals()[0]

    def daily_total(self) -> float:
        """Net daily cost [$ / day], capital charge plus flows."""
        return self.totals()[1]

    def operational_total(self) -> float:
        return self.totals()[2]

    def revenue_total(self) -> float:
        return self.totals()[3]


_set_magnitude, _set_unit = Quantity.magnitude.__set__, Quantity.unit.__set__
_set_items = CostLedger.items.__set__   # slot setters, unguarded by a frozen __setattr__


def _quantity(magnitude: float, unit: str) -> Quantity:
    """A float the core computed, in a registered normalized unit, unchecked."""
    quantity = object.__new__(Quantity)
    _set_magnitude(quantity, magnitude)
    _set_unit(quantity, unit)
    return quantity


def _ledger(rows: tuple[LedgerItem, ...]) -> CostLedger:
    """A ledger of checked rows, already one tuple, built through its slot as ``_quantity`` is."""
    ledger = object.__new__(CostLedger)
    _set_items(ledger, rows)
    return ledger
