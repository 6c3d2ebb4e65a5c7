"""Total cost assembly, capital annualization, and the derived decision metrics.

The daily total is the annualized capital charge plus the operational flows
minus product revenue.  Revenues are negative costs throughout.  Two derived
metrics turn a daily cost into decision numbers: the electricity price uplift
that would recover it, and the carbon penalty rate at which paying for
emissions costs the same as running the retrofit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from . import ccss, conversion, water
from .quantities import (CAPITAL, HOURS_PER_DAY, OPERATIONAL, REVENUE, DomainError, EconParams,
                         LedgerItem, PlantSpec, Quantity, TimeSeries, UnitError, _ledger,
                         _quantity, check_beta, check_type, daily_capital_charge)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified retrofit scenario.

    ``beta`` = 0 is pure storage: no water, power, hydrogen or revenue terms
    exist, and no water mode is needed.  A positive ``beta`` needs a product
    and a water mode; the water system and the electrolyzer fleet are sized to
    the reuse stream (``_check_cell``).  This is where a scenario's units are
    checked: the capture profile must be a 24-step mass flow no step of which
    exceeds the plant's full-load rate C̄, and is kept in ton/h.
    """

    plant: PlantSpec
    econ: EconParams
    beta: float = 0.0
    product: conversion.ProductSpec | None = None
    water_mode: water.WaterMode | None = None   # None: no water system
    capture_profile: TimeSeries | None = None   # [ton/h]; defaults to 24 h full load

    def __post_init__(self):
        _check_cell(self.plant, self.econ, self.beta, self.product, self.water_mode)
        profile = self.capture_profile
        if profile is not None:
            rule = "capture_profile must be a mass flow"
            if not isinstance(profile, TimeSeries):
                raise UnitError(f"{rule}, got {profile!r}")
            try:
                captured = profile.values_in("ton/h")
            except UnitError:
                raise UnitError(f"{rule}, got {profile.unit!r}") from None
            if len(captured) != HOURS_PER_DAY:
                raise DomainError(f"capture_profile needs {HOURS_PER_DAY} hourly steps, "
                                  f"got {len(captured)}")
            for h, c in enumerate(captured):
                if c > self.plant.cbar:
                    raise DomainError(f"capture_profile step {h} is {c!r} ton/h, above the "
                                      f"full-load rate C̄ = {self.plant.cbar!r} ton/h of "
                                      f"plant {self.plant.name!r}")
            if profile.unit != "ton/h":   # kept in ton/h, so it is converted once
                object.__setattr__(self, "capture_profile", TimeSeries(captured, "ton/h"))

    def _as_column(self) -> tuple:
        """The ``_column`` of this checked cell; a product at beta = 0 is a storage column."""
        profile = self.capture_profile
        return _column(self.plant, self.econ, self.product if self.beta > 0 else None,
                       self.water_mode, None if profile is None else _hour_runs(profile.values))


def _check_cell(plant: PlantSpec, econ: EconParams, beta: float,
                product: conversion.ProductSpec | None, water_mode) -> None:
    """A cell's input rule, its types by ``check_type``; ``ScenarioConfig`` and analyses call it."""
    check_type("plant", plant, PlantSpec)
    check_type("econ", econ, EconParams)
    check_beta(beta)
    if product is not None:
        check_type("product", product, conversion.ProductSpec)
    elif beta > 0:
        raise DomainError("a reuse scenario (beta > 0) needs a product")
    if beta > 0 and water_mode is None:
        raise DomainError("a reuse scenario (beta > 0) needs a water mode")
    if water_mode is not None:
        water.mode_name(water_mode)


class ScenarioResult(namedtuple("ScenarioResult",
                                "ledger daily_cost increased_price carbon_penalty")):
    """Itemized ledger plus its total's metrics [$/day, $/kWh, $/ton]; a named tuple."""

    __slots__ = ()


def total_daily_cost(scenario: ScenarioConfig) -> ScenarioResult:
    """Assemble the full cost ledger and decision metrics of a scenario."""
    return _result(scenario._as_column(), scenario.beta)


def _column(plant: PlantSpec, econ: EconParams, product: conversion.ProductSpec | None,
            water_mode: water.WaterMode | None,
            captured: tuple[tuple[float, int], ...] | None = None) -> tuple:
    """The checked constants of a column of cells, which ``_terms`` prices at any beta.

    A column is the cells of one plant and its parameters, one reuse product
    (None: the storage row) and one water mode.  Its constants are the tuple
    (plant, econ, product, water mode, captured, revenue row label), where
    ``captured`` is the day's carbon as (value, hours) runs [ton/h], the one
    run (C̄, 24) of a full-load day if None.  An unset cost the column needs is
    a DomainError named by its ledger term, raised before any term is priced:
    ``c_ccs``, else a reuse column's first ``unset_costs``.  The kernels raise nothing.
    """
    if econ.c_ccs is None:
        raise DomainError("ccss-capital: c_ccs (capture plant capital cost) is not configured")
    label = None
    if product is not None:
        for term, _, why in unset_costs(econ, (product,), water_mode):
            raise DomainError(f"{term}: {why}")
        label = f"{product.name} sales"
    return plant, econ, product, water_mode, captured or ((plant.cbar, HOURS_PER_DAY),), label


def unset_costs(econ: EconParams, products: tuple, water_mode) -> Iterator[tuple[str, str, str]]:
    """Each unset cost that ``products`` in ``water_mode`` need, as (ledger term, ``econ`` key,
    why), in ledger order: ``c_sw`` in solar mode, then each price; ``_column`` raises the first."""
    if isinstance(water_mode, water.SolarSeawater) and econ.c_sw is None:
        yield "water-capital", "c_sw", "c_sw (solar-seawater capital, $/(m3/h)) is not configured"
    for product in products:
        if product.name not in econ.product_prices:
            yield ("product-revenue", f"product_prices.{product.name}",
                   f"no market price ($/ton) configured for product {product.name!r}")


def _terms(column: tuple, beta: float, storage: tuple | None = None) -> tuple[float | None, ...]:
    """The cost amounts of ``column``'s cell at ``beta`` in ledger order, each unchecked.

    (ccss capital, ccss operations, wind capital, electrolyzer capital, water
    capital, water operations, product revenue): capital in [$], flows in
    [$ / day].  A storage column has only the first two, the electrolyzer
    only counts when the policy includes it, and an absent term is None.
    ``storage``, if given, is the first two, which depend on the plant and ``beta`` alone.
    Each kernel is called through its module, so a rebinding there takes effect.
    """
    plant, econ, product, mode, captured, _ = column
    cap_ccss, op_ccss = storage or (ccss.ccss_capital(beta, plant.cbar_day, econ),
                                    ccss.ccss_operational(beta, captured, econ))
    if product is None:
        return (cap_ccss, op_ccss, None, None, None, None, None)
    # L/kg times ton/h is m3/h: an hour's flow is k * c, w_max as conversion._reuse_rates
    cbar, k = plant.cbar, product.water_demand * beta
    w_max = k * cbar
    cap_h2 = (conversion.hydrogen_capital(product, cbar, beta, econ)
              if econ.include_hydrogen_capital else None)
    return (cap_ccss, op_ccss, conversion.power_capital(product.xi_h * beta * cbar, econ),
            cap_h2, water.water_capital(mode, w_max, econ),
            water.water_operational(mode, w_max, captured, k, econ),
            conversion.chemical_revenue(product, captured, beta, econ))


def _result(column: tuple, beta: float, storage: tuple | None = None) -> ScenarioResult:
    """The ledger and metrics of ``column``'s cell at ``beta``, from floats ``_daily`` checked."""
    terms = _terms(column, beta, storage)
    charge, daily, price, penalty, _, _, _ = _daily(terms, column)
    return tuple.__new__(ScenarioResult, (_ledger(_rows(terms, column[5], charge)),
        _quantity(daily, "$/day"), _quantity(price, "$/kWh"), _quantity(penalty, "$/ton")))


def _hour_runs(values: tuple[float, ...]) -> tuple[tuple[float, int], ...]:
    """Hourly ``values`` as the ``(value, hours)`` runs of equal consecutive hours, in order."""
    return tuple((value, len(tuple(run))) for value, run in groupby(values))


def _daily(terms: tuple[float | None, ...], column: tuple) -> tuple:
    """The capital charge, daily cost [$ / day], uplift [$ / kWh], penalty [$ / ton], capital
    stock [$], flows [$ / day] and n of them operations of a cell's ``_terms`` from ``column``.

    The one daily-total rule and the one place a metric is divided out.  It
    checks each ledger row, the capital charge last, by ``LedgerItem``'s rule in
    ledger order, then the daily cost, uplift and penalty, with the errors
    their ledger rows and quantities raise; no caller checks them again.
    The uplift is over one hour of full generation, the relation the
    reference cost tables use; kept as-is rather than corrected, although a
    per-day energy basis would be 24x larger.  The penalty is the rate on the
    full-load daily carbon mass that costs as much as the scenario; negative
    when the scenario is net revenue.
    """
    isfinite = math.isfinite
    plant, econ, _, _, _, label = column
    cap_ccss, op_ccss, cap_power, cap_h2, cap_water, op_water, revenue = terms
    if cap_power is None:   # a storage scenario; each term's kind is stated here alone:
        capital, flows, n = (cap_ccss,), (op_ccss,), 1   # [$], [$ / day], n of them operations
    else:
        capital, flows, n = ((cap_ccss, cap_power, cap_water) if cap_h2 is None else (
            cap_ccss, cap_power, cap_h2, cap_water)), (op_ccss, op_water, revenue), 2
    # the totals are fsums of the amounts in hand: fsum is exact, so they equal
    # the ledger's capital_total() and daily_total() in any item order
    charge = daily_capital_charge(stock := _total(capital), econ)
    if not isfinite(sum(capital) + sum(flows) + charge):   # a row is not finite, or they overflow
        for row in _rows(terms, label, charge):
            LedgerItem._make(row)   # the first row that is not finite raises
    daily = _total(flows + (charge,))
    price, penalty = daily / plant.capacity_kw, daily / plant.cbar_day
    if not isfinite(daily + price + penalty):   # a metric is not finite, or they overflow
        for metric, unit in ((daily, "$/day"), (price, "$/kWh"), (penalty, "$/ton")):
            Quantity._computed(metric, unit)   # the first that is not finite raises
    return charge, daily, price, penalty, stock, flows, n


def _price_row(column: tuple, beta: float, storage: tuple | None = None) -> tuple[float, ...]:
    """A sweep row's capital, operations and revenue totals and metrics, as ``_result``'s."""
    _, daily, price, penalty, stock, flows, n = _daily(_terms(column, beta, storage), column)
    return stock, math.fsum(flows[:n]), math.fsum(flows[n:]), daily, price, penalty


def _rows(terms: tuple[float | None, ...], label: str | None,
          charge: float) -> tuple[LedgerItem, ...]:
    """The ledger rows of ``_terms``, revenue ``label`` and then ``charge``; unchecked."""
    cap_ccss, op_ccss, cap_power, cap_h2, cap_water, op_water, revenue = terms
    new = tuple.__new__   # one tuple per ledger shape; kinds and units are the ledger's literals
    ccss_capital = new(LedgerItem, ("capture and storage pipeline capital", "ccss-capital",
                                    CAPITAL, cap_ccss, "$"))
    ccss_operations = new(LedgerItem, ("capture and transfer operations", "ccss-operational",
                                       OPERATIONAL, op_ccss, "$/day"))
    last = new(LedgerItem, ("daily capital charge", "capital-charge", CAPITAL, charge, "$/day"))
    if cap_power is None:   # a storage scenario
        return ccss_capital, ccss_operations, last
    power = new(LedgerItem, ("wind farm capital", "power-capital", CAPITAL, cap_power, "$"))
    water_capital = new(LedgerItem, ("water system capital", "water-capital", CAPITAL,
                                     cap_water, "$"))
    water_operations = new(LedgerItem, ("water system operations", "water-operational",
                                        OPERATIONAL, op_water, "$/day"))
    sales = new(LedgerItem, (label, "product-revenue", REVENUE, revenue, "$/day"))
    return ((ccss_capital, ccss_operations, power, water_capital, water_operations, sales, last)
            if cap_h2 is None else (ccss_capital, ccss_operations, power, new(LedgerItem, (
                "electrolyzer capital", "hydrogen-capital", CAPITAL, cap_h2, "$")),
                water_capital, water_operations, sales, last))


def _total(amounts: tuple[float, ...]) -> float:
    """The exact sum of finite amounts, or inf, which fails the cell, where fsum overflows."""
    try:
        return math.fsum(amounts)
    except OverflowError:
        return math.inf
