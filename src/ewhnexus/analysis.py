"""Decision-support layer: scenario sweeps, water-supply break-even distance,
transfer cost curves, penalty thresholds, the four decisions and the scorecard.

All sweep cells are independent pure evaluations ordered by (plant, product,
beta); a failing cell is reported with its coordinates without aborting the
rest of the sweep.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import economics, water
from .conversion import ProductSpec, _reuse_rates, nexus_rates
from .quantities import (HOURS_PER_DAY, DomainError, EconParams, PlantSpec, Quantity,
                         _quantity, check_beta, check_nonneg, check_number, check_type)

if TYPE_CHECKING:
    from .config import LoadedConfig


def beta_errors(betas: Sequence, path: str) -> list[str]:
    """One line per broken rule of a sweep's reuse fractions, each entry named ``path[i]``.

    An entry is a reuse fraction by ``check_beta``, not 0 (the storage row every
    plant already gets) and not repeated.
    """
    errors: list[str] = []
    seen: dict[float, int] = {}
    for i, b in enumerate(betas):
        try:
            check_beta(b)
        except DomainError as exc:
            errors.append(f"{path}[{i}]: {exc}")
            continue
        if b == 0:
            errors.append(f"{path}[{i}]: beta 0 is the storage row, which every plant gets")
        elif seen.setdefault(b, i) != i:
            errors.append(f"{path}[{i}]: repeated reuse fraction {b!r} "
                          f"(first at {path}[{seen[b]}])")
    return errors


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian scenario grid, checked once; a beta = 0 storage row is added per plant."""

    plants: tuple[PlantSpec, ...]
    products: tuple[ProductSpec, ...]
    betas: tuple[float, ...]
    water_mode: water.WaterMode

    def __post_init__(self):
        object.__setattr__(self, "plants", tuple(self.plants))
        object.__setattr__(self, "products", tuple(self.products))
        betas = tuple(self.betas)
        if not self.plants:
            raise DomainError("sweep grid needs at least one plant")
        for plant in self.plants:
            check_type("plant", plant, PlantSpec)
        for product in self.products:
            check_type("product", product, ProductSpec)
        errors = beta_errors(betas, "betas")
        if errors:
            raise DomainError(errors[0])
        object.__setattr__(self, "betas", tuple(float(b) for b in betas))
        water.mode_name(self.water_mode)


class SweepCell(namedtuple("SweepCell", "plant product beta result error",
                           defaults=(None, None))):
    """One grid cell, a named tuple: result or error is set; product "" is the storage row."""

    __slots__ = ()


def scenario_sweep(grid: SweepGrid, econ: EconParams,
                   econ_resolver: Callable[[PlantSpec], EconParams] | None = None
                   ) -> tuple[SweepCell, ...]:
    """Evaluate every cell of the grid plus one storage row per plant.

    Ordering is deterministic: plants in the given order, the storage row
    first, then products in the given order with betas ascending.  The
    resolver (else ``econ`` for every plant) is called once per plant and each
    column is set up once; if either fails, each of its cells carries the error.
    """
    check_type("grid", grid, SweepGrid)
    return _sweep(grid, econ_resolver or (lambda plant: econ), economics._result)


def _sweep(grid: SweepGrid, econ_of, price) -> tuple[SweepCell, ...]:
    """``scenario_sweep``'s cells at ``econ_of(plant)``, each with the result ``price(column, beta,
    storage)``: a product cell's ``storage`` is its plant's ccss pair at its beta, priced once."""
    cells: list[SweepCell] = []
    betas, mode = tuple(sorted(grid.betas)), grid.water_mode
    columns = [(None, "", (0.0,))] + [(p, p.name, betas) for p in grid.products]

    def failed(plant: PlantSpec, name: str, beta: float, exc: Exception) -> SweepCell:
        return SweepCell(plant.name, name, beta,
                         error=f"cell ({plant.name}, {name or '-'}, beta={beta:g}): {exc}")

    set_up, new = economics._column, tuple.__new__
    for plant in grid.plants:
        try:
            plant_econ = econ_of(plant)
            check_type("econ", plant_econ, EconParams)
        except ValueError as exc:
            cells += [failed(plant, name, beta, exc) for _, name, col in columns for beta in col]
            continue
        storage = pairs = None   # a product column sets up only where the storage column did
        for product, name, col_betas in columns:
            try:
                column = set_up(plant, plant_econ, product, mode)
            except ValueError as exc:
                cells += [failed(plant, name, beta, exc) for beta in col_betas]
                continue
            if product is None:
                storage = column
            elif pairs is None:   # after the first product column's checks
                pairs = [economics._terms(storage, b)[:2] for b in betas]
            for beta, pair in zip(col_betas, pairs if product else (None,)):
                try:
                    cells.append(new(SweepCell, (plant.name, name, beta,
                                                 price(column, beta, pair), None)))
                except ValueError as exc:
                    cells.append(failed(plant, name, beta, exc))
    return tuple(cells)


@dataclass(frozen=True)
class BreakevenQuery:
    """Search window for the break-even distance: d_lo < d_hi [km], each finite and >= 0."""

    plant: PlantSpec
    product: ProductSpec
    distance_bounds: tuple[float, float] = (1.0, 1000.0)   # [km]

    def __post_init__(self):
        lo, hi = self.distance_bounds
        check_nonneg("d_lo", lo)
        check_nonneg("d_hi", hi)
        object.__setattr__(self, "distance_bounds", (float(lo), float(hi)))
        if not lo < hi:
            raise DomainError("distance bounds must satisfy d_lo < d_hi")


class NoCrossingError(DomainError):
    """The cost difference does not change sign over the search window."""

    def __init__(self, message: str, g_lo: float, g_hi: float):
        super().__init__(message)
        self.g_lo = g_lo
        self.g_hi = g_hi


def _minus_desal(column: tuple) -> tuple[tuple[float, float, float], Callable[..., float],
                                         Callable[[float], float]]:
    """``_priced`` at beta = 1 of a product's desalination ``column``; the daily-cost gap
    [$ / day] to that cell with another water capital [$] and operations [$ / day], every
    other term priced once, here; and that gap g(d) with the water piped from d [km], on
    floats, by the kernels a transfer scenario calls.  g takes a window end ``BreakevenQuery``
    checked; a gap has every check and error of a full scenario, no ledger.
    """
    terms = economics._terms(column, 1.0)
    _, desal_cost, _, penalty, _, _, _ = economics._daily(terms, column)
    (_, econ, product, _, captured, _), before, after = column, terms[:4], terms[6:]

    def gap(capital: float, operations: float) -> float:
        return economics._daily(before + (capital, operations) + after, column)[1] - desal_cost

    def g(d_km: float) -> float:
        return gap(water.pipe_capital(water.pipe_length_m(d_km, "km"), econ),
                   water.pumping_operational(d_km, captured, product.water_demand, econ))

    return (desal_cost, 1.0, penalty), gap, g


def breakeven_distance(query: BreakevenQuery, econ: EconParams) -> Quantity:
    """Pipe length at which network transfer stops beating desalination [km].

    The window-end secant is exact: the gap is affine in d (pipe capital, r_w).
    A solve prices the terms that do not depend on the water mode once, and
    the pipe on floats at each window end; the root is its one ``Quantity``.
    Raises NoCrossingError (with both endpoint gaps) if one option dominates
    over the whole window.  Both options are full scenarios at beta = 1.
    """
    plant, product, desal = query.plant, query.product, water.Desalination()
    economics._check_cell(plant, econ, 1.0, product, desal)
    return _root(query, _minus_desal(economics._column(plant, econ, product, desal))[2])


def _root(query: BreakevenQuery, g: Callable[[float], float]) -> Quantity:
    """``breakeven_distance`` of the gap g(d) [$ / day] over ``query``'s window."""
    lo, hi = query.distance_bounds
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:   # a window end, which BreakevenQuery checked
        return _quantity(lo, "km")
    if g_hi == 0.0:
        return _quantity(hi, "km")
    if (g_lo > 0) == (g_hi > 0):
        raise NoCrossingError(
            f"no break-even in [{lo:g}, {hi:g}] km: cost gap goes from "
            f"{g_lo:+.2f} to {g_hi:+.2f} $/day", g_lo, g_hi)
    return Quantity._computed(lo + (hi - lo) * g_lo / (g_lo - g_hi), "km")


class CurveCell(namedtuple("CurveCell", "distance_km flow_m3_h capital_daily "
                           "operational_daily total_daily error",
                           defaults=(None, None, None, None))):
    """One (distance, flow) point of the transfer cost surface [$ / day].

    The three amounts are set, or ``error`` is.  A named tuple: immutable,
    equal by value (also to a plain tuple of its fields), with a dataclass's
    repr.
    """

    __slots__ = ()


def transfer_cost_curve(plant: PlantSpec, distances: Sequence[float],
                        flows: Sequence[float], econ: EconParams,
                        product: ProductSpec) -> tuple[CurveCell, ...]:
    """Daily transfer cost split per (distance, flow) cell.

    Capital is the annualized charge of the pipe, priced per meter, so it
    varies with distance alone; operations price the pumping power at each
    flow, up to the plant's full-reuse water capacity.  Each flow is checked
    once, and each distance's length, friction and capital charge are
    computed once.  A distance or flow that is not a number, or a distance that is
    negative or not finite in km and m, raises out of the whole curve; a flow outside
    the capacity, or a cell whose capital, operations or total is not finite, is an error cell.

    The operational column is 24 times one hour's pumping bill.  A full-load
    scenario's ``water-operational`` ledger item adds the 24 equal hours one
    by one instead (``quantities.add_hourly``), so the two agree to rounding
    only (a relative gap of a few units in the last place), not bit for bit.
    """
    if not distances or not flows:
        raise DomainError("distances and flows must be non-empty")
    check_type("plant", plant, PlantSpec)
    check_type("econ", econ, EconParams)
    check_type("product", product, ProductSpec)
    w_max = _reuse_rates(product, plant.cbar, 1.0)[1]   # [m3/h]
    points = []   # (the caller's flow, which names its cells, the flow [m3/h], its error)
    for f in flows:
        check_number("flow", f)
        f_val = float(f)
        try:
            water.check_flow(f_val, w_max)
            points.append((f, f_val, None))
        except DomainError as exc:
            points.append((f, f_val, str(exc)))
    pump_power, isfinite, new = water.pump_power, math.isfinite, tuple.__new__
    # as a float: float * float is the multiply CPython specializes, with the same bits
    hours, price, eta = float(HOURS_PER_DAY), econ.elec_price, econ.eta_pump
    cells: list[CurveCell] = []
    add = cells.append
    for d in distances:
        check_number("distance", d)
        d_km = float(d)
        m = water.pipe_length_m(d_km, "km")
        r_w = water.effective_r_w(econ, d_km)
        cap_daily = economics.daily_capital_charge(water.pipe_capital(m, econ), econ)
        for f, f_val, error in points:
            if error is None:
                op_daily = hours * (price * pump_power(f_val, r_w, eta))
                total = cap_daily + op_daily
                if isfinite(total):   # so are both parts
                    add(new(CurveCell, (d_km, f_val, cap_daily, op_daily, total, None)))
                    continue
                error = next(f"{name} must be finite, got {value!r} $/day"
                             for name, value in (("capital charge", cap_daily),
                                                 ("operational cost", op_daily),
                                                 ("total cost", total))
                             if not isfinite(value))
            add(CurveCell(d_km, f_val, error=f"cell (d={d:g} km, f={f:g} m3/h): {error}"))
    return tuple(cells)


@dataclass(frozen=True)
class StoreAll:
    """Capture everything and pipe it to storage (beta = 0)."""


@dataclass(frozen=True)
class ReuseAll:
    """Capture everything and convert it to the given product (beta = 1)."""

    product: ProductSpec


Strategy = StoreAll | ReuseAll


def penalty_threshold(plant: PlantSpec, strategy: Strategy, econ: EconParams,
                      water_mode: water.WaterMode | None = None) -> Quantity:
    """Minimum carbon penalty making the strategy beat emitting-and-paying [$ / ton].

    ``ReuseAll`` needs a water mode, as any reuse scenario does; ``StoreAll`` none.
    It is the scenario's ``total_daily_cost`` carbon penalty, from its daily total alone.
    """
    check_type("strategy", strategy, Strategy, "a StoreAll or ReuseAll")
    beta, product = (1.0, strategy.product) if isinstance(strategy, ReuseAll) else (0.0, None)
    economics._check_cell(plant, econ, beta, product, water_mode)
    column = economics._column(plant, econ, product, water_mode)
    return _quantity(_priced(column, beta)[2], "$/ton")   # economics._daily checked it


def _priced(column: tuple, beta: float) -> tuple[float, float, float]:
    """(daily cost [$ / day], beta, carbon penalty [$ / ton]) of ``column``'s cell; no ledger."""
    _, daily, _, penalty, _, _, _ = economics._daily(economics._terms(column, beta), column)
    return daily, beta, penalty


def _optimum(column: tuple) -> tuple[float, float, float]:
    """``_priced`` at a product column's cheapest candidate beta.

    Desalination and solar columns are affine in beta (their beta -> 0+ limit is the storage
    row), so the candidate is 1.  A transfer column is a + b beta + c beta^3, fitted at beta =
    0, 1/2 and 1; its minimum sqrt(-b / 3c) is a candidate too when it lies in (0, 1).
    """
    one = _priced(column, 1.0)
    if not isinstance(column[3], water.NetworkTransfer):
        return one
    zero, half = _priced(column, 0.0)[0], _priced(column, 0.5)[0]
    c = 4.0 / 3.0 * (one[0] - 2.0 * half + zero)
    b = one[0] - zero - c
    if not (c > 0.0 and 0.0 < -b / (3.0 * c) < 1.0):
        return one
    return min(one, _priced(column, math.sqrt(-b / (3.0 * c))))


DECISION_COLUMNS = ("plant", "question", "winner", "runner_up", "gap_usd_per_day", "beta",
                    "breakeven_km", "c_sw_tie_usd_per_m3_h", "penalty_usd_per_ton",
                    "runner_up_penalty_usd_per_ton")


def decide(cfg: LoadedConfig, plant: str | None = None) -> list[dict]:
    """Rows ``fate``, ``product``, ``water`` and ``penalty`` for each plant, or for ``plant``.

    A row ranks options by daily cost [$ / day]: ``winner``, its beta, ``runner_up``, gap.
    ``fate`` is store against the best product at its ``_optimum``; ``water`` that product
    in the config's mode against desalination, with its break-even distance at beta = 1
    ("" if none) and the ``c_sw`` at which solar ties desalination, the root of a gap
    affine in ``c_sw``; ``penalty`` the fate's carbon penalties [$ / ton].  No ledger is built.
    """
    mode, rows, blank = cfg.water_mode, [], ("", ("", "", ""))
    mode_name = water.mode_name(mode)
    for p in cfg.plants if plant is None else (cfg.plant(plant),):
        econ = cfg.econ_for(p)
        columns = {x: economics._column(p, econ, x, mode) for x in (None, *cfg.products)}
        def row(question, options, **fields):   # the two cheapest options, blank if fewer
            ranked = sorted(options, key=lambda option: option[1][0])   # a tie keeps the order
            (win, (cost, beta, pen)), (up, (other, _, up_pen)) = (*ranked, blank, blank)[:2]
            penalties = (pen, up and up_pen) if question == "penalty" else ("", "")
            return {**dict(zip(DECISION_COLUMNS, (p.name, question, win, up, up and other - cost,
                                                  beta, "", "", *penalties))), **fields}

        fate = [("store", _priced(columns[None], 0.0))]
        products = sorted(((x, _optimum(columns[x])) for x in cfg.products),
                          key=lambda o: o[1][0])
        supplies, water_fields = {}, {}
        for x, best in products[:1]:   # the best product, if there is one
            fate.append((f"reuse {x.name}", best))
            column = (columns[x] if mode_name == "desalination"
                      else economics._column(p, econ, x, water.Desalination()))
            desal, gap, g = _minus_desal(column)
            supplies = {mode_name: best, "desalination": desal}
            # the solar-minus-desalination gap at c_sw = 0 and 1e6 $/(m3/h), far apart
            w_max, solar = _reuse_rates(x, p.cbar, 1.0)[1], water.SolarSeawater()
            bill = water.water_operational(solar, w_max, column[4], x.water_demand, econ)
            g0, g1 = (gap(water.solar_capital(w_max, c_sw), bill) for c_sw in (0.0, 1e6))
            try:
                km = _root(BreakevenQuery(p, x), g).magnitude
            except NoCrossingError:
                km = ""
            water_fields = {"breakeven_km": km,
                            "c_sw_tie_usd_per_m3_h": 1e6 * g0 / (g0 - g1) if g0 != g1 else ""}
        rows += [row("fate", fate), row("product", [(x.name, o) for x, o in products]),
                 row("water", supplies.items(), **water_fields), row("penalty", fate)]
    return rows


def scorecard(cfg: LoadedConfig, reference: Sequence[Mapping]) -> list[dict]:
    """One row per entry of ``reference``, in ``config.paper_2024_reference()``'s form.

    A row holds the engine's value on ``cfg``, the printed text, the tolerance used (the
    entry's, a number or a percent of the value, else half the print quantum), the relative
    error ("" to a zero), the gap per ton of reused carbon (on a reuse daily-cost row; "" else)
    and whether it passes.  A value ``cfg`` cannot price, such as one of a plant it lacks,
    is an error row.
    """
    rates = cache(lambda p, x, b: nexus_rates(cfg.plant(p), cfg.product(x), b))   # by names,
    cell = cache(lambda p, x, b: economics._price_row(cfg.scenario(   # each once per call
        cfg.plant(p), x and cfg.product(x), b)._as_column(), b))
    engine = {   # quantity -> its value at (plant, product, beta), in the printed unit
        "h2_ton_per_h": lambda p, x, b: rates(p.name, x.name, b)[0].value_in("ton/h"),
        "water_m3_per_h": lambda p, x, b: rates(p.name, x.name, b)[1].value_in("m3/h"),
        "chemical_ton_per_h": lambda p, x, b: rates(p.name, x.name, b)[2].value_in("ton/h"),
        "daily_cost_musd_per_day": lambda p, x, b: cell(p.name, x and x.name, b)[3] / 1e6,
        "increased_price_usd_per_kwh": lambda p, x, b: cell(p.name, x and x.name, b)[4],
        "carbon_penalty_usd_per_ton": lambda p, x, b: cell(p.name, x and x.name, b)[5],
        "breakeven_distance_km": lambda p, x, b: breakeven_distance(
            BreakevenQuery(p, x), cfg.econ_for(p)).value_in("km"),
        "xi_h": lambda p, x, b: x.xi_h}
    rows = []
    for entry in reference:
        quantity, text, stated = entry["quantity"], entry["value"], entry.get("tolerance", "")
        plant, product, beta = (entry.get(key, "") for key in ("plant", "product", "beta"))
        row = {"quantity": quantity, "plant": plant, "product": product, "beta": beta}
        try:
            p = cfg.plant(plant) if plant else None
            x = cfg.product(product) if product else None
            computed = engine[quantity](p, x, beta or 0.0)
        except ValueError as exc:
            rows.append({**row, "error": f"{quantity} ({plant or '-'}, {product or '-'}): {exc}"})
            continue
        value = float(text)
        tol = (float(stated[:-1]) / 100 * abs(value) if stated.endswith("%")
               else float(stated or 0.5 * 10.0 ** -len(text.partition(".")[2])))
        gap = ((computed - value) * 1e6 / (beta * p.cbar_day)
               if beta and quantity == "daily_cost_musd_per_day" else "")
        rows.append({**row, "computed": computed, "reference": text, "tolerance": tol,
                     "relative_error": (computed - value) / abs(value) if value else "",
                     "gap_usd_per_ton": gap, "pass": abs(computed - value) <= tol})
    return rows
