"""Water supply section: piecewise desalination power, pump hydraulics,
capital and operational aggregation, mode exclusivity.  Flows are in m3/h."""

import itertools
import math
import random

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ewhnexus.analysis import SweepGrid
from ewhnexus.config import ConfigError, paper_2024
from ewhnexus.conversion import METHANE
from ewhnexus.economics import ScenarioConfig
from ewhnexus.quantities import DomainError, EconParams, PlantSpec, Quantity, UnitError
from ewhnexus.water import (
    Desalination, NetworkTransfer, SolarSeawater, desal_power, desal_segment,
    effective_r_w, pump_power, water_capital, water_operational,
)

BIOMASS = PlantSpec("biomass", Quantity(500, "MW"), Quantity(230, "g/kWh"))


def econ(**over):
    base = dict(elec_price=0.25, r_cts=15.0, r_ccs=45.0, c_cts=250.0, c_ccs=4e4,
                c_wind=1030.0, c_des=2e5, c_tw=160.0,
                wind_capacity_factor=0.423, eta_pump=0.9)
    base.update(over)
    return EconParams(**base)


def brute_force_segment(f: float, w: float) -> int:
    """Independent linear scan of the four half-open segment intervals."""
    if f == 0:
        return 1
    for k in (1, 2, 3, 4):
        if 0.25 * (k - 1) * w < f <= 0.25 * k * w:
            return k
    raise AssertionError(f"flow {f} not bracketed by any segment of {w}")


class TestDesalination:
    def test_zero_flow_is_zero_power_segment_one(self):
        assert desal_segment(0.0, 188.0) == 1
        p = desal_power(0.0, 188.0, econ())
        assert p == 0.0

    def test_reference_segment_two_case(self):
        # f = 94 on capacity 188 sits at the top of segment 2: 3.8 kWh/m3
        p = desal_power(94.0, 188.0, econ())
        assert p == pytest.approx(357.2, rel=1e-12)

    def test_segment_selection_matches_brute_force_scan(self):
        rng = random.Random(2024)
        w = 188.0
        for _ in range(1000):
            f = rng.uniform(0.0, w)
            assert desal_segment(f, w) == brute_force_segment(f, w)

    def test_full_capacity_lands_in_top_segment(self):
        assert desal_segment(188.0, 188.0) == 4

    def test_linear_within_a_segment(self):
        w = 400.0
        p1 = desal_power(30.0, w, econ())
        p2 = desal_power(60.0, w, econ())
        assert p2 == pytest.approx(2 * p1, rel=1e-12)


class TestHydraulics:
    # pump power is PUMP_CONSTANT_W * head * f / eta / 1000 [kW], with the friction
    # head r_w * f^2 [m]; at eta = 1 and f = 100 m3/h, 1 m of head is 0.2725 kW
    def test_friction_head_reference_case(self):
        # r_w = 2e-4 gives 2 m of head at 100 m3/h
        assert pump_power(100.0, 2e-4, 1.0) == pytest.approx(2.0 * 0.2725)

    def test_friction_head_zero_flow(self):
        assert pump_power(0.0, 2e-4, 1.0) == 0.0

    def test_friction_head_quadratic(self):
        # doubling the flow quadruples the head, so the power per m3/h
        h1 = pump_power(50.0, 3e-4, 1.0) / 50.0
        h2 = pump_power(100.0, 3e-4, 1.0) / 100.0
        assert h2 == pytest.approx(4 * h1, rel=1e-12)

    def test_pump_power_reference_case(self):
        # 2.725 W constant x 2 m head x 100 m3/h / 0.9 -> 0.6056 kW
        p = pump_power(100.0, 2e-4, 0.9)
        assert p == pytest.approx(0.605555555555, rel=1e-9)

    def test_pump_power_zero_flow(self):
        assert pump_power(0.0, 2e-4, 0.9) == 0.0

    @given(f=st.floats(1e-3, 1e4), r=st.floats(1e-8, 1e-1), eta=st.floats(0.2, 1.0))
    def test_pump_cubic_law_is_bit_exact(self, f, r, eta):
        p1 = pump_power(f, r, eta)
        p2 = pump_power(2 * f, r, eta)
        assert p2 == 8.0 * p1

    def test_effective_r_w_scales_linearly_with_distance(self):
        e = econ()
        assert effective_r_w(e, 100.0) == pytest.approx(2e-4)
        assert effective_r_w(e, 250.0) == pytest.approx(5e-4)


class TestPlanExclusivity:
    # alpha, the mode selector, is one-hot because a scenario holds one mode object
    def test_alpha_is_one_hot_for_every_mode(self):
        kinds = (Desalination, NetworkTransfer, SolarSeawater)
        modes = (Desalination(), NetworkTransfer(Quantity(250, "km")), SolarSeawater())
        seen = set()
        for mode in modes:
            cfg = ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                                 water_mode=mode)
            alpha = tuple(int(isinstance(cfg.water_mode, kind)) for kind in kinds)
            assert sum(alpha) == 1
            seen.add(alpha)
        assert len(seen) == 3

    def test_multiple_modes_unconstructible(self):
        # the scenario takes exactly one mode object; collections are rejected
        with pytest.raises((DomainError, TypeError)):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE,
                           water_mode=(Desalination(), SolarSeawater()))

    @pytest.mark.parametrize("kind, args", [(Desalination, ()),
                                            (NetworkTransfer, (Quantity(250, "km"),)),
                                            (SolarSeawater, ())],
                             ids=["desalination", "transfer", "solar"])
    def test_an_instance_of_a_mode_subclass_is_no_mode(self, kind, args):
        # a mode is an instance of exactly one mode type: the config loads and dumps it by type
        mode = type(f"My{kind.__name__}", (kind,), {})(*args)
        message = f"unsupported water mode {mode!r}"
        cfg = paper_2024()
        with pytest.raises(DomainError) as info:
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=1.0, product=METHANE, water_mode=mode)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            SweepGrid(cfg.plants, cfg.products, cfg.sweep_betas, mode)
        assert str(info.value) == message
        with pytest.raises(ConfigError) as info:
            replace(cfg, water_mode=mode)
        assert str(info.value) == f"water_mode: {message}"

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            NetworkTransfer(Quantity(-1, "km"))

    @pytest.mark.parametrize("distance", [(1e308, "km"), (1e306, "km")])
    def test_distance_that_overflows_in_meters_rejected(self, distance):
        with pytest.raises(DomainError, match="transfer distance must be finite in km and m"):
            NetworkTransfer(Quantity(*distance))

    def test_distance_of_another_dimension_names_the_field(self):
        with pytest.raises(UnitError, match="distance must be a length, got 'kg'"):
            NetworkTransfer(Quantity(150, "kg"))

    def test_distance_is_converted_once_at_construction(self):
        mode = NetworkTransfer(Quantity(150_000, "m"))
        assert (mode.km, mode.m) == (150.0, 150_000.0)
        assert mode == NetworkTransfer(Quantity(150_000, "m"))
        assert repr(mode) == "NetworkTransfer(distance=Quantity(magnitude=150000.0, unit='m'))"


class TestCapital:
    def test_desalination_reference_case(self):
        assert water_capital(Desalination(), 188.0, econ()) == pytest.approx(37.6e6, rel=1e-12)

    def test_transfer_zero_distance_is_free(self):
        assert water_capital(NetworkTransfer(Quantity(0, "km")), 188.0, econ()) == 0.0

    def test_transfer_linear_in_distance_not_capacity(self):
        def cap(w, d):
            return water_capital(NetworkTransfer(Quantity(d, "km")), w, econ())
        # c_tw is per meter of pipe: the capacity does not size it
        assert cap(188.0, 250) == 160 * 250e3
        assert cap(376.0, 250) == cap(188.0, 250)
        assert cap(188.0, 500) == pytest.approx(2 * cap(188.0, 250), rel=1e-12)

    def test_solar_capital_is_capacity_times_c_sw(self):
        assert water_capital(SolarSeawater(), 188.0, econ(c_sw=1e5)) == pytest.approx(1.88e7)


class TestOperational:
    def test_desalination_reference_day(self):
        # 47 ton/h captured at 2 m3 per ton is a constant 94 m3/h for 24 h, at segment 2
        # power 357.2 kW and $0.25/kWh
        cost = water_operational(Desalination(), 188.0, ((47.0, 24),), 2.0, econ())
        assert cost == pytest.approx(2143.2, rel=1e-12)

    def test_solar_mode_costs_nothing(self):
        assert water_operational(SolarSeawater(), 188.0, ((94.0, 24),), 2.0, econ()) == 0.0

    def test_zero_flow_costs_nothing(self):
        for mode in (Desalination(), NetworkTransfer(Quantity(100, "km"))):
            assert water_operational(mode, 188.0, ((0.0, 24),), 2.0, econ()) == 0.0

    def test_transfer_monotone_in_friction(self):
        mode = NetworkTransfer(Quantity(100, "km"))
        costs = [water_operational(mode, 188.0, ((75.0, 24),), 2.0, econ(r_w_per_100km=r))
                 for r in (1e-4, 2e-4, 4e-4, 8e-4)]
        assert costs == sorted(costs)


def price_every_hour(mode, w_max, flow, econ):
    """Oracle for ``water_operational``: prices each hour on its own."""
    if isinstance(mode, SolarSeawater):
        return 0.0
    total = 0.0
    for f in flow:
        if isinstance(mode, Desalination):
            total += econ.elec_price * desal_power(f, w_max, econ)
        else:
            total += econ.elec_price * pump_power(f, effective_r_w(econ, mode.km),
                                                  econ.eta_pump)
    return total


def outcome(fn):
    """The float ``fn`` returns, bit for bit, or the error it raises."""
    try:
        return fn().hex()
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)


# hourly flow as a fraction of w_max: segment boundaries, signed zeros, anything
fractions = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
# a day as runs of equal flows, cut to 24 hours
runs = st.lists(st.tuples(fractions, st.integers(1, 24)), min_size=1, max_size=24)
modes = st.sampled_from([Desalination(), SolarSeawater()]) | st.builds(
    NetworkTransfer, st.builds(Quantity, st.floats(0.0, 1000.0), st.just("km")))


def day(run_list):
    """The runs repeated and cut to a 24-hour day, as (fraction, hours) runs; two
    neighbours may carry equal fractions."""
    runs, left, repeated = [], 24, itertools.cycle(run_list)
    while left:
        x, n = next(repeated)
        n = min(n, left)
        runs.append((x, n))
        left -= n
    return tuple(runs)


class TestRunsPricedOnce:
    """A run of equal hourly flows is priced once and added once per hour."""

    @settings(max_examples=300, deadline=None)
    @given(mode=modes, run_list=runs, w_max=st.floats(1e-3, 1e4),
           elec=st.floats(0.0, 1.0), r_w=st.floats(0.0, 1.0), eta=st.floats(0.05, 1.0))
    def test_equals_pricing_every_hour(self, mode, run_list, w_max, elec, r_w, eta):
        e = econ(elec_price=elec, r_w_per_100km=r_w, eta_pump=eta)
        # a fraction x of the day's peak carries the flow k * x = w_max * x
        captured = day(run_list)
        hours = [w_max * x for x, n in captured for _ in range(n)]
        assert len(hours) == 24
        assert (outcome(lambda: water_operational(mode, w_max, captured, w_max, e))
                == outcome(lambda: price_every_hour(mode, w_max, hours, e)))

    @example(f=5e-324, w=1e300)   # f / w rounds to 0
    @given(f=st.floats(0.0, 1e4, exclude_min=True), w=st.floats(1e-3, 1e300))
    def test_segment_matches_the_ceiling_form(self, f, w):
        f = min(f, w)
        assert desal_segment(f, w) == max(1, math.ceil(4.0 * f / w))
