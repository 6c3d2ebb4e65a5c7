"""Capture, transfer and storage cost model; capital takes the daily carbon mass in ton/day,
operations the day's (carbon rate in ton/h, hours) runs."""

import pytest

from ewhnexus.ccss import ccss_capital, ccss_operational
from ewhnexus.economics import ScenarioConfig
from ewhnexus.quantities import DomainError, EconParams, PlantSpec, Quantity, TimeSeries, UnitError

BIOMASS = PlantSpec("biomass", Quantity(500, "MW"), Quantity(230, "g/kWh"))


def econ(**over):
    base = dict(elec_price=0.25, r_cts=15.0, r_ccs=45.0, c_cts=100.0, c_ccs=300.0,
                c_wind=1030.0, c_des=2e5, c_tw=160.0,
                wind_capacity_factor=0.423, eta_pump=0.9)
    base.update(over)
    return EconParams(**base)


CBAR = BIOMASS.cbar           # 115 ton/h
CBAR_DAY = BIOMASS.cbar_day   # 2760 ton/day
FULL_LOAD = ((CBAR, 24),)   # the day as one run of 24 equal hours


class TestPlan:
    def test_beta_bounds(self):
        ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.0)
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                ScenarioConfig(plant=BIOMASS, econ=econ(), beta=bad)


class TestCapital:
    def test_hand_computed_storage_case(self):
        # (100 + 300) $/ton-day on 2760 ton/day -> $1.104 M
        cap = ccss_capital(0.0, CBAR_DAY, econ())
        assert cap == pytest.approx(1.104e6, rel=1e-12)

    def test_full_reuse_drops_the_transfer_term(self):
        cap = ccss_capital(1.0, CBAR_DAY, econ())
        assert cap == pytest.approx(300.0 * 2760.0, rel=1e-12)

    def test_half_reuse_halves_only_the_transfer_term(self):
        c0 = ccss_capital(0.0, CBAR_DAY, econ())
        chalf = ccss_capital(0.5, CBAR_DAY, econ())
        c1 = ccss_capital(1.0, CBAR_DAY, econ())
        assert c0 - chalf == pytest.approx(0.5 * 100.0 * 2760.0, rel=1e-12)
        assert c0 - c1 == pytest.approx(100.0 * 2760.0, rel=1e-12)

    def test_scales_linearly_with_plant_size(self):
        small = PlantSpec("s", Quantity(250, "MW"), Quantity(230, "g/kWh"))
        assert ccss_capital(0.3, CBAR_DAY, econ()) == pytest.approx(
            2 * ccss_capital(0.3, small.cbar_day, econ()), rel=1e-12)


class TestOperational:
    def test_store_all_reference_day(self):
        cost = ccss_operational(0.0, FULL_LOAD, econ())
        assert cost == 165600.0  # exact: 2760 ton x (15+45)

    def test_reuse_all_drops_transfer(self):
        cost = ccss_operational(1.0, FULL_LOAD, econ())
        assert cost == 124200.0  # 2760 x 45

    def test_zero_series(self):
        assert ccss_operational(0.0, ((0.0, 24),), econ()) == 0.0

    def test_non_increasing_in_beta(self):
        costs = [ccss_operational(b, FULL_LOAD, econ())
                 for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert costs == sorted(costs, reverse=True)

    def test_beta_endpoints_differ_by_exactly_the_transfer_term(self):
        lo = ccss_operational(0.0, FULL_LOAD, econ())
        hi = ccss_operational(1.0, FULL_LOAD, econ())
        assert lo - hi == pytest.approx(2760.0 * 15.0, rel=1e-12)

    # the captured series is unit-checked where it enters, at ScenarioConfig
    def test_wrong_unit_series_rejected(self):
        flow = TimeSeries((10.0,) * 24, "m3/h")
        with pytest.raises(UnitError):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.0, capture_profile=flow)

    def test_wrong_length_series_rejected(self):
        short = TimeSeries((115.0,) * 12, "ton/h")
        with pytest.raises(DomainError):
            ScenarioConfig(plant=BIOMASS, econ=econ(), beta=0.0, capture_profile=short)
