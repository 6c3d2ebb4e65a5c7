"""Calibration resolution: how a preset turns into per-cell parameters."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from ewhnexus.config import Calibration
from ewhnexus.conversion import METHANE, _reuse_rates, nexus_rates
from ewhnexus.presets import econ_for_cell, paper_2024, resolver
from ewhnexus.quantities import DomainError, EconParams, PlantSpec, Quantity


CFG = paper_2024()


class TestEconForCell:
    def test_capture_capital_spread_over_daily_mass(self):
        # one fixed build cost divided by ton/day at full load
        for name, daily_tons in (("biomass", 2760.0), ("natural_gas", 5880.0),
                                 ("coal", 9840.0)):
            econ = econ_for_cell(CFG, CFG.plant(name))
            assert econ.c_ccs == pytest.approx(120.0e6 / daily_tons, rel=1e-12)

    def test_friction_coefficient_override_per_plant(self):
        biomass = econ_for_cell(CFG, CFG.plant("biomass"))
        coal = econ_for_cell(CFG, CFG.plant("coal"))
        assert biomass.r_w_per_100km == pytest.approx(0.197942215748327)
        assert coal.r_w_per_100km == pytest.approx(0.0028758166332518258)
        assert biomass.r_w_per_100km > coal.r_w_per_100km  # wider pipe, less friction

    def test_pipe_cost_counted_once_per_meter(self):
        plant = CFG.plant("biomass")
        econ = econ_for_cell(CFG, plant, METHANE, 1.0)
        w_max = nexus_rates(plant, METHANE, 1.0)[1].value_in("m3/h")
        # the capacity-times-unit-cost product equals the per-meter pipe cost
        assert econ.c_tw * w_max == pytest.approx(160.0, rel=1e-12)

    def test_storage_cell_keeps_base_pipe_cost(self):
        econ = econ_for_cell(CFG, CFG.plant("biomass"))
        assert econ.c_tw == 160.0

    def test_unknown_plant_keeps_base_friction(self):
        from ewhnexus.quantities import PlantSpec, Quantity
        other = PlantSpec("lignite", Quantity(300, "MW"), Quantity(900, "g/kWh"))
        econ = econ_for_cell(CFG, other)
        assert econ.r_w_per_100km == 2.0e-4
        assert econ.c_ccs == pytest.approx(120.0e6 / (300000 * 0.9 / 1000 * 24), rel=1e-9)


class TestCellCopy:
    """``econ_for_cell`` copies the validated base instead of ``dataclasses.replace``."""

    @staticmethod
    def outcome(fn):
        """The EconParams ``fn`` returns as its fields, or the error it raises."""
        try:
            econ = fn()
        except (DomainError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        assert type(econ) is EconParams
        return [(f.name, getattr(econ, f.name)) for f in fields(econ)]

    @settings(max_examples=200, deadline=None)
    @given(ccs=st.none() | st.floats(0.0, 1e12),
           pipe=st.none() | st.floats(0.0, 1e6),
           r_w=st.dictionaries(st.sampled_from(["biomass", "coal", "lignite"]),
                               st.floats(0.0, 1.0)),
           plant=st.sampled_from(["biomass", "natural_gas", "coal"]),
           product=st.sampled_from([None, "methane", "methanol", "ethanol"]),
           beta=st.floats(0.0, 1.0))
    def test_equals_dataclasses_replace(self, ccs, pipe, r_w, plant, product, beta):
        cfg = replace(CFG, calibration=Calibration(ccs_capital_total=ccs,
                                                   pipe_cost_per_m=pipe,
                                                   r_w_per_100km=r_w))
        spec = cfg.plant(plant)
        prod = cfg.product(product) if product else None

        def replaced():
            updates = {}
            if ccs is not None:
                updates["c_ccs"] = ccs / (spec.cbar * 24.0)
            if plant in r_w:
                updates["r_w_per_100km"] = r_w[plant]
            if pipe is not None and prod is not None and beta > 0:
                updates["c_tw"] = pipe / _reuse_rates(prod, spec.cbar, beta)[1]
            return replace(cfg.econ, **updates)

        expected = self.outcome(replaced)
        assert self.outcome(lambda: econ_for_cell(cfg, spec, prod, beta)) == expected
        if isinstance(expected, list):
            assert econ_for_cell(cfg, spec, prod, beta) == replaced()

    bad = st.sampled_from([-1.0, -1e-300, math.nan, math.inf, -math.inf])

    @settings(max_examples=200, deadline=None)
    @given(updates=st.dictionaries(
        st.sampled_from(["c_ccs", "r_w_per_100km", "c_tw"]),
        st.floats(0.0, 1e9) | bad, min_size=1))
    def test_changed_fields_are_checked_with_the_same_text(self, updates):
        assert (self.outcome(lambda: CFG.econ.replace_costs(**updates))
                == self.outcome(lambda: replace(CFG.econ, **updates)))

    def test_non_finite_derived_cost_raises_the_replace_text(self):
        # a plant this small spreads the capture capital to an infinite c_ccs
        tiny = PlantSpec("tiny", Quantity(1, "kW"), Quantity(1e-310, "kg/kWh"))
        expected = (DomainError, "c_ccs must be finite and >= 0 when set")
        assert self.outcome(
            lambda: replace(CFG.econ, c_ccs=120.0e6 / (tiny.cbar * 24.0))) == expected
        assert self.outcome(lambda: econ_for_cell(CFG, tiny)) == expected


class TestResolver:
    """A sweep's resolver calibrates each plant once and answers as ``econ_for_cell``."""

    # coal's name twice: a cache keyed by name would hand the second the first's c_ccs
    PLANTS = CFG.plants + (PlantSpec("coal", Quantity(500, "MW"), Quantity(410, "g/kWh")),
                           PlantSpec("lignite", Quantity(300, "MW"), Quantity(900, "g/kWh")))

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(st.sampled_from(range(len(PLANTS))),
                                    st.sampled_from([None, "methane", "methanol", "ethanol"]),
                                    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                          min_size=1, max_size=30),
           pipe=st.sampled_from([None, 160.0]))
    def test_equals_econ_for_cell_field_for_field(self, cells, pipe):
        cfg = replace(CFG, calibration=replace(CFG.calibration, pipe_cost_per_m=pipe))
        resolve = resolver(cfg)
        for index, product, beta in cells:
            plant = self.PLANTS[index]
            prod = cfg.product(product) if product else None
            # fields, or the error of a cell whose tiny beta overflows c_tw
            assert (TestCellCopy.outcome(lambda: resolve(plant, prod, beta))
                    == TestCellCopy.outcome(lambda: econ_for_cell(cfg, plant, prod, beta)))

    def test_plants_sharing_a_name_get_their_own_costs(self):
        resolve = resolver(CFG)
        coal, half_coal = CFG.plant("coal"), self.PLANTS[3]
        assert resolve(coal, None, 0.0).c_ccs == econ_for_cell(CFG, coal).c_ccs
        assert resolve(half_coal, None, 0.0).c_ccs == econ_for_cell(CFG, half_coal).c_ccs
        assert resolve(half_coal, None, 0.0).c_ccs == 2.0 * resolve(coal, None, 0.0).c_ccs

    @pytest.mark.parametrize("product, beta", [(None, 0.0), (METHANE, 0.5), (METHANE, 1.5)])
    def test_a_failing_calibration_raises_what_econ_for_cell_raises(self, product, beta):
        # c_ccs and this cell's c_tw both overflow; econ_for_cell reports c_tw first
        tiny = PlantSpec("tiny", Quantity(1e-305, "kW"), Quantity(820, "g/kWh"))
        resolve = resolver(CFG)
        for _ in range(2):
            with pytest.raises(DomainError) as expected:
                econ_for_cell(CFG, tiny, product, beta)
            with pytest.raises(DomainError) as got:
                resolve(tiny, product, beta)
            assert str(got.value) == str(expected.value)
