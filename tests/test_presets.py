"""Calibration resolution: how a preset turns into per-plant parameters, and the two
forms of it that the benchmark harness calls."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ewhnexus.analysis import SweepCell, SweepGrid, scenario_sweep
from ewhnexus.config import Calibration, ConfigError, paper_2024
from ewhnexus.conversion import METHANE, ProductSpec, _reuse_rates, nexus_rates
from ewhnexus.economics import ScenarioConfig, total_daily_cost
from ewhnexus.presets import econ_for_cell, resolver
from ewhnexus.quantities import DomainError, EconParams, PlantSpec, Quantity
from ewhnexus.water import (
    Desalination, NetworkTransfer, SolarSeawater, water_capital,
)


CFG = paper_2024()


class TestEconFor:
    def test_capture_capital_spread_over_daily_mass(self):
        # one fixed build cost divided by ton/day at full load
        for name, daily_tons in (("biomass", 2760.0), ("natural_gas", 5880.0),
                                 ("coal", 9840.0)):
            econ = CFG.econ_for(CFG.plant(name))
            assert econ.c_ccs == pytest.approx(120.0e6 / daily_tons, rel=1e-12)

    def test_friction_coefficient_override_per_plant(self):
        biomass = CFG.econ_for(CFG.plant("biomass"))
        coal = CFG.econ_for(CFG.plant("coal"))
        assert biomass.r_w_per_100km == pytest.approx(0.197942215748327)
        assert coal.r_w_per_100km == pytest.approx(0.0028758166332518258)
        assert biomass.r_w_per_100km > coal.r_w_per_100km  # wider pipe, less friction

    def test_pipe_cost_counted_once_per_meter(self):
        plant = CFG.plant("biomass")
        econ = CFG.econ_for(plant)
        w_max = nexus_rates(plant, METHANE, 1.0)[1].value_in("m3/h")
        mode = NetworkTransfer(Quantity(61, "km"))
        assert water_capital(mode, w_max, econ) == 160.0 * 61_000.0

    def test_storage_cell_keeps_base_pipe_cost(self):
        econ = CFG.econ_for(CFG.plant("biomass"))
        assert econ.c_tw == 160.0

    def test_unknown_plant_keeps_base_friction(self):
        from ewhnexus.quantities import PlantSpec, Quantity
        other = PlantSpec("lignite", Quantity(300, "MW"), Quantity(900, "g/kWh"))
        econ = CFG.econ_for(other)
        assert econ.r_w_per_100km == 2.0e-4
        assert econ.c_ccs == pytest.approx(120.0e6 / (300000 * 0.9 / 1000 * 24), rel=1e-9)


class TestCellCopy:
    """``econ_for`` gives what ``dataclasses.replace`` gives, built once per plant."""

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
           r_w=st.dictionaries(st.sampled_from(["biomass", "coal", "lignite"]),
                               st.floats(0.0, 1.0)),
           plant=st.sampled_from(["biomass", "natural_gas", "coal"]))
    def test_equals_dataclasses_replace(self, ccs, r_w, plant):
        calibration = Calibration(ccs_capital_total=ccs, r_w_per_100km=r_w)
        # the config rules reject a calibration that names no plant, and no capture capital
        broken = [line for line, rejected in (
            ("calibration.r_w_per_100km.lignite: names no configured plant "
             "(plants: ['biomass', 'coal', 'natural_gas'])", "lignite" in r_w),
            ("econ.c_ccs: required unless calibration.ccs_capital_total is given "
             "(no defensible default exists)", ccs is None)) if rejected]
        if broken:
            with pytest.raises(ConfigError) as info:
                replace(CFG, calibration=calibration)
            assert str(info.value) == "\n  ".join(broken)
            return
        cfg = replace(CFG, calibration=calibration)
        spec = cfg.plant(plant)

        def replaced():
            updates = {}
            if ccs is not None:
                updates["c_ccs"] = ccs / (spec.cbar * 24.0)
            if plant in r_w:
                updates["r_w_per_100km"] = r_w[plant]
            return replace(cfg.econ, **updates)

        expected = self.outcome(replaced)
        assert self.outcome(lambda: cfg.econ_for(spec)) == expected
        if isinstance(expected, list):
            assert cfg.econ_for(spec) == replaced()

    def test_a_configured_plant_gets_one_object_built_with_the_config(self, monkeypatch):
        built = [CFG.econ_for(plant) for plant in CFG.plants]
        checks = []
        post_init = EconParams.__post_init__
        monkeypatch.setattr(EconParams, "__post_init__",
                            lambda econ: checks.append(econ) or post_init(econ))
        for plant, econ in zip(CFG.plants, built):
            assert CFG.econ_for(plant) is econ
        assert checks == []
        lignite = TestResolver.PLANTS[-1]   # no plant of CFG: calibrated on each call
        assert CFG.econ_for(lignite) == CFG.econ_for(lignite)
        assert len(checks) == 2

    def test_a_replaced_config_is_calibrated_again(self):
        cfg = replace(CFG, econ=replace(CFG.econ, c_sw=123456.0))
        for plant in cfg.plants:
            assert cfg.econ_for(plant).c_sw == 123456.0
            assert cfg.econ_for(plant) == replace(CFG.econ_for(plant), c_sw=123456.0)

    def test_a_config_with_a_failing_plant_cannot_be_built(self):
        with pytest.raises(ConfigError) as info:
            replace(CFG, plants=CFG.plants + (TestResolver.TINY,))
        assert str(info.value) == "plant 'tiny': calibrated c_ccs must be finite and >= 0, got inf"

    def test_non_finite_derived_cost_raises_the_replace_text(self):
        # a plant this small spreads the capture capital to an infinite c_ccs
        tiny = PlantSpec("tiny", Quantity(1, "kW"), Quantity(1e-310, "kg/kWh"))
        expected = (DomainError, "c_ccs must be finite and >= 0, got inf")
        assert self.outcome(
            lambda: replace(CFG.econ, c_ccs=120.0e6 / (tiny.cbar * 24.0))) == expected
        assert self.outcome(lambda: CFG.econ_for(tiny)) == expected


class TestResolver:
    """A sweep's resolver, ``cfg.econ_for``, calibrates each plant as that plant."""

    # coal's name twice: a cache keyed by name would hand the second the first's c_ccs
    PLANTS = CFG.plants + (PlantSpec("coal", Quantity(500, "MW"), Quantity(410, "g/kWh")),
                           PlantSpec("lignite", Quantity(300, "MW"), Quantity(900, "g/kWh")))
    # so small that the capture capital spread over its daily mass overflows
    TINY = PlantSpec("tiny", Quantity(1e-305, "kW"), Quantity(820, "g/kWh"))

    def test_plants_sharing_a_name_get_their_own_costs(self):
        coal, half_coal = CFG.plant("coal"), self.PLANTS[3]
        assert CFG.econ_for(half_coal).c_ccs == 2.0 * CFG.econ_for(coal).c_ccs

    def test_a_failing_calibration_errs_every_cell_of_its_plant(self):
        grid = SweepGrid((CFG.plant("coal"), self.TINY), CFG.products, (0.5, 1.0),
                         CFG.water_mode)
        cells = scenario_sweep(grid, CFG.econ, CFG.econ_for)
        assert all(c.error is None for c in cells if c.plant == "coal")
        errors = [c.error for c in cells if c.plant == "tiny"]
        assert errors == [f"cell (tiny, {q}, beta={b:g}): c_ccs must be finite and >= 0, got inf"
                          for q, b in [("-", 0.0)] + [(p.name, b) for p in CFG.products
                                                      for b in (0.5, 1.0)]]


def sweep_oracle(grid: SweepGrid, resolve) -> tuple[SweepCell, ...]:
    """``scenario_sweep`` with the resolver ``resolve``, one checked scenario per cell."""
    cells = []
    for plant in grid.plants:
        for product, beta in [(None, 0.0)] + [(p, b) for p in grid.products
                                              for b in sorted(grid.betas)]:
            name = product.name if product is not None else ""
            try:
                result = total_daily_cost(ScenarioConfig(
                    plant=plant, econ=resolve(plant), beta=beta,
                    product=product, water_mode=grid.water_mode))
            except (DomainError, ValueError) as exc:
                cells.append(SweepCell(plant.name, name, beta, error=(
                    f"cell ({plant.name}, {name or '-'}, beta={beta:g}): {exc}")))
            else:
                cells.append(SweepCell(plant.name, name, beta, result=result))
    return tuple(cells)


water_modes = st.sampled_from([Desalination(), SolarSeawater()]) | st.builds(
    NetworkTransfer, st.builds(Quantity, st.floats(0.0, 1000.0), st.just("km")))
# no config prices it, so each of its reuse cells fails on its revenue term
FORMIC_ACID = ProductSpec("formic_acid", {"C": 1, "H": 2, "O": 2})


class TestSweepPerPlant:
    """A sweep calibrates per plant and sets up each column once, and gives what per-cell
    calibration and checks give, bit for bit, a failing column's errors included."""

    @settings(max_examples=100, deadline=None)
    @given(plants=st.lists(st.sampled_from(TestResolver.PLANTS + (TestResolver.TINY,)),
                           min_size=1, max_size=5),
           products=st.lists(st.sampled_from(CFG.products + (FORMIC_ACID,)), min_size=1,
                             max_size=3, unique_by=lambda p: p.name),
           betas=st.lists(st.sampled_from([0.5, 1.0, 5e-324])
                          | st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=4, unique=True),
           mode=water_modes, c_sw=st.none() | st.just(2.5e5), hydrogen=st.booleans(),
           no_c_ccs=st.sets(st.sampled_from(["biomass", "natural_gas", "coal", "lignite"])))
    # each of the three unset costs fails a column: c_ccs, c_sw, then a product's price
    @example(plants=[CFG.plants[0], CFG.plants[2]], products=[FORMIC_ACID, METHANE],
             betas=[0.5, 1.0], mode=SolarSeawater(), c_sw=None, hydrogen=True,
             no_c_ccs={"coal"})
    @example(plants=[CFG.plants[1]], products=[METHANE, FORMIC_ACID], betas=[1.0],
             mode=Desalination(), c_sw=None, hydrogen=False, no_c_ccs=set())
    def test_equals_a_loop_of_checked_cells(self, plants, products, betas, mode, c_sw,
                                            hydrogen, no_c_ccs):
        # the plants named in no_c_ccs have no capture capital
        cfg = replace(CFG, econ=replace(CFG.econ, c_sw=c_sw, include_hydrogen_capital=hydrogen))

        def resolve(plant):
            econ = cfg.econ_for(plant)
            return replace(econ, c_ccs=None) if plant.name in no_c_ccs else econ

        grid = SweepGrid(plants, products, betas, mode)
        assert repr(scenario_sweep(grid, cfg.econ, resolve)) == repr(sweep_oracle(grid, resolve))

    @pytest.mark.parametrize("mode", [
        Desalination(), SolarSeawater(), NetworkTransfer(Quantity(150.0, "km")),
    ], ids=["desalination", "solar", "transfer"])
    def test_a_denormal_reuse_fraction_evaluates(self, mode):
        # the per-cell pipe calibration divided by W and overflowed to c_tw = inf here
        cfg = replace(CFG, econ=replace(CFG.econ, c_sw=2.5e5))
        cells = scenario_sweep(SweepGrid(cfg.plants, cfg.products, (5e-324,), mode),
                               cfg.econ, cfg.econ_for)
        assert [c.error for c in cells] == [None] * 12


class TestPerMeterPipe:
    """Pricing the pipe per meter moves the old calibrated capital by at most 2 ulp."""

    @settings(max_examples=500, deadline=None)
    @given(plant=st.sampled_from(CFG.plants), product=st.sampled_from(CFG.products),
           beta=st.sampled_from([0.5, 1.0]) | st.floats(1e-300, 1.0),
           d_km=st.floats(0.0, 1000.0))
    def test_within_two_ulp_of_the_calibrated_form(self, plant, product, beta, d_km):
        # beta >= 1e-300 keeps W a normal float, where the old quotient 160 / W is finite
        mode = NetworkTransfer(Quantity(d_km, "km"))
        result = total_daily_cost(ScenarioConfig(plant=plant, econ=CFG.econ_for(plant),
                                                 beta=beta, product=product, water_mode=mode))
        [new] = [i.amount for i in result.ledger.items if i.term == "water-capital"]
        w = _reuse_rates(product, plant.cbar, beta)[1]
        old = w * (160.0 / w) * mode.m
        assert abs(new - old) <= 2 * math.ulp(old)
        if beta in (0.5, 1.0):   # the preset's sweep cells: the same bits
            assert new == old



# capacity so large that every reuse cell overflows to an error cell
HUGE = PlantSpec("huge", Quantity(1e302, "MW"), Quantity(230, "g/kWh"))


@st.composite
def configs(draw):
    """The preset with drawn plants, products, betas and water mode; every draw is valid."""
    plants = draw(st.lists(st.sampled_from(CFG.plants + (TestResolver.PLANTS[-1], HUGE)),
                           min_size=1, max_size=4, unique_by=lambda p: p.name))
    products = draw(st.lists(st.sampled_from(CFG.products), max_size=3,
                             unique_by=lambda p: p.name))
    betas = draw(st.lists(st.sampled_from([0.5, 1.0, 5e-324])
                          | st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=3, unique=True))
    named = {p.name for p in plants}
    r_w = {k: v for k, v in CFG.calibration.r_w_per_100km.items() if k in named}
    return replace(CFG, plants=tuple(plants), products=tuple(products),
                   sweep_betas=tuple(betas), water_mode=draw(water_modes),
                   econ=replace(CFG.econ, c_sw=2.5e5),
                   calibration=Calibration(CFG.calibration.ccs_capital_total, r_w))


class TestConfigFactory:
    """A config's ``scenario`` and ``sweep`` build what a caller used to build by hand."""

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs(), data=st.data())
    def test_scenario_is_the_hand_built_cell(self, cfg, data):
        # a plant of the config, or one it calibrates on the spot
        plant = data.draw(st.sampled_from(cfg.plants + TestResolver.PLANTS[3:]))
        product = data.draw(st.sampled_from((None,) + cfg.products))
        beta = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))

        def by_hand():
            return ScenarioConfig(plant=plant, econ=cfg.econ_for(plant), beta=beta,
                                  product=product, water_mode=cfg.water_mode)

        def outcome(build):
            """The scenario's fields and its result's repr, or the error either raises."""
            try:
                scenario = build()
            except (DomainError, ValueError) as exc:
                return type(exc), str(exc)
            try:
                result = repr(total_daily_cost(scenario))
            except (DomainError, ValueError) as exc:
                result = (type(exc), str(exc))
            return [(f.name, getattr(scenario, f.name)) for f in fields(scenario)], result

        assert outcome(lambda: cfg.scenario(plant, product, beta)) == outcome(by_hand)

    @settings(max_examples=100, deadline=None)
    @given(cfg=configs())
    # each capital item of a reuse cell is finite, their sum overflows fsum
    @example(cfg=replace(CFG, plants=(HUGE,), sweep_betas=(0.3359375,),
                         calibration=Calibration(CFG.calibration.ccs_capital_total, {})))
    def test_sweep_is_the_hand_built_grid(self, cfg):
        grid = SweepGrid(cfg.plants, cfg.products, cfg.sweep_betas, cfg.water_mode)
        assert repr(cfg.sweep()) == repr(
            scenario_sweep(grid, cfg.econ, econ_resolver=cfg.econ_for))


def test_the_benchmark_forms_are_econ_for():
    # the benchmark harness calls these two; econ_for_cell ignores a product and beta
    resolve = resolver(CFG)
    for plant in CFG.plants:
        econ = CFG.econ_for(plant)
        assert econ_for_cell(CFG, plant) is econ_for_cell(CFG, plant, METHANE, 0.5) is econ
        assert resolve(plant) is econ
    grid = SweepGrid(CFG.plants, CFG.products, CFG.sweep_betas, CFG.water_mode)
    assert repr(scenario_sweep(grid, CFG.econ, econ_resolver=resolve)) == repr(CFG.sweep())
