"""Unit conversion, plant basics, profiles and ledger arithmetic."""

import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ewhnexus.quantities import (
    CostLedger, DomainError, EconParams, LedgerItem, PlantSpec, Quantity,
    TimeSeries, UNITS, UnitError,
)


def q(v, u):
    return Quantity(v, u)


class TestQuantityAlgebra:
    def test_conversion(self):
        assert q(500, "MW").value_in("kW") == 500000.0
        assert q(2, "km").value_in("m") == 2000.0
        assert q(1, "ton/h").value_in("kg/h") == 1000.0
        assert q(2760, "ton/day").value_in("ton/h") == 115.0

    def test_mismatched_conversion_rejected(self):
        with pytest.raises(UnitError):
            q(1, "kWh").value_in("kg")

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(UnitError):
                q(bad, "$")

    def test_unknown_unit_rejected(self):
        with pytest.raises(UnitError):
            q(1.0, "furlongs/fortnight")

    def test_unicode_volume_spelling_accepted(self):
        assert q(1, "m³/h").unit == "m3/h"

    @given(a=st.sampled_from(sorted(UNITS)), b=st.sampled_from(sorted(UNITS)),
           x=st.floats(0.1, 1e6))
    def test_conversion_defined_iff_base_units_match(self, a, b, x):
        qa = q(x, a)
        if UNITS[a][0] == UNITS[b][0]:
            qb = Quantity(qa.value_in(b), b)
            assert qb.unit == b
            assert qb.value_in(a) == pytest.approx(x, rel=1e-12)
        else:
            with pytest.raises(UnitError):
                qa.value_in(b)

    def test_each_dimension_has_one_base_unit_of_scale_one(self):
        bases = {base for base, _ in UNITS.values()}
        for base in bases:
            assert UNITS[base] == (base, (1, 1)), base

    @pytest.mark.parametrize("unit", sorted(u for u in UNITS if "/" in u))
    def test_a_compound_unit_is_its_parts(self, unit):
        # e.g. ton = 1000 kg and day = 24 h, so $/(ton/day) is 24/1000 $/(kg/h)
        def base_and_scale(name):
            if "/" not in name:
                base, scale = UNITS[name]
                return base, Fraction(*scale)
            num, den = name.split("/", 1)
            (num_base, num_scale), (den_base, den_scale) = (
                base_and_scale(num), base_and_scale(den.removeprefix("(").removesuffix(")")))
            den_base = f"({den_base})" if den.startswith("(") else den_base
            return f"{num_base}/{den_base}", num_scale / den_scale

        base, scale = UNITS[unit]
        assert (base, Fraction(*scale)) == base_and_scale(unit)


class TestCoreBuiltQuantity:
    def test_equals_the_checked_constructor(self):
        for value, unit in ((1.5, "$/day"), (-0.0, "$/kWh"), (2.0e-308, "$/ton")):
            built = Quantity._computed(value, unit)
            assert type(built) is Quantity and built == Quantity(value, unit)
            assert built.magnitude.hex() == value.hex()
            assert str(built) == str(Quantity(value, unit))

    @pytest.mark.parametrize("unit", ["$/day", "km"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_keeps_the_finiteness_check(self, value, unit):
        with pytest.raises(UnitError) as info:
            Quantity._computed(value, unit)
        with pytest.raises(UnitError) as checked:
            Quantity(value, unit)
        assert str(info.value) == str(checked.value) == f"magnitude must be finite, got {value!r}"


class TestSlottedQuantity:
    """``Quantity`` keeps its fields in slots and behaves as the dict-backed dataclass did."""

    BUILT = (Quantity(3, "MW"), Quantity._computed(-0.0, "$/kWh"), Quantity(2.5e-308, "m³"))

    @pytest.mark.parametrize("quantity", BUILT, ids=["checked", "computed", "normalized"])
    def test_equality_hash_repr_and_copies(self, quantity):
        fields = (quantity.magnitude, quantity.unit)
        assert repr(quantity) == f"Quantity(magnitude={fields[0]!r}, unit={fields[1]!r})"
        assert hash(quantity) == hash(fields)
        assert quantity == Quantity(*fields) and quantity != fields
        assert quantity != Quantity(fields[0] + 1.0, fields[1])
        for copied in (pickle.loads(pickle.dumps(quantity)), copy.copy(quantity),
                       copy.deepcopy(quantity)):
            assert type(copied) is Quantity and copied == quantity
            assert hash(copied) == hash(quantity)
            assert copied.magnitude.hex() == quantity.magnitude.hex()

    def test_frozen_and_without_an_instance_dict(self):
        quantity = Quantity(500, "MW")
        for name in ("magnitude", "unit"):
            with pytest.raises(FrozenInstanceError):
                setattr(quantity, name, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(quantity, name)
        # a new attribute has no slot; CPython 3.11's frozen-and-slotted __setattr__
        # refuses it with a TypeError from super() rather than FrozenInstanceError
        with pytest.raises((FrozenInstanceError, TypeError)):
            quantity.other = 1.0
        assert not hasattr(quantity, "__dict__")
        assert Quantity.__slots__ == ("magnitude", "unit")
        assert quantity == Quantity(500.0, "MW")


class TestPlantSpec:
    def test_emissions_at_capacity_reference_plants(self):
        # 500 MW at 230/490/820 g per kWh
        cases = [(230, 115.0), (490, 245.0), (820, 410.0)]
        for ef, expected in cases:
            plant = PlantSpec("p", q(500, "MW"), q(ef, "g/kWh"))
            assert plant.cbar == expected

    def test_emissions_linear_in_capacity_and_factor(self):
        base = PlantSpec("p", q(100, "MW"), q(300, "g/kWh")).cbar
        twice_cap = PlantSpec("p", q(200, "MW"), q(300, "g/kWh")).cbar
        twice_ef = PlantSpec("p", q(100, "MW"), q(600, "g/kWh")).cbar
        assert twice_cap == pytest.approx(2 * base, rel=1e-12)
        assert twice_ef == pytest.approx(2 * base, rel=1e-12)

    @given(cap=st.floats(1e-3, 1e7), cap_unit=st.sampled_from(["MW", "kW"]),
           ef=st.floats(1e-3, 1e4), ef_unit=st.sampled_from(["g/kWh", "kg/kWh"]),
           new_cap=st.floats(1e-3, 1e7))
    def test_cached_cbar_matches_the_conversion_oracle(self, cap, cap_unit, ef, ef_unit,
                                                       new_cap):
        def oracle(p):
            return p.capacity.value_in("kW") * p.emission_factor.value_in("kg/kWh") / 1000.0

        plant = PlantSpec("p", q(cap, cap_unit), q(ef, ef_unit))
        assert plant.cbar == oracle(plant)
        assert plant.cbar_day == oracle(plant) * 24
        resized = replace(plant, capacity=q(new_cap, cap_unit))
        assert resized.cbar == oracle(resized)
        assert resized.cbar_day == oracle(resized) * 24
        # derived, so equality and repr ignore it
        twin = PlantSpec("p", q(cap, cap_unit), q(ef, ef_unit))
        object.__setattr__(twin, "cbar", -1.0)
        assert twin == plant and repr(twin) == repr(plant)

    def test_zero_capacity_rejected(self):
        with pytest.raises(DomainError):
            PlantSpec("p", q(0, "MW"), q(230, "g/kWh"))

    def test_negative_emission_factor_rejected(self):
        with pytest.raises(DomainError):
            PlantSpec("p", q(500, "MW"), q(-1, "g/kWh"))

    @pytest.mark.parametrize("capacity, emission_factor, rates", [
        ((1e308, "MW"), (230, "g/kWh"), "inf kW and inf ton/h"),
        ((500, "MW"), (1e306, "kg/kWh"), "500000.0 kW and inf ton/h"),
    ], ids=["capacity", "carbon-rate"])
    def test_capacity_or_carbon_rate_that_overflows_names_the_plant(self, capacity,
                                                                   emission_factor, rates):
        with pytest.raises(DomainError) as info:
            PlantSpec("big", q(*capacity), q(*emission_factor))
        assert str(info.value) == ("plant 'big': capacity in kW and full-load carbon rate "
                                   f"must be finite, got {rates}")

    @pytest.mark.parametrize("capacity, emission_factor", [
        ((1e-300, "kW"), (1e-300, "kg/kWh")),
        ((500, "MW"), (5e-324, "g/kWh")),
    ], ids=["carbon-rate", "emission-factor-in-kg/kWh"])
    def test_carbon_rate_that_underflows_names_the_plant(self, capacity, emission_factor):
        with pytest.raises(DomainError) as info:
            PlantSpec("z", q(*capacity), q(*emission_factor))
        assert str(info.value) == ("plant 'z': full-load carbon rate must be positive, "
                                   "got 0.0 ton/h")

    def test_capacity_of_another_dimension_names_the_field(self):
        with pytest.raises(UnitError, match="capacity must be a power, got 'ton'"):
            PlantSpec("p", q(500, "ton"), q(230, "g/kWh"))

    def test_emission_factor_of_another_dimension_names_the_field(self):
        with pytest.raises(UnitError, match="emission_factor must be mass per energy, got 'kWh'"):
            PlantSpec("p", q(500, "MW"), q(230, "kWh"))


class TestTimeSeries:
    def test_full_load_profile_sums(self):
        series = TimeSeries((115,) * 24, "ton/h")
        assert len(series) == 24
        assert sum(series.values) == 2760.0

    def test_zero_profile(self):
        series = TimeSeries((0,) * 24, "ton/h")
        assert all(v == 0.0 for v in series.values)

    def test_gas_profile_sums(self):
        assert sum(TimeSeries((245,) * 24, "ton/h").values) == 5880.0

    def test_values_in_matches_the_scalar_conversion_per_step(self):
        series = TimeSeries((2760.0, 0.0, 115.5, 1e-3), "ton/day")
        assert series.values_in("ton/day") is series.values
        assert series.values_in("kg/h") == tuple(
            q(v, "ton/day").value_in("kg/h") for v in series.values)
        with pytest.raises(UnitError):
            series.values_in("m3/h")

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            TimeSeries((1.0, -0.5), "ton/h")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            TimeSeries((), "ton/h")


class TestCostLedger:
    def _items(self):
        rng = random.Random(7)
        items = [LedgerItem(f"i{k}", "t", "operational", rng.uniform(-1e6, 1e6), "$/day")
                 for k in range(50)]
        items += [LedgerItem(f"c{k}", "t", "capital", rng.uniform(0, 1e8), "$")
                  for k in range(20)]
        return items

    def test_totals_are_order_invariant(self):
        items = self._items()
        ledger = CostLedger(tuple(items))
        for seed in range(10):
            shuffled = items[:]
            random.Random(seed).shuffle(shuffled)
            other = CostLedger(tuple(shuffled))
            assert other.daily_total() == ledger.daily_total()
            assert other.capital_total() == ledger.capital_total()

    def test_totals_equal_item_sums_exactly(self):
        ledger = CostLedger(tuple(self._items()))
        assert ledger.daily_total() == math.fsum(
            i.amount for i in ledger.items if i.unit == "$/day")
        assert ledger.capital_total() == math.fsum(
            i.amount for i in ledger.items if i.unit == "$")

    @settings(max_examples=300, deadline=None)
    @given(items=st.lists(st.builds(
        LedgerItem, st.sampled_from(["a", "b"]), st.just("t"),
        st.sampled_from(["capital", "operational", "revenue"]),
        st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, 0.1]),
        st.sampled_from(["$", "$/day"])), max_size=12))
    @example(items=[LedgerItem("a", "t", "operational", 5.0, "$"),
                    LedgerItem("b", "t", "revenue", -2.5, "$"),
                    LedgerItem("a", "t", "capital", 1.5, "$/day")])
    def test_totals_are_the_fsums_of_each_rule(self, items):
        # a '$' item is stock whatever its kind; a '$/day' one counts to daily and its kind
        ledger, daily = CostLedger(tuple(items)), [i for i in items if i.unit == "$/day"]
        oracle = (math.fsum(i.amount for i in items if i.unit == "$"),
                  math.fsum(i.amount for i in daily),
                  math.fsum(i.amount for i in daily if i.kind == "operational"),
                  math.fsum(i.amount for i in daily if i.kind == "revenue"))
        assert [t.hex() for t in ledger.totals()] == [t.hex() for t in oracle]
        assert (ledger.capital_total(), ledger.daily_total(), ledger.operational_total(),
                ledger.revenue_total()) == oracle

    def test_non_finite_amount_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError) as info:
                LedgerItem("pipe", "t", "capital", bad, "$")
            assert str(info.value) == "ledger amount must be finite (pipe)"

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError) as info:
            LedgerItem("x", "t", "subsidy", 1.0, "$/day")
        assert str(info.value) == ("ledger kind must be one of ('capital', 'operational', "
                                   "'revenue'), got 'subsidy'")

    def test_bad_unit_rejected(self):
        with pytest.raises(DomainError) as info:
            LedgerItem("x", "t", "capital", 1.0, "M$")
        assert str(info.value) == "ledger unit must be '$' or '$/day', got 'M$'"

    def test_item_is_immutable_and_equal_by_value(self):
        item = LedgerItem("x", "t", "capital", 1.0, "$")
        for name in ("label", "term", "kind", "amount", "unit"):
            with pytest.raises(AttributeError):
                setattr(item, name, getattr(item, name))
        assert item == LedgerItem("x", "t", "capital", 1.0, "$")
        assert item != LedgerItem("x", "t", "capital", 2.0, "$")
        assert hash(item) == hash(LedgerItem("x", "t", "capital", 1.0, "$"))
        with pytest.raises(DomainError, match="finite"):
            item._replace(amount=math.inf)
        assert pickle.loads(pickle.dumps(item)) == item


class TestEconParams:
    def kwargs(self, **over):
        base = dict(elec_price=0.25, r_cts=15.0, r_ccs=45.0, c_cts=250.0,
                    c_wind=1030.0, c_des=2e5, c_tw=160.0,
                    wind_capacity_factor=0.423, eta_pump=0.9,
                    product_prices={"methane": 1400.0})
        base.update(over)
        return base

    def test_valid(self):
        econ = EconParams(**self.kwargs())
        assert econ.xi_p == 52.5 and econ.horizon_years == 20

    @pytest.mark.parametrize("over", [
        {"interest_rate": 1.0e10, "horizon_years": 100}, {"horizon_years": 100_000_000},
        {"interest_rate": 0.0, "horizon_years": 10 ** 306},   # 365 * 10^306 is no float
        {"interest_rate": 0.0, "horizon_years": 10 ** 400},   # 10^400 - 1 is no float
    ], ids=["rate", "horizon", "days", "int"])
    def test_a_capital_charge_that_overflows_rejected(self, over):
        # float ** raises OverflowError where it overflows, so the charge cannot be formed
        message = ("interest_rate and horizon_years overflow the capital charge "
                   "(1 + interest_rate)^(horizon_years - 1) / (365 horizon_years)")
        for build in (lambda: EconParams(**self.kwargs(**over)),
                      lambda: replace(EconParams(**self.kwargs()), **over)):
            with pytest.raises(DomainError) as info:
                build()
            assert str(info.value) == message
        # a factor that is finite is accepted, even if the charge it makes is not
        EconParams(**self.kwargs(interest_rate=1.0e10, horizon_years=31))

    def test_e_des_must_have_four_segments(self):
        with pytest.raises(DomainError):
            EconParams(**self.kwargs(e_des=(3.5, 3.8, 4.1)))

    def test_e_des_default_and_a_negative_segment(self):
        assert EconParams(**self.kwargs()).e_des == (3.5, 3.8, 4.1, 4.4)
        with pytest.raises(DomainError, match=r"^e_des\[2\] must be finite and >= 0, got -1\.0$"):
            EconParams(**self.kwargs(e_des=(3.5, -1.0, 4.1, 4.4)))

    def test_capacity_factor_bounds(self):
        with pytest.raises(DomainError):
            EconParams(**self.kwargs(wind_capacity_factor=0.0))
        with pytest.raises(DomainError):
            EconParams(**self.kwargs(wind_capacity_factor=1.2))

    def test_negative_cost_rejected(self):
        with pytest.raises(DomainError):
            EconParams(**self.kwargs(r_ccs=-1.0))

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["wind_capacity_factor", "eta_pump"])
    def test_a_fraction_keeps_its_own_range_message(self, name, value):
        # a fraction breaks the (0, 1] rule, not the non-negative one the other numbers keep
        with pytest.raises(DomainError) as info:
            EconParams(**self.kwargs(**{name: value}))
        assert str(info.value) == f"{name} must lie in (0, 1]"

    @pytest.mark.parametrize("name, value", [
        ("interest_rate", math.nan), ("interest_rate", math.inf), ("interest_rate", -math.inf),
        ("interest_rate", -0.01), ("horizon_years", math.nan), ("horizon_years", math.inf),
        ("horizon_years", -math.inf), ("horizon_years", 0), ("horizon_years", 2.5),
    ])
    def test_non_finite_or_out_of_range_financing_rejected(self, name, value):
        # horizon_years=1 once turned a NaN or infinite interest_rate into a finite cost
        with pytest.raises(DomainError, match=name):
            EconParams(**self.kwargs(**{"horizon_years": 1, name: value}))
