"""Stoichiometry, nexus sizing, power/hydrogen capital H2 and product revenue."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from ewhnexus.config import paper_2024_reference
from ewhnexus.conversion import (
    BUILTIN_PRODUCTS, ETHANOL, INTEGER_MASSES, METHANE, METHANOL, STANDARD_MASSES, AtomicMasses,
    ProductSpec, chemical_revenue, hydrogen_capital, nexus_rates, power_capital,
)
from ewhnexus.quantities import DomainError, EconParams, PlantSpec, Quantity

BIOMASS = PlantSpec("biomass", Quantity(500, "MW"), Quantity(230, "g/kWh"))
COAL = PlantSpec("coal", Quantity(500, "MW"), Quantity(820, "g/kWh"))
BIOMASS_CBAR = BIOMASS.cbar   # 115 ton/h


def econ(**over):
    base = dict(elec_price=0.25, r_cts=15.0, r_ccs=45.0, c_cts=250.0, c_ccs=4e4,
                c_wind=1030.0, c_des=2e5, c_tw=160.0,
                wind_capacity_factor=0.423, eta_pump=0.9,
                product_prices={"methane": 1400.0, "methanol": 616.0, "ethanol": 493.0})
    base.update(over)
    return EconParams(**base)


# product -> the published kg H2 per kg CO2
XI_H = {e["product"]: float(e["value"]) for e in paper_2024_reference()
        if e["quantity"] == "xi_h"}


class TestStoichiometry:
    def test_methane_hydrogen_ratio(self):
        assert METHANE.xi_h == pytest.approx(XI_H["methane"], abs=5e-5)

    def test_methanol_and_ethanol_hydrogen_ratio(self):
        assert METHANOL.xi_h == pytest.approx(XI_H["methanol"], abs=5e-5)
        assert ETHANOL.xi_h == pytest.approx(XI_H["ethanol"], abs=5e-5)

    def test_methane_water_demand(self):
        # 1.64 liters of electrolysis feed water per kg CO2
        assert METHANE.water_demand == pytest.approx(1.64, abs=5e-3)

    def test_methane_product_ratio(self):
        assert METHANE.xi_chi == pytest.approx(16.0 / 44.0, rel=1e-12)

    def test_a_product_with_more_oxygen_than_its_co2_is_rejected(self):
        with pytest.raises(DomainError,
                           match=r"broken cannot be made from CO2 and H2 alone: .*'O': 3"):
            ProductSpec("broken", {"C": 1, "H": 2, "O": 3})

    @pytest.mark.parametrize("element, count", [
        ("C", 1.5), ("C", 1.0), ("C", "1"), ("C", True), ("C", -1), ("H", None), ("O", 0.4),
    ], ids=repr)
    def test_an_atom_count_that_is_not_an_int_at_least_zero_is_rejected(self, element, count):
        with pytest.raises(DomainError,
                           match=rf"atom count of '{element}' must be an int >= 0, got"):
            ProductSpec("odd", {"C": 1, "H": 4, element: count})

    def test_mass_conservation_per_kg_co2(self):
        for product in (METHANE, METHANOL, ETHANOL):
            mass_in = 1.0 + product.xi_h
            mass_out = product.xi_chi + product.water_byproduct
            assert mass_out == pytest.approx(mass_in, rel=1e-9)


# moles in the built-ins' reactions: (co2, h2, product, h2o)
REACTIONS = {"methane": (1, 4, 1, 2), "methanol": (1, 3, 1, 1), "ethanol": (2, 6, 1, 3)}


def assert_ratios_match_atomic_mass_formulas(product, reaction=None):
    am, f = product.atomic_masses, product.formula
    co2, h2, n, h2o = reaction or REACTIONS[product.name]
    m_co2 = am.C + 2.0 * am.O
    m_h2 = 2.0 * am.H
    m_h2o = 2.0 * am.H + am.O
    m_product = f.get("C", 0) * am.C + f.get("H", 0) * am.H + f.get("O", 0) * am.O
    assert product.xi_h == (h2 * m_h2) / (co2 * m_co2)
    assert product.xi_chi == (n * m_product) / (co2 * m_co2)
    assert product.water_demand == (h2 * m_h2o) / (co2 * m_co2)
    assert product.water_byproduct == (h2o * m_h2o) / (co2 * m_co2)


def balanced_reactions(c, h, o):
    """Every (co2, h2, product, h2o) of k CO2 + b H2 -> n P + e H2O with at most two
    product molecules that balances C, H and O, found by search."""
    moles = itertools.product((1, 2), range(1, 2 * c + 1), range(2 * h + 8 * c + 1),
                              range(4 * c + 1))
    return [(k, b, n, e) for n, k, b, e in moles
            if k == n * c and 2 * b == n * h + 2 * e and 2 * k == n * o + e]


class TestDerivedReaction:
    @given(c=st.integers(0, 5), h=st.integers(0, 12), o=st.integers(0, 12))
    def test_a_formula_builds_the_least_balanced_reaction_or_none(self, c, h, o):
        formula = {"C": c, "H": h, "O": o}
        found = balanced_reactions(c, h, o)
        try:
            spec = ProductSpec("p", formula)
        except DomainError as err:
            assert "cannot be made from CO2 and H2 alone" in str(err)
            assert c == 0 or 2 * c < o
            assert found == []
            return
        assert spec.formula == {el: v for el, v in formula.items() if v}
        # the fewest product molecules
        assert_ratios_match_atomic_mass_formulas(spec, min(found, key=lambda r: r[2]))
        assert 1.0 + spec.xi_h == pytest.approx(spec.xi_chi + spec.water_byproduct, rel=1e-9)


class TestCachedRatios:
    @pytest.mark.parametrize("masses", [INTEGER_MASSES, STANDARD_MASSES],
                             ids=["integer", "standard"])
    @pytest.mark.parametrize("builtin", [METHANE, METHANOL, ETHANOL], ids=lambda p: p.name)
    def test_builtin_ratios_are_bit_exact(self, builtin, masses):
        product = replace(builtin, atomic_masses=masses)
        assert_ratios_match_atomic_mass_formulas(product)
        assert product == ProductSpec(builtin.name, builtin.formula, masses)
        assert "xi_h" not in repr(product)

    @pytest.mark.parametrize("builtin", [METHANE, METHANOL, ETHANOL], ids=lambda p: p.name)
    def test_formula_is_read_only_and_equals_its_dict(self, builtin):
        # every loaded config shares the built-in products
        before = dict(builtin.formula)
        with pytest.raises(TypeError):
            builtin.formula["H"] = 99
        with pytest.raises(TypeError):
            del builtin.formula["C"]
        assert builtin.formula == before and BUILTIN_PRODUCTS[builtin.name].formula == before
        assert METHANE.formula == {"C": 1, "H": 4} != {"C": 1, "H": 5}

    @given(builtin=st.sampled_from([METHANE, METHANOL, ETHANOL]),
           c=st.floats(1e-3, 0.1), h=st.floats(1e-4, 0.01), o=st.floats(1e-3, 0.1))
    def test_ratios_are_bit_exact_for_any_mass_table(self, builtin, c, h, o):
        assert_ratios_match_atomic_mass_formulas(
            replace(builtin, atomic_masses=AtomicMasses(C=c, H=h, O=o)))


class TestNexusRates:
    def test_biomass_methane_full_reuse(self):
        h2, w, p = nexus_rates(BIOMASS, METHANE, 1.0)
        assert h2.value_in("ton/h") == pytest.approx(20.909, abs=1e-3)
        assert w.value_in("m3/h") == pytest.approx(188.18, abs=1e-2)
        assert p.value_in("ton/h") == pytest.approx(41.818, abs=1e-3)

    def test_coal_methanol_full_reuse(self):
        h2, w, p = nexus_rates(COAL, METHANOL, 1.0)
        assert h2.value_in("ton/h") == pytest.approx(56.34, abs=1e-2)
        assert p.value_in("ton/h") == pytest.approx(298.5, abs=0.1)

    def test_zero_beta_zeroes_everything(self):
        h2, w, p = nexus_rates(COAL, ETHANOL, 0.0)
        assert (h2.magnitude, w.magnitude, p.magnitude) == (0.0, 0.0, 0.0)

    def test_rates_homogeneous_in_beta(self):
        full = nexus_rates(BIOMASS, METHANOL, 1.0)
        half = nexus_rates(BIOMASS, METHANOL, 0.5)
        for f, h in zip(full, half):
            assert h.magnitude == pytest.approx(0.5 * f.magnitude, rel=1e-12)


class TestCapital:
    def test_power_capital_reference_case(self):
        # 21 ton/h of H2 at 52.5 kWh/kg through a 42.3% capacity factor
        cap = power_capital(21.0, econ())
        assert cap == pytest.approx(1030 * 52.5 * 21000 / 0.423, rel=1e-12)
        assert cap == pytest.approx(2.684e9, rel=1e-3)

    def test_power_capital_zero(self):
        assert power_capital(0.0, econ()) == 0.0

    def test_power_capital_linear(self):
        one = power_capital(10.0, econ())
        two = power_capital(20.0, econ())
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_hydrogen_capital_reference_case(self):
        cap = hydrogen_capital(METHANE, BIOMASS_CBAR, 1.0, econ(c_we=500.0))
        assert cap == pytest.approx(10.4545e6, rel=1e-4)

    def test_hydrogen_capital_zero_beta(self):
        assert hydrogen_capital(METHANE, BIOMASS_CBAR, 0.0, econ()) == 0.0

    def test_hydrogen_capital_linear_in_beta(self):
        full = hydrogen_capital(METHANE, BIOMASS_CBAR, 1.0, econ())
        half = hydrogen_capital(METHANE, BIOMASS_CBAR, 0.5, econ())
        assert half == pytest.approx(0.5 * full, rel=1e-12)


class TestRevenue:
    FULL_LOAD = ((BIOMASS_CBAR, 24),)   # one run of 24 hours at C̄ [ton/h]

    def test_methane_reference_day(self):
        rev = chemical_revenue(METHANE, self.FULL_LOAD, 1.0, econ())
        assert rev == pytest.approx(-1.405091e6, rel=1e-6)

    def test_ethanol_reference_day(self):
        rev = chemical_revenue(ETHANOL, self.FULL_LOAD, 1.0, econ())
        assert rev == pytest.approx(-493 * ETHANOL.xi_chi * 2760, rel=1e-12)
        assert rev == pytest.approx(-0.712e6, rel=2e-3)

    def test_zero_beta_no_revenue(self):
        assert chemical_revenue(METHANE, self.FULL_LOAD, 0.0, econ()) == 0.0

    def test_revenue_is_negative_cost(self):
        assert chemical_revenue(METHANE, self.FULL_LOAD, 0.7, econ()) < 0
