# How much hydrogen, water and product does it take to reuse a power plant's
# captured carbon?  Walks the sizing chain for the three reference plants.

import ewhnexus as ew

cfg = ew.paper_2024()

# ---------------------------------------------------------------
# Full-load carbon streams
# ---------------------------------------------------------------
print("Carbon emissions at full load")
for plant in cfg.plants:
    print(f"  {plant.name:<12} {plant.cbar:6.0f} ton/h ({plant.cbar_day:7.0f} ton/day)")

# ---------------------------------------------------------------
# Stoichiometric ratios per kg of reused CO2, computed once per product
# ---------------------------------------------------------------
print("\nPer kg of CO2 reused")
for product in cfg.products:
    print(f"  {product.name:<9} H2 {product.xi_h * 1000:6.1f} g   "
          f"feed water {product.water_demand:5.3f} L   product {product.xi_chi * 1000:6.1f} g")

# ---------------------------------------------------------------
# Section sizing at full reuse (beta = 1)
# ---------------------------------------------------------------
print("\nSection sizing at beta = 1  (H2 ton/h | water m3/h | product ton/h)")
for product in cfg.products:
    print(f"  {product.name}")
    for plant in cfg.plants:
        h2, water, chem = ew.nexus_rates(plant, product, 1.0)
        print(f"    {plant.name:<12} {h2.value_in('ton/h'):6.1f} | "
              f"{water.value_in('m3/h'):6.1f} | {chem.value_in('ton/h'):6.1f}")

# The wind farm is sized so its average output covers the electrolyzer load;
# its capital is the power-capital row of a full-reuse scenario's ledger.
plant, methane = cfg.plant("biomass"), cfg.product("methane")
h2, _, _ = ew.nexus_rates(plant, methane, 1.0)
ledger = ew.total_daily_cost(cfg.scenario(plant, methane, 1.0)).ledger
capital = next(i.amount for i in ledger.items if i.term == "power-capital")   # [$]
demand_kw = cfg.econ.xi_p * h2.value_in("kg/h")
print(f"\nBiomass/methane electrolyzer demand: {demand_kw / 1e6:.2f} GW "
      f"-> wind capital ${capital / 1e9:.2f} B")
