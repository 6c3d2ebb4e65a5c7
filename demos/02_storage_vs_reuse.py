# Store the captured carbon, or turn it into methane, methanol or ethanol?
# Sweeps every (plant, product, reuse fraction) cell of the calibrated preset
# and prints the decision table.

import ewhnexus as ew
from ewhnexus.analysis import SweepGrid, scenario_sweep
from ewhnexus.cli import render_sweep_table, sweep_row
from ewhnexus.presets import resolver

cfg = ew.paper_2024()

grid = SweepGrid(plants=cfg.plants, products=cfg.products, betas=cfg.sweep_betas,
                 water_mode=cfg.water_mode)
cells = scenario_sweep(grid, cfg.econ, econ_resolver=resolver(cfg))

print(render_sweep_table([sweep_row(c) for c in cells]))

# Negative daily cost means the product sales out-earn every cost including
# the annualized capital.  Methane does that at full reuse for all three
# plants; ethanol never does under these prices.
best = min((c for c in cells if c.result is not None),
           key=lambda c: c.result.daily_cost.value_in("$/day"))
print(f"cheapest cell: {best.plant} / {best.product or 'storage'} at beta={best.beta:g} "
      f"-> {best.result.daily_cost.value_in('$/day') / 1e6:+.3f} M$/day")

# A single cell comes with its itemized ledger.
plant, product = cfg.plant("biomass"), cfg.product("methane")
econ = ew.econ_for_cell(cfg, plant)
result = ew.total_daily_cost(ew.ScenarioConfig(plant=plant, econ=econ, beta=1.0,
                                               product=product))
print("\nbiomass / methane / beta=1 ledger:")
for item in result.ledger.items:
    print(f"  {item.label:<36} {item.amount / 1e6:12.3f} M{item.unit}")
