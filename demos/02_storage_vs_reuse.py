# Store the captured carbon, or turn it into methane, methanol or ethanol?
# Sweeps every (plant, product, reuse fraction) cell of the calibrated preset
# and prints the decision table.

import ewhnexus as ew
from ewhnexus.cli import render_sweep_table, sweep_row

cfg = ew.paper_2024()

cells = cfg.sweep()   # the preset's plants, products, betas and water supply

print(render_sweep_table([sweep_row(c) for c in cells]))

# Negative daily cost means the product sales out-earn every cost including
# the annualized capital.  Methane does that at full reuse for all three
# plants; ethanol never does under these prices.
best = min((c for c in cells if c.result is not None),
           key=lambda c: c.result.daily_cost.value_in("$/day"))
print(f"cheapest cell: {best.plant} / {best.product or 'storage'} at beta={best.beta:g} "
      f"-> {best.result.daily_cost.value_in('$/day') / 1e6:+.3f} M$/day")

# A single cell comes with its itemized ledger.
result = ew.total_daily_cost(cfg.scenario(cfg.plant("biomass"), cfg.product("methane"), 1.0))
print("\nbiomass / methane / beta=1 ledger:")
for item in result.ledger.items:
    print(f"  {item.label:<36} {item.amount / 1e6:12.3f} M{item.unit}")
