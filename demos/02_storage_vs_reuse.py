# Store the captured carbon, or turn it into methane, methanol or ethanol?
# Sweeps every (plant, product, reuse fraction) cell of the calibrated preset,
# prints the decision table, then each plant's answer from `decide`.

import ewhnexus as ew
from ewhnexus.analysis import decide
from ewhnexus.cli import main

cfg = ew.paper_2024()

main(["--config", "paper-2024", "--command", "sweep"])   # prints the sweep table
print()

# decide prices each column at its optimal reuse fraction, not only at the grid's
for r in decide(cfg):
    if r["question"] in ("fate", "product"):
        print(f"{r['plant']:<12} {r['question']:<8} {r['winner']} at beta={r['beta']:g} "
              f"beats {r['runner_up']} by {r['gap_usd_per_day'] / 1e3:,.1f} k$/day")

# A single cell comes with its itemized ledger.
result = ew.total_daily_cost(cfg.scenario(cfg.plant("biomass"), cfg.product("methanol"), 1.0))
print("\nbiomass / methanol / beta=1 ledger:")
for item in result.ledger.items:
    print(f"  {item.label:<36} {item.amount / 1e6:12.3f} M{item.unit}")
