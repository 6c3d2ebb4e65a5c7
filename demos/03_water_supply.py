# Building a desalination plant versus piping water from the network: where
# is the break-even distance, and how does the transfer bill split into pipe
# capital and pumping energy?

import ewhnexus as ew
from ewhnexus.analysis import decide, transfer_cost_curve

cfg = ew.paper_2024()

# ---------------------------------------------------------------
# decide's water row: the supply for each plant's best product
# ---------------------------------------------------------------
for r in decide(cfg):
    if r["question"] == "water":
        print(f"{r['plant']:<12} {r['winner']}: break-even pipe {r['breakeven_km']:.1f} km, "
              f"solar seawater ties at {r['c_sw_tie_usd_per_m3_h']:,.0f} $/(m3/h)")

# ---------------------------------------------------------------
# Transfer cost surface for the biomass plant
# ---------------------------------------------------------------
plant, methane = cfg.plant("biomass"), cfg.product("methane")
econ = cfg.econ_for(plant)
w_max = ew.nexus_rates(plant, methane, 1.0)[1].value_in("m3/h")
flows = [w_max * frac for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]

print(f"\nDaily transfer cost for biomass (capacity {w_max:.0f} m3/h)")
print(f"  {'d [km]':>7} {'f [m3/h]':>9} {'capital $/d':>12} {'pumping $/d':>12} {'total $/d':>10}")
for cell in transfer_cost_curve(plant, [60.0, 260.0, 300.0], flows, econ, methane):
    print(f"  {cell.distance_km:7.0f} {cell.flow_m3_h:9.1f} "
          f"{cell.capital_daily:12.0f} {cell.operational_daily:12.0f} "
          f"{cell.total_daily:10.0f}")
