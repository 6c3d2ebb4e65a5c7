# What carbon penalty rate makes a plant owner act?  For each strategy the
# threshold is the penalty at which emitting-and-paying costs the same as
# running the retrofit; a negative threshold means the retrofit pays for
# itself before any penalty exists.

import ewhnexus as ew
from ewhnexus.analysis import ReuseAll, StoreAll, decide, penalty_threshold

cfg = ew.paper_2024()

print(f"{'plant':<12} {'strategy':<22} {'threshold $/ton':>15}")
for plant in cfg.plants:
    econ = cfg.econ_for(plant)
    thr = penalty_threshold(plant, StoreAll(), econ)
    print(f"{plant.name:<12} {'store everything':<22} {thr.value_in('$/ton'):15.2f}")
    for product in cfg.products:
        thr = penalty_threshold(plant, ReuseAll(product), econ, water_mode=cfg.water_mode)
        print(f"{'':<12} {'reuse all -> ' + product.name:<22} "
              f"{thr.value_in('$/ton'):15.2f}")

# decide's penalty row: the chosen retrofit's threshold next to its runner-up's
for r in decide(cfg):
    if r["question"] == "penalty":
        print(f"{r['plant']:<12} {r['winner']} {r['penalty_usd_per_ton']:.2f} $/ton against "
              f"{r['runner_up']} {r['runner_up_penalty_usd_per_ton']:.2f} $/ton")
