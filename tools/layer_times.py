"""Per-call times of ewhnexus's layers, by stdlib ``timeit``, on the shipped preset.

Run from the repository root (the package is imported from ``src/``):

    python tools/layer_times.py [--repeat 7] [--seconds 0.2]

Each row is timed in one process: ``timeit`` picks a loop count that runs for
about ``--seconds``, and the row prints the best of ``--repeat`` loops as
microseconds per call.  Rows cover the layers of ROADMAP aim 1 (quantity
construction and conversion, to another unit and to its own, a 24-step profile's
conversion, a pipe length in km, an ``EconParams`` build with its checks, each cost
term and the hourly fold they share, ``quantities.add_hourly``, on one 24-hour
run, a reuse cell's ``ScenarioConfig`` build and the preset's ``SweepGrid`` with their
input checks, the cell assembly, a reuse column's set-up and unset-cost checks
(``economics._column``) and the priced cell's result (``economics._result``) of
one column, the preset's sweep and one of grid-sweep's shape (3 plants x 3
products x 11 betas, 102 cells), a break-even query's build with its window
check, a break-even solve, config load (of the preset
and of a config file, whose text is read on every call) and dump, a fresh
interpreter's import of the package and of its CLI) and the CLI's path:
``cli.parse_args`` on a penalty call's flags, the row pricer
``economics._price_row`` of a reuse and a storage column, each renderer,
``cli.main`` on a penalty, break-even and scenario call (where parsing was the
largest share), on a penalty call that reads a config file, as most cli-batch
ops do, on a sweep in each format, on a CSV sweep of the preset in 150 km
transfer and in solar-seawater mode (config files written to a temporary
folder), and on the scorecard and ``decide``, which no benchmark workload runs.
The break-even rows time a solve with a root and one whose window holds none;
the penalty row prices a reuse-all threshold.
Times depend on the machine; compare two trees by running both on it,
alternately.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tempfile
import timeit
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ewhnexus import (analysis, ccss, cli, config, conversion, economics,  # noqa: E402
                      quantities, water)


def _interpreter(code: str) -> Callable[[], object]:
    """A call that runs ``code`` in a fresh interpreter that imports from ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True)


def rows() -> list[tuple[str, Callable[[], object]]]:
    """(label, call) for every row, each call set up on the preset and ready to time."""
    cfg = config.load_config("paper-2024")
    text = config._preset_text("paper-2024")
    plant, product = cfg.plant("coal"), cfg.product("methanol")
    econ = cfg.econ_for(plant)
    captured = ((plant.cbar, quantities.HOURS_PER_DAY),)
    w_max = product.water_demand * plant.cbar
    reuse = cfg.scenario(plant, product, 1.0)
    storage = cfg.scenario(plant, None, 0.0)
    query = analysis.BreakevenQuery(plant=plant, product=product)
    # wholly below the root (394 km), as the workload's solves without a crossing
    below = analysis.BreakevenQuery(plant=plant, product=product, distance_bounds=(1.0, 300.0))
    reuse_all = analysis.ReuseAll(product)
    quantity = quantities.Quantity(250.0, "$/ton")
    profile = quantities.TimeSeries([plant.cbar_day] * quantities.HOURS_PER_DAY, "ton/day")
    cells = cfg.sweep()
    commands = cli.COMMANDS
    sweep = commands["sweep"].rows(cli.parse_args(["--config", "paper-2024",
                                                   "--command", "sweep"]), cfg)
    reuse_column = economics._column(plant, econ, product, cfg.water_mode)
    storage_column = economics._column(plant, econ, None, cfg.water_mode)
    folder = tempfile.TemporaryDirectory()   # config files; kept by the calls that read them
    preset_file = Path(folder.name) / "preset.yaml"
    preset_file.write_text(text, encoding="utf-8")
    grid = analysis.SweepGrid(cfg.plants, cfg.products, tuple((i + 1) / 11 for i in range(11)),
                              cfg.water_mode)
    # a cli-batch penalty call's flags
    argv = ["--config", "paper-2024", "--command", "penalty", "--format", "csv",
            "--plant", "coal", "--product", "methanol"]
    curve = cli._curve_rows(cli.parse_args(["--config", "paper-2024", "--command", "curve",
                                            "--plant", "coal", "--distances", "0,50,100"]), cfg)
    record = cli._penalty_rows(cli.parse_args(argv), cfg)

    def no_crossing() -> analysis.NoCrossingError:
        try:
            analysis.breakeven_distance(below, econ)
        except analysis.NoCrossingError as exc:
            return exc
        raise AssertionError(f"{below} holds a break-even")

    def cli_main(fmt: str, command: str = "sweep", *flags: str,
                 source: str = "paper-2024") -> Callable[[], object]:
        argv = ["--config", source, "--command", command, "--format", fmt, *flags]

        def call():
            with redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return call

    def mode_sweep(name: str, variant: config.LoadedConfig) -> Callable[[], object]:
        """``cli.main sweep --format csv`` on ``variant``, dumped to a file in ``folder``."""
        path = Path(folder.name) / f"{name}.yaml"
        path.write_text(config.dump_config(variant), encoding="utf-8")
        return kept(cli_main("csv", source=str(path)))

    def kept(call: Callable[[], object]) -> Callable[[], object]:
        call.folder = folder   # a file in the folder lives as long as a call that reads it
        return call

    return [
        ("interpreter start", _interpreter("pass")),
        ("interpreter start + import ewhnexus", _interpreter("import ewhnexus")),
        ("interpreter start + import ewhnexus.cli", _interpreter("import ewhnexus.cli")),
        ("Quantity(250.0, '$/ton')", lambda: quantities.Quantity(250.0, "$/ton")),
        ("Quantity.value_in('$/kg')", lambda: quantity.value_in("$/kg")),
        ("Quantity.value_in('$/ton'), its own unit", lambda: quantity.value_in("$/ton")),
        ("TimeSeries.values_in('ton/h'), 24 ton/day steps", lambda: profile.values_in("ton/h")),
        ("water.pipe_length_m(100.0, 'km')", lambda: water.pipe_length_m(100.0, "km")),
        ("EconParams, one field replaced", lambda: replace(cfg.econ, c_wind=1030.0)),
        ("quantities.add_hourly, 24-hour run",
         lambda: quantities.add_hourly(0.0, plant.cbar, quantities.HOURS_PER_DAY)),
        ("ccss.ccss_capital", lambda: ccss.ccss_capital(1.0, plant.cbar_day, econ)),
        ("ccss.ccss_operational", lambda: ccss.ccss_operational(1.0, captured, econ)),
        ("water.water_capital", lambda: water.water_capital(cfg.water_mode, w_max, econ)),
        ("water.water_operational",
         lambda: water.water_operational(cfg.water_mode, w_max, captured,
                                         product.water_demand, econ)),
        ("conversion.power_capital",
         lambda: conversion.power_capital(product.xi_h * plant.cbar, econ)),
        ("conversion.hydrogen_capital",
         lambda: conversion.hydrogen_capital(product, plant.cbar, 1.0, econ)),
        ("conversion.chemical_revenue",
         lambda: conversion.chemical_revenue(product, captured, 1.0, econ)),
        ("ScenarioConfig, reuse cell",
         lambda: economics.ScenarioConfig(plant=plant, econ=econ, beta=1.0, product=product,
                                          water_mode=cfg.water_mode)),
        ("SweepGrid, the preset's grid",
         lambda: analysis.SweepGrid(cfg.plants, cfg.products, cfg.sweep_betas, cfg.water_mode)),
        ("total_daily_cost, reuse cell", lambda: economics.total_daily_cost(reuse)),
        ("total_daily_cost, storage cell", lambda: economics.total_daily_cost(storage)),
        ("economics._column, reuse column",
         lambda: economics._column(plant, econ, product, cfg.water_mode)),
        ("economics._result, reuse column", lambda: economics._result(reuse_column, 1.0)),
        ("economics._result, storage column", lambda: economics._result(storage_column, 0.0)),
        (f"LoadedConfig.sweep, {len(cells)} cells", cfg.sweep),
        ("scenario_sweep, 102 cells (grid-sweep's shape)",
         lambda: analysis.scenario_sweep(grid, cfg.econ, econ_resolver=cfg.econ_for)),
        ("BreakevenQuery, a window",
         lambda: analysis.BreakevenQuery(plant, product, (1.0, 300.0))),
        ("breakeven_distance", lambda: analysis.breakeven_distance(query, econ)),
        ("breakeven_distance, no crossing", no_crossing),
        ("penalty_threshold, reuse-all",
         lambda: analysis.penalty_threshold(plant, reuse_all, econ, cfg.water_mode)),
        ("load_config_text (parse and validate)", lambda: config.load_config_text(text)),
        ("load_config (cached)", lambda: config.load_config("paper-2024")),
        ("load_config, config file (cached text)",
         kept(lambda: config.load_config(preset_file))),
        ("dump_config", lambda: config.dump_config(cfg)),
        ("economics._price_row, reuse column", lambda: economics._price_row(reuse_column, 1.0)),
        ("economics._price_row, storage column",
         lambda: economics._price_row(storage_column, 0.0)),
        ("render sweep csv", lambda: cli.render_output(commands["sweep"], "csv", sweep)),
        ("render sweep table", lambda: cli.render_output(commands["sweep"], "table", sweep)),
        ("render sweep json", lambda: cli.render_output(commands["sweep"], "json", sweep)),
        ("render curve json", lambda: cli.render_output(commands["curve"], "json", curve)),
        ("render penalty table", lambda: cli.render_output(commands["penalty"], "table", record)),
        ("render penalty json", lambda: cli.render_output(commands["penalty"], "json", record)),
        ("cli.parse_args", lambda: cli.parse_args(argv)),
        ("cli.main penalty --format csv",
         cli_main("csv", "penalty", "--plant", "coal", "--product", "methanol")),
        ("cli.main penalty --format csv, config file",
         kept(cli_main("csv", "penalty", "--plant", "coal", "--product", "methanol",
                       source=str(preset_file)))),
        ("cli.main breakeven --format json", cli_main("json", "breakeven", "--plant", "coal")),
        ("cli.main scenario --format json",
         cli_main("json", "scenario", "--plant", "coal", "--product", "methanol",
                  "--beta", "0.5")),
        ("cli.main sweep --format csv", cli_main("csv")),
        ("cli.main sweep --format table", cli_main("table")),
        ("cli.main sweep --format json", cli_main("json")),
        ("cli.main sweep --format csv, 150 km transfer", mode_sweep("transfer", replace(
            cfg, water_mode=water.NetworkTransfer(quantities.Quantity(150.0, "km"))))),
        ("cli.main sweep --format csv, solar seawater", mode_sweep("solar", replace(
            cfg, econ=replace(cfg.econ, c_sw=2.5e5), water_mode=water.SolarSeawater()))),
        ("cli.main scorecard --format json", cli_main("json", "scorecard")),
        ("cli.main decide --format json", cli_main("json", "decide")),
    ]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=7, help="timing loops per row (best kept)")
    parser.add_argument("--seconds", type=float, default=0.2, help="length of one timing loop")
    args = parser.parse_args(argv)
    table = rows()
    width = max(len(label) for label, _ in table)
    print(f"{'row':<{width}}  {'us/call':>10}")
    for label, call in table:
        timer = timeit.Timer(call)
        number = max(1, round(args.seconds / max(timer.timeit(1), 1e-9)))
        best = min(timer.repeat(repeat=args.repeat, number=number)) / number
        print(f"{label:<{width}}  {best * 1e6:>10.1f}", flush=True)


if __name__ == "__main__":
    main()
