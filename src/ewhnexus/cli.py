"""Command-line front end: validate a config, run one command, write tables.

Commands map one-to-one onto the analysis layer: ``scenario`` evaluates a
single cell, ``sweep`` the whole grid, ``breakeven`` the water-supply
break-even distance, ``curve`` the transfer cost surface and ``penalty`` a
carbon-penalty threshold.  Output is a human table, CSV or JSON.  Exit codes:
0 success, 2 invalid config or usage, 3 computation domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import analysis
from .config import ConfigError, LoadedConfig, load_config
from .conversion import _reuse_rates
from .economics import ScenarioConfig, total_daily_cost
from .presets import econ_for_cell, resolver
from .quantities import DomainError, UnitError

SWEEP_CSV_HEADER = ("plant,product,beta,capital_usd,operational_usd_per_day,"
                    "revenue_usd_per_day,daily_cost_usd_per_day,"
                    "increased_price_usd_per_kwh,carbon_penalty_usd_per_ton")

CURVE_CSV_HEADER = ("distance_km,flow_m3_per_h,capital_usd_per_day,"
                    "operational_usd_per_day,total_usd_per_day")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunManifest:
    """One CLI invocation: what to run, on which config, written where."""

    config_path: str
    command: str                     # scenario | sweep | breakeven | curve | penalty
    output_format: str = "table"     # table | csv | json
    output_path: str | None = None
    plant: str | None = None
    product: str | None = None
    beta: float | None = None
    distances: tuple[float, ...] = ()
    flows: tuple[float, ...] = ()


def _sweep_row(cell: analysis.SweepCell) -> dict:
    r = cell.result
    assert r is not None
    led = r.ledger
    return {
        "plant": cell.plant,
        "product": cell.product,
        "beta": cell.beta,
        "capital_usd": led.capital_total(),
        "operational_usd_per_day": led.operational_total(),
        "revenue_usd_per_day": led.revenue_total(),
        "daily_cost_usd_per_day": r.daily_cost.value_in("$/day"),
        "increased_price_usd_per_kwh": r.increased_price.value_in("$/kWh"),
        "carbon_penalty_usd_per_ton": r.carbon_penalty.value_in("$/ton"),
    }


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_sweep_csv(cells: Iterable[analysis.SweepCell]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for cell in cells:
        if cell.result is None:
            continue
        row = _sweep_row(cell)
        lines.append(",".join(_fmt_cell(row[k]) for k in SWEEP_CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def render_sweep_json(cells: Iterable[analysis.SweepCell]) -> str:
    return json.dumps([_sweep_row(c) for c in cells if c.result is not None], indent=2) + "\n"


def _musd(value: float) -> str:
    """Currency in millions with 4 significant digits."""
    return f"{value / 1e6:.4g}"


def render_sweep_table(cells: Iterable[analysis.SweepCell]) -> str:
    header = (f"{'plant':<12} {'product':<9} {'beta':>4}  {'capital':>9}  "
              f"{'op/day':>9}  {'rev/day':>9}  {'cost/day':>9}  "
              f"{'uplift':>8}  {'penalty':>8}")
    unit_row = (f"{'':<12} {'':<9} {'':>4}  {'M$':>9}  {'M$':>9}  {'M$':>9}  "
                f"{'M$':>9}  {'$/kWh':>8}  {'$/ton':>8}")
    lines = [header, unit_row, "-" * len(header)]
    for cell in cells:
        if cell.result is None:
            lines.append(f"{cell.plant:<12} {cell.product or '-':<9} {cell.beta:>4.2g}  "
                         f"error: {cell.error}")
            continue
        row = _sweep_row(cell)
        lines.append(
            f"{row['plant']:<12} {row['product'] or 'storage':<9} {row['beta']:>4.2g}  "
            f"{_musd(row['capital_usd']):>9}  "
            f"{_musd(row['operational_usd_per_day']):>9}  "
            f"{_musd(row['revenue_usd_per_day']):>9}  "
            f"{_musd(row['daily_cost_usd_per_day']):>9}  "
            f"{row['increased_price_usd_per_kwh']:>8.3f}  "
            f"{row['carbon_penalty_usd_per_ton']:>8.2f}")
    return "\n".join(lines) + "\n"


def render_curve_csv(cells: Iterable[analysis.CurveCell]) -> str:
    lines = [CURVE_CSV_HEADER]
    for c in cells:
        if c.error is not None:
            continue
        lines.append(",".join(_fmt_cell(v) for v in (
            c.distance_km, c.flow_m3_h, c.capital_daily, c.operational_daily, c.total_daily)))
    return "\n".join(lines) + "\n"


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = None
    if values is None or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag}: expected a comma-separated list of finite numbers, "
                          f"got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewhnexus",
        description="Techno-economic scenarios for carbon capture retrofits "
                    "with water, wind and hydrogen sections.")
    parser.add_argument("--config", required=True,
                        help="path to a YAML config, or a preset name such as 'paper-2024'")
    parser.add_argument("--command", required=True,
                        choices=("scenario", "sweep", "breakeven", "curve", "penalty"))
    parser.add_argument("--format", default="table", choices=("table", "csv", "json"))
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--plant", default=None, help="plant name from the config")
    parser.add_argument("--product", default=None, help="product name from the config")
    parser.add_argument("--beta", type=float, default=None, help="reuse fraction in [0, 1]")
    parser.add_argument("--distances", default=None,
                        help="comma-separated pipe distances [km] for 'curve'")
    parser.add_argument("--flows", default=None,
                        help="comma-separated water flows [m3/h] for 'curve'")
    return parser


def manifest_from_args(argv: Sequence[str]) -> RunManifest:
    args = build_parser().parse_args(argv)
    return RunManifest(
        config_path=args.config,
        command=args.command,
        output_format=args.format,
        output_path=args.out,
        plant=args.plant,
        product=args.product,
        beta=args.beta,
        distances=_parse_float_list(args.distances, "--distances") if args.distances else (),
        flows=_parse_float_list(args.flows, "--flows") if args.flows else (),
    )


def _require_plant(manifest: RunManifest, cfg: LoadedConfig):
    if manifest.plant is None:
        raise ConfigError(f"--plant is required for '{manifest.command}'")
    return cfg.plant(manifest.plant)


def _single_result_output(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        keys = list(payload)
        return (",".join(keys) + "\n" +
                ",".join(_fmt_cell(payload[k]) for k in keys) + "\n")
    width = max(len(k) for k in payload)
    return "".join(f"{k:<{width}}  {_fmt_cell(v)}\n" for k, v in payload.items())


def run(manifest: RunManifest) -> tuple[int, str, list[str]]:
    """Execute one manifest; returns (exit status, output, diagnostics).

    Diagnostics go to stderr, never into the rendered table, so a partially
    failing sweep still writes schema-clean output for the cells that ran.
    """
    cfg = load_config(manifest.config_path)

    if manifest.command == "sweep":
        grid = analysis.SweepGrid(plants=cfg.plants, products=cfg.products,
                                  betas=cfg.sweep_betas, water_mode=cfg.water_mode)
        cells = analysis.scenario_sweep(grid, cfg.econ, econ_resolver=resolver(cfg))
        failures = [c.error for c in cells if c.error is not None]
        if manifest.output_format == "csv":
            out = render_sweep_csv(cells)
        elif manifest.output_format == "json":
            out = render_sweep_json(cells)
        else:
            out = render_sweep_table(cells)
        return (EXIT_COMPUTE if failures else EXIT_OK), out, failures

    if manifest.command == "scenario":
        plant = _require_plant(manifest, cfg)
        if manifest.beta is not None and not 0.0 <= manifest.beta <= 1.0:
            raise ConfigError(f"--beta must lie in [0, 1], got {manifest.beta!r}")
        if manifest.product is not None and manifest.beta is None:
            raise ConfigError("--product needs --beta (reuse fraction in (0, 1])")
        beta = manifest.beta if manifest.beta is not None else 0.0
        product = cfg.product(manifest.product) if manifest.product else None
        econ = econ_for_cell(cfg, plant, product, beta)
        scenario = ScenarioConfig(plant=plant, econ=econ, beta=beta, product=product,
                                  water_mode=cfg.water_mode)
        result = total_daily_cost(scenario)
        cell = analysis.SweepCell(plant.name, product.name if product else "",
                                  beta, result=result)
        if manifest.output_format == "csv":
            return EXIT_OK, render_sweep_csv([cell]), []
        if manifest.output_format == "json":
            return EXIT_OK, render_sweep_json([cell]), []
        return EXIT_OK, render_sweep_table([cell]), []

    if manifest.command == "breakeven":
        plant = _require_plant(manifest, cfg)
        product = cfg.product(manifest.product) if manifest.product else cfg.product("methane")
        query = analysis.BreakevenQuery(plant=plant, product=product)
        distance = analysis.breakeven_distance(query, econ_for_cell(cfg, plant, product, 1.0))
        payload = {"plant": plant.name, "product": product.name,
                   "breakeven_distance_km": distance.value_in("km")}
        return EXIT_OK, _single_result_output(payload, manifest.output_format), []

    if manifest.command == "curve":
        plant = _require_plant(manifest, cfg)
        if not manifest.distances:
            raise ConfigError("--distances is required for 'curve'")
        product = cfg.product(manifest.product) if manifest.product else cfg.product("methane")
        econ = econ_for_cell(cfg, plant, product, 1.0)
        flows = manifest.flows
        if not flows:
            w_max = _reuse_rates(product, plant.cbar, 1.0)[1]
            flows = tuple(w_max * frac for frac in (0.0, 0.25, 0.5, 0.75, 1.0))
        cells = analysis.transfer_cost_curve(plant, manifest.distances, flows, econ,
                                             product=product)
        failures = [c.error for c in cells if c.error is not None]
        out = render_curve_csv(cells)
        if manifest.output_format == "json":
            out = json.dumps([
                {"distance_km": c.distance_km, "flow_m3_per_h": c.flow_m3_h,
                 "capital_usd_per_day": c.capital_daily,
                 "operational_usd_per_day": c.operational_daily,
                 "total_usd_per_day": c.total_daily}
                for c in cells if c.error is None], indent=2) + "\n"
        return (EXIT_COMPUTE if failures else EXIT_OK), out, failures

    if manifest.command == "penalty":
        plant = _require_plant(manifest, cfg)
        if manifest.product:
            product = cfg.product(manifest.product)
            strategy: analysis.Strategy = analysis.ReuseAll(product)
            econ = econ_for_cell(cfg, plant, product, 1.0)
            label = f"reuse-all ({product.name})"
        else:
            strategy = analysis.StoreAll()
            econ = econ_for_cell(cfg, plant)
            label = "store-all"
        threshold = analysis.penalty_threshold(plant, strategy, econ,
                                               water_mode=cfg.water_mode)
        payload = {"plant": plant.name, "strategy": label,
                   "penalty_threshold_usd_per_ton": threshold.value_in("$/ton")}
        return EXIT_OK, _single_result_output(payload, manifest.output_format), []

    raise ConfigError(f"unknown command {manifest.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        manifest = manifest_from_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        status, output, diagnostics = run(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, UnitError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    for line in diagnostics:
        print(f"error: {line}", file=sys.stderr)
    try:
        if manifest.output_path:
            Path(manifest.output_path).write_text(output, encoding="utf-8")
        else:
            sys.stdout.write(output)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
