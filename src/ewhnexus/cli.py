"""Command-line front end: validate a config, run one command, write tables.

``parse_args`` reads the flags, without argparse, and ``-h`` prints a usage text
built from ``COMMANDS``.  Each command is one row of ``COMMANDS``: the flags it
requires, a function from the parsed flags and the loaded config to row dicts, the
columns of those rows, what ``--format table`` writes and the flags it reads
if given; any other command flag is a usage error.  ``scenario`` evaluates
a single cell, ``sweep`` the whole grid, ``breakeven`` the water-supply
break-even distance, ``curve`` the transfer cost surface, ``penalty`` a
carbon-penalty threshold, ``scorecard`` the paper's printed values next to
the engine's and ``decide`` the four decision answers.  A row with an ``error``
key is a failed cell: it is reported on stderr, shown in the sweep table and
left out of CSV and JSON.  Output is a human table, CSV or JSON.  Exit codes:
0 success, 2 invalid config or usage, 3 computation domain error, 4 I/O error.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

from . import analysis
from .config import ConfigError, LoadedConfig, load_config, paper_2024_reference
from .conversion import ProductSpec, _reuse_rates
from .economics import _price_row
from .quantities import DomainError, PlantSpec, UnitError, check_beta

SWEEP_COLUMNS = ("plant", "product", "beta", "capital_usd", "operational_usd_per_day",
                 "revenue_usd_per_day", "daily_cost_usd_per_day",
                 "increased_price_usd_per_kwh", "carbon_penalty_usd_per_ton")
SWEEP_CSV_HEADER = ",".join(SWEEP_COLUMNS)

CURVE_COLUMNS = ("distance_km", "flow_m3_per_h", "capital_usd_per_day",
                 "operational_usd_per_day", "total_usd_per_day")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4


@dataclass(frozen=True)
class Command:
    """One CLI command: what it needs, what it computes and how it is laid out."""

    required: tuple[str, ...]        # flags that must be given
    rows: Callable[[SimpleNamespace, LoadedConfig], list[dict]]
    columns: tuple[str, ...]         # CSV column order
    table: str                       # --format table: sweep | record | csv
    optional: tuple[str, ...] = ()   # flags read if given


def _row(cell: analysis.SweepCell) -> dict:
    """A cell priced by ``economics._price_row`` as a row of ``SWEEP_COLUMNS``, or an error row."""
    return (dict(zip(SWEEP_COLUMNS, (*cell[:3], *cell.result))) if cell.error is None
            else dict(zip(SWEEP_COLUMNS, cell[:3]), error=cell.error))   # plant, product, beta


def _sweep_rows(args: SimpleNamespace, cfg: LoadedConfig) -> list[dict]:
    grid = analysis.SweepGrid(cfg.plants, cfg.products, cfg.sweep_betas, cfg.water_mode)
    return [_row(cell) for cell in analysis._sweep(grid, cfg.econ, cfg.econ_for, _price_row)]


def _scenario_rows(args: SimpleNamespace, cfg: LoadedConfig) -> list[dict]:
    plant = cfg.plant(args.plant)
    beta = args.beta or 0.0   # a NaN flag is truthy, so check_beta sees it
    try:
        check_beta(beta)
    except DomainError as exc:
        raise ConfigError(f"--beta: {exc}") from exc
    if args.product is not None and not beta:
        raise ConfigError("--product needs --beta (reuse fraction in (0, 1])")
    if beta > 0 and args.product is None:
        raise ConfigError(f"--beta {beta!r} needs --product (reuse makes a product)")
    product = None if args.product is None else cfg.product(args.product)
    return [_row(analysis.SweepCell(plant.name, product.name if product else "", beta, _price_row(
        cfg.scenario(plant, product, beta)._as_column(), beta)))]   # the scenario checks them


def _plant_product(args: SimpleNamespace, cfg: LoadedConfig) -> tuple[PlantSpec, ProductSpec]:
    """The ``--plant`` and ``--product`` of a break-even or curve; methane without the flag."""
    plant = cfg.plant(args.plant)
    if args.product is None and "methane" not in (p.name for p in cfg.products):
        raise ConfigError(f"--product not given, and its default 'methane' is not configured; "
                          f"pass --product, one of {[p.name for p in cfg.products]}")
    return plant, cfg.product("methane" if args.product is None else args.product)


def _breakeven_rows(args: SimpleNamespace, cfg: LoadedConfig) -> list[dict]:
    plant, product = _plant_product(args, cfg)
    query = analysis.BreakevenQuery(plant=plant, product=product)
    distance = analysis.breakeven_distance(query, cfg.econ_for(plant))
    return [{"plant": plant.name, "product": product.name,
             "breakeven_distance_km": distance.value_in("km")}]


def _curve_rows(args: SimpleNamespace, cfg: LoadedConfig) -> list[dict]:
    plant, product = _plant_product(args, cfg)
    flows = args.flows
    if not flows:
        w_max = _reuse_rates(product, plant.cbar, 1.0)[1]
        flows = tuple(w_max * frac for frac in (0.0, 0.25, 0.5, 0.75, 1.0))
    cells = analysis.transfer_cost_curve(plant, args.distances, flows,
                                         cfg.econ_for(plant), product=product)
    return [{"error": c.error} if c.error is not None else dict(zip(CURVE_COLUMNS, (
        c.distance_km, c.flow_m3_h, c.capital_daily, c.operational_daily, c.total_daily)))
        for c in cells]


def _penalty_rows(args: SimpleNamespace, cfg: LoadedConfig) -> list[dict]:
    plant = cfg.plant(args.plant)
    if args.product is not None:
        product = cfg.product(args.product)
        strategy: analysis.Strategy = analysis.ReuseAll(product)
        label = f"reuse-all ({product.name})"
    else:
        strategy, label = analysis.StoreAll(), "store-all"
    threshold = analysis.penalty_threshold(plant, strategy, cfg.econ_for(plant),
                                           water_mode=cfg.water_mode)
    return [{"plant": plant.name, "strategy": label,
             "penalty_threshold_usd_per_ton": threshold.value_in("$/ton")}]


# command name -> Command, in the order of --command's choices
COMMANDS = {
    "scenario": Command(("plant",), _scenario_rows, SWEEP_COLUMNS, "sweep", ("product", "beta")),
    "sweep": Command((), _sweep_rows, SWEEP_COLUMNS, "sweep"),
    "breakeven": Command(("plant",), _breakeven_rows,
                         ("plant", "product", "breakeven_distance_km"), "record", ("product",)),
    # the curve table stays CSV, which existing readers of it parse
    "curve": Command(("plant", "distances"), _curve_rows, CURVE_COLUMNS, "csv",
                     ("product", "flows")),
    "penalty": Command(("plant",), _penalty_rows,
                       ("plant", "strategy", "penalty_threshold_usd_per_ton"), "record",
                       ("product",)),
    "scorecard": Command((), lambda args, cfg: analysis.scorecard(cfg, paper_2024_reference()),
                         ("quantity", "plant", "product", "beta", "computed", "reference",
                          "tolerance", "relative_error", "gap_usd_per_ton", "pass"), "csv"),
    "decide": Command((), lambda args, cfg: analysis.decide(cfg, args.plant),
                      analysis.DECISION_COLUMNS, "csv", ("plant",)),
}
# every flag that some command reads
_FLAGS = tuple(dict.fromkeys(f for c in COMMANDS.values() for f in c.required + c.optional))


def render_csv(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """``rows`` as CSV; a float's ``str`` is its shortest round-trip ``repr``."""
    lines = [",".join(columns)]
    lines += [",".join([str(row[k]) for k in columns]) for row in rows]
    return "\n".join(lines) + "\n"


def _musd(value: float) -> str:
    """Currency in millions with 4 significant digits."""
    return f"{value / 1e6:.4g}"


def render_sweep_table(rows: Sequence[dict]) -> str:
    header = (f"{'plant':<12} {'product':<9} {'beta':>4}  {'capital':>9}  "
              f"{'op/day':>9}  {'rev/day':>9}  {'cost/day':>9}  "
              f"{'uplift':>8}  {'penalty':>8}")
    unit_row = (f"{'':<12} {'':<9} {'':>4}  {'M$':>9}  {'M$':>9}  {'M$':>9}  "
                f"{'M$':>9}  {'$/kWh':>8}  {'$/ton':>8}")
    lines = [header, unit_row, "-" * len(header)]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['plant']:<12} {row['product'] or '-':<9} {row['beta']:>4.2g}  "
                         f"error: {row['error']}")
            continue
        lines.append(
            f"{row['plant']:<12} {row['product'] or 'storage':<9} {row['beta']:>4.2g}  "
            f"{_musd(row['capital_usd']):>9}  "
            f"{_musd(row['operational_usd_per_day']):>9}  "
            f"{_musd(row['revenue_usd_per_day']):>9}  "
            f"{_musd(row['daily_cost_usd_per_day']):>9}  "
            f"{row['increased_price_usd_per_kwh']:>8.3f}  "
            f"{row['carbon_penalty_usd_per_ton']:>8.2f}")
    return "\n".join(lines) + "\n"


def render_record_table(record: dict) -> str:
    width = max(len(k) for k in record)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in record.items())


def render_json(data: dict | list[dict]) -> str:
    """A record or list of records as ``json.dumps(data, indent=2)`` writes it, and a newline.

    Keys are strings.  Strings, finite floats, ints, bools and None are written as ``json``
    writes them, without its encoder; the rest by ``json.dumps``, whose indenting is Python.
    """
    def record(fields: dict, pad: str) -> str:   # laid out at the indent after ``pad``
        return "{" + pad + ("," + pad).join([
            _json_str(k) + ": " + (_json_str(v) if type(v) is str else float.__repr__(v)
                                   if type(v) is float and math.isfinite(v) else int.__repr__(v)
                                   if type(v) is int else ("true" if v else "false")
                                   if type(v) is bool else "null" if v is None
                                   else json.dumps(v, indent=2).replace("\n", pad))
            for k, v in fields.items()]) + pad[:-2] + "}" if fields else "{}"

    if type(data) is dict:
        return record(data, "\n  ") + "\n"
    rows = ",\n  ".join([record(row, "\n    ") for row in data])
    return f"[\n  {rows}\n]\n" if data else "[]\n"


def render_output(command: Command, output_format: str, rows: list[dict]) -> str:
    """``rows`` in ``output_format``; a record command has exactly one row."""
    done = [row for row in rows if "error" not in row]
    if output_format == "json":
        return render_json(done[0] if command.table == "record" else done)
    if output_format == "csv" or command.table == "csv":
        return render_csv(done, command.columns)
    if command.table == "record":
        return render_record_table(done[0])
    return render_sweep_table(rows)


def _parse_float_list(text: str | None, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated flag value; () when the flag is not given."""
    try:
        values = tuple(float(part) for part in (text or "").split(",") if part.strip())
    except ValueError:
        values = None
    if values is None or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag}: expected a comma-separated list of finite numbers, "
                          f"got {text!r}")
    return values


_OPTIONS = ("config", "command", "format", "out", *_FLAGS, "help")
_CHOICES = {"command": tuple(COMMANDS), "format": ("table", "csv", "json")}
_EXACT = {"-h": "help", **{f"--{n}": n for n in _OPTIONS}}   # a flag -> its option


def parse_args(argv: Sequence[str] | None = None) -> SimpleNamespace | None:
    """``argv``'s options (default ``sys.argv[1:]``) as argparse read them, typed; None for help.

    A flag by name (one ``_EXACT`` lookup) or unique prefix, ``--flag v`` or ``--flag=v``, the last
    wins; a value after a space starts with ``-`` only as a negative number; misuse is a ConfigError.
    """
    args, tokens = {**dict.fromkeys(_OPTIONS[:-1]), "format": "table"}, iter(   # no help
        sys.argv[1:] if argv is None else argv)
    for token in tokens:
        head, eq, value = token.partition("=")
        if (name := _EXACT.get(head)) is None:
            names = [n for n in _OPTIONS if len(head) > 2 and f"--{n}".startswith(head)]
            name = names[0] if len(names) == 1 else None
        if name is None or name == "help" and eq:
            raise ConfigError(f"ambiguous option {head}: could be --{', --'.join(names)}"
                              if name is None and names else f"unrecognized argument {token!r}")
        if name == "help":
            return None
        if not eq and ((value := next(tokens, None)) is None or value[:1] == "-"
                       and not re.match(r"^-\d+$|^-\d*\.\d+$", value)):
            raise ConfigError(f"--{name} expects a value")
        if value not in _CHOICES.get(name, (value,)):
            raise ConfigError(f"--{name}: invalid choice {value!r} "
                              f"(choose from {', '.join(_CHOICES[name])})")
        try:
            args[name] = float(value) if name == "beta" else value
        except ValueError:
            raise ConfigError(f"--beta: expected a number, got {value!r}") from None
    for name in ("config", "command"):
        if args[name] is None:
            raise ConfigError(f"--{name} is required")
    for name in ("distances", "flows"):
        args[name] = () if args[name] is None else _parse_float_list(args[name], f"--{name}")
    return SimpleNamespace(**args)


def _usage() -> str:
    """The ``--help`` text: the options, then each command's flags, the optional ones in []."""
    return "".join([f"usage: ewhnexus --config PATH|PRESET --command COMMAND [--format "
                    f"{'|'.join(_CHOICES['format'])}] [--out PATH]\n\ncommands:\n"] + [
        " ".join([f"  {name:<9}", *(f"--{f} {f.upper()}" for f in c.required),
                  *(f"[--{f} {f.upper()}]" for f in c.optional)]).rstrip() + "\n"
        for name, c in COMMANDS.items()])


def run(args: SimpleNamespace) -> tuple[int, str, list[str]]:
    """Execute one parsed invocation; returns (exit status, output, diagnostics).

    Diagnostics go to stderr, never into CSV or JSON, so a partially failing
    sweep or curve still writes schema-clean output for the cells that ran.
    """
    cfg = load_config(args.config)
    command = COMMANDS[args.command]
    for flag in _FLAGS:
        given = getattr(args, flag) not in (None, ())
        if not given and flag in command.required:
            raise ConfigError(f"--{flag} is required for '{args.command}'")
        if given and flag not in command.required + command.optional:
            raise ConfigError(f"'{args.command}' does not read --{flag}")
    rows = command.rows(args, cfg)
    failures = [row["error"] for row in rows if "error" in row]
    out = render_output(command, args.format, rows)
    return (EXIT_COMPUTE if failures else EXIT_OK), out, failures


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        if args is None:
            sys.stdout.write(_usage())
            return EXIT_OK
        status, output, diagnostics = run(args)
        for line in diagnostics:
            print(f"error: {line}", file=sys.stderr)
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
        else:
            sys.stdout.write(output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, UnitError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())
