"""CLI outputs on the shipped preset, compared byte for byte with tests/golden/.

Any refactor that claims to keep the numbers must keep these files identical.
Regenerate a file only when a change is meant to move its numbers, and say so
in the change log.  Each file is the stdout of one command, run from the repo
root:

    ewhnexus --config paper-2024 --command sweep --format csv > tests/golden/sweep.csv
    ewhnexus --config paper-2024 --command curve --format csv --plant biomass \\
        --distances 60,260,300 > tests/golden/curve_biomass.csv
    ewhnexus --config paper-2024 --command breakeven --format json --plant P \\
        > tests/golden/breakeven_P.json
    ewhnexus --config paper-2024 --command penalty --format json --plant P \\
        > tests/golden/penalty_P_store-all.json
    ewhnexus --config paper-2024 --command penalty --format json --plant P \\
        --product Q > tests/golden/penalty_P_Q.json
    ewhnexus --config paper-2024 --command scorecard --format json \\
        > tests/golden/scorecard.json
    ewhnexus --config paper-2024 --command decide --format json \\
        > tests/golden/decide.json

with P in {biomass, natural_gas, coal} and Q in {methane, methanol, ethanol}.

The other formats are pinned once per command, the table format as a .txt
file (``curve --format table`` writes CSV):

    ewhnexus --config paper-2024 --command sweep --format table > tests/golden/sweep.txt
    ewhnexus --config paper-2024 --command sweep --format json > tests/golden/sweep.json
    ewhnexus --config paper-2024 --command scenario --format F --plant coal \\
        --product methanol --beta 0.5 > tests/golden/scenario_coal_methanol.E
    ewhnexus --config paper-2024 --command breakeven --format table --plant biomass \\
        > tests/golden/breakeven_biomass.txt
    ewhnexus --config paper-2024 --command breakeven --format csv --plant biomass \\
        > tests/golden/breakeven_biomass.csv
    ewhnexus --config paper-2024 --command curve --format table --plant biomass \\
        --distances 60,260,300 > tests/golden/curve_biomass.txt
    ewhnexus --config paper-2024 --command curve --format json --plant biomass \\
        --distances 60,260,300 > tests/golden/curve_biomass.json
    ewhnexus --config paper-2024 --command curve --format F --plant biomass \\
        --distances 0,60,300 --flows 0,50,188.18181818181822 \\
        > tests/golden/curve_biomass_flows.E
    ewhnexus --config paper-2024 --command penalty --format table --plant coal \\
        --product methanol > tests/golden/penalty_coal_methanol.txt
    ewhnexus --config paper-2024 --command penalty --format csv --plant coal \\
        --product methanol > tests/golden/penalty_coal_methanol.csv

with F in {table, csv, json} written to the extension E in {txt, csv, json};
the flows curve is pinned as csv and json only.  Its flows are zero, an
integer and exactly the biomass methane capacity (the repr of its ``w_max``).

The two other water modes run the sweep on the preset with one override,
written out by ``write_mode_config`` (``dump_config`` of the overridden
preset):

    PYTHONPATH=src:tests python -c "import test_golden as g; \\
        g.write_mode_config('transfer', 'transfer.yaml')"
    ewhnexus --config transfer.yaml --command sweep --format csv \\
        > tests/golden/sweep_transfer.csv
    PYTHONPATH=src:tests python -c "import test_golden as g; \\
        g.write_mode_config('solar', 'solar.yaml')"
    ewhnexus --config solar.yaml --command sweep --format csv \\
        > tests/golden/sweep_solar.csv

The dump goldens pin ``dump_config``'s text for the preset and for each
override, M in {transfer, solar}:

    PYTHONPATH=src:tests python -c "import test_golden as g; \\
        g.write_mode_config(None, 'tests/golden/dump_preset.yaml')"
    PYTHONPATH=src:tests python -c "import test_golden as g; \\
        g.write_mode_config('M', 'tests/golden/dump_M.yaml')"

The ledger goldens pin a partial-load library scenario, which no CLI command
can express yet: biomass reusing all its carbon as methane under the ramp
capture profile ``RAMP``, for M in {desalination, transfer}:

    PYTHONPATH=src:tests python -c "import test_golden as g; \\
        g.write_ramp_ledger('M', 'tests/golden/ledger_ramp_M.txt')"

The sweep ledger golden pins every ledger item and metric of every preset
sweep cell, in desalination, 150 km transfer and solar-seawater mode, and in
desalination mode with the electrolyzer capital counted:

    PYTHONPATH=src:tests python -c "import test_golden as g; \\
        g.write_sweep_ledger('tests/golden/ledger_sweep.txt')"
"""

import io
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from ewhnexus.cli import main
from ewhnexus.config import dump_config, paper_2024
from ewhnexus.conversion import _reuse_rates
from ewhnexus.economics import ScenarioConfig, total_daily_cost
from ewhnexus.quantities import Quantity, TimeSeries
from ewhnexus.water import Desalination, NetworkTransfer, SolarSeawater, desal_segment

GOLDEN = Path(__file__).parent / "golden"
PLANTS = ("biomass", "natural_gas", "coal")
PRODUCTS = ("methane", "methanol", "ethanol")
# golden file extension -> --format
FORMATS = {"txt": "table", "csv": "csv", "json": "json"}
# biomass methane full-reuse water capacity [m3/h], a flow of the flows curve
CURVE_W_MAX = 188.18181818181822


def _transfer(cfg):
    return replace(cfg, water_mode=NetworkTransfer(Quantity(150.0, "km")))


def _solar(cfg):
    return replace(cfg, econ=replace(cfg.econ, c_sw=2.5e5), water_mode=SolarSeawater())


def _hydrogen_capital(cfg):
    return replace(cfg, econ=replace(cfg.econ, include_hydrogen_capital=True))


# water-mode name -> override of the preset
MODES = {"transfer": _transfer, "solar": _solar}
# sweep ledger section -> override of the preset, or None for the preset
SWEEP_LEDGER_SECTIONS = {"desalination": None, **MODES, "hydrogen-capital": _hydrogen_capital}


def write_mode_config(mode: str | None, path) -> None:
    """Write the preset, with the named water-mode override if any, to ``path``."""
    cfg = paper_2024() if mode is None else MODES[mode](paper_2024())
    Path(path).write_text(dump_config(cfg), encoding="utf-8")


# hourly load fractions: idle hour, a 3 h run in the first desalination
# segment, 14 distinct steps through segments 2 to 4, then 6 h at full load
RAMP = (0.0, 0.2, 0.2, 0.2) + tuple(n / 20 for n in range(6, 20)) + (1.0,) * 6
# ledger golden water mode -> water mode object
RAMP_MODES = {"desalination": Desalination(),
              "transfer": NetworkTransfer(Quantity(150.0, "km"))}


def ramp_ledger(mode: str) -> str:
    """Ledger items and metrics of the ``RAMP`` scenario, one repr a line."""
    cfg = paper_2024()
    plant, product = cfg.plant("biomass"), cfg.product("methane")
    profile = TimeSeries(tuple(plant.cbar * x for x in RAMP), "ton/h")
    result = total_daily_cost(ScenarioConfig(
        plant=plant, econ=cfg.econ_for(plant), beta=1.0, product=product,
        water_mode=RAMP_MODES[mode], capture_profile=profile))
    return "\n".join(_result_lines(result)) + "\n"


def _result_lines(result) -> list[str]:
    """The repr of every ledger item, then of the three metrics."""
    lines = [repr(item) for item in result.ledger.items]
    lines += [repr(result.daily_cost), repr(result.increased_price),
              repr(result.carbon_penalty)]
    return lines


def write_ramp_ledger(mode: str, path) -> None:
    Path(path).write_text(ramp_ledger(mode), encoding="utf-8")


def sweep_ledger() -> str:
    """Every cell of the preset sweep in each ``SWEEP_LEDGER_SECTIONS`` section."""
    lines = []
    for section, override in SWEEP_LEDGER_SECTIONS.items():
        cfg = paper_2024() if override is None else override(paper_2024())
        for cell in cfg.sweep():
            lines.append(f"# {section}: {cell.plant} {cell.product or '-'} beta={cell.beta!r}")
            lines += [cell.error] if cell.result is None else _result_lines(cell.result)
    return "\n".join(lines) + "\n"


def write_sweep_ledger(path) -> None:
    Path(path).write_text(sweep_ledger(), encoding="utf-8")


def _cases():
    """(golden file, water-mode override or None for the preset, CLI arguments)."""
    sweep = ["--command", "sweep", "--format", "csv"]
    yield "sweep.csv", None, sweep
    for mode in MODES:
        yield f"sweep_{mode}.csv", mode, sweep
    yield "curve_biomass.csv", None, ["--command", "curve", "--format", "csv",
                                      "--plant", "biomass", "--distances", "60,260,300"]
    for plant in PLANTS:
        yield f"breakeven_{plant}.json", None, ["--command", "breakeven", "--format",
                                                "json", "--plant", plant]
        penalty = ["--command", "penalty", "--format", "json", "--plant", plant]
        yield f"penalty_{plant}_store-all.json", None, penalty
        for product in PRODUCTS:
            yield f"penalty_{plant}_{product}.json", None, penalty + ["--product", product]
    yield "scorecard.json", None, ["--command", "scorecard", "--format", "json"]
    yield "decide.json", None, ["--command", "decide", "--format", "json"]
    yield "sweep.txt", None, ["--command", "sweep", "--format", "table"]
    yield "sweep.json", None, ["--command", "sweep", "--format", "json"]
    curve = ["--command", "curve", "--plant", "biomass", "--distances", "60,260,300"]
    yield "curve_biomass.txt", None, curve + ["--format", "table"]
    yield "curve_biomass.json", None, curve + ["--format", "json"]
    flows = ["--command", "curve", "--plant", "biomass", "--distances", "0,60,300",
             "--flows", f"0,50,{CURVE_W_MAX!r}"]
    for ext in ("csv", "json"):
        yield f"curve_biomass_flows.{ext}", None, flows + ["--format", FORMATS[ext]]
    for ext, fmt in FORMATS.items():
        yield f"scenario_coal_methanol.{ext}", None, [
            "--command", "scenario", "--format", fmt, "--plant", "coal",
            "--product", "methanol", "--beta", "0.5"]
    for ext in ("txt", "csv"):
        yield f"breakeven_biomass.{ext}", None, [
            "--command", "breakeven", "--format", FORMATS[ext], "--plant", "biomass"]
        yield f"penalty_coal_methanol.{ext}", None, [
            "--command", "penalty", "--format", FORMATS[ext], "--plant", "coal",
            "--product", "methanol"]


CASES = {name: (mode, argv) for name, mode, argv in _cases()}
# dump golden -> water-mode override or None for the preset
DUMPS = {"dump_preset.yaml": None, **{f"dump_{mode}.yaml": mode for mode in MODES}}
LEDGERS = {f"ledger_ramp_{mode}.txt": mode for mode in RAMP_MODES}
SWEEP_LEDGER = "ledger_sweep.txt"


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        [*CASES, *DUMPS, *LEDGERS, SWEEP_LEDGER])


def test_flows_curve_ends_at_full_capacity():
    cfg = paper_2024()
    w_max = _reuse_rates(cfg.product("methane"), cfg.plant("biomass").cbar, 1.0)[1]
    assert w_max == CURVE_W_MAX


def test_ramp_crosses_every_desalination_segment():
    cfg = paper_2024()
    plant, product = cfg.plant("biomass"), cfg.product("methane")
    w_max = _reuse_rates(product, plant.cbar, 1.0)[1]
    flows = [product.water_demand * 1.0 * (plant.cbar * x) for x in RAMP]
    assert len(RAMP) == 24
    assert [desal_segment(f, w_max) for f in flows] == (
        [1] * 4 + [2] * 5 + [3] * 5 + [4] * 10)


@pytest.mark.parametrize("name", sorted(LEDGERS))
def test_ramp_ledger_matches_golden_file(name):
    assert ramp_ledger(LEDGERS[name]).encode("utf-8") == (GOLDEN / name).read_bytes()


def test_sweep_ledger_matches_golden_file():
    assert sweep_ledger().encode("utf-8") == (GOLDEN / SWEEP_LEDGER).read_bytes()


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_matches_golden_file(name, tmp_path):
    path = tmp_path / name
    write_mode_config(DUMPS[name], path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path):
    mode, argv = CASES[name]
    config = "paper-2024"
    if mode is not None:
        config = str(tmp_path / f"{mode}.yaml")
        write_mode_config(mode, config)
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["--config", config] + argv)
    assert status == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()
