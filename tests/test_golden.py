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

with P in {biomass, natural_gas, coal} and Q in {methane, methanol, ethanol}.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ewhnexus.cli import main

GOLDEN = Path(__file__).parent / "golden"
PLANTS = ("biomass", "natural_gas", "coal")
PRODUCTS = ("methane", "methanol", "ethanol")


def _cases():
    yield "sweep.csv", ["--command", "sweep", "--format", "csv"]
    yield "curve_biomass.csv", ["--command", "curve", "--format", "csv",
                                "--plant", "biomass", "--distances", "60,260,300"]
    for plant in PLANTS:
        yield f"breakeven_{plant}.json", ["--command", "breakeven", "--format", "json",
                                          "--plant", plant]
        penalty = ["--command", "penalty", "--format", "json", "--plant", plant]
        yield f"penalty_{plant}_store-all.json", penalty
        for product in PRODUCTS:
            yield f"penalty_{plant}_{product}.json", penalty + ["--product", product]


CASES = dict(_cases())


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name):
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["--config", "paper-2024"] + CASES[name])
    assert status == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()
