"""The public names: ``ewhnexus.__all__`` and what the benchmark harness reads of it;
the checks the public entries make; where the defaults that pick a cell's inputs
may live; who may call the benchmark's two forms in ``presets``; and what importing
the CLI loads."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ewhnexus as ew
from ewhnexus import cli, conversion

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    missing = [name for name in ew.__all__ if not hasattr(ew, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(ew.__all__) == len(set(ew.__all__))


# module -> the cost kernels it holds: plain arithmetic on floats that the
# public entries below have checked
KERNELS = {
    "ccss": {"ccss_capital", "ccss_operational"},
    "water": {"water_capital", "water_operational", "desal_power", "desal_segment",
              "pumping_operational", "pump_power", "effective_r_w", "pipe_capital",
              "solar_capital"},
    "conversion": {"power_capital", "hydrogen_capital", "chemical_revenue"},
    "quantities": {"daily_capital_charge", "add_hourly"},
}
SOURCES = sorted((ROOT / "src" / "ewhnexus").glob("*.py"))


def test_the_cost_terms_are_not_public():
    assert sorted(set().union(*KERNELS.values()) & set(ew.__all__)) == []
    assert not hasattr(ew.water, "head_loss")   # folded into pump_power


def test_the_cost_kernels_raise_nothing():
    # economics._column rejects unset costs and prices before any kernel runs
    found, raising = set(), []
    for module, names in KERNELS.items():
        source = (ROOT / "src" / "ewhnexus" / f"{module}.py").read_text(encoding="utf-8")
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found.add(node.name)
                if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                    raising.append(node.name)
    assert found == set().union(*KERNELS.values())
    assert raising == []


def holders(predicate, paths=SOURCES) -> list[str]:
    """``module.name`` of each top-level statement in ``paths`` (``src/`` by default)
    holding a node the predicate accepts; a statement that is not a def or class is
    named by its line."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(predicate(node) for node in ast.walk(top)):
                found.append(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    return found


def test_the_pump_constant_is_read_by_pump_power_alone():
    assert holders(lambda node: isinstance(node, ast.Name) and node.id == "PUMP_CONSTANT_W"
                   and isinstance(node.ctx, ast.Load)) == ["water.pump_power"]


def test_the_daily_carbon_mass_is_computed_by_plantspec_alone():
    # cbar * HOURS_PER_DAY in either order, each factor a name or an attribute
    def daily_carbon(node):
        factors = {getattr(side, "id", getattr(side, "attr", None))
                   for side in (getattr(node, "left", None), getattr(node, "right", None))}
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and factors == {"cbar", "HOURS_PER_DAY"})

    assert holders(daily_carbon) == ["quantities.PlantSpec"]


def test_a_full_load_day_is_one_run():
    # the kernels take a day as (value, hours) runs, so no statement spells out its hours
    # as a tuple or list display times HOURS_PER_DAY, in either order
    def hour_by_hour(node):
        sides = (getattr(node, "left", None), getattr(node, "right", None))
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, (ast.Tuple, ast.List)) for side in sides)
                and any(getattr(side, "id", getattr(side, "attr", None)) == "HOURS_PER_DAY"
                        for side in sides))

    for spelled_out in ("(c,) * HOURS_PER_DAY", "q.HOURS_PER_DAY * [c]"):
        assert hour_by_hour(ast.parse(spelled_out, mode="eval").body)
    assert holders(hour_by_hour) == []


def test_the_capital_charge_power_is_raised_by_daily_capital_charge_alone():
    # (1 + lambda) ** (n - 1): a power whose exponent is one less than something
    def charge_power(node):
        exponent = getattr(node, "right", None)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(exponent, ast.BinOp) and isinstance(exponent.op, ast.Sub)
                and getattr(exponent.right, "value", None) == 1)

    assert holders(charge_power) == ["quantities.daily_capital_charge"]


def test_the_hourly_fold_is_add_hourly_alone():
    # a loop whose body only adds to a running total (`t += x` or `t = t + x + ...`),
    # stepping a counter at most: the kernels add each run's hourly amount by add_hourly
    def adds(stmt):
        if isinstance(stmt, ast.AugAssign):
            return isinstance(stmt.target, ast.Name) and isinstance(stmt.op, (ast.Add, ast.Sub))
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            return False
        left = stmt.value
        while isinstance(left, ast.BinOp) and isinstance(left.op, ast.Add):
            left = left.left
        return left is not stmt.value and getattr(left, "id", None) == stmt.targets[0].id

    def running_sum(node):
        return isinstance(node, (ast.For, ast.While)) and all(adds(s) for s in node.body)

    for spelled_out in ("for _ in range(hours):\n    total += cost",
                        "while n > 0:\n    t = t + a + a\n    n -= 2"):
        assert running_sum(ast.parse(spelled_out).body[0])
    assert holders(running_sum) == ["quantities.add_hourly"]


def test_no_module_imports_inside_a_function():
    # an import in a function body hides a cycle between modules until the call;
    # an annotation's import sits under `if TYPE_CHECKING:`, which never runs
    def imports_in_body(node):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        unrun = {id(n) for block in ast.walk(node) if isinstance(block, ast.If)
                 and ast.unparse(block.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
                 for n in ast.walk(block)}
        return any(isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in unrun
                   for n in ast.walk(node))

    assert imports_in_body(ast.parse("def f():\n    from .config import X").body[0])
    assert not imports_in_body(ast.parse("def f():\n    if TYPE_CHECKING:\n        import x"
                                         ).body[0])
    assert holders(imports_in_body) == []


def calls(name: str):
    """A predicate accepting a call of ``name``, bare or as an attribute."""
    return lambda node: (isinstance(node, ast.Call)
                         and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def test_one_daily_total_rule():
    # economics._daily sums the amounts and charges the capital; what reads a total calls it
    assert [h for h in holders(calls("daily_capital_charge"))
            if h.startswith("economics.")] == ["economics._daily"]
    assert holders(calls("_total")) == ["economics._daily"]
    # analysis._priced is the daily total that penalty_threshold and decide read,
    # analysis._minus_desal the gaps to desalination that the break-even and c_sw tie read,
    # and economics._price_row the totals and metrics of the CLI's rows
    assert holders(calls("_daily")) == ["analysis._minus_desal", "analysis._priced",
                                        "economics._result", "economics._price_row"]


def divides_by(attr: str):
    """A predicate accepting a division, plain or augmented, by an attribute ``attr``."""
    return lambda node: (isinstance(node, (ast.BinOp, ast.AugAssign))
                         and isinstance(node.op, ast.Div)
                         and getattr(getattr(node, "right", getattr(node, "value", None)),
                                     "attr", None) == attr)


def test_each_cell_metric_is_divided_out_by_daily_alone():
    # the price uplift and the carbon penalty; Calibration.apply spreads a capture plant's
    # capital over the daily carbon mass
    assert holders(divides_by("capacity_kw")) == ["economics._daily"]
    assert holders(divides_by("cbar_day")) == ["config.Calibration", "economics._daily"]


def test_nothing_in_the_package_or_its_tests_imports_numpy_or_scipy():
    found = []
    for path in SOURCES + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}: {m}" for m in modules
                      if m.split(".")[0] in ("numpy", "scipy")]
    assert found == []


CFG = ew.paper_2024()
BIOMASS = CFG.plant("biomass")
W_MAX = ew.nexus_rates(BIOMASS, ew.METHANE, 1.0)[1].value_in("m3/h")
ECON = CFG.econ_for(BIOMASS)


def scenario(beta=0.0, profile=None):
    return ew.ScenarioConfig(plant=BIOMASS, econ=ECON, beta=beta, capture_profile=profile)


def curve(distance=60.0, flow=0.5 * W_MAX):
    """The curve's one cell at the distance [km] and flow [m3/h]."""
    return ew.transfer_cost_curve(BIOMASS, [distance], [flow], ECON, ew.METHANE)[0]


def overload():
    """A full-load day whose hour 7 is above the plant's full-load rate C̄ = 115 ton/h."""
    steps = [BIOMASS.cbar] * 24
    steps[7] = 115.5
    return ew.TimeSeries(steps, "ton/h")


def curve_error(flow):
    return (f"cell (d=60 km, f={flow:g} m3/h): flow {flow:g} m3/h outside the "
            f"production capacity [0, {W_MAX:g}]")


D = ew.DomainError


@pytest.mark.parametrize("build, error, message", [
    *[(lambda b=b: scenario(b), D, f"reuse fraction must lie in [0, 1], got {b!r}")
      for b in (-0.1, 1.1, math.nan)],
    *[(build, D, f"reuse fraction must be a number, got {b!r}") for build, b in (
        (lambda: scenario(True), True),
        (lambda: scenario("0.5"), "0.5"),
        (lambda: CFG.scenario(BIOMASS, ew.METHANE, None), None),
        (lambda: ew.nexus_rates(BIOMASS, ew.METHANE, [0.5]), [0.5]))],
    (lambda: scenario(profile=overload()), D,
     "capture_profile step 7 is 115.5 ton/h, above the full-load rate C̄ = 115.0 ton/h "
     "of plant 'biomass'"),
    # a curve reports a flow outside [0, W] in its cell, and raises for a bad distance
    *[(lambda f=f: curve(flow=f).error, None, curve_error(f))
      for f in (-1.0, math.nan, 2 * W_MAX)],
    (lambda: curve(distance=-1.0), D, "transfer distance must be >= 0"),
    (lambda: curve(distance=math.nan), D,
     "transfer distance must be finite in km and m, got nan km"),
    (lambda: ew.NetworkTransfer(ew.Quantity(-1.0, "km")), D, "transfer distance must be >= 0"),
    *[(lambda e=e: replace(ECON, eta_pump=e), D, "eta_pump must lie in (0, 1]")
      for e in (0.0, 1.5)],
    # the single-cell entries check a reuse cell as a scenario does
    (lambda: ew.breakeven_distance(ew.BreakevenQuery(BIOMASS, None), ECON), D,
     "a reuse scenario (beta > 0) needs a product"),
    (lambda: ew.penalty_threshold(BIOMASS, ew.ReuseAll(None), ECON, ew.Desalination()), D,
     "a reuse scenario (beta > 0) needs a product"),
    (lambda: ew.penalty_threshold(BIOMASS, ew.ReuseAll(ew.METHANE), ECON, water_mode=None), D,
     "a reuse scenario (beta > 0) needs a water mode"),
    # every entry that takes a bare number rejects a bool and a string by check_number
    *[(lambda v=v: ew.TimeSeries([BIOMASS.cbar, v], "ton/h"), D,
       f"series value at step 1 must be a number, got {v!r}") for v in (True, "5")],
    *[(lambda v=v: ew.config.Calibration(None, {"coal": v}), D,
       f"r_w_per_100km[coal] must be a number, got {v!r}") for v in (None, True, "abc")],
    (lambda: ew.config.Calibration("1e6"), D, "ccs_capital_total must be a number, got '1e6'"),
    *[(lambda lo=lo: ew.BreakevenQuery(BIOMASS, ew.METHANE, (lo, 900)), D,
       f"d_lo must be a number, got {lo!r}") for lo in ("1", True)],
    *[(lambda a=a: ew.LedgerItem("a", "t", "capital", a, "$"), D,
       f"ledger amount must be a number, got {a!r}") for a in (True, "5")],
    (lambda: ew.Quantity("5", "km"), D, "magnitude must be a number, got '5'"),
    # and one that takes a quantity rejects a bare number by its quantity rule
    (lambda: ew.PlantSpec("x", 500, BIOMASS.emission_factor), ew.UnitError,
     "capacity must be a power, got 500"),
    (lambda: ew.NetworkTransfer(5), ew.UnitError, "distance must be a length, got 5"),
    # a unit is a registered string, checked by _unit_name wherever one enters
    (lambda: ew.Quantity(1, None), ew.UnitError, "unknown unit None"),
    (lambda: ew.Quantity(1, 5), ew.UnitError, "unknown unit 5"),
    (lambda: ew.TimeSeries([1.0], None), ew.UnitError, "unknown unit None"),
    (lambda: ew.Quantity(1, "km").value_in(None), ew.UnitError, "unknown unit None"),
    # the curve's distances and flows take the number rule
    *[(lambda d=d: curve(distance=d), D, f"distance must be a number, got {d!r}")
      for d in ("60", True)],
    *[(lambda f=f: curve(flow=f), D, f"flow must be a number, got {f!r}") for f in (True, "10")],
    (lambda: scenario(profile=[BIOMASS.cbar] * 24), ew.UnitError,
     f"capture_profile must be a mass flow, got {[BIOMASS.cbar] * 24!r}"),
    # each atomic mass is a number > 0, so a product's ratios divide by no zero
    *[(lambda m=m: conversion.AtomicMasses(C=m, H=0.001, O=0.016), D, message)
      for m, message in ((0.0, "atomic mass of C must be > 0, got 0.0"),
                         (True, "atomic mass of C must be a number, got True"),
                         ("0.012", "atomic mass of C must be a number, got '0.012'"))],
    # two rejections that no other test reaches
    (lambda: ew.ProductSpec("ammonia", {"N": 1, "H": 3, "C": 1}), D,
     "unsupported elements in formula: ['N']"),
    (lambda: ew.SweepGrid((), (ew.METHANE,), (1.0,), ew.Desalination()), D,
     "sweep grid needs at least one plant"),
    # a plant, a parameter set, a product, a grid and a strategy are checked by check_type
    # where they enter: the cell rule, the grid, the sweep, the curve, nexus_rates and a
    # config's econ_for, before a plant it does not hold is calibrated
    *[(build, D, f"plant must be a PlantSpec, got {p!r}") for build, p in (
        (lambda: ew.ScenarioConfig(plant=None, econ=ECON), None),
        (lambda: ew.ScenarioConfig(plant="biomass", econ=ECON), "biomass"),
        (lambda: ew.SweepGrid([None], (ew.METHANE,), (1.0,), ew.Desalination()), None),
        (lambda: ew.breakeven_distance(ew.BreakevenQuery(None, ew.METHANE), ECON), None),
        (lambda: ew.penalty_threshold(None, ew.StoreAll(), ECON), None),
        (lambda: ew.transfer_cost_curve(None, [60.0], [1.0], ECON, ew.METHANE), None),
        (lambda: ew.nexus_rates(None, ew.METHANE, 0.5), None),
        (lambda: CFG.econ_for(None), None),
        (lambda: CFG.scenario(None), None))],
    *[(build, D, "econ must be an EconParams, got None") for build in (
        lambda: ew.ScenarioConfig(plant=BIOMASS, econ=None),
        lambda: ew.breakeven_distance(ew.BreakevenQuery(BIOMASS, ew.METHANE), None),
        lambda: ew.penalty_threshold(BIOMASS, ew.StoreAll(), None),
        lambda: ew.transfer_cost_curve(BIOMASS, [60.0], [1.0], None, ew.METHANE))],
    *[(build, D, f"product must be a ProductSpec, got {x!r}") for build, x in (
        (lambda: ew.ScenarioConfig(plant=BIOMASS, econ=ECON, beta=1.0, product="methane",
                                   water_mode=ew.Desalination()), "methane"),
        (lambda: ew.SweepGrid([BIOMASS], ["methane"], (1.0,), ew.Desalination()), "methane"),
        (lambda: ew.penalty_threshold(BIOMASS, ew.ReuseAll("methane"), ECON,
                                      ew.Desalination()), "methane"),
        (lambda: ew.transfer_cost_curve(BIOMASS, [60.0], [1.0], ECON, None), None),
        (lambda: ew.nexus_rates(BIOMASS, None, 0.5), None))],
    (lambda: ew.penalty_threshold(BIOMASS, "store", ECON), D,
     "strategy must be a StoreAll or ReuseAll, got 'store'"),
    (lambda: ew.scenario_sweep(None, ECON), D, "grid must be a SweepGrid, got None"),
    # a product checks its own fields: its name by a plant's rule and words
    *[(lambda n=n: ew.ProductSpec(n, {"C": 1, "H": 4}), D,
       f"product name must be a non-empty string, got {n!r}") for n in (None, "")],
    (lambda: ew.ProductSpec("x", None), D,
     "formula must be a map of elements to atom counts, got None"),
    (lambda: ew.ProductSpec("x", {"C": 1, "H": 4}, None), D,
     "atomic_masses must be an AtomicMasses, got None"),
], ids=["beta=-0.1", "beta=1.1", "beta=nan", "beta=True", "beta='0.5'",
        "loaded-scenario-beta=None", "nexus_rates-beta=[0.5]", "profile-above-cbar",
        "curve-flow=-1", "curve-flow=nan", "curve-flow-above-W", "curve-distance=-1",
        "curve-distance=nan", "transfer-distance=-1", "eta_pump=0", "eta_pump=1.5",
        "breakeven-product=None", "penalty-product=None", "penalty-water_mode=None",
        "series-value=True", "series-value='5'", "friction=None", "friction=True",
        "friction='abc'", "ccs_capital_total='1e6'", "breakeven-window=('1', 900)",
        "breakeven-window=(True, 900)", "ledger-amount=True", "ledger-amount='5'", "quantity-magnitude='5'",
        "plant-capacity=500", "transfer-distance=5", "quantity-unit=None", "quantity-unit=5",
        "series-unit=None", "value_in-unit=None", "curve-distance='60'", "curve-distance=True",
        "curve-flow=True", "curve-flow='10'", "profile-list", "atomic-mass=0",
        "atomic-mass=True", "atomic-mass='0.012'", "element-N", "grid-no-plant",
        "scenario-plant=None", "scenario-plant='biomass'", "grid-plant=None",
        "breakeven-plant=None", "penalty-plant=None", "curve-plant=None", "nexus_rates-plant=None",
        "econ_for-plant=None", "loaded-scenario-plant=None",
        "scenario-econ=None", "breakeven-econ=None", "penalty-econ=None", "curve-econ=None",
        "scenario-product='methane'", "grid-product='methane'", "penalty-product='methane'",
        "curve-product=None", "nexus_rates-product=None", "penalty-strategy='store'",
        "sweep-grid=None",
        "product-name=None", "product-name=''", "product-formula=None",
        "product-atomic_masses=None"])
def test_each_public_entry_rejects_what_the_cost_terms_no_longer_check(build, error,
                                                                        message):
    if error is None:
        assert build() == message
        return
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("econ, resolver", [(None, None), (ECON, lambda plant: None)],
                         ids=["econ=None", "resolver-returns-None"])
def test_a_sweep_reports_a_parameter_set_of_another_type_in_each_cell(econ, resolver):
    grid = ew.SweepGrid([BIOMASS], [ew.METHANE], (0.5, 1.0), ew.Desalination())
    cells = ew.scenario_sweep(grid, econ, econ_resolver=resolver)
    assert [(c.product, c.beta, c.result) for c in cells] == [
        ("", 0.0, None), ("methane", 0.5, None), ("methane", 1.0, None)]
    assert {c.error.split(": ", 1)[1] for c in cells} == {"econ must be an EconParams, got None"}


def type_raises(top: ast.AST) -> list[str]:
    """The error of each raise in ``top`` directly under an ``if not isinstance(...):``."""
    return [getattr(getattr(n.exc, "func", n.exc), "id", "?")
            for node in ast.walk(top)
            if isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)
            and isinstance(node.test.op, ast.Not)
            and getattr(getattr(node.test.operand, "func", None), "id", None) == "isinstance"
            for n in node.body if isinstance(n, ast.Raise)]


def test_the_type_rule_is_stated_by_check_type_alone():
    # check_type is the one DomainError of a value's type; the unit rule reports a
    # non-quantity as no quantity of its dimension, and the loader a YAML document that is
    # no mapping, each by its own error; check_map was folded into check_type
    found = [f"{path.stem}.{getattr(top, 'name', top.lineno)}: {error}" for path in SOURCES
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             for error in type_raises(top)]
    assert found == ["config.load_config_text: ConfigError",
                     "economics.ScenarioConfig: UnitError", "quantities._field_value: UnitError",
                     "quantities.check_type: DomainError"]
    assert [path.name for path in SOURCES
            if re.search(r"\bcheck_map\b", path.read_text(encoding="utf-8"))] == []


def test_each_computed_float_is_checked_once():
    # BreakevenQuery checks a window end and economics._daily a cell's rows, so _computed
    # checks only the floats no entry checked: the computed root and _daily's metrics
    assert holders(calls("_computed")) == ["analysis._root", "economics._daily"]


def test_the_ledger_row_rule_is_stated_by_ledger_item_alone():
    # economics._daily checks a cell's rows through LedgerItem, so no other code words its error
    assert holders(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "ledger amount must be finite" in node.value) == ["quantities.LedgerItem"]


def test_the_number_rule_is_stated_by_check_number_alone():
    # (int, float) is the number rule's type test; the config loader's two readers of a bare
    # YAML number branch on it and raise nothing, every other check calls check_number
    assert holders(lambda node: isinstance(node, ast.Tuple)
                   and [getattr(e, "id", None) for e in node.elts] == ["int", "float"]) == [
        "config.parse_quantity", "config._load_sweep", "quantities.check_number"]


def test_the_unit_rule_is_stated_by_unit_name_alone():
    # a unit name is read where it enters a Quantity or a TimeSeries; _convert takes the
    # names that entry read, and the two readers it replaced are gone
    assert holders(calls("_unit_name")) == ["quantities.Quantity", "quantities.TimeSeries"]
    assert [path.name for path in SOURCES
            if re.search(r"\b_normalize\b|\b_unit_entry\b", path.read_text(encoding="utf-8"))
            ] == []


def test_the_benchmark_forms_are_called_by_the_benchmark_alone():
    # bench/workloads.py calls presets.econ_for_cell and presets.resolver; everything
    # else reaches a plant's parameters through LoadedConfig
    program = sorted(path for folder in ("src", "tests", "demos")
                     for path in (ROOT / folder).rglob("*.py"))
    assert holders(calls("econ_for_cell"), program) == [
        "presets.resolver", "test_presets.test_the_benchmark_forms_are_econ_for"]
    assert holders(calls("resolver"), program) == [
        "test_presets.test_the_benchmark_forms_are_econ_for"]
    assert holders(lambda node: isinstance(node, ast.keyword)
                   and node.arg == "econ_resolver") == ["config.LoadedConfig"]


def test_benchmark_reads_only_public_names():
    text = (ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\bew\.([A-Za-z_]\w*)", text))
    assert used, "bench/workloads.py references no ew.<name>"
    assert sorted(used - set(ew.__all__)) == []


def test_benchmark_reads_only_cli_names_that_exist():
    # bench/tracer.py spans every cli function named render_*
    text = (ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\bcli\.([A-Za-z_]\w*)", text))
    assert used, "bench/workloads.py references no cli.<name>"
    assert sorted(name for name in used if not hasattr(cli, name)) == []
    assert [name for name, value in vars(cli).items()
            if name.startswith("render_") and callable(value)]


def test_every_benchmark_trace_target_exists():
    # a removed or renamed target would only show up in the traced run's
    # missing_trace_targets, and the per-layer row would read empty
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer.verify_bindings() == []
    finally:
        tracer.uninstall()


# what a default outside config.py may not name: a water mode, the default reuse
# fractions of a sweep, or a built-in product; only the config loader picks these
PICKED_INPUTS = {"Desalination", "NetworkTransfer", "SolarSeawater", "DEFAULT_BETAS"} | {
    name for name, value in vars(conversion).items()
    if isinstance(value, conversion.ProductSpec)}


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def defaults(tree: ast.AST):
    """Every parameter default and dataclass field default in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from node.args.defaults
            yield from (d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef) and any(
                is_dataclass_decorator(d) for d in node.decorator_list):
            yield from (stmt.value for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None)


def test_only_the_config_picks_a_water_mode_betas_or_a_product_by_default():
    assert {"METHANE", "METHANOL", "ETHANOL"} <= PICKED_INPUTS
    found = []
    for path in SOURCES:
        if path.name == "config.py":
            continue
        for default in defaults(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(default)}
            if names & PICKED_INPUTS:
                found.append(f"{path.name}:{default.lineno}: {ast.unparse(default)}")
    assert found == []


def test_importing_the_cli_loads_no_argument_parser():
    # the CLI parses its own flags: a cold start does not import argparse, nor the
    # gettext and locale it brings in
    code = ("import sys, ewhnexus.cli; "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
