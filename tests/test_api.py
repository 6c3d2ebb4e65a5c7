"""The public names: ``ewhnexus.__all__`` and what the benchmark harness reads of it;
and where the defaults that pick a cell's inputs may live."""

import ast
import importlib.util
import re
from pathlib import Path

import ewhnexus as ew
from ewhnexus import cli, conversion

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    missing = [name for name in ew.__all__ if not hasattr(ew, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(ew.__all__) == len(set(ew.__all__))


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
    for path in sorted((ROOT / "src" / "ewhnexus").glob("*.py")):
        if path.name == "config.py":
            continue
        for default in defaults(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(default)}
            if names & PICKED_INPUTS:
                found.append(f"{path.name}:{default.lineno}: {ast.unparse(default)}")
    assert found == []
