"""The public names: ``ewhnexus.__all__`` and what the benchmark harness reads of it."""

import importlib.util
import re
from pathlib import Path

import ewhnexus as ew
from ewhnexus import cli

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
