"""In-memory span tracer for the traced benchmark run.

The tracer wraps ewhnexus functions from outside the package; no source file
changes.  Every module binding of a wrapped function is replaced (for
example ``total_daily_cost`` is bound in ``economics``, ``analysis``, ``cli``
and the package root), so a call made through any import path is recorded.
``verify`` checks that no original binding survives and that every child span
lies inside its parent.

A span records its name, its parent span, the op it belongs to (-1 during
set-up) and its start and end in ns.  Helpers listed in ``COUNTED`` are only
counted, so their time stays in the caller's self time.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types
from collections import Counter

# (module, function) recorded as spans, named "<module>.<function>"
SPANNED = (
    ("economics", "total_daily_cost"),
    ("ccss", "ccss_capital"), ("ccss", "ccss_operational"),
    ("water", "water_capital"), ("water", "water_operational"),
    ("conversion", "power_capital"), ("conversion", "chemical_revenue"),
    ("presets", "econ_for_cell"),
    ("analysis", "scenario_sweep"), ("analysis", "breakeven_distance"),
    ("analysis", "transfer_cost_curve"), ("analysis", "penalty_threshold"),
    ("config", "load_config"), ("config", "load_config_text"), ("config", "dump_config"),
    ("cli", "main"),
)
# (module, function) whose calls inside ops are counted
COUNTED = (("water", "desal_power"), ("water", "pump_power"), ("conversion", "nexus_rates"))
# (module, class, method, counter name): object constructions and conversions
COUNTED_METHODS = (
    ("quantities", "Quantity", "__post_init__", "quantities.Quantity"),
    ("quantities", "Quantity", "value_in", "quantities.Quantity.value_in"),
    ("quantities", "TimeSeries", "__post_init__", "quantities.TimeSeries"),
)
YAML_PARSE = "config.yaml_parse"   # the yaml.safe_load call made by config


def _is_render(name: str) -> bool:
    return name.startswith("render_") or name == "_single_result_output"


class _YamlProxy(types.ModuleType):
    """Stands in for ``yaml`` inside ``ewhnexus.config`` with a traced safe_load."""

    def __init__(self, real, safe_load):
        super().__init__(real.__name__)
        self._real = real
        self.safe_load = safe_load

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self, package: str = "ewhnexus"):
        self.package = package
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[list] = []      # [name index, parent span, op, t0_ns, t1_ns]
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._patches: list[tuple] = []  # (owner, attribute, original, replacement)
        self.missing: list[str] = []     # targets this version of the package lacks

    # -- wrapping -----------------------------------------------------------

    def _modules(self) -> list:
        p = self.package
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == p or n.startswith(p + "."))]

    def _span(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [index, stack[-1] if stack else -1, tracer.op, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
        return wrapper

    def _counter(self, name: str, fn):
        self.counters[name] = 0
        counters, tracer = self.counters, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer.op >= 0:
                counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Replace every binding of ``original`` in the package's modules."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original, replacement))

    def install(self) -> None:
        for mod_name, _ in SPANNED:
            try:
                importlib.import_module(f"{self.package}.{mod_name}")
            except ModuleNotFoundError:
                pass   # reported below as a missing target
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for mod_name, fn_name in SPANNED + COUNTED:
            fn = getattr(modules.get(mod_name), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            name = f"{mod_name}.{fn_name}"
            wrap = self._counter if (mod_name, fn_name) in COUNTED else self._span
            self._rebind(fn, wrap(name, fn))
        cli = modules.get("cli")
        for fn_name, fn in sorted(vars(cli).items() if cli else ()):
            if _is_render(fn_name) and isinstance(fn, types.FunctionType):
                self._rebind(fn, self._span(f"cli.{fn_name}", fn))
        for mod_name, cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(name)
                continue
            original = vars(cls)[meth]
            setattr(cls, meth, self._counter(name, original))
            self._patches.append((cls, meth, original, getattr(cls, meth)))
        config = modules.get("config")
        real_yaml = getattr(config, "yaml", None)
        if real_yaml is None:
            self.missing.append(YAML_PARSE)
        else:
            self._rebind(real_yaml, _YamlProxy(real_yaml, self._span(YAML_PARSE,
                                                                     real_yaml.safe_load)))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- self-checks --------------------------------------------------------

    def verify_bindings(self) -> list[str]:
        """No module, class or module-level container still holds an original."""
        originals = {id(orig): f"{owner.__name__}.{attr}"
                     for owner, attr, orig, _ in self._patches}
        problems = []
        for owner, attr, _, replacement in self._patches:
            if vars(owner).get(attr) is not replacement:
                problems.append(f"{owner.__name__}.{attr} is not the wrapper")
        for mod in self._modules():
            for attr, value in vars(mod).items():
                held = [value]
                if isinstance(value, dict):
                    held += list(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    held += list(value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    held += list(vars(value).values())
                for v in held:
                    if id(v) in originals:
                        problems.append(f"{mod.__name__}.{attr} still holds the unwrapped "
                                        f"{originals[id(v)]}")
        return problems

    def verify_spans(self) -> list[str]:
        problems = []
        spans = self.spans
        for i, (name, parent, op, t0, t1) in enumerate(spans):
            if t1 < t0 or t1 == 0:
                problems.append(f"span {i} ({self.names[name]}) never closed")
            elif parent >= 0:
                _, _, p_op, p0, p1 = spans[parent]
                if not (p0 <= t0 and t1 <= p1 and p_op == op):
                    problems.append(f"span {i} ({self.names[name]}) lies outside its "
                                    f"parent {self.names[spans[parent][0]]}")
            if len(problems) > 10:
                break
        return problems

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "op", "t0_ns", "t1_ns"],
                       "counters": self.counters, "missing": self.missing,
                       "spans": self.spans}, fh, separators=(",", ":"))

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics from the spans of ops (op >= 0) and of set-up."""
        spans, names = self.spans, self.names
        child_ns = [0] * len(spans)
        for _, parent, _, t0, t1 in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, incl, self_ns = Counter(), Counter(), Counter()            # inside ops
        all_calls, all_incl, all_self = Counter(), Counter(), Counter()   # set-up too
        solve = names.index("analysis.breakeven_distance") \
            if "analysis.breakeven_distance" in names else -2
        evals_in_solves = 0
        for i, (name_i, parent, op, t0, t1) in enumerate(spans):
            name, dur = names[name_i], t1 - t0
            all_calls[name] += 1
            all_incl[name] += dur
            all_self[name] += dur - child_ns[i]
            if op < 0:
                continue
            calls[name] += 1
            incl[name] += dur
            self_ns[name] += dur - child_ns[i]
            if name == "economics.total_daily_cost":
                while parent >= 0 and spans[parent][0] != solve:
                    parent = spans[parent][1]
                evals_in_solves += parent >= 0

        def per_op(n: int) -> float:
            return n / n_ops if n_ops else 0.0

        def counted(name: str) -> float:
            return per_op(self.counters.get(name, 0))

        def mean(total: Counter, count: Counter, name: str, unit_ns: float) -> float:
            return total[name] / count[name] / unit_ns if count[name] else 0.0

        us, ms = 1e3, 1e6
        render_ns = sum(v for k, v in self_ns.items()
                        if k.startswith("cli.") and _is_render(k[len("cli."):]))
        solves = calls["analysis.breakeven_distance"]
        return {
            "quantities.Quantity.per_op": counted("quantities.Quantity"),
            "quantities.Quantity.value_in.per_op": counted("quantities.Quantity.value_in"),
            "quantities.TimeSeries.per_op": counted("quantities.TimeSeries"),
            "economics.total_daily_cost.calls_per_op": per_op(calls["economics.total_daily_cost"]),
            "economics.total_daily_cost.self_us":
                mean(self_ns, calls, "economics.total_daily_cost", us),
            "economics.total_daily_cost.incl_us":
                mean(incl, calls, "economics.total_daily_cost", us),
            "ccss.ccss_capital.self_us": mean(self_ns, calls, "ccss.ccss_capital", us),
            "ccss.ccss_operational.self_us": mean(self_ns, calls, "ccss.ccss_operational", us),
            "water.water_capital.self_us": mean(self_ns, calls, "water.water_capital", us),
            "water.water_operational.self_us": mean(self_ns, calls, "water.water_operational", us),
            "water.desal_power.calls_per_op": counted("water.desal_power"),
            "water.pump_power.calls_per_op": counted("water.pump_power"),
            "conversion.nexus_rates.calls_per_op": counted("conversion.nexus_rates"),
            "conversion.power_capital.self_us":
                mean(self_ns, calls, "conversion.power_capital", us),
            "conversion.chemical_revenue.self_us":
                mean(self_ns, calls, "conversion.chemical_revenue", us),
            "presets.econ_for_cell.calls_per_op": per_op(calls["presets.econ_for_cell"]),
            "presets.econ_for_cell.self_us": mean(self_ns, calls, "presets.econ_for_cell", us),
            "analysis.scenario_sweep.self_ms": mean(self_ns, calls, "analysis.scenario_sweep", ms),
            "analysis.breakeven_distance.evals_per_solve":
                evals_in_solves / solves if solves else 0.0,
            "analysis.breakeven_distance.incl_ms":
                mean(incl, calls, "analysis.breakeven_distance", ms),
            "analysis.transfer_cost_curve.incl_ms":
                mean(incl, calls, "analysis.transfer_cost_curve", ms),
            "analysis.transfer_cost_curve.self_ms":
                mean(self_ns, calls, "analysis.transfer_cost_curve", ms),
            "analysis.penalty_threshold.incl_us":
                mean(incl, calls, "analysis.penalty_threshold", us),
            # the config means include the loads made while setting up
            "config.load_config.incl_ms": mean(all_incl, all_calls, "config.load_config", ms),
            "config.load_config.calls_per_op": per_op(calls["config.load_config"]),
            "config.yaml_parse.incl_ms": mean(all_incl, all_calls, YAML_PARSE, ms),
            "config.validate.self_ms": mean(all_self, all_calls, "config.load_config_text", ms),
            "config.dump_config.incl_ms": mean(incl, calls, "config.dump_config", ms),
            "cli.main.incl_ms": mean(incl, calls, "cli.main", ms),
            "cli.main.self_ms": mean(self_ns, calls, "cli.main", ms),
            "cli.render.self_ms": render_ns / calls["cli.main"] / ms if calls["cli.main"] else 0.0,
            "trace.spans_per_op": per_op(sum(calls.values())),
        }
