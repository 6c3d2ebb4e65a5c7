"""The three benchmark workloads: seeded inputs, the timed op, and its check.

Each workload is driven as a closed loop with one client: ``draw`` makes the
next op's inputs from the seeded stream, the op's ``run`` is the timed call
into ewhnexus and its ``check`` verifies the output afterwards, outside the
timed window.  The library is reached only through names in ``ewhnexus.__all__``
and ``ewhnexus.cli.main`` (plus ``cli.SWEEP_CSV_HEADER`` in a check), so a
refactor that keeps those names needs no change here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import replace
from pathlib import Path

PRESET = "paper-2024"
A4_STORAGE_OPERATIONS = 165600.0   # biomass storage scenario, $/day, exact
SWEEP_BETAS = 11                   # grid-sweep: 3 plants x (1 + 3 x 11) = 102 cells
CURVE_DISTANCES = 51               # water-breakeven curve ops: 51 x 11 points
CURVE_FLOWS = 11
CLI_CURVE_DISTANCES = 5            # cli-batch curve ops use the CLI's 5 default flows
CLI_VARIANTS = 4
CLI_ROUND_TRIPS = 3                # per deck of 5 commands x 3 formats: 1 op in 6


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's invariants."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_ledger(result, where: str) -> None:
    """Ledger totals are exact fsums of their items."""
    items = result.ledger.items
    daily = [i for i in items if i.unit == "$/day"]
    led = result.ledger
    require(led.capital_total() == math.fsum(i.amount for i in items if i.unit == "$"),
            f"{where}: capital total is not the fsum of its items")
    require(led.daily_total() == math.fsum(i.amount for i in daily),
            f"{where}: daily total is not the fsum of its items")
    require(led.operational_total() == math.fsum(
        i.amount for i in daily if i.kind == "operational"),
        f"{where}: operational total is not the fsum of its items")
    require(led.revenue_total() == math.fsum(i.amount for i in daily if i.kind == "revenue"),
            f"{where}: revenue total is not the fsum of its items")
    require(result.daily_cost.value_in("$/day") == led.daily_total(),
            f"{where}: daily cost differs from the ledger total")


def sweep_config(ew, cfg):
    """The CLI's ``sweep`` call for a loaded config."""
    grid = ew.SweepGrid(cfg.plants, cfg.products, cfg.sweep_betas, cfg.water_mode)
    return ew.scenario_sweep(grid, cfg.econ, econ_resolver=ew.resolver(cfg))


def sweep_signature(cells) -> tuple:
    """Every number a sweep produces, for bit-identical comparison."""
    out = []
    for c in cells:
        r = c.result
        out.append((c.plant, c.product, c.beta, c.error) if r is None else (
            c.plant, c.product, c.beta, r.daily_cost.magnitude,
            r.increased_price.magnitude, r.carbon_penalty.magnitude,
            tuple((i.term, i.kind, i.amount, i.unit) for i in r.ledger.items)))
    return tuple(out)


def cost_gap(ew, plant, product, econ, d_km: float) -> float:
    """Daily cost of piping water from d_km minus desalinating it [$ / day]."""
    def cost(mode):
        cfg = ew.ScenarioConfig(plant=plant, econ=econ, beta=1.0, product=product,
                                water_mode=mode)
        return ew.total_daily_cost(cfg).daily_cost.value_in("$/day")
    return cost(ew.NetworkTransfer(ew.Quantity(d_km, "km"))) - cost(ew.Desalination())


def check_root(ew, plant, product, econ, d: float, where: str) -> None:
    """A break-even root has cost gaps of opposite sign half a km either side."""
    below = cost_gap(ew, plant, product, econ, d - 0.5)
    above = cost_gap(ew, plant, product, econ, d + 0.5)
    require(below * above < 0,
            f"{where}: root {d!r} km has gaps {below:+.3f} and {above:+.3f} $/day")


class Workload:
    """Seeded inputs for one workload; subclasses define the ops."""

    name = ""

    def __init__(self, ew, seed: int, work_dir: Path):
        self.ew = ew
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self.sources: list[str] = [PRESET]   # configs loaded during set-up
        self.configs: dict = {}

    def generate(self) -> None:
        """Write input files and derive oracle data; not part of set-up time."""

    def setup(self) -> None:
        """Load and validate every config the ops use (timed as set-up)."""
        self.configs = {src: self.ew.load_config(src) for src in self.sources}

    def draw(self):
        """The next op: ``run()`` is timed, ``check(outcome)`` is not."""
        raise NotImplementedError


# --- grid-sweep ------------------------------------------------------------

class SweepOp:
    def __init__(self, wl: "GridSweep", cfg, betas, mode):
        self.wl, self.cfg, self.betas, self.mode = wl, cfg, betas, mode

    def run(self):
        ew, cfg = self.wl.ew, self.cfg
        grid = ew.SweepGrid(cfg.plants, cfg.products, betas=self.betas, water_mode=self.mode)
        return ew.scenario_sweep(grid, cfg.econ, econ_resolver=ew.resolver(cfg))

    def check(self, cells) -> None:
        cfg = self.cfg
        require(len(cells) == len(cfg.plants) * (1 + len(cfg.products) * len(self.betas)),
                f"sweep returned {len(cells)} cells")
        betas = sorted(self.betas)
        expected = [(p.name, q, b) for p in cfg.plants
                    for q, b in [("", 0.0)] + [(r.name, b) for r in cfg.products for b in betas]]
        require([(c.plant, c.product, c.beta) for c in cells] == expected,
                "sweep cells are not in (plant, product, beta) order")
        for c in cells:
            where = f"cell ({c.plant}, {c.product or '-'}, beta={c.beta!r})"
            require(c.result is not None and c.error is None, f"{where}: {c.error}")
            check_ledger(c.result, where)
            if c.plant == "biomass" and c.product == "":
                ops = c.result.ledger.operational_total()
                require(ops == A4_STORAGE_OPERATIONS,
                        f"{where}: storage operations {ops!r} != {A4_STORAGE_OPERATIONS!r}")


class GridSweep(Workload):
    """The CLI ``sweep`` call on 102 cells with fresh betas and water mode per op."""

    name = "grid-sweep"

    def generate(self) -> None:
        ew = self.ew
        base = ew.paper_2024()
        c_sw = self.rng.uniform(1.0e5, 4.0e5)
        solar = replace(base, econ=replace(base.econ, c_sw=c_sw),
                        water_mode=ew.SolarSeawater())
        path = self.work_dir / "solar-seawater.yaml"
        path.write_text(ew.dump_config(solar), encoding="utf-8")
        self.solar_source = str(path)
        self.sources = [PRESET, self.solar_source]

    def draw(self):
        ew, rng = self.ew, self.rng
        betas = tuple(rng.uniform(0.01, 1.0) for _ in range(SWEEP_BETAS))
        # solar sweeps skip the hourly water loop and run fastest; at 1/4 of
        # the ops, p50 falls inside the transfer cluster, not at its edge
        kind = rng.random()
        if kind < 0.25:
            return SweepOp(self, self.configs[self.solar_source], betas, ew.SolarSeawater())
        mode = (ew.Desalination() if kind < 0.5
                else ew.NetworkTransfer(ew.Quantity(rng.uniform(1.0, 500.0), "km")))
        return SweepOp(self, self.configs[PRESET], betas, mode)


# --- water-breakeven -------------------------------------------------------

class BreakevenOp:
    def __init__(self, wl: "WaterBreakeven", plant, product, window, crossing: bool):
        self.wl, self.plant, self.product = wl, plant, product
        self.window, self.crossing = window, crossing

    def run(self):
        ew = self.wl.ew
        econ = ew.econ_for_cell(self.wl.configs[PRESET], self.plant, self.product, 1.0)
        query = ew.BreakevenQuery(self.plant, self.product, distance_bounds=self.window)
        try:
            return ew.breakeven_distance(query, econ)
        except ew.NoCrossingError as exc:
            return exc

    def check(self, outcome) -> None:
        ew = self.wl.ew
        econ = ew.econ_for_cell(self.wl.configs[PRESET], self.plant, self.product, 1.0)
        lo, hi = self.window
        where = f"break-even ({self.plant.name}, {self.product.name}, [{lo:g}, {hi:g}] km)"
        if not self.crossing:
            require(isinstance(outcome, ew.NoCrossingError),
                    f"{where}: expected NoCrossingError, got {outcome!r}")
            require((outcome.g_lo > 0) == (outcome.g_hi > 0),
                    f"{where}: endpoint gaps {outcome.g_lo!r}, {outcome.g_hi!r} differ in sign")
            g_lo = cost_gap(ew, self.plant, self.product, econ, lo)
            require((g_lo > 0) == (outcome.g_lo > 0), f"{where}: wrong endpoint gap sign")
            return
        require(not isinstance(outcome, Exception), f"{where}: raised {outcome!r}")
        d = outcome.value_in("km")
        require(lo <= d <= hi, f"{where}: root {d!r} km outside the window")
        check_root(ew, self.plant, self.product, econ, d, where)


class CurveOp:
    def __init__(self, wl: "WaterBreakeven", plant, product, distances, flows):
        self.wl, self.plant, self.product = wl, plant, product
        self.distances, self.flows = distances, flows

    def run(self):
        ew = self.wl.ew
        econ = ew.econ_for_cell(self.wl.configs[PRESET], self.plant, self.product, 1.0)
        return ew.transfer_cost_curve(self.plant, self.distances, self.flows, econ,
                                      product=self.product)

    def check(self, cells) -> None:
        where = f"curve ({self.plant.name}, {self.product.name})"
        require(len(cells) == len(self.distances) * len(self.flows),
                f"{where}: {len(cells)} cells")
        for i, d in enumerate(self.distances):
            row = cells[i * len(self.flows):(i + 1) * len(self.flows)]
            prev = -1.0
            for c, f in zip(row, self.flows):
                require(c.error is None, f"{where}: {c.error}")
                require(c.distance_km == d and c.flow_m3_h == f, f"{where}: cell order")
                require(c.capital_daily == row[0].capital_daily,
                        f"{where}: capital varies with flow at {d!r} km")
                require(c.total_daily == c.capital_daily + c.operational_daily,
                        f"{where}: total is not capital + operations")
                require(c.operational_daily >= prev, f"{where}: pumping cost falls with flow")
                prev = c.operational_daily


class WaterBreakeven(Workload):
    """Break-even solves on seeded windows (10% without a crossing) and curves."""

    name = "water-breakeven"

    def generate(self) -> None:
        ew = self.ew
        cfg = ew.paper_2024()
        self.pairs = [(p, q) for p in cfg.plants for q in cfg.products]
        self.roots, self.w_max = {}, {}
        for plant, product in self.pairs:
            # oracle, independent of the bisection: the gap is affine in distance
            econ = ew.econ_for_cell(cfg, plant, product, 1.0)
            g0 = cost_gap(ew, plant, product, econ, 0.0)
            g1 = cost_gap(ew, plant, product, econ, 500.0)
            key = (plant.name, product.name)
            self.roots[key] = -g0 * 500.0 / (g1 - g0)
            self.w_max[key] = ew.nexus_rates(plant, product, 1.0)[1].value_in("m3/h")

    def draw(self):
        rng = self.rng
        plant, product = rng.choice(self.pairs)
        key = (plant.name, product.name)
        if rng.random() < 0.25:
            distances = tuple(sorted(rng.uniform(1.0, 500.0) for _ in range(CURVE_DISTANCES)))
            flows = tuple(sorted(rng.random() * self.w_max[key] for _ in range(CURVE_FLOWS)))
            return CurveOp(self, plant, product, distances, flows)
        root = self.roots[key]
        if rng.random() < 0.1:
            if rng.random() < 0.5:   # window wholly below the root
                lo = rng.uniform(1.0, root - 20.0)
                window = (lo, rng.uniform(lo + 5.0, root - 10.0))
            else:                    # wholly above it
                lo = rng.uniform(root + 10.0, root + 300.0)
                window = (lo, lo + rng.uniform(10.0, 600.0))
            return BreakevenOp(self, plant, product, window, crossing=False)
        window = (rng.uniform(max(1.0, root - 300.0), root - 10.0),
                  rng.uniform(root + 10.0, root + 600.0))
        return BreakevenOp(self, plant, product, window, crossing=True)


# --- cli-batch -------------------------------------------------------------

def parse_payload(text: str, fmt: str) -> dict:
    """A single-result CLI output (breakeven, penalty) as a dict of strings."""
    if fmt == "json":
        return {k: str(v) for k, v in json.loads(text).items()}
    lines = text.splitlines()
    if fmt == "csv":
        require(len(lines) == 2, f"csv payload has {len(lines)} lines")
        return dict(zip(lines[0].split(","), lines[1].split(",")))
    return dict(line.split(None, 1) for line in lines)


class CliOp:
    def __init__(self, wl: "CliBatch", source: str, command: str, fmt: str,
                 extra: list[str], plant, product, beta):
        self.wl, self.source, self.command, self.fmt = wl, source, command, fmt
        self.argv = ["--config", source, "--command", command, "--format", fmt] + extra
        self.plant, self.product, self.beta = plant, product, beta

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.wl.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, outcome) -> None:
        code, out, err = outcome
        where = "ewhnexus " + " ".join(self.argv)
        require(code == 0 and not err, f"{where}: exit {code}, stderr {err!r}")
        getattr(self, "_check_" + self.command)(out, where)

    def _econ(self, beta):
        return self.wl.ew.econ_for_cell(self.wl.configs[self.source], self.plant,
                                        self.product, beta)

    def _check_sweep(self, out: str, where: str) -> None:
        cfg = self.wl.configs[self.source]
        expected = self.wl.sweep_rows(self.source)
        require(len(expected) == len(cfg.plants) * (
            1 + len(cfg.products) * len(set(cfg.sweep_betas))), f"{where}: cell count")
        header = self.wl.cli.SWEEP_CSV_HEADER.split(",")
        if self.fmt == "table":
            require(len(out.splitlines()) == 3 + len(expected), f"{where}: table rows")
            return
        if self.fmt == "csv":
            lines = out.splitlines()
            require(lines[0] == self.wl.cli.SWEEP_CSV_HEADER, f"{where}: csv header")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        else:
            rows = [{k: str(v) for k, v in r.items()} for r in json.loads(out)]
        require(len(rows) == len(expected),
                f"{where}: {len(rows)} rows, expected {len(expected)}")
        for row, exp in zip(rows, expected):
            require(list(row) == header, f"{where}: row keys {list(row)}")
            require((row["plant"], row["product"], float(row["beta"]),
                     float(row["daily_cost_usd_per_day"])) == exp,
                    f"{where}: row {row} differs from the library sweep")
            if self.source == PRESET and row["plant"] == "biomass" and not row["product"]:
                require(float(row["operational_usd_per_day"]) == A4_STORAGE_OPERATIONS,
                        f"{where}: biomass storage operations {row['operational_usd_per_day']}")

    def _check_scenario(self, out: str, where: str) -> None:
        ew = self.wl.ew
        cfg = self.wl.configs[self.source]
        beta = self.beta if self.product is not None else 0.0
        result = ew.total_daily_cost(ew.ScenarioConfig(
            plant=self.plant, econ=self._econ(beta), beta=beta, product=self.product,
            water_mode=cfg.water_mode))
        check_ledger(result, where)
        lines = out.splitlines()
        if self.fmt == "table":
            require(len(lines) == 4, f"{where}: table rows")
            return
        if self.fmt == "csv":
            require(lines[0] == self.wl.cli.SWEEP_CSV_HEADER and len(lines) == 2,
                    f"{where}: csv shape")
            row = dict(zip(lines[0].split(","), lines[1].split(",")))
        else:
            rows = json.loads(out)
            require(len(rows) == 1, f"{where}: json rows")
            row = rows[0]
        require(float(row["daily_cost_usd_per_day"]) == result.daily_cost.value_in("$/day"),
                f"{where}: daily cost differs from the library")

    def _check_breakeven(self, out: str, where: str) -> None:
        ew = self.wl.ew
        product = self.product or self.wl.configs[self.source].product("methane")
        d = float(parse_payload(out, self.fmt)["breakeven_distance_km"])
        require(1.0 <= d <= 1000.0, f"{where}: root {d!r} outside the default window")
        econ = ew.econ_for_cell(self.wl.configs[self.source], self.plant, product, 1.0)
        check_root(ew, self.plant, product, econ, d, where)

    def _check_curve(self, out: str, where: str) -> None:
        if self.fmt == "json":
            rows = [(r["capital_usd_per_day"], r["operational_usd_per_day"],
                     r["total_usd_per_day"]) for r in json.loads(out)]
        else:   # the curve command writes CSV for the table format too
            rows = [tuple(float(v) for v in line.split(",")[2:])
                    for line in out.splitlines()[1:]]
        require(len(rows) == CLI_CURVE_DISTANCES * 5, f"{where}: {len(rows)} rows")
        for cap, op, total in rows:
            require(total == cap + op and op >= 0, f"{where}: row ({cap}, {op}, {total})")

    def _check_penalty(self, out: str, where: str) -> None:
        ew = self.wl.ew
        cfg = self.wl.configs[self.source]
        if self.product is None:
            strategy, econ = ew.StoreAll(), self._econ(0.0)
        else:
            strategy, econ = ew.ReuseAll(self.product), self._econ(1.0)
        expected = ew.penalty_threshold(self.plant, strategy, econ,
                                        water_mode=cfg.water_mode).value_in("$/ton")
        got = float(parse_payload(out, self.fmt)["penalty_threshold_usd_per_ton"])
        require(got == expected, f"{where}: threshold {got!r} != library {expected!r}")


class RoundTripOp:
    """The config write path: dump a loaded config, then reload the dump.

    The dump's file is written once per config when the op is drawn, outside
    the timed window; the check confirms that this op's dump is that file.
    """

    def __init__(self, wl: "CliBatch", source: str, path: Path):
        self.wl, self.source, self.path = wl, source, path

    def run(self):
        ew = self.wl.ew
        text = ew.dump_config(self.wl.configs[self.source])
        return text, ew.load_config(str(self.path))

    def check(self, outcome) -> None:
        text, reloaded = outcome
        ew = self.wl.ew
        where = f"dump/reload of {self.source}"
        require(self.path.read_text(encoding="utf-8") == text,
                f"{where}: dump differs from the file reloaded")
        require(ew.dump_config(reloaded) == text, f"{where}: second dump differs")
        require(sweep_signature(sweep_config(ew, reloaded)) ==
                sweep_signature(self.wl.sweep(self.source)),
                f"{where}: sweep results are not bit-identical")


class CliBatch(Workload):
    """In-process CLI calls over five commands x three formats, plus round trips."""

    name = "cli-batch"
    COMMANDS = ("scenario", "sweep", "breakeven", "curve", "penalty")
    FORMATS = ("table", "csv", "json")

    def __init__(self, ew, seed: int, work_dir: Path):
        super().__init__(ew, seed, work_dir)
        import ewhnexus.cli
        self.cli = ewhnexus.cli
        self._sweeps: dict = {}   # source -> its sweep, computed once, for checks
        self._dumps: dict = {}    # source -> file holding its dump
        self._deck: list = []

    def generate(self) -> None:
        ew, rng = self.ew, self.rng
        base = ew.paper_2024()

        def jitter(x: float) -> float:
            return x * rng.uniform(0.9, 1.1)

        modes = (ew.Desalination(), None, ew.SolarSeawater(), None)
        for i in range(CLI_VARIANTS):
            plants = tuple(ew.PlantSpec(
                p.name, ew.Quantity(jitter(p.capacity.magnitude), p.capacity.unit),
                ew.Quantity(jitter(p.emission_factor.magnitude), p.emission_factor.unit))
                for p in base.plants)
            econ = replace(base.econ, elec_price=jitter(base.econ.elec_price),
                           c_sw=rng.uniform(1.0e5, 4.0e5),
                           product_prices={k: jitter(v)
                                           for k, v in base.econ.product_prices.items()})
            mode = modes[i % len(modes)] or ew.NetworkTransfer(
                ew.Quantity(rng.uniform(20.0, 400.0), "km"))
            betas = tuple(sorted(rng.uniform(0.05, 1.0) for _ in range(2)))
            variant = replace(base, econ=econ, plants=plants, water_mode=mode,
                              sweep_betas=betas)
            path = self.work_dir / f"variant-{i}.yaml"
            path.write_text(ew.dump_config(variant), encoding="utf-8")
            self.sources.append(str(path))
        self.plant_names = [p.name for p in base.plants]
        self.product_names = [p.name for p in base.products]

    def sweep(self, source: str):
        if source not in self._sweeps:
            self._sweeps[source] = sweep_config(self.ew, self.configs[source])
        return self._sweeps[source]

    def dump_file(self, source: str) -> Path:
        if source not in self._dumps:
            path = self.work_dir / f"dump-{len(self._dumps)}.yaml"
            path.write_text(self.ew.dump_config(self.configs[source]), encoding="utf-8")
            self._dumps[source] = path
        return self._dumps[source]

    def sweep_rows(self, source: str) -> list[tuple]:
        return [(c.plant, c.product, c.beta, c.result.daily_cost.value_in("$/day"))
                for c in self.sweep(source)]

    def draw(self):
        rng = self.rng
        # commands differ several-fold in latency, so they are dealt from a
        # shuffled deck: every seed runs the same share of each, which keeps
        # p50 and p90 from following the seed's mix
        if not self._deck:
            self._deck = [(c, f) for c in self.COMMANDS for f in self.FORMATS]
            self._deck += [None] * CLI_ROUND_TRIPS
            rng.shuffle(self._deck)
        kind = self._deck.pop()
        if kind is None:
            source = rng.choice(self.sources)
            return RoundTripOp(self, source, self.dump_file(source))
        source = PRESET if rng.random() < 0.4 else rng.choice(self.sources[1:])
        cfg = self.configs[source]
        command, fmt = kind
        plant_name = rng.choice(self.plant_names)
        product_name = rng.choice(self.product_names) if rng.random() < 0.75 else None
        beta = rng.uniform(0.05, 1.0)
        extra: list[str] = []
        if command != "sweep":
            extra += ["--plant", plant_name]
        if command == "curve":
            distances = sorted(rng.uniform(1.0, 500.0) for _ in range(CLI_CURVE_DISTANCES))
            extra += ["--distances", ",".join(repr(d) for d in distances)]
        if product_name is not None and command != "sweep":
            extra += ["--product", product_name]
            if command == "scenario":
                extra += ["--beta", repr(beta)]
        plant = cfg.plant(plant_name)
        product = cfg.product(product_name) if product_name is not None else None
        return CliOp(self, source, command, fmt, extra, plant, product, beta)


WORKLOADS = {w.name: w for w in (GridSweep, WaterBreakeven, CliBatch)}
