#!/usr/bin/env python3
"""ewhnexus benchmark: one seeded workload, a closed loop with one client.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
client issues the next op only after the previous one has returned, in a
single process and thread.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object; the lines before it are a readable
summary.  Result files and spans go to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_S, reference_kernel
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WARMUP_OPS = 3
DEADLINE_S = 150.0    # stop measuring early enough to exit within 180 s
REF_EVERY_S = 0.025   # spacing of reference-kernel samples inside the loop
REF_WINDOW_S = 0.1    # samples this close to an interval give its slowdown

MIN_OPS = 100        # at least this many measured ops, so p90 has 10 beyond it
SETUP_RUNS = 15      # fresh interpreters timed for setup_s (median reported)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}   # name -> unit
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measuring loop; a traced run traces half of it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import ewhnexus from this checkout's src/, never from elsewhere."""
    if not (SRC / "ewhnexus" / "__init__.py").is_file():
        sys.exit(f"bench: no ewhnexus sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import ewhnexus
    if Path(ewhnexus.__file__).resolve().parent != SRC / "ewhnexus":
        sys.exit(f"bench: imported ewhnexus from {ewhnexus.__file__}, not from {SRC}")
    return ewhnexus


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git repository (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import yaml
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "pyyaml": yaml.__version__,
        "libyaml_available": bool(yaml.__with_libyaml__),
        "commit": git_commit(),
    }


class MachineSpeed:
    """Samples of the reference kernel over a run, to read the machine's speed.

    Other tenants of a shared machine slow the kernel and the ops alike, and
    the slowdown changes from one fraction of a second to the next.  An
    interval's slowdown is the mean kernel time within REF_WINDOW_S of it
    over NOMINAL_S, the kernel's time on the quiet baseline machine.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.took.append(reference_kernel())
        self._next = time.perf_counter() + REF_EVERY_S

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        i = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        j = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        if j == i:   # no sample that close: take the next one, or the last
            i = min(i, len(self.at) - 1)
            j = i + 1
        return statistics.fmean(self.took[i:j]) / NOMINAL_S


class SetupProbe:
    """Times import plus config loads in fresh interpreters, one at a time."""

    def __init__(self, workload):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
        if workload.name == "cli-batch":
            self.cmd.append("--cli")
        self.cmd += workload.sources
        self.samples: list[dict] = []

    def sample(self) -> None:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60,
                              check=True, cwd=ROOT)
        self.samples.append(json.loads(proc.stdout.splitlines()[-1]))

    def median(self, *keys: str) -> float:
        """Median of the summed keys, each sample divided by its slowdown."""
        return statistics.median(sum(s[k] for k in keys) / s["slowdown"]
                                 for s in self.samples)


class Loop:
    """Closed loop with one client: time each op, then check it untimed."""

    def __init__(self, speed: MachineSpeed, tracer: Tracer | None = None):
        self.speed = speed
        self.tracer = tracer
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.correct = 0
        self.timed = 0.0

    def step(self, op) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.latencies)
            tracer.active = True
        error = None
        t0 = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:   # counted as a failed op; the loop goes on
            error = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.starts.append(t0)
        self.latencies.append(elapsed)
        self.timed += elapsed
        try:
            if error is not None:
                raise error
            op.check(outcome)
            self.correct += 1
        except Exception as exc:   # check failures and unexpected raises alike
            self.failures.append("".join(traceback.format_exception_only(exc)).strip())
        self.speed.sample_if_due()

    def quiet_latencies(self) -> list[float]:
        """Each op's latency divided by the machine's slowdown around it [s]."""
        slowdown = self.speed.slowdown
        return [lat / slowdown(t0, t0 + lat) for t0, lat in zip(self.starts, self.latencies)]


def latency_stats(latencies: list[float], correct: int) -> dict[str, float]:
    lat = sorted(latencies)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return {"ops_per_s": correct / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": deciles[8] * 1e3}


def run(args, ew, work_dir: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    workload = WORKLOADS[args.workload](ew, args.seed, work_dir)
    workload.generate()
    speed = MachineSpeed()
    probe = SetupProbe(workload)
    problems: list[str] = []

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        problems += tracer.verify_bindings()
        tracer.active = True          # config loads of set-up are traced as op -1
    workload.setup()
    if tracer is not None:
        tracer.active = False

    warm = Loop(speed)
    for _ in range(WARMUP_OPS):
        warm.step(workload.draw())
    problems += [f"warm-up: {f}" for f in warm.failures]

    # set-up is sampled at evenly spaced points of the loop, so that the
    # median spans the run rather than one moment of the machine's load
    budget = args.seconds / 2 if tracer is not None else args.seconds
    loop = Loop(speed, tracer)
    ops = []   # kept for the untraced replay of a traced run only
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if len(probe.samples) < SETUP_RUNS and \
                elapsed >= budget * len(probe.samples) / SETUP_RUNS:
            probe.sample()
            continue
        if (elapsed >= budget and len(loop.latencies) >= MIN_OPS) or \
                time.perf_counter() > deadline:
            break
        op = workload.draw()
        if tracer is not None:
            ops.append(op)
        loop.step(op)

    n_ops = len(loop.latencies)
    detail: dict = {"n_ops": n_ops, "n_setup_runs": len(probe.samples),
                    "setup_samples": probe.samples, "n_reference": len(speed.took)}
    if tracer is None:
        quiet = loop.quiet_latencies()
        metrics = latency_stats(quiet, loop.correct)
        metrics["setup_s"] = probe.median("import_s", "config_s")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: metrics[k] for k in END_TO_END}
        units = END_TO_END
        attempted, failures = n_ops, loop.failures
        detail["measured"] = latency_stats(loop.latencies, loop.correct)
        detail["slowdown"] = loop.timed / sum(quiet)
    else:
        tracer.uninstall()
        problems += tracer.verify_spans()
        plain = Loop(speed)           # the same ops again, untraced
        for op in ops:
            plain.step(op)
        metrics = tracer.summarize(n_ops)
        metrics["setup.import_ms"] = probe.median("import_s") * 1e3
        metrics["setup.config_load_ms"] = probe.median("config_s") * 1e3
        metrics["trace.overhead_pct"] = 100.0 * (
            sum(loop.quiet_latencies()) / sum(plain.quiet_latencies()) - 1.0)
        detail["measured"] = {"trace.overhead_pct": 100.0 * (loop.timed / plain.timed - 1.0)}
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = PER_LAYER
        attempted, failures = n_ops + len(plain.latencies), loop.failures + plain.failures
        detail["missing_trace_targets"] = tracer.missing
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail.update(problems=problems, failures=failures[:20],
                  error_rate=len(failures) / attempted if attempted else 1.0,
                  wall_s=time.perf_counter() - started)
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    ew = import_library()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    try:
        result, detail = run(args, ew, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **detail, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{detail['n_ops']} ops, {result['failed']} failed of {result['attempted']} "
          f"(error_rate {detail['error_rate']:g}), correct={result['correct']}")
    print("# env " + json.dumps(env))
    for k, m in result["metrics"].items():
        n = detail["n_setup_runs"] if k.startswith("setup") else detail["n_ops"]
        print(f"# {k:<44} {m['value']:>14.6g} {m['unit']:<12} n={n}")
    print(f"# as measured, before removing the machine's slowdown "
          f"({detail['n_reference']} reference samples): " +
          ", ".join(f"{k} {v:.6g}" for k, v in detail["measured"].items()))
    for line in detail["problems"] + detail["failures"][:5]:
        print("# FAIL " + line.splitlines()[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
