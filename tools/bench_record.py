"""Record and compare end-to-end runs of ``bench/run.py``, with the standard library only.

Run from the repository root:

    python tools/bench_record.py compare --parent REV --workload grid-sweep --seeds 101-110
    python tools/bench_record.py replay --parent REV --workload grid-sweep --seeds 101-110 \
        --ops 1500
    python tools/bench_record.py record --pr N [--seeds 1-5]

Every run lasts ``BENCHMARK.json``'s ``run_seconds`` (T).  ``compare`` unpacks
REV's committed files with ``git archive`` into a temporary directory, so the
repository's ``.git`` state does not change, and runs one alternating
parent/change pair of ``bench/run.py --workload W --seed S --seconds T
--trace 0`` per listed seed: the parent first on even pairs and the change
first on odd ones, each run in a fresh interpreter, the change from this
checkout's working tree.  It prints, per end-to-end metric, both
sides' medians and quartiles, the pairs the change won and the verdict of the
claim rule: at least 10 pairs, at least 9 in 10 won, and medians further apart
than the parent's IQR, the change on the better side.  Under the table come
both sides' median and quartiles of the ops a run attempted, with which a metric
that follows the op count, such as ``peak_rss_mb``, moves.  A median more than
10% worse than the parent's is flagged SLOWER, and one past its
``BENCHMARK.json`` bound too.  ``compare`` and ``replay`` refuse a seed that a
committed ``BENCH_*.json`` lists, so a claim is made on seeds no record was
tuned on.

``replay`` measures at fixed work instead of for T.  Per listed seed it runs
REV's tree and this one in fresh interpreters, alternating as ``compare`` does;
each side imports its own tree's ``src/`` and ``bench/run.py``, draws the
seed's ops, runs ``REPLAY_WARMUP`` of them untimed and then times, checks and
drops each of the next N, so its memory does not grow with N.  Both sides run
the same N ops.  As in ``bench/run.py``, the reference kernel is sampled between
ops (``MachineSpeed``), and each op's time is divided by the machine's slowdown
around it.  It prints, per op kind (the sweep's water mode, breakeven or
curve, the CLI's command and format, or round trip) and side, the ops and the
median over the seeds of each seed's median and quartiles of per-op time, with
the seeds whose median the change won, then the claim rule over the per-seed
totals of timed seconds (``total_s``, bound by ``ops_per_s``'s, which it inverts
at fixed work) and over the peak RSS, by ``resource.getrusage``.  It writes no
file.

``record`` runs every workload over the seeds on this checkout and writes
``BENCH_<N>.json`` at the repository root: per workload and metric the
median, quartiles, n, values and seeds, and each run's attempted ops, with the
git head, Python and CPU model.

``compare`` unpacks with ``tarfile``'s ``data`` filter where this Python has it
(3.10.12, 3.11.4, 3.12 and later), and without one on older patch releases.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}   # name -> unit, better, bound
RULES = {**METRICS, "total_s": {**METRICS["ops_per_s"], "unit": "s", "better": "lower"}}
SECONDS = SPEC["run_seconds"]   # the one run length, for a claim and a record alike
MIN_PAIRS, MIN_WON, SLOWER = 10, 0.9, 0.10
REPLAY_WARMUP = 50   # untimed ops a replay runs first, drawn from the seed's stream


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``1,2,5`` or ``101-110`` (inclusive) or a mix of the two."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def result_of(stdout: str) -> dict:
    """The result object that ``bench/run.py`` prints as its last line of stdout."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError(f"not a bench/run.py result: {sorted(result)}")
    return result


def summary(values: list[float]) -> dict:
    """n, median and the quartiles (inclusive method) of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def verdict(metric: str, parent: list[float], change: list[float]) -> dict:
    """The claim rule and the slowdown flags for one metric over paired runs, pair i
    being (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("a comparison needs as many parent as change runs, at least one")
    lower = RULES[metric]["better"] == "lower"
    p, c = summary(parent), summary(change)
    won = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))   # ties: neither
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    worse = -gain / p["median"]   # every end-to-end metric is positive
    return {"metric": metric, "parent": p, "change": c, "pairs": len(parent), "won": won,
            "parent_iqr": iqr, "relative_change": (c["median"] - p["median"]) / p["median"],
            "claim": len(parent) >= MIN_PAIRS and won >= MIN_WON * len(parent) and gain > iqr,
            "slower": worse > SLOWER, "past_bound": worse > RULES[metric]["bound"]}


def report(verdicts: list[dict], runs: list[tuple[str, int, dict]]) -> str:
    """The comparison as text: one row per metric and one of the ops each run attempted,
    then any run that was not correct."""
    def cell(side: dict) -> str:
        return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"

    lines = [f"{'metric':<15} {'parent median [q1, q3]':<31} {'change median [q1, q3]':<31} "
             f"{'change':>7} {'won':>6}  verdict"]
    for v in verdicts:
        flags = [("claim holds" if v["claim"] else "no claim")
                 + f" (parent IQR {v['parent_iqr']:.4g})"]
        flags += ["SLOWER >10%"] * v["slower"] + ["PAST BOUND"] * v["past_bound"]
        lines.append(f"{v['metric']:<15} {cell(v['parent']):<31} {cell(v['change']):<31} "
                     f"{100 * v['relative_change']:>+6.1f}% {v['won']:>3}/{v['pairs']:<2}  "
                     + "; ".join(flags))
    parent, change = (summary([r["attempted"] for s, _, r in runs if s == side])
                      for side in ("parent", "change"))
    lines.append(f"{'attempted':<15} {cell(parent):<31} {cell(change):<31} "
                 f"{100 * (change['median'] / parent['median'] - 1):>+6.1f}%  ops per run")
    bad = [f"{side} seed {seed}: correct={r['correct']}, {r['failed']} of {r['attempted']} "
           f"ops failed" for side, seed, r in runs if not r["correct"] or r["failed"]]
    lines += bad or [f"all {len(runs)} runs correct, no op failed"]
    return "\n".join(lines) + "\n"


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run on ``tree`` in a fresh interpreter; its result object."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", f"{SECONDS:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    return result_of(proc.stdout)


def values(result: dict) -> str:
    return " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())


def recorded_seeds() -> dict[int, str]:
    """Seed -> the committed record that lists it, over every ``BENCH_*.json``."""
    listed: dict[int, str] = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        for workload in json.loads(path.read_text(encoding="utf-8"))["workloads"].values():
            listed.update(dict.fromkeys(workload["seeds"], path.name))
    return listed


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def fresh_seeds(args: argparse.Namespace) -> list[int]:
    """``args.seeds``, or exit naming those a committed record lists."""
    seeds = parse_seeds(args.seeds)
    listed = recorded_seeds()
    if used := [s for s in seeds if s in listed]:
        sys.exit(f"{args.command}: seeds {used} are listed in "
                 f"{sorted({listed[s] for s in used})}; a claim runs on seeds no committed "
                 f"record lists")
    return seeds


def paired_runs(args: argparse.Namespace, run) -> list[tuple[str, int, dict]]:
    """(side, seed, ``run(tree, seed)``) of the alternating pairs over ``args.seeds``: the
    parent first on even pairs, its tree unpacked from ``args.parent`` by ``git archive``."""
    seeds = fresh_seeds(args)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        trees = {"parent": Path(tmp), "change": ROOT}
        runs: list[tuple[str, int, dict]] = []
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run(trees[side], seed)
                runs.append((side, seed, result))
                print(f"# pair {i + 1}/{len(seeds)} {side:<6} seed {seed}: {values(result)}",
                      file=sys.stderr, flush=True)
    return runs


def compare(args: argparse.Namespace) -> int:
    runs = paired_runs(args, lambda tree, seed: run_bench(tree, args.workload, seed))
    print(f"# {args.workload}: {len(runs) // 2} alternating pairs of {SECONDS:g} s, seeds "
          f"{args.seeds}, parent {args.parent} against the working tree")
    side_values = {side: {m: [r["metrics"][m]["value"] for s, _, r in runs if s == side]
                          for m in METRICS} for side in ("parent", "change")}
    sys.stdout.write(report([verdict(m, side_values["parent"][m], side_values["change"][m])
                             for m in METRICS], runs))
    return 0


def op_kind(op) -> str:
    """The kind of a drawn ``bench/workloads.py`` op that a replay reports on its own row."""
    name = type(op).__name__
    if name == "SweepOp":
        return f"sweep/{type(op.mode).__name__}"
    if name == "CliOp":
        return f"{op.command}/{op.fmt}"
    return {"BreakevenOp": "breakeven", "CurveOp": "curve", "RoundTripOp": "round trip"}[name]


def load_bench(tree: Path):
    """``tree``'s ``bench/run.py``, imported read-only with ``tree``'s ``bench/`` on the path,
    for its ``import_library``, its ``WORKLOADS`` and its ``MachineSpeed``."""
    sys.path.insert(0, str(tree / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", tree / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workload(bench, workload: str, seed: int, work_dir: Path):
    """``bench``'s workload ``workload`` for ``seed``, generated and set up, on the ewhnexus
    of ``bench``'s tree, which must be the package this process imports."""
    wl = bench.WORKLOADS[workload](bench.import_library(), seed, work_dir)
    wl.generate()
    wl.setup()
    return wl


def quiet_times(timed: dict[str, list[tuple[float, float]]], slowdown) -> dict[str, list[float]]:
    """Per kind, each op's time [s] divided by ``slowdown(start, end)``, the machine's slowdown
    around it, as ``bench/run.py``'s ``Loop.quiet_latencies`` does; ``timed`` holds each op's
    start and time."""
    return {kind: [t / slowdown(t0, t0 + t) for t0, t in ops] for kind, ops in timed.items()}


def replay_side(tree: Path, workload: str, seed: int, ops: int) -> dict:
    """One side of a replay, in this interpreter: each kind's ``summary`` of per-op time [us]
    of ``ops`` checked ops after ``REPLAY_WARMUP``, each divided by the machine's slowdown
    around it (``quiet_times``), as a result of ``bench/run.py``'s shape.

    Only summaries leave the process: a child's ``ru_maxrss`` starts at its parent's peak
    RSS (Linux keeps it across ``execve``), so ``replay`` must not grow with the op count."""
    timed: dict[str, list[tuple[float, float]]] = {}
    failures = 0
    bench = load_bench(tree)
    speed = bench.MachineSpeed()   # sampled between ops, outside their times, as run.py does
    with tempfile.TemporaryDirectory(prefix="bench-replay-") as work_dir:
        wl = load_workload(bench, workload, seed, Path(work_dir))
        for i in range(REPLAY_WARMUP + ops):
            op, error = wl.draw(), None
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:   # a failed op, as in bench/run.py; the replay goes on
                error = exc
            elapsed = time.perf_counter() - t0
            try:
                if error is not None:
                    raise error
                op.check(outcome)
            except Exception:   # check failures and unexpected raises alike
                failures += 1
            if i >= REPLAY_WARMUP:
                timed.setdefault(op_kind(op), []).append((t0, elapsed))
            speed.sample_if_due()
    by_kind = quiet_times(timed, speed.slowdown)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"correct": not failures, "attempted": ops, "failed": failures,
            "kinds": {k: summary([1e6 * t for t in times]) for k, times in by_kind.items()},
            "metrics": {"total_s": {"value": sum(map(sum, by_kind.values())), "unit": "s"},
                        "peak_rss_mb": {"value": peak, "unit": "MiB"}}}


def run_replay(tree: Path, workload: str, seed: int, ops: int) -> dict:
    """``replay_side`` on ``tree`` in a fresh interpreter; its result object."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "replay-side",
                           str(tree), workload, str(seed), str(ops)],
                          capture_output=True, text=True, check=True)
    return result_of(proc.stdout)


def replay_report(runs: list[tuple[str, int, dict]]) -> str:
    """Per op kind, each side's ops and the median over the seeds of each seed's median and
    quartiles of per-op time [us], and the seeds whose median the change won; then
    ``report`` on the per-seed totals."""
    kinds = list(dict.fromkeys(k for _, _, r in runs for k in r["kinds"]))
    seeds = list(dict.fromkeys(seed for _, seed, _ in runs))
    sides = {(side, seed): r["kinds"] for side, seed, r in runs}

    def cell(side: dict) -> str:
        return f"{side['median']:.1f} [{side['q1']:.1f}, {side['q3']:.1f}]"

    lines = [f"{'kind':<22} {'ops':>6} {'parent median [q1, q3] us':<29} "
             f"{'change median [q1, q3] us':<29} {'change':>7} {'won':>6}"]
    for kind in kinds:   # each seed draws the same ops on both sides
        per_seed = [seed for seed in seeds if kind in sides["parent", seed]]
        p, c = ({"n": sum(sides[side, seed][kind]["n"] for seed in per_seed),
                 **{stat: statistics.median(sides[side, seed][kind][stat] for seed in per_seed)
                    for stat in ("median", "q1", "q3")}} for side in ("parent", "change"))
        won = sum(sides["change", seed][kind]["median"] < sides["parent", seed][kind]["median"]
                  for seed in per_seed)
        lines.append(f"{kind:<22} {p['n']:>6} {cell(p):<29} {cell(c):<29} "
                     f"{100 * (c['median'] / p['median'] - 1):>+6.1f}% {won:>3}/{len(per_seed):<2}")
    verdicts = [verdict(m, *([r["metrics"][m]["value"] for s, _, r in runs if s == side]
                             for side in ("parent", "change")))
                for m in ("total_s", "peak_rss_mb")]
    return "\n".join(lines) + "\n" + report(verdicts, runs)


def replay(args: argparse.Namespace) -> int:
    runs = paired_runs(args, lambda tree, seed: run_replay(tree, args.workload, seed, args.ops))
    print(f"# {args.workload} replay: {len(runs) // 2} alternating pairs of {args.ops} ops "
          f"after {REPLAY_WARMUP} warm-up, seeds {args.seeds}, parent {args.parent} against "
          f"the working tree")
    sys.stdout.write(replay_report(runs))
    return 0


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def record(args: argparse.Namespace) -> int:
    seeds = parse_seeds(args.seeds)
    workloads = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = []
        for seed in seeds:
            results.append(run_bench(ROOT, workload, seed))
            print(f"# {workload} seed {seed}: {values(results[-1])}", file=sys.stderr,
                  flush=True)
        workloads[workload] = {
            "seeds": seeds, "correct": all(r["correct"] and not r["failed"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "metrics": {m: {**summary(vals := [r["metrics"][m]["value"] for r in results]),
                            "unit": METRICS[m]["unit"], "values": vals} for m in METRICS}}
    doc = {"pr": args.pr, "git_head": git("rev-parse", "HEAD").strip(),
           "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
           "python": platform.python_version(), "cpu_model": cpu_model(),
           "seconds": SECONDS, "trace": 0, "workloads": workloads}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cmp = commands.add_parser("compare", help="alternating parent/change pairs and the verdict")
    cmp.add_argument("--parent", required=True, help="git revision of the parent")
    cmp.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    cmp.add_argument("--seeds", required=True, help="one pair per seed, e.g. 101-110 or 3,5,8")
    rep = commands.add_parser("replay", help="alternating parent/change pairs at fixed work")
    rep.add_argument("--parent", required=True, help="git revision of the parent")
    rep.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    rep.add_argument("--seeds", required=True, help="one pair per seed, e.g. 101-110 or 3,5,8")
    rep.add_argument("--ops", type=int, required=True, help="timed ops per run")
    side = commands.add_parser("replay-side", help="one side of a replay, run by replay")
    side.add_argument("tree", type=Path)
    side.add_argument("workload")
    side.add_argument("seed", type=int)
    side.add_argument("ops", type=int)
    rec = commands.add_parser("record", help="write BENCH_<pr>.json for this checkout")
    rec.add_argument("--pr", type=int, required=True)
    rec.add_argument("--seeds", default="1-5")
    args = parser.parse_args(argv)
    if args.command == "replay-side":
        print(json.dumps(replay_side(args.tree, args.workload, args.seed, args.ops)))
        return 0
    return {"compare": compare, "replay": replay, "record": record}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
