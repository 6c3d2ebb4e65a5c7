"""Record and compare end-to-end runs of ``bench/run.py``, with the standard library only.

Run from the repository root:

    python tools/bench_record.py compare --parent REV --workload grid-sweep --seeds 101-110
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
``BENCHMARK.json`` bound too.  A seed that a committed ``BENCH_*.json`` lists
is refused, so a claim is made on seeds no record was tuned on.

``record`` runs every workload over the seeds on this checkout and writes
``BENCH_<N>.json`` at the repository root: per workload and metric the
median, quartiles, n, values and seeds, and each run's attempted ops, with the
git head, Python and CPU model.

``compare`` unpacks with ``tarfile``'s ``data`` filter where this Python has it
(3.10.12, 3.11.4, 3.12 and later), and without one on older patch releases.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}   # name -> unit, better, bound
SECONDS = SPEC["run_seconds"]   # the one run length, for a claim and a record alike
MIN_PAIRS, MIN_WON, SLOWER = 10, 0.9, 0.10


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
    lower = METRICS[metric]["better"] == "lower"
    p, c = summary(parent), summary(change)
    won = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))   # ties: neither
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    worse = -gain / p["median"]   # every end-to-end metric is positive
    return {"metric": metric, "parent": p, "change": c, "pairs": len(parent), "won": won,
            "parent_iqr": iqr, "relative_change": (c["median"] - p["median"]) / p["median"],
            "claim": len(parent) >= MIN_PAIRS and won >= MIN_WON * len(parent) and gain > iqr,
            "slower": worse > SLOWER, "past_bound": worse > METRICS[metric]["bound"]}


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


def compare(args: argparse.Namespace) -> int:
    seeds = parse_seeds(args.seeds)
    listed = recorded_seeds()
    if used := [s for s in seeds if s in listed]:
        sys.exit(f"compare: seeds {used} are listed in {sorted({listed[s] for s in used})}; "
                 f"a claim runs on seeds no committed record lists")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        trees = {"parent": Path(tmp), "change": ROOT}
        runs: list[tuple[str, int, dict]] = []
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_bench(trees[side], args.workload, seed)
                runs.append((side, seed, result))
                print(f"# pair {i + 1}/{len(seeds)} {side:<6} seed {seed}: {values(result)}",
                      file=sys.stderr, flush=True)
    print(f"# {args.workload}: {len(seeds)} alternating pairs of {SECONDS:g} s, seeds "
          f"{args.seeds}, parent {args.parent} against the working tree")
    side_values = {side: {m: [r["metrics"][m]["value"] for s, _, r in runs if s == side]
                          for m in METRICS} for side in ("parent", "change")}
    sys.stdout.write(report([verdict(m, side_values["parent"][m], side_values["change"][m])
                             for m in METRICS], runs))
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
    rec = commands.add_parser("record", help="write BENCH_<pr>.json for this checkout")
    rec.add_argument("--pr", type=int, required=True)
    rec.add_argument("--seeds", default="1-5")
    args = parser.parse_args(argv)
    return compare(args) if args.command == "compare" else record(args)


if __name__ == "__main__":
    sys.exit(main())
