"""The developer tools under ``tools/`` still reach what they time."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_layer_times_row_runs_once():
    # untimed: a renamed or re-signatured target fails here, not in a timing run
    rows = load_tool("layer_times").rows()
    labels = [label for label, _ in rows]
    assert len(set(labels)) == len(labels)
    for label in ("dump_config", "render sweep json", "cli.main sweep --format json",
                  "cli.main scorecard --format json", "cli.main decide --format json",
                  "breakeven_distance, no crossing", "quantities.add_hourly, 24-hour run",
                  "penalty_threshold, reuse-all", "cli.parse_args",
                  "cli.main penalty --format csv", "cli.main breakeven --format json",
                  "cli.main penalty --format csv, config file",
                  "load_config, config file (cached text)",
                  "scenario_sweep, 102 cells (grid-sweep's shape)",
                  "cli.main scenario --format json",
                  "interpreter start + import ewhnexus.cli",
                  "economics._column, reuse column",
                  "economics._result, reuse column", "economics._result, storage column",
                  "economics._price_row, reuse column", "economics._price_row, storage column",
                  "cli.main sweep --format csv, 150 km transfer",
                  "cli.main sweep --format csv, solar seawater",
                  "EconParams, one field replaced", "Quantity.value_in('$/ton'), its own unit",
                  "TimeSeries.values_in('ton/h'), 24 ton/day steps",
                  "water.pipe_length_m(100.0, 'km')", "ScenarioConfig, reuse cell",
                  "SweepGrid, the preset's grid", "BreakevenQuery, a window"):
        assert label in labels
    for _, call in rows:
        call()


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(p50: float, ops: float, correct: bool = True, failed: int = 0,
                attempted: int = 1000) -> str:
    """A canned last line of ``bench/run.py``, as it prints one for ``--trace 0``."""
    metrics = {"setup_s": 0.06, "ops_per_s": ops, "latency_p50_ms": p50,
               "latency_p90_ms": 1.2 * p50, "peak_rss_mb": 20.5}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}})


def test_bench_record_statistics_and_claim_rule_on_canned_lines():
    tool = load_tool("bench_record")
    assert tool.parse_seeds("101-103,7") == [101, 102, 103, 7]
    assert tool.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"n": 5, "median": 3.0, "q1": 2.0,
                                                       "q3": 4.0}
    assert tool.summary([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5}
    with pytest.raises(ValueError):
        tool.result_of('# summary\n{"metrics": {}}\n')

    base = [0.95, 0.93, 0.96, 0.95, 0.97, 0.93, 0.98, 0.94, 0.96, 0.95]
    parent = [tool.result_of(f"# summary\n{result_line(p, 1 / p)}\n") for p in base]
    change = [tool.result_of(result_line(p - 0.08, 1 / (p - 0.08))) for p in base]

    def values(runs, metric):
        return [r["metrics"][metric]["value"] for r in runs]

    p50 = tool.verdict("latency_p50_ms", values(parent, "latency_p50_ms"),
                       values(change, "latency_p50_ms"))
    assert (p50["pairs"], p50["won"], p50["claim"], p50["slower"]) == (10, 10, True, False)
    assert p50["parent"]["median"] == 0.95 and p50["change"]["median"] == pytest.approx(0.87)
    # inclusive quartiles of the sorted ten: positions 2.25 and 6.75, 0.9425 and 0.96
    assert p50["parent_iqr"] == pytest.approx(0.0175)
    # higher is better for throughput; the rule reads the direction from BENCHMARK.json
    ops = tool.verdict("ops_per_s", values(parent, "ops_per_s"), values(change, "ops_per_s"))
    assert ops["won"] == 10 and ops["claim"] and ops["relative_change"] > 0
    # too few pairs, too few won, or a gap within the parent's IQR: no claim
    assert not tool.verdict("latency_p50_ms", base[:9], [p - 0.08 for p in base[:9]])["claim"]
    two_lost = [p - 0.08 for p in base[:8]] + [p + 0.01 for p in base[8:]]
    lost = tool.verdict("latency_p50_ms", base, two_lost)
    assert (lost["won"], lost["claim"]) == (8, False)
    near = tool.verdict("latency_p50_ms", base, [p - 0.01 for p in base])
    assert (near["won"], near["claim"]) == (10, False)
    # a slowdown over 10% is flagged, and one past the metric's bound (15%) too
    slower = tool.verdict("latency_p50_ms", base, [p * 1.12 for p in base])
    assert (slower["won"], slower["claim"], slower["slower"], slower["past_bound"]) == (
        0, False, True, False)
    assert tool.verdict("ops_per_s", base, [p * 0.8 for p in base])["past_bound"]

    runs = [("parent", 1, parent[0]), ("change", 1, change[0])]
    text = tool.report([p50, slower], runs)
    assert "claim holds" in text and "SLOWER >10%" in text
    assert text.endswith("all 2 runs correct, no op failed\n")
    broken = tool.result_of(result_line(0.9, 1.1, correct=False, failed=3))
    assert "change seed 2: correct=False, 3 of 1000 ops failed" in tool.report(
        [p50], runs + [("change", 2, broken)])


def test_bench_record_shows_the_ops_each_run_attempted(tmp_path, monkeypatch):
    # a metric that follows the op count (peak_rss_mb) is read beside it, from either output
    tool = load_tool("bench_record")
    runs = [(side, seed, tool.result_of(result_line(0.9, 1.1, attempted=n)))
            for side, seed, n in [("parent", 1, 1000), ("change", 1, 1300), ("change", 2, 1200),
                                  ("parent", 2, 900), ("parent", 3, 1100), ("change", 3, 1250)]]
    verdicts = [tool.verdict("peak_rss_mb", [20.5] * 3, [20.5] * 3)]
    table = tool.report(verdicts, runs).splitlines()
    assert table[2].split() == ["attempted", "1000", "[950,", "1050]", "1250", "[1225,", "1275]",
                                "+25.0%", "ops", "per", "run"]
    assert table[3] == "all 6 runs correct, no op failed"

    counts = iter([1000, 1300, 900, 1200, 1100, 1250])
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "git", lambda *args: "")
    monkeypatch.setattr(tool, "run_bench", lambda tree, workload, seed: tool.result_of(
        result_line(0.9, 1.1, attempted=next(counts))))
    assert tool.main(["record", "--pr", "7", "--seeds", "1-2"]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert [w["attempted"] for w in record["workloads"].values()] == [[1000, 1300], [900, 1200],
                                                                     [1100, 1250]]


def replay_line(tool, total_s: float, rss: float, kinds: dict[str, list[float]]) -> str:
    """A canned last line of ``bench_record.py replay-side``, with ``kinds``' per-op times."""
    return json.dumps({"correct": True, "attempted": sum(map(len, kinds.values())), "failed": 0,
                       "kinds": {k: tool.summary(v) for k, v in kinds.items()},
                       "metrics": {"total_s": {"value": total_s, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MiB"}}})


def canned_replay(tool, pairs: int = 10) -> list[tuple[str, int, dict]]:
    """Alternating sides over ``pairs`` seeds: the change's sweeps 10% faster, its
    breakevens as fast, its totals lower on every seed and its RSS the same."""
    runs = []
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            speed = 0.9 if side == "change" else 1.0
            kinds = {"sweep/Desalination": [speed * (800 + i), speed * 820],
                     "breakeven": [25, 24 + i % 3]}
            total = 1e-6 * sum(map(sum, kinds.values()))
            runs.append((side, 100 + i, tool.result_of(replay_line(tool, total, 20.0, kinds))))
    return runs


def test_bench_record_replay_reports_each_kind_and_the_claim_rule_on_canned_lines():
    tool = load_tool("bench_record")
    lines = tool.replay_report(canned_replay(tool)).splitlines()
    assert lines[0].split() == ["kind", "ops", "parent", "median", "[q1,", "q3]", "us", "change",
                                "median", "[q1,", "q3]", "us", "change", "won"]
    # 20 ops a side; the seeds' median of each seed's median [q1, q3] (seed i's parent sweeps
    # [800 + i, 820] have median 810 + i/2, q1 805 + 3i/4, q3 815 + i/4); the seeds won
    assert lines[1].split() == ["sweep/Desalination", "20", "812.2", "[808.4,", "816.1]", "731.0",
                                "[727.5,", "734.5]", "-10.0%", "10/10"]
    assert lines[2].split() == ["breakeven", "20", "25.0", "[25.0,", "25.0]", "25.0", "[25.0,",
                                "25.0]", "+0.0%", "0/10"]
    total, rss = lines[4].split(), lines[5].split()
    assert total[0] == "total_s" and "10/10" in total and "claim holds" in lines[4]
    assert rss[0] == "peak_rss_mb" and "0/10" in rss and "no claim" in lines[5]
    assert lines[-1] == "all 20 runs correct, no op failed"
    # total time is lower-is-better, bound as ops_per_s, which it inverts at fixed work
    slower = tool.verdict("total_s", [1.0] * 10, [1.2] * 10)
    assert (slower["won"], slower["claim"], slower["past_bound"]) == (0, False, True)


def test_bench_record_replay_runs_both_trees_and_writes_no_file(monkeypatch, capsys):
    tool = load_tool("bench_record")
    canned = {(side, seed): r for side, seed, r in canned_replay(tool, 2)}
    sides = []

    def run_replay(tree, workload, seed, ops):
        side = "change" if tree == tool.ROOT else "parent"
        assert (tree / "src" / "ewhnexus" / "cli.py").is_file() and (workload, ops) == (
            "grid-sweep", 7)
        sides.append((side, seed))
        return canned[side, seed]

    monkeypatch.setattr(tool, "run_replay", run_replay)
    before = sorted(tool.ROOT.iterdir())
    assert tool.main(["replay", "--parent", "HEAD", "--workload", "grid-sweep",
                      "--seeds", "100-101", "--ops", "7"]) == 0
    assert sorted(tool.ROOT.iterdir()) == before
    assert sides == [("parent", 100), ("change", 100), ("change", 101), ("parent", 101)]
    out = capsys.readouterr().out
    assert out.startswith("# grid-sweep replay: 2 alternating pairs of 7 ops after 50 warm-up")
    with pytest.raises(SystemExit, match="seeds \\[701\\] are listed in"):
        tool.main(["replay", "--parent", "HEAD", "--workload", "grid-sweep", "--seeds", "701",
                   "--ops", "7"])


@pytest.mark.parametrize("workload", ["grid-sweep", "water-breakeven", "cli-batch"])
def test_two_draws_from_one_seed_give_the_same_op_kinds(workload, tmp_path, monkeypatch):
    tool = load_tool("bench_record")
    monkeypatch.setattr(sys, "path", list(sys.path))
    kinds = []
    for i in range(2):
        (tmp_path / str(i)).mkdir()
        wl = tool.load_workload(tool.load_bench(ROOT), workload, 4, tmp_path / str(i))
        kinds.append([tool.op_kind(wl.draw()) for _ in range(60)])
    assert kinds[0] == kinds[1] and len(set(kinds[0])) > 1


def test_a_replay_divides_each_op_by_the_slowdown_around_it():
    tool = load_tool("bench_record")
    # canned (start, time) pairs [s]; the machine runs at half speed before t = 10 s and at a
    # quarter after, so a slowdown of 2 and then of 4
    timed = {"breakeven": [(1.0, 0.004), (12.0, 0.008)], "curve": [(9.0, 0.5), (11.0, 0.2)]}
    seen = []

    def slowdown(start, end):
        seen.append((start, end))
        return 2.0 if end < 10.0 else 4.0

    assert tool.quiet_times(timed, slowdown) == {"breakeven": [0.002, 0.002],
                                                 "curve": [0.25, 0.05]}
    assert seen == [(1.0, 1.004), (12.0, 12.008), (9.0, 9.5), (11.0, 11.2)]


def test_a_replay_side_times_checks_and_counts_its_ops(monkeypatch):
    tool = load_tool("bench_record")
    monkeypatch.setattr(sys, "path", list(sys.path))
    result = tool.replay_side(ROOT, "water-breakeven", 4, 12)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 12, 0)
    assert set(result["kinds"]) <= {"breakeven", "curve"}
    assert sum(k["n"] for k in result["kinds"].values()) == 12
    assert all(0 < k["q1"] <= k["median"] <= k["q3"] for k in result["kinds"].values())
    assert result["metrics"]["total_s"]["value"] > 0
