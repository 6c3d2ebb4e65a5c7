"""The developer tools under ``tools/`` still reach what they time."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_layer_times_row_runs_once():
    # untimed: a renamed or re-signatured target fails here, not in a timing run
    spec = importlib.util.spec_from_file_location("layer_times", ROOT / "tools" / "layer_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = module.rows()
    labels = [label for label, _ in rows]
    assert len(set(labels)) == len(labels)
    for label in ("dump_config", "render sweep json", "cli.main sweep --format json",
                  "cli.main scorecard --format json", "cli.main decide --format json",
                  "breakeven_distance, no crossing",
                  "penalty_threshold, reuse-all", "cli.parse_args",
                  "cli.main penalty --format csv", "cli.main breakeven --format json",
                  "cli.main scenario --format json",
                  "interpreter start + import ewhnexus.cli"):
        assert label in labels
    for _, call in rows:
        call()
