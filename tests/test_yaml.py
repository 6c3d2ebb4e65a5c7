"""The YAML layer under ``config``: libyaml's C loader and dumper when PyYAML
has them, the pure-Python ones otherwise, with equal documents and dump text."""

import io
import math
import re
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from ewhnexus import _yaml, config
from ewhnexus.cli import main
from ewhnexus.config import ConfigError, dump_config, load_config_text
from ewhnexus.quantities import UNITS

GOLDEN = Path(__file__).parent / "golden"
PRESET_TEXT = resources.files("ewhnexus").joinpath("presets", "paper-2024.yaml").read_text()
DOCUMENTS = {"paper-2024.yaml": PRESET_TEXT,
             **{p.name: p.read_text() for p in sorted(GOLDEN.glob("dump_*.yaml"))}}
MALFORMED = {"truncated flow list": "econ: [1, 2",
             "tab indent": "econ:\n\telec_price: 0.25 $/kWh\n"}


class PurePythonLoader(_yaml._RejectRepeatedKeys, yaml.SafeLoader):
    """PyYAML's pure-Python loader with the repeated-key check of ``_yaml._Loader``."""


def pure_python():
    """Run ``config`` on PyYAML's pure-Python loader and dumper inside the block."""
    return mock.patch.multiple(_yaml, _Loader=PurePythonLoader, _Dumper=yaml.SafeDumper)


def emitter_raises():
    """Make any call of PyYAML's emitter raise inside the block: a config dump is written
    by ``_yaml.safe_dump`` itself, and the emitter only checks it."""
    called = mock.Mock(side_effect=AssertionError("a config dump reached the emitter"))
    return mock.patch.multiple(yaml, dump=called, serialize=called)


def test_libyaml_is_used_when_pyyaml_has_it():
    # the C parser makes a config load about ten times faster; losing it costs every CLI call
    base, dumper = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__ else
                    (yaml.SafeLoader, yaml.SafeDumper))
    assert _yaml._Loader.__bases__ == (_yaml._RejectRepeatedKeys, base)
    assert _yaml._Dumper is dumper
    assert config.yaml is _yaml


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_both_loaders_give_equal_configs_and_dumps(name):
    text = DOCUMENTS[name]
    fast = load_config_text(text)
    with pure_python():
        slow = load_config_text(text)
        with emitter_raises():
            slow_dump = dump_config(slow)
    assert fast == slow
    with emitter_raises():
        assert dump_config(fast) == slow_dump
    if name.startswith("dump_"):
        assert slow_dump == text


def _jitter_magnitudes(draw, node):
    """The preset tree with every ``"value unit"`` magnitude and bare float redrawn."""
    if isinstance(node, dict):
        return {k: _jitter_magnitudes(draw, v) for k, v in node.items()}
    if isinstance(node, list):
        return [_jitter_magnitudes(draw, v) for v in node]
    if isinstance(node, str) and " " in node:
        unit = node.split(" ", 1)[1]
        mantissa = draw(st.floats(1.0, 10.0, exclude_max=True))
        return f"{mantissa * 10.0 ** draw(st.integers(-30, 30))!r} {unit}"
    if isinstance(node, float):
        return draw(st.floats(1e-9, 1.0))
    return node


@st.composite
def jittered_configs(draw):
    data = _jitter_magnitudes(draw, yaml.safe_load(PRESET_TEXT))
    data["econ"]["horizon_years"] = draw(st.integers(1, 60))
    data["sweep"]["betas"] = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                                           max_size=20, unique=True))
    data["policy"]["include_hydrogen_capital"] = draw(st.booleans())
    mode = draw(st.sampled_from(["desalination", "network_transfer", "solar_seawater"]))
    data["water"] = {"mode": mode}
    if mode == "solar_seawater" or draw(st.booleans()):
        data["econ"]["c_sw"] = f"{draw(st.floats(0.0, 1e30))!r} $/(m3/h)"
    if mode == "network_transfer":
        data["water"]["distance"] = f"{draw(st.floats(0.0, 1e4))!r} km"
    return load_config_text(yaml.safe_dump(data, sort_keys=False))


@settings(max_examples=60, deadline=None)
@given(cfg=jittered_configs())
def test_jittered_configs_dump_and_reload_alike_on_both(cfg):
    with emitter_raises():
        fast = dump_config(cfg)
    with pure_python():
        slow = dump_config(cfg)
        reloaded_slow = load_config_text(fast)
    assert fast == slow
    assert reloaded_slow == load_config_text(fast) == cfg


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("on_pure_python", [False, True])
def test_malformed_yaml_is_a_located_config_error(case, on_pure_python):
    with pure_python() if on_pure_python else nullcontext():
        with pytest.raises(ConfigError) as info:
            load_config_text(MALFORMED[case])
    message = str(info.value)
    assert message.startswith("config is not valid YAML: ")
    assert re.search(r"line \d+, column \d+", message)


def test_each_text_parse_builds_a_new_config():
    # load_config keeps validated configs; load_config_text must parse every time,
    # or the loader parity tests above would compare a config with itself
    first, second = load_config_text(PRESET_TEXT), load_config_text(PRESET_TEXT)
    assert first == second and first is not second
    assert first.econ is not second.econ and first.plants[0] is not second.plants[0]


def _repeat_key(text, key, value):
    """``text`` with a ``key: value`` line inserted above the first line setting ``key``."""
    lines = text.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith(f"{key}:"))
    indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
    return "".join(lines[:at] + [f"{indent}{key}: {value}\n"] + lines[at:])


DUMP_TEXT = DOCUMENTS["dump_preset.yaml"]
# case -> (the preset dump with one key repeated, that key)
REPEATED = {
    "top level": (_repeat_key(DUMP_TEXT, "products", "[methane]"), "products"),
    "econ": (_repeat_key(DUMP_TEXT, "elec_price", "99.0 $/kWh"), "elec_price"),
    "nested map": (_repeat_key(DUMP_TEXT, "methanol", "1.0 $/ton"), "methanol"),
}


@pytest.mark.parametrize("case", sorted(REPEATED))
@pytest.mark.parametrize("on_pure_python", [False, True])
def test_repeated_key_is_a_config_error_marking_both_lines(case, on_pure_python):
    text, key = REPEATED[case]
    lines = [i + 1 for i, line in enumerate(text.splitlines())
             if line.lstrip().startswith(f"{key}:")][:2]
    with pure_python() if on_pure_python else nullcontext():
        with pytest.raises(ConfigError) as info:
            load_config_text(text)
    message = str(info.value)
    assert message.startswith(f"config is not valid YAML: key {key!r} first appears\n")
    assert f"found duplicate key {key!r}" in message
    assert [int(n) for n in re.findall(r"line (\d+), column \d+", message)] == lines


@pytest.mark.parametrize("on_pure_python", [False, True])
def test_keys_repeated_only_across_mappings_or_by_merge_load(on_pure_python):
    text = "a: &x {b: 1, c: 2}\nd:\n  <<: *x\n  b: 3\ne: {b: 4}\n"
    # PyYAML flattens ``dev`` again when ``prod`` merges it, with ``base``'s ``a`` merged in
    chained = "base: &b {a: 1}\ndev: &d\n  <<: *b\n  a: 2\nprod: {<<: *d}\n"
    with pure_python() if on_pure_python else nullcontext():
        assert _yaml.safe_load(text) == {"a": {"b": 1, "c": 2}, "d": {"b": 3, "c": 2},
                                         "e": {"b": 4}}
        assert _yaml.safe_load(chained) == {"base": {"a": 1}, "dev": {"a": 2}, "prod": {"a": 2}}
        assert _yaml.safe_load("1: a\n'1': b\n") == {1: "a", "1": "b"}
        assert _yaml.safe_load("") is None


# case -> a document repeating key b within one merge source, on lines 2 and 3
REPEATED_IN_MERGE = {"merged map": "d:\n  <<: {b: 1,\n        b: 2}\n",
                     "merged list": "d:\n  <<: [{c: 0}, {b: 1,\n              b: 2}]\n",
                     "merged twice": "d:\n  <<: &x {b: 1,\n        b: 2}\ne: {<<: *x}\n"}


@pytest.mark.parametrize("case", sorted(REPEATED_IN_MERGE))
@pytest.mark.parametrize("on_pure_python", [False, True])
def test_key_repeated_within_a_merge_source_is_an_error_marking_both(case, on_pure_python):
    # a merge source is flattened, never constructed as a mapping of its own
    with pure_python() if on_pure_python else nullcontext():
        with pytest.raises(yaml.YAMLError) as info:
            _yaml.safe_load(REPEATED_IN_MERGE[case])
    message = str(info.value)
    assert message.startswith("key 'b' first appears\n")
    assert "found duplicate key 'b'" in message
    assert [int(n) for n in re.findall(r"line (\d+), column \d+", message)] == [2, 3]


@pytest.mark.parametrize("on_pure_python", [False, True])
def test_mapping_key_repeating_a_key_is_a_config_error(on_pure_python):
    # PyYAML meets the key as an unhashable mapping before it constructs it
    with pure_python() if on_pure_python else nullcontext():
        with pytest.raises(ConfigError, match="found unhashable key"):
            load_config_text("? {a: 1, a: 2}\n: 3\n")


def test_repeated_key_exits_2_from_the_cli(tmp_path):
    path = tmp_path / "repeated.yaml"
    path.write_text(REPEATED["econ"][0])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(["--config", str(path), "--command", "sweep"])
    assert (status, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("config error: config is not valid YAML: ")
    assert "found duplicate key 'elec_price'" in err.getvalue()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_yaml_exits_2_from_the_cli(case, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(MALFORMED[case])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(["--config", str(path), "--command", "sweep"])
    assert status == 2
    assert "config is not valid YAML: " in err.getvalue()
    assert re.search(r"line \d+, column \d+", err.getvalue())
    assert out.getvalue() == ""


yaml_lookalikes = st.sampled_from(["yes", "no", "on", "null", "~", "", "1e3", "0x1F", "0o17",
                                   ".inf", "-.nan", "1_000", "12:30", "2026-10-19", "- a",
                                   "a: b", "#c", "'q'", '"d"', " lead", "trail ", "a\nb\n"])
yaml_scalars = (yaml_lookalikes | st.text() | st.text(min_size=90, max_size=200)
                | st.floats() | st.sampled_from([1e17, 1e-7, 5e-324, 1.7976931348623157e308])
                | st.booleans() | st.integers())
yaml_documents = st.recursive(yaml_scalars, lambda children: st.lists(children, max_size=4)
                              | st.dictionaries(yaml_scalars, children, max_size=4),
                              max_leaves=20)

# config-shaped documents: words, numbers with a unit, finite floats, ints and bools, and
# now and then an edge of what the writer covers: YAML 1.1's bool and null words in each
# case, a number with any printable ASCII unit, a line near the emitter's fold width of 80
# columns (a wide word, or a space near the fold), an empty mapping or list, or any scalar
finite = st.floats(allow_nan=False, allow_infinity=False)
unit_names = st.sampled_from(sorted(UNITS))
config_scalars = (st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
                  | st.builds("{!r} {}".format, finite, unit_names)
                  | finite | st.booleans() | st.integers())
bool_or_null = st.sampled_from(["yes", "no", "true", "false", "on", "off", "null"]).flatmap(
    lambda w: st.sampled_from([w, w.title(), w.upper(), w[0] + w[1:].upper()]))
edge_scalars = (bool_or_null | yaml_scalars
                | st.builds("{!r} {}".format, finite, st.text(st.characters(
                    min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=4))
                | st.integers(60, 82).map("w".__mul__)
                | st.builds("{}.5 {}".format, st.integers(55, 80).map("9".__mul__), unit_names))
config_keys = st.integers(0, 39).flatmap(lambda k: edge_scalars if k == 0 else config_scalars)
config_values = st.integers(0, 39).flatmap(lambda k: edge_scalars if k == 0 else (
    st.builds(dict) | st.builds(list)) if k < 9 else config_scalars)
config_documents = st.dictionaries(config_keys, st.recursive(
    config_values, lambda children: st.lists(children, min_size=1, max_size=4)
    | st.dictionaries(config_keys, children, min_size=1, max_size=4), max_leaves=4),
    min_size=1, max_size=2)


# 400: a draft writer that wrote {'A': [{}]} as 'A:' failed on each of 35 seeds; 300
# missed it on 2 of 15, and 200 examples of yaml_documents alone on 8 of 10
@settings(max_examples=400, deadline=None)
@given(data=config_documents | yaml_documents)
@pytest.mark.parametrize("on_pure_python", [False, True])
def test_safe_dump_is_pyyaml_dump_of_the_same_data(on_pure_python, data):
    # against the same emitter: libyaml and PyYAML's own differ on an empty key and on
    # the end of a bare top-level scalar, which no config has
    with pure_python() if on_pure_python else nullcontext():
        assert _yaml.safe_dump(data) == yaml.dump(data, Dumper=_yaml._Dumper, sort_keys=False,
                                                  default_flow_style=False)


def fold_width_documents(width):
    """Documents with a line of ``width`` columns whose one space is 2 to 9 from its end."""
    def amount(lead, unit):   # "99…9.5 unit", for a line of ``width`` after ``lead`` columns
        return "9" * (width - lead - len(unit) - 3) + ".5 " + unit
    return [{"k": amount(3, "m")}, {"a": {"k": amount(5, "$/(m3/h)")}}, {"a": [amount(2, "kg")]},
            {"a": [{"k": "1.0 m", "j": amount(5, "ton/day")}]}, {"w" * (width - 7): "1.5 m"}]


@pytest.mark.parametrize("width", range(76, 85))
@pytest.mark.parametrize("on_pure_python", [False, True])
def test_safe_dump_writes_lines_up_to_the_fold_width_itself(on_pure_python, width):
    # the emitter folds a plain scalar at a space past column 80, so the writer stops at 80
    with pure_python() if on_pure_python else nullcontext():
        for data in fold_width_documents(width):
            with emitter_raises() if width <= 80 else nullcontext():
                text = _yaml.safe_dump(data)
            assert text == yaml.dump(data, Dumper=_yaml._Dumper, sort_keys=False,
                                     default_flow_style=False)
            assert width > 80 or max(map(len, text.splitlines())) == width
