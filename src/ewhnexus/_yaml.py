"""The YAML parser and emitter behind ``config``: libyaml's when PyYAML has it.

``config`` imports this module as ``yaml``, so each parse is one call of
``yaml.safe_load`` that an outside tracer can rebind.  The C and pure-Python
classes load equal documents, reject a key repeated within one mapping or merge
source as they construct it (PyYAML alone keeps the last value), word syntax
errors differently, and dump identical text but for an empty-string mapping key
(``? ''`` in pure Python) and a bare top-level scalar (which it ends with ``...``).
"""

import yaml
from yaml import YAMLError


class _RejectRepeatedKeys:
    """A loader mixin: PyYAML flattens each mapping and merge source, and this checks its keys."""

    def __init__(self, stream):
        super().__init__(stream)
        self.checked = set()   # nodes whose own keys are checked: a second flatten sees merged ones

    def flatten_mapping(self, node):
        first = {}   # (tag, text) of each scalar key -> where it first appears
        for key, _ in () if node in self.checked else node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                if (key.tag, key.value) in first:
                    raise yaml.constructor.ConstructorError(
                        f"key {key.value!r} first appears", first[key.tag, key.value],
                        f"found duplicate key {key.value!r}", key.start_mark)
                first[key.tag, key.value] = key.start_mark
        self.checked.add(node)
        super().flatten_mapping(node)


_Loader = type("_Loader", (_RejectRepeatedKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def safe_load(text):
    return yaml.load(text, Loader=_Loader)


_REPRESENTER = yaml.representer.SafeRepresenter()   # its scalar rules; they keep no state
_SCALARS = (str, bool, int, float, type(None))


def _node(data):
    """The node ``SafeRepresenter`` makes of ``data``, every container in block style."""
    kind = type(data)
    if kind is dict:
        pairs = [(_node(k), _node(v)) for k, v in data.items()]
        return yaml.MappingNode("tag:yaml.org,2002:map", pairs, flow_style=False)
    if kind is list:
        return yaml.SequenceNode("tag:yaml.org,2002:seq", list(map(_node, data)),
                                 flow_style=False)
    # any other type goes to the None entry, which refuses it
    return _REPRESENTER.yaml_representers[kind if kind in _SCALARS else None](_REPRESENTER, data)


def safe_dump(data) -> str:
    """``yaml.dump(data, Dumper=SafeDumper, sort_keys=False, default_flow_style=False)``'s text
    for dicts, lists and scalars with no container twice, which need no anchor: the node
    tree is built here, without the representer's per-object dispatch and alias bookkeeping."""
    return yaml.serialize(_node(data), Dumper=_Dumper)
