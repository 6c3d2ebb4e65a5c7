"""The YAML parser and emitter behind ``config``: libyaml's when PyYAML has it.

``config`` imports this module as ``yaml`` and calls ``safe_load`` and
``safe_dump`` on it, so the parse stays one module-attribute call that an
outside tracer can rebind.  The C and pure-Python classes load equal
documents and dump identical text; only the wording of syntax errors differs.
Both reject a key repeated within one mapping, where PyYAML alone keeps the
last value.
"""

import yaml
from yaml import YAMLError
from yaml.constructor import ConstructorError

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_MERGE = "tag:yaml.org,2002:merge"


def _reject_repeated_keys(root) -> None:
    """Raise a ConstructorError marking both places of a key a mapping repeats."""
    todo, seen = [root], set()
    while todo:
        node = todo.pop()
        if id(node) in seen or isinstance(node, yaml.ScalarNode):
            continue
        seen.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            todo.extend(node.value)
            continue
        first = {}   # (tag, text) of each scalar key -> where it first appears
        for key, value in node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != _MERGE:
                if (key.tag, key.value) in first:
                    raise ConstructorError(f"key {key.value!r} first appears",
                                           first[key.tag, key.value],
                                           f"found duplicate key {key.value!r}", key.start_mark)
                first[key.tag, key.value] = key.start_mark
            todo += key, value


def safe_load(text):
    loader = _Loader(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        _reject_repeated_keys(node)
        return loader.construct_document(node)
    finally:
        loader.dispose()


def safe_dump(data, **kw):
    return yaml.dump(data, Dumper=_Dumper, **kw)
