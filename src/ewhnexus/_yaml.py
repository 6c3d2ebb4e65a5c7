"""The YAML parser and emitter behind ``config``: libyaml's when PyYAML has it.

``config`` imports this module as ``yaml``, so each parse is one call of
``yaml.safe_load`` that an outside tracer can rebind.  The C and pure-Python
classes load equal documents, reject a key repeated within one mapping or merge
source as they construct it (PyYAML alone keeps the last value) and word syntax
errors differently.  ``safe_dump`` writes itself each mapping of mappings and of
lists of scalars and mappings, none held twice, that the emitter would write with
bare scalars and no folded line, so both give every config dump the same text.
"""

import re

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


_BARE = re.compile(r"(?!(?i:yes|no|true|false|on|off|null)\Z)[A-Za-z_]\w*"
                   r"|-?\d+(\.\d+)?(e[-+]\d+)? [!-\"$-9;-~]+", re.ASCII)


def _bare(value) -> str:
    """``value`` as the emitter writes it bare: a word YAML 1.1 reads as no bool or null in any
    case, a number, a space and a unit with no ':' or '#', a finite float, an int or a bool."""
    kind = type(value)
    if kind is str and _BARE.fullmatch(value):
        return value
    if kind is bool or kind is int:
        return str(value).lower()
    if kind is float and value - value == 0:   # finite; 1e+17 is written 1.0e+17
        return text if "." in (text := repr(value)) else text.replace("e", ".0e")
    return "\0"   # in no plain scalar: the document is the emitter's to write


def _block(mapping: dict, pad: str, lines: list[str]) -> list[str]:
    """``lines`` and the block lines of ``mapping`` indented by ``pad``."""
    for key, value in mapping.items():
        if type(value) is dict and value:
            lines.append(f"{pad}{_bare(key)}:")
            _block(value, pad + "  ", lines)
        elif type(value) is list and value:
            lines.append(f"{pad}{_bare(key)}:")
            for item in value:   # a sequence in a mapping is not indented
                if type(item) is dict and item:   # its first key follows the dash
                    first, *rest = _block(item, pad + "  ", [])
                    lines += [f"{pad}- {first[len(pad) + 2:]}", *rest]
                else:
                    lines.append(f"{pad}- {_bare(item)}")
        else:
            lines.append(f"{pad}{_bare(key)}: {_bare(value)}")
    return lines


def safe_dump(data) -> str:
    """``yaml.dump(data, Dumper=_Dumper, sort_keys=False, default_flow_style=False)``'s text."""
    lines = _block(data, "", []) if type(data) is dict and data else ["\0"]
    if max(map(len, lines)) <= 80 and "\0" not in (text := "\n".join(lines) + "\n"):
        return text   # no line passes the emitter's fold width, so none would fold
    return yaml.dump(data, Dumper=_Dumper, sort_keys=False, default_flow_style=False)
