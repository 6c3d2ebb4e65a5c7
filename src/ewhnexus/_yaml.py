"""The YAML parser and emitter behind ``config``: libyaml's when PyYAML has it.

``config`` imports this module as ``yaml`` and calls ``safe_load`` and
``safe_dump`` on it, so the parse stays one module-attribute call that an
outside tracer can rebind.  The C and pure-Python classes load equal
documents and dump identical text; only the wording of syntax errors differs.
"""

import yaml
from yaml import YAMLError

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def safe_load(text):
    return yaml.load(text, Loader=_Loader)


def safe_dump(data, **kw):
    return yaml.dump(data, Dumper=_Dumper, **kw)
