"""The one reader of config values: each config dataclass calls `read_fields` as it is built.

A value has a JSON type its field's annotation reads (a boolean is not a
number), a float is finite, a list becomes a tuple of entries read the same
way, and an object field holds its config class, given or read from a JSON
object. A value of the wrong kind is a ConfigError naming its key: the full
path when `read_object` reads JSON, the field's own name when built in code.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, fields

from .errors import ConfigError

# The JSON type each annotation reads, and its spelling; a boolean is not a number here.
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "bool": (bool, "a boolean"),
               "str": (str, "a string"), "None": (type(None), "null")}


def read_fields(config) -> None:
    """Read each field of the dataclass `config` in place, as its JSON value would be read."""
    for f in fields(config):
        object.__setattr__(config, f.name, _value(type(config), f.type, getattr(config, f.name), f.name))


def read_object(cls, raw, where: str = ""):
    """A `cls` config from the JSON object `raw`, or `raw` itself if it is one: every key names a
    field, a field with no default is present, and each value is read at its key path `where` + key."""
    if isinstance(raw, cls):  # built in code, it read its own fields
        return raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{where.removesuffix('.') or 'config root'} must be an object, got {json.dumps(raw)}")
    by_name = {f.name: f for f in fields(cls)}
    if unknown := sorted(where + key for key in set(raw) - set(by_name)):
        raise ConfigError(f"unknown config keys: {unknown}")
    for f in by_name.values():
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}{f.name} is missing")
    return cls(**{key: _value(cls, by_name[key].type, value, where + key) for key, value in raw.items()})


def _value(owner: type, annotation: str, value, where: str):
    """`value` read as the first alternative of a field's `annotation` whose JSON type it has;
    a config class the annotation names is looked up in `owner`'s module."""
    spelled = []
    for kind in annotation.split(" | "):
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        cls = None if item in _JSON_TYPES else getattr(sys.modules[owner.__module__], item)
        types, name = _JSON_TYPES.get(item, ((dict, cls), "an object"))
        if item == kind:
            spelled.append(name)
            if _fits(types, value) and (kind != "float" or math.isfinite(value)):
                return read_object(cls, value, where + ".") if cls else float(value) if kind == "float" else value
            continue
        spelled.append(f"a list of {name.split()[-1]}s")
        if isinstance(value, (list, tuple)) and cls:  # an entry's missing label is its 1-based position
            return tuple(_value(owner, item, {"label": f"input{i + 1}", **v} if isinstance(v, dict) else v,
                                f"{where}[{i}]") for i, v in enumerate(value))
        if isinstance(value, (list, tuple)) and all(_fits(types, v) for v in value):
            return tuple(value)
    raise ConfigError(f"{where} must be {' or '.join(spelled)}, got {json.dumps(value, default=repr)}")


def _fits(types, value) -> bool:
    return isinstance(value, bool) == (types is bool) and isinstance(value, types)
