"""Configuration: defaults, INI files, and dotted-key overrides.

The on-disk format is a plain sections-of-key=value file (configparser
syntax), one section per subsystem. The schema is derived from the config
dataclasses: each section holds the scalar fields of the ``RunSettings``
subtree ``SECTIONS`` pairs it with, and each field's type picks its parser
and echo format; every setting, the output directory too, is such a field.
A file takes exactly the ``section.key`` pairs ``--set`` takes: keys and
sections are case-exact, and ``[DEFAULT]`` is an ordinary, unknown section.
Every run echoes its effective configuration into the output directory, and
reloading that echo reproduces the run byte for byte. A bad key, value or
configuration raises a plain ``ValueError``: no exception class of its own.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .controller import RunSettings


#: (INI section, attribute path in RunSettings whose scalar fields it holds).
SECTIONS = (
    ("run", ""),
    ("schedule", "schedule"),
    ("pm", "plant.pm"),
    ("detector", "plant.detector"),
    ("optics", "plant"),
    ("drift", "plant.drift"),
    ("calibration", "calibration"),
)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_offsets(text: str) -> str | tuple[float, ...]:
    if text.lower() == "random":
        return "random"
    return tuple(_parse_float(part) for part in text.split(","))


_PARSE_BY_TYPE = {
    int: int,
    float: _parse_float,
    bool: _parse_bool,
    str: str,
    str | tuple[float, ...]: _parse_offsets,
}


def _derive_schema() -> dict[tuple[str, str], tuple[str, object]]:
    schema = {}
    for section, path in SECTIONS:
        cls = RunSettings
        for name in filter(None, path.split(".")):
            cls = get_type_hints(cls)[name]
        hints = get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            if not is_dataclass(hint):
                schema[(section, f.name)] = (f"{path}.{f.name}".lstrip("."), hint)
    return schema


#: (section, key) -> (attribute path in RunSettings, field type), in echo order.
SCHEMA = _derive_schema()


def _build(cls: type, path: str, values: dict[str, object]):
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        sub = f"{path}.{f.name}".lstrip(".")
        hint = hints[f.name]
        kwargs[f.name] = _build(hint, sub, values) if is_dataclass(hint) else values[sub]
    return cls(**kwargs)


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunSettings:
    """Effective configuration: defaults, then file, then --set overrides."""
    defaults = RunSettings()
    values = {attr: attrgetter(attr)(defaults) for attr, _ in SCHEMA.values()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        parser.optionxform = str
        try:
            read = parser.read(str(path), encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ValueError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _set_value(values, section, key, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _set_value(values, *parse_key(dotted), raw.strip())
    return _build(RunSettings, "", values)


def parse_key(dotted: str) -> tuple[str, str]:
    """``(section, key)`` of a dotted key (``--set``, ``sweep --param``), stripped."""
    section, dot, key = dotted.partition(".")
    if not dot:
        raise ValueError(f"a configuration key must look like section.key, got {dotted!r}")
    return section.strip(), key.strip()


def schema_entry(section: str, key: str) -> tuple[str, object]:
    """``SCHEMA``'s (attribute path, field type) of a key; an unknown key raises."""
    if (section, key) not in SCHEMA:
        raise ValueError(f"unknown configuration key [{section}] {key}")
    return SCHEMA[(section, key)]


def _set_value(values: dict, section: str, key: str, raw: str) -> None:
    path, kind = schema_entry(section, key)
    try:
        values[path] = _PARSE_BY_TYPE[kind](raw)
    except ValueError as exc:
        raise ValueError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def write_config(settings: RunSettings, path: str | Path) -> None:
    """Echo the effective configuration; reloading it reproduces the run."""
    parser = configparser.ConfigParser(interpolation=None)
    for (section, key), (attr, _) in SCHEMA.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, _format_value(attrgetter(attr)(settings)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        parser.write(handle)
