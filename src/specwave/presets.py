"""Flat key-value experiment configs and the named presets that ship in that format.

A config is one `key = value` per line; `#` starts a comment.  The keys
are those of CONFIG_KEYS plus any `init.<name>` (a float parameter of the
initial data).  Each preset is a file configs/NAME.cfg in this package
whose first two lines are `# preset: NAME (KIND)` and `# DESCRIPTION`,
KIND being the subcommand it belongs to; the catalog is read on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib.resources import files

__all__ = ["CONFIG_KEYS", "ConfigError", "Preset", "parse_config_text", "preset_names", "get_preset"]


class ConfigError(ValueError):
    pass


def _words(value: str) -> list[str]:
    return value.replace(",", " ").split()


def _ints(value: str) -> list[int]:
    return [int(v) for v in _words(value)]


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _words(value))


# config key -> (ExperimentConfig field, parser of the value text)
CONFIG_KEYS = {
    "system": ("system", str),
    "scheme": ("schemes", _words),
    "initial": ("initial", str),
    "M": ("M", int),
    "M_list": ("M_list", _ints),
    "M_ref": ("M_ref", int),
    "dt": ("dt", float),
    "T": ("T", float),
    "s_norms": ("s_norms", _floats),
    "out": ("out", str),
    "jobs": ("jobs", int),
    "blowup_threshold": ("blowup_threshold", float),
    "monitor_stride": ("monitor_stride", int),
    "N_list": ("N_list", _ints),
    "p": ("p", int),
    "q": ("q", int),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not (key in CONFIG_KEYS or key.startswith("init.")):
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str  # subcommand the preset belongs to: 'run' | 'converge' | 'probe-jn'
    description: str
    config: dict


@cache
def _catalog() -> dict[str, Preset]:
    """Every shipped preset, in file-name order."""
    catalog = {}
    entries = [e for e in files(__package__).joinpath("configs").iterdir() if e.name.endswith(".cfg")]
    for entry in sorted(entries, key=lambda e: e.name):
        text = entry.read_text(encoding="utf-8")
        head, description = text.splitlines()[:2]
        name, _, kind = head.removeprefix("# preset: ").partition(" (")
        catalog[name] = Preset(
            name,
            kind.removesuffix(")"),
            description.removeprefix("# "),
            parse_config_text(text, source=entry.name),
        )
    return catalog


def preset_names() -> list[str]:
    return list(_catalog())


def get_preset(name: str) -> Preset:
    try:
        return _catalog()[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise ValueError(f"unknown preset {name!r}; available: {known}") from None
