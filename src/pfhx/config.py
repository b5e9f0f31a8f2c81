"""Run configuration: INI parsing, validation, and scenario assembly.

The config format is flat key/value pairs grouped into sections.  One
table, ``_SCHEMA``, declares every key: its type, whether it is required,
and the command-line flag that overrides it (docs/config.md documents
it, and a test holds the two to the same keys).  Unknown sections or keys
are rejected by name, values are checked against their types, and flags
override file values.  ``parse_config`` checks the file's form, the
``[params]`` (through ``Params``), ``sweep.workers`` and
``freqresp.cycles``; every other setting is refused by the code that
consumes it (the one error rule, in ``params``), so each command checks
only what it uses.
"""

from __future__ import annotations

import configparser
import math
from typing import NamedTuple

from .params import ConfigError, Params, Scenario


class _Key(NamedTuple):
    """A config key's schema row: its type tag, whether a config must give it, and its flag.

    ``flag`` is the command-line flag that overrides the key (space-separated
    aliases, the last naming the metavar), or None; ``help`` is its help text.
    """

    kind: str
    required: bool = False
    flag: str | None = None
    help: str | None = None


# [initial] key pairs -> the Scenario field holding them
_PAIRS = {
    "theta0": ("theta1", "theta2"),
    "observer0": ("observer1", "observer2"),
    "u_open": ("u1", "u2"),
    "warmup_u": ("warmup_u1", "warmup_u2"),
}

# section -> key -> schema row: the one declaration of every setting
_SCHEMA: dict[str, dict[str, _Key]] = {
    "params": {k: _Key("float", True, "--" + k) for k in ("h1", "h2", "l", "tau", "k1", "k2")},
    "grid": {"n_cells": _Key("int", True, "--n-cells")},
    "run": {
        "T": _Key("float", True, "--T"),
        "controller": _Key("str", True, "--controller"),
        "sano_k": _Key("float", False, "--sano-k"),
        "solver": _Key("str", False, "--solver"),
        "cfl": _Key("float", False, "--cfl"),
        "snapshot_stride": _Key("float", False, "--snapshot-stride"),
        "seed": _Key("int", False, "--seed"),
    },
    "initial": {k: _Key("str") for pair in _PAIRS.values() for k in pair},
    "output": {"dir": _Key("str", False, "-o --out", "output directory (overrides output.dir)")},
    # the sweep axes are the [params] keys named here, each a value list
    "sweep": {
        **{k: _Key("floatlist") for k in ("tau", "k1", "k2", "h1", "h2")},
        "workers": _Key("int", False, "--workers", "worker processes (0 = all cores)"),
    },
    "freqresp": {
        "omega": _Key("floatlist", False, "--omega", "comma-separated frequencies"),
        "cycles": _Key("int", False, "--cycles"),
        "cfl": _Key("float", False, "--cfl"),
    },
}

# Config field -> the (section, key) that sets it
_SETTINGS = {
    "out_dir": ("output", "dir"),
    "workers": ("sweep", "workers"),
    "freq_omegas": ("freqresp", "omega"),
    "freq_cycles": ("freqresp", "cycles"),
    "freq_cfl": ("freqresp", "cfl"),
}


class Config(NamedTuple):
    """A validated configuration: the base scenario plus the output, sweep and freqresp settings.

    ``parse_config`` gives each its own ``sweep_axes`` dict and ``freq_omegas`` list.
    """

    scenario: Scenario
    sweep_axes: dict
    freq_omegas: list
    out_dir: str = "out"
    workers: int = 0
    freq_cycles: int | None = None  # deprecated: the exact response has no horizon
    freq_cfl: float = 0.5

    def to_scenario(self, **axis_values) -> Scenario:
        """The base scenario with the given parameters (e.g. a swept tau) replaced."""
        return self.scenario._replace(params=self.scenario.params._replace(**axis_values))

    def sweep_row(self, **axis_values) -> Scenario:
        """A sweep row's scenario: it keeps no snapshots, since nothing reads them."""
        return self.to_scenario(**axis_values)._replace(snapshot_stride=math.inf)


def _parse_value(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            value = float(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        if kind == "floatlist":
            if not raw:
                return []
            return [float(piece) for piece in raw.replace(",", " ").split()]
        return raw
    except (ValueError, OverflowError):  # int(inf) overflows
        what = "non-integer" if kind == "int" else "non-numeric"
        raise ConfigError(f"{what} value {raw!r} for key {where}") from None


def _read_raw(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # some messages span lines: the refusal is one
        raise ConfigError(f"cannot parse config: {' '.join(str(exc).split())}") from None
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        raw[section] = dict(parser.items(section))
    return raw


def parse_config(text: str, overrides: dict[str, object] | None = None) -> Config:
    """Parse and validate a config file, applying flag overrides last.

    ``overrides`` maps dotted keys (e.g. ``params.tau``) to replacement
    values.  Raises ConfigError naming the offending key.  The runs the
    config describes are not checked here: ``check_scenario`` does that.
    """
    raw = _read_raw(text)
    for section, entries in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in entries:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    if overrides:
        for dotted, value in overrides.items():
            section, key = dotted.split(".", 1)
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"unknown override {dotted}")
            raw.setdefault(section, {})[key] = str(value)
    for section, keys in _SCHEMA.items():
        for key, row in keys.items():
            if row.required and key not in raw.get(section, {}):
                raise ConfigError(f"missing required key {section}.{key}")

    values = {
        section: {
            key: _parse_value(given, _SCHEMA[section][key].kind, f"{section}.{key}")
            for key, given in raw.get(section, {}).items()
        }
        for section in _SCHEMA
    }
    params = Params(**values["params"])
    run, initial = values["run"], values["initial"]
    defaults = Scenario._field_defaults
    for name, keys in _PAIRS.items():
        if any(key in initial for key in keys):
            run[name] = tuple(initial.get(key, d) for key, d in zip(keys, defaults[name]))
    scenario = Scenario(params=params, n_cells=values["grid"]["n_cells"], **run)
    settings = {
        name: values[section][key]
        for name, (section, key) in _SETTINGS.items()
        if key in values[section]
    }
    # declaration order fixes the row order
    axes = {key: v for key, v in values["sweep"].items() if key in _SCHEMA["params"] and v}
    omegas = settings.pop("freq_omegas", [0.5, 1.0, 2.0])
    cfg = Config(scenario=scenario, sweep_axes=axes, freq_omegas=omegas, **settings)
    if cfg.freq_cycles is not None and cfg.freq_cycles < 10:
        raise ConfigError(f"freqresp.cycles must be >= 10, got {cfg.freq_cycles}")
    if cfg.workers < 0:
        raise ConfigError(f"sweep.workers must be >= 0, got {cfg.workers}")
    return cfg
