"""Run configuration: INI parsing, validation, and scenario assembly.

The config format is flat key/value pairs grouped into sections; the full
schema lives in docs/config.md.  Unknown sections or keys are rejected by
name, command-line flags override file values, and the tau/T step snapping
performed by the solver is surfaced as warnings at parse time.  The run
checks and defaults are the library's (``check_scenario``, ``Scenario``),
made on the runs of the subcommand the config serves.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .loop import Scenario, check_scenario
from .params import Params
from .profiles import input_function, profile_array

# section -> key -> type tag
_SCHEMA: dict[str, dict[str, str]] = {
    "params": {k: "float" for k in ("h1", "h2", "l", "tau", "k1", "k2")},
    "grid": {"n_cells": "int"},
    "run": {
        "T": "float",
        "controller": "str",
        "sano_k": "float",
        "solver": "str",
        "cfl": "float",
        "snapshot_stride": "float",
        "seed": "int",
    },
    "initial": {
        "theta1": "str",
        "theta2": "str",
        "observer1": "str",
        "observer2": "str",
        "u1": "str",
        "u2": "str",
        "warmup_u1": "str",
        "warmup_u2": "str",
    },
    "output": {"dir": "str"},
    "sweep": {
        "tau": "floatlist",
        "k1": "floatlist",
        "k2": "floatlist",
        "h1": "floatlist",
        "h2": "floatlist",
        "workers": "int",
    },
    "freqresp": {"omega": "floatlist", "cycles": "int", "cfl": "float"},
}

_REQUIRED = (
    ("params", "h1"),
    ("params", "h2"),
    ("params", "l"),
    ("params", "tau"),
    ("params", "k1"),
    ("params", "k2"),
    ("grid", "n_cells"),
    ("run", "T"),
    ("run", "controller"),
)

_SWEEP_AXES = ("tau", "k1", "k2", "h1", "h2")


# [initial] key pairs -> the Scenario field holding them
_PAIRS = {
    "theta0": ("theta1", "theta2"),
    "observer0": ("observer1", "observer2"),
    "u_open": ("u1", "u2"),
    "warmup_u": ("warmup_u1", "warmup_u2"),
}

# Config field -> the (section, key) that sets it
_SETTINGS = {
    "out_dir": ("output", "dir"),
    "workers": ("sweep", "workers"),
    "freq_omegas": ("freqresp", "omega"),
    "freq_cycles": ("freqresp", "cycles"),
    "freq_cfl": ("freqresp", "cfl"),
}


@dataclass
class Config:
    """A validated configuration: the base scenario plus subcommand settings."""

    scenario: Scenario
    out_dir: str = "out"
    sweep_axes: dict = field(default_factory=dict)
    workers: int = 0
    freq_omegas: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    freq_cycles: int | None = None  # deprecated: the exact response has no horizon
    freq_cfl: float = 0.5
    warnings: list = field(default_factory=list)

    def to_scenario(self, **axis_values) -> Scenario:
        """The base scenario with the given parameters (e.g. a swept tau) replaced."""
        try:
            params = dataclasses.replace(self.scenario.params, **axis_values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return dataclasses.replace(self.scenario, params=params)

    def sweep_row(self, **axis_values) -> Scenario:
        """A sweep row's scenario: it keeps no snapshots, since nothing reads them."""
        return dataclasses.replace(self.to_scenario(**axis_values), snapshot_stride=math.inf)


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
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        raw[section] = dict(parser.items(section))
    return raw


def parse_config(
    text: str, overrides: dict[str, object] | None = None, command: str | None = None
) -> Config:
    """Parse and fully validate a config, applying flag overrides last.

    ``overrides`` maps dotted keys (e.g. ``params.tau``) to replacement
    values.  ``command`` names the subcommand the config serves: only the
    runs it makes get the run checks.  Raises ConfigError naming the
    offending key on any problem.
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
    for section, key in _REQUIRED:
        if section not in raw or key not in raw[section]:
            raise ConfigError(f"missing required key {section}.{key}")

    values = {
        section: {
            key: _parse_value(given, _SCHEMA[section][key], f"{section}.{key}")
            for key, given in raw.get(section, {}).items()
        }
        for section in _SCHEMA
    }
    try:
        params = Params(**values["params"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    run, initial = values["run"], values["initial"]
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
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
    axes = {key: v for key, v in values["sweep"].items() if key in _SWEEP_AXES and v}
    cfg = Config(scenario=scenario, sweep_axes=axes, **settings)
    _validate(cfg, command)
    return cfg


def _validate(cfg: Config, command: str | None) -> None:
    """Run the run checks on the runs ``command`` makes, then check the settings.

    ``run`` makes the base scenario's run, ``sweep`` its rows, checked at
    each swept tau (the other axes change no run check) or at the base one,
    and ``freqresp`` none.  Any other command, None included, gets the base
    scenario and every swept tau.
    """
    scenario = cfg.scenario
    if scenario.n_cells < 1:  # the first run check; freqresp needs it too
        raise ConfigError(f"grid.n_cells must be >= 1, got {scenario.n_cells}")
    swept = [] if command in ("run", "freqresp") else cfg.sweep_axes.get("tau", [])
    run = cfg.sweep_row if command == "sweep" else cfg.to_scenario
    base = command != "freqresp" and not (command == "sweep" and swept)
    cfg.warnings = check_scenario(run()) if base else []
    for tau in swept:
        try:
            found = check_scenario(run(tau=tau))
        except ConfigError as exc:
            raise ConfigError(f"every swept tau must give a valid run; tau={tau:g}: {exc}") from None
        cfg.warnings += [w for w in found if w not in cfg.warnings]
    if not 0.0 < cfg.freq_cfl <= 1.0:
        raise ConfigError(f"freqresp.cfl must lie in (0, 1], got {cfg.freq_cfl}")
    if cfg.freq_cycles is not None and cfg.freq_cycles < 10:
        raise ConfigError(f"freqresp.cycles must be >= 10, got {cfg.freq_cycles}")
    if not all(math.isfinite(w) and w >= 0 for w in cfg.freq_omegas):
        raise ConfigError(
            f"freqresp.omega values must be finite and nonnegative, got {cfg.freq_omegas}"
        )
    if cfg.workers < 0:
        raise ConfigError(f"sweep.workers must be >= 0, got {cfg.workers}")

    grid = Grid(scenario.n_cells, scenario.params.l)
    probe = np.random.default_rng(0)
    for spec in (*scenario.theta0, *scenario.observer0):
        profile_array(spec, grid, probe)
    for spec in (*scenario.u_open, *scenario.warmup_u):
        input_function(spec)
