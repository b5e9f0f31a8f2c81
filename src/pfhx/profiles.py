"""Named presets for initial profiles and open-loop input signals.

Profiles are given as compact spec strings, e.g. ``step(0.5, 1.0, 0.0)`` or
``sine(1, 2)``, so they can live in config files and sweep definitions.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ConfigError
from .grid import Grid

_CALL = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def _parse(spec: str) -> tuple[str, list[float]]:
    m = _CALL.match(spec)
    if not m:
        raise ConfigError(f"cannot parse profile spec {spec!r}")
    name = m.group(1).lower()
    args: list[float] = []
    raw = m.group(2)
    if raw is not None and raw.strip():
        for piece in raw.split(","):
            try:
                args.append(float(piece))
            except ValueError:
                raise ConfigError(f"non-numeric argument {piece.strip()!r} in {spec!r}") from None
            if not math.isfinite(args[-1]):
                raise ConfigError(f"non-finite argument {piece.strip()!r} in {spec!r}")
    return name, args


def _require(args: list[float], count: int, spec: str) -> None:
    if len(args) != count:
        raise ConfigError(f"{spec!r} takes {count} argument(s), got {len(args)}")


def _draws(spec) -> bool:
    """Whether ``profile_array`` draws from its generator for ``spec``; one it
    cannot parse draws nothing, and profile_array refuses it."""
    m = _CALL.match(spec) if isinstance(spec, str) else None
    return m is not None and m.group(1).lower() == "random"


def profile_array(spec: str, grid: Grid, rng: np.random.Generator | None = None) -> np.ndarray:
    """Evaluate a spatial profile spec at the grid nodes.

    Supported: zero | constant(c) | step(x0, a, b) | sine(amplitude, mode) |
    gaussian(center, width, amplitude) | random(amplitude).
    """
    name, args = _parse(spec)
    x = grid.nodes
    if name == "zero":
        _require(args, 0, spec)
        return np.zeros_like(x)
    if name == "constant":
        _require(args, 1, spec)
        return np.full_like(x, args[0])
    if name == "step":
        _require(args, 3, spec)
        x0, a, b = args
        return np.where(x < x0, a, b)
    if name == "sine":
        _require(args, 2, spec)
        amplitude, mode = args
        return amplitude * np.sin(mode * np.pi * x / grid.l)
    if name == "gaussian":
        _require(args, 3, spec)
        center, width, amplitude = args
        if width <= 0:
            raise ConfigError(f"gaussian width must be positive in {spec!r}")
        return amplitude * np.exp(-0.5 * ((x - center) / width) ** 2)
    if name == "random":
        _require(args, 1, spec)
        if rng is None:
            raise ConfigError(f"{spec!r} needs a seeded generator")
        return args[0] * rng.uniform(-1.0, 1.0, size=x.shape)
    raise ConfigError(f"unknown profile {name!r} in {spec!r}")


def input_function(spec: str):
    """Build a scalar input signal u(t) from a spec string.

    Supported: zero | constant(c) | sine(amplitude, omega).
    """
    name, args = _parse(spec)
    if name == "zero":
        _require(args, 0, spec)
        return lambda t: 0.0
    if name == "constant":
        _require(args, 1, spec)
        c = args[0]
        return lambda t: c
    if name == "sine":
        _require(args, 2, spec)
        amplitude, omega = args  # a phase omega * t that overflows gives NaN, not an error
        return lambda t: amplitude * math.sin(p) if math.isfinite(p := omega * t) else math.nan
    raise ConfigError(f"unknown input signal {name!r} in {spec!r}")
