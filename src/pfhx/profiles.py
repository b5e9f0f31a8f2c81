"""Named presets for initial profiles and open-loop input signals.

Profiles are given as compact spec strings, e.g. ``step(0.5, 1.0, 0.0)`` or
``sine(1, 2)``, so they can live in config files and sweep definitions.
``_parse`` reads and refuses a spec without numpy, which loads only in
``profile_array``, so a run's check reads every spec it will evaluate.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

from .params import ConfigError

if TYPE_CHECKING:  # annotations only: numpy loads in profile_array
    import numpy as np

    from .grid import Grid

_CALL = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")

# each kind of spec -> its names -> the number of arguments each takes
_ARITY = {
    "profile": {"zero": 0, "constant": 1, "step": 3, "sine": 2, "gaussian": 3, "random": 1},
    "input signal": {"zero": 0, "constant": 1, "sine": 2},
}


def _parse(spec: str, kind: str = "profile") -> tuple[str, list[float]]:
    """A spec's name and arguments, once it names a ``kind`` with the right arguments."""
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
    if name not in _ARITY[kind]:
        raise ConfigError(f"unknown {kind} {name!r} in {spec!r}")
    if len(args) != _ARITY[kind][name]:
        raise ConfigError(f"{spec!r} takes {_ARITY[kind][name]} argument(s), got {len(args)}")
    if name == "gaussian" and args[1] <= 0:
        raise ConfigError(f"gaussian width must be positive in {spec!r}")
    return name, args


def profile_array(spec: str, grid: Grid, rng: np.random.Generator | None = None) -> np.ndarray:
    """Evaluate a spatial profile spec at the grid nodes.

    Supported: zero | constant(c) | step(x0, a, b) | sine(amplitude, mode) |
    gaussian(center, width, amplitude) | random(amplitude).
    """
    import numpy as np

    name, args = _parse(spec)
    x = grid.nodes
    if name == "zero":
        return np.zeros_like(x)
    if name == "constant":
        return np.full_like(x, args[0])
    if name == "step":
        x0, a, b = args
        return np.where(x < x0, a, b)
    if name == "sine":
        amplitude, mode = args
        return amplitude * np.sin(mode * np.pi * x / grid.l)
    if name == "gaussian":
        center, width, amplitude = args
        return amplitude * np.exp(-0.5 * ((x - center) / width) ** 2)
    if rng is None:  # random
        raise ConfigError(f"{spec!r} needs a seeded generator")
    return args[0] * rng.uniform(-1.0, 1.0, size=x.shape)


def input_function(spec: str):
    """Build a scalar input signal u(t) from a spec string.

    Supported: zero | constant(c) | sine(amplitude, omega).
    """
    name, args = _parse(spec, "input signal")
    if name == "zero":
        return lambda t: 0.0
    if name == "constant":
        c = args[0]
        return lambda t: c
    amplitude, omega = args  # a phase omega * t that overflows gives NaN, not an error
    return lambda t: amplitude * math.sin(p) if math.isfinite(p := omega * t) else math.nan
