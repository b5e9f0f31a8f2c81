"""The one error rule: a setting is refused once, by the code that consumes it.

The refusal is a ``ConfigError``, which is a ``ValueError``, and its message
names the config key (``params.tau``, ``grid.n_cells``, ...) or the profile
spec.  Arguments that are not settings, a field's shape say, raise plain ``ValueError``.
"""


class ConfigError(ValueError):
    """A refused setting: bad key, missing or inadmissible value, inconsistent run."""
