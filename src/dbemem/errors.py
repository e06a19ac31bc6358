"""ConfigError, the exception shared across the simulator, and
`require_int`, the integer check that raises it."""


class ConfigError(ValueError):
    """Invalid geometry, preset, or config-file contents."""


def require_int(value, what: str, lo: int, hi: int | None = None) -> None:
    """Raise ConfigError unless `value` is an integer (not a bool) in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if hi is None and value < lo:
        raise ConfigError(f"{what} must be >= {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ConfigError(f"{what} {value} outside {lo}..{hi}")
