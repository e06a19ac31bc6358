"""Cycle-accurate simulator for the memory subsystem of a block-based
display-stream decoder back end.

The package models the line buffers (single-port SRAM banks), the
register-file reconstruction buffer that holds the prediction window, and
the per-cycle access schedules of three architecture presets (baseline,
type1, type2).  Every buffer transaction is checked against a deterministic
golden pixel generator, so scheduling bugs surface as counted violations
instead of silent corruption.
"""

from .errors import ConfigError

__all__ = ["ConfigError"]

__version__ = "0.1.0"
