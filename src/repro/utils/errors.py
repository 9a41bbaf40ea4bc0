"""Shared exception types.

:class:`ConfigError` is raised when a declarative config names an
unknown registry entry (scheduler, eviction policy, fault kind, retry
policy, ...).  It inherits from **both** :class:`ValueError` and
:class:`KeyError`: historically the registries raised ``KeyError`` (a
name lookup failed) while config validation is conventionally a
``ValueError`` — callers written against either contract keep working.
:func:`check_number` is the one finite-number check for numeric knobs.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any


class ConfigError(ValueError, KeyError):
    """An invalid configuration value (unknown registry name, bad knob).

    Subclasses both ``ValueError`` and ``KeyError`` so existing
    ``except KeyError`` handlers and new ``except ValueError`` handlers
    both catch it.  ``KeyError.__str__`` would repr-quote the message;
    plain formatting is restored here.
    """

    __str__ = Exception.__str__


def check_number(name: str, value: Any, *, positive: bool = False) -> float:
    """``value`` as a float if it is a finite, non-bool, non-negative number.

    ``positive`` additionally rejects zero.  Anything else raises
    :class:`ConfigError` naming the knob — NaN in particular, which
    compares false against every bound, so a bare ``value < 0`` check
    lets it through to stall a clock or disable a watchdog silently.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
        or (value <= 0 if positive else value < 0)
    ):
        kind = "positive" if positive else "non-negative"
        raise ConfigError(f"{name} must be a finite {kind} number, got {value!r}")
    return float(value)
