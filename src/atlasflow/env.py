"""The environment variables atlasflow reads.

``ATLASFLOW_SEED`` is the default seed of ``synth``, ``sample`` and
``train``; ``ATLASFLOW_THREADS`` caps the threads of the neighbor search and
the worker processes of :class:`pool.Pool`, the one pool of per-chart
Isomap, training, sampling and log-density.  A set value that is not an
integer in range raises :class:`ConfigError` naming the variable, so a typo
never falls back to a default silently.
"""

from __future__ import annotations

import os

from .errors import ConfigError


def env_int(name: str, minimum: int) -> int | None:
    """The integer value of environment variable ``name``, or None when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"${name}={raw!r} is not an integer") from None
    if value < minimum:
        raise ConfigError(f"${name}={raw!r} must be at least {minimum}")
    return value


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def threads() -> int:
    """``$ATLASFLOW_THREADS``, else one per usable CPU."""
    value = env_int("ATLASFLOW_THREADS", 1)
    return usable_cpus() if value is None else value


def seed() -> int | None:
    """``$ATLASFLOW_SEED``, or None when unset."""
    return env_int("ATLASFLOW_SEED", 0)
