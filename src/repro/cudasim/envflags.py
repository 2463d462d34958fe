"""Strict parsing of ``REPRO_*`` environment switches.

The simulator exposes a few behavioral flags through the environment
(``REPRO_EXEC_FASTPATH``, ``REPRO_EVENT_TIMEOUT``).  Ad-hoc parsing used
to let ``REPRO_EXEC_FASTPATH=off`` silently *enable* the fast path, so
every flag now goes through one of two strict parsers:

* :func:`env_mapped` — for flags whose spellings map onto a small value
  domain (``REPRO_EXEC_FASTPATH``'s boolean spellings): the value must
  be a key of the mapping, rejected loudly otherwise;
* :func:`env_float` — for numeric flags (``REPRO_EVENT_TIMEOUT``): the
  value must parse as a float other than NaN.

Rejecting beats guessing: a typo in a CI environment block should fail
the job, not quietly run the wrong configuration.  A command-line
option that stands for a flag sets it through :func:`env_override`, so
the setting ends with the command.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = ["env_float", "env_mapped", "env_override"]


@contextmanager
def env_override(name: str, value: str | None) -> Iterator[None]:
    """Set environment flag ``name`` to ``value`` for the ``with`` body,
    then restore its previous value, or its absence.  ``None`` changes
    nothing."""
    if value is None:
        yield
        return
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = saved


def env_float(name: str, default: float) -> float:
    """Parse a numeric environment flag strictly.

    Unset (or empty) returns ``default``; anything that does not parse
    as a finite-or-``inf`` float raises :class:`ValueError` naming the
    variable (``REPRO_EVENT_TIMEOUT=90`` raises the stream wait-event
    timeout; ``inf`` means wait forever).
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name}={raw!r} is not a number (seconds; 'inf' accepted)"
        ) from None
    if value != value:  # NaN would silently disable every comparison
        raise ValueError(f"{name}={raw!r} must not be NaN")
    return value


def env_mapped(name: str, mapping: Mapping[str, object], default):
    """Parse an environment flag through a spelling → value mapping.

    Spellings are matched case-insensitively after stripping whitespace.
    Unset (or empty) returns ``default``; any other value must be a key
    of ``mapping`` or a :class:`ValueError` naming the accepted spellings
    is raised.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    word = raw.strip().lower()
    try:
        return mapping[word]
    except KeyError:
        raise ValueError(
            f"{name}={raw!r} is not a recognised value; use one of "
            f"{sorted(mapping)}"
        ) from None
