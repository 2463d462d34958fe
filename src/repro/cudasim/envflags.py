"""Strict parsing of ``REPRO_*`` environment switches.

The simulator exposes several behavioral flags through the environment
(``REPRO_EXEC_FASTPATH``, ``REPRO_SM_ENGINE``, ``REPRO_KERNEL_CACHE_DIR``).
Boolean flags used to be parsed with ad-hoc ``!= "0"`` comparisons, which
made ``REPRO_EXEC_FASTPATH=off`` silently *enable* the fast path.  Every
flag now goes through one of two strict parsers:

* :func:`env_bool` — accepts the usual spellings of true/false
  (``1/true/yes/on`` and ``0/false/no/off``, case-insensitive) and
  rejects anything else with a :class:`ValueError` naming the variable,
  the offending value and the accepted spellings;
* :func:`env_choice` — for enumerated flags: the value must be one of
  the given choices, rejected loudly otherwise;
* :func:`env_mapped` — for flags whose spellings map onto a small value
  domain (``REPRO_EXEC_FASTPATH=0|2`` with boolean aliases): the value
  must be a key of the mapping, rejected loudly otherwise.

Rejecting beats guessing: a typo in a CI environment block should fail
the job, not quietly run the wrong configuration.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

__all__ = [
    "env_bool",
    "env_choice",
    "env_float",
    "env_mapped",
    "TRUE_WORDS",
    "FALSE_WORDS",
]

#: Spellings accepted as boolean true (case-insensitive).
TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
#: Spellings accepted as boolean false (case-insensitive).
FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def env_bool(name: str, default: bool = False) -> bool:
    """Parse a boolean environment flag strictly.

    Unset (or empty) returns ``default``; unrecognised values raise
    :class:`ValueError` instead of silently coercing.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    word = raw.strip().lower()
    if word in TRUE_WORDS:
        return True
    if word in FALSE_WORDS:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a recognised boolean; use one of "
        f"{sorted(TRUE_WORDS)} or {sorted(FALSE_WORDS)}"
    )


def env_choice(
    name: str, choices: Sequence[str], default: str | None = None
) -> str | None:
    """Parse an enumerated environment flag strictly.

    Unset (or empty) returns ``default``; any other value must be one of
    ``choices`` or a :class:`ValueError` is raised.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if raw not in choices:
        raise ValueError(
            f"{name}={raw!r} is not a valid choice; expected one of "
            f"{sorted(choices)}"
        )
    return raw


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

    Spellings are matched case-insensitively after stripping whitespace
    (like :func:`env_bool`).  Unset (or empty) returns ``default``; any
    other value must be a key of ``mapping`` or a :class:`ValueError`
    naming the accepted spellings is raised.
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
