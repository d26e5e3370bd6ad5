"""Deterministic JSON serialization for reports.

Exact quantities (Fractions) serialize as rational strings so the headline
claims round-trip unchanged; floats print as Python's shortest round-trip
repr, so repeated runs emit byte-identical reports.  Dict order is kept,
and a non-finite float raises ValueError.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _default(obj):
    if isinstance(obj, Fraction):
        from .polynomials import format_rational

        return format_rational(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} in report")


def dump_json(obj) -> str:
    """Serialize a report to deterministic JSON text (trailing newline)."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_default) + "\n"
