"""Deterministic JSON and CSV rendering for the command line.

Records are plain dicts built by the commands; this module only worries
about stable ordering and about integers too large for consumers that read
JSON numbers as doubles.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

MAX_SAFE_INT = 2**53 - 1


def schema_id(kind: str) -> str:
    return f"planeperm/{kind}/1"


def jsonable(value):
    """Recursively make ``value`` safe to dump as JSON.

    Integers beyond 53 bits become strings so no consumer silently rounds
    them; dict keys become strings; tuples become lists.  Anything else is
    returned as it is, so ``json.dumps`` raises on a type it cannot encode.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, int) and abs(value) > MAX_SAFE_INT:
        return str(value)
    return value


def to_json(record) -> str:
    return json.dumps(jsonable(record), sort_keys=True, indent=2) + "\n"


def to_csv(kind: str, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with a ``# schema=`` comment line ahead of the header."""
    buf = io.StringIO()
    buf.write(f"# schema={schema_id(kind)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()
