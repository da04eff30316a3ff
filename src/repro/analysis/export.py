"""Result export: experiment outputs as machine-readable files.

A reproduction repo is only useful if its numbers can leave the
terminal: :func:`export_result` serializes any experiment result —
they are all dataclasses, possibly nested, holding numbers, strings,
and series — to JSON, so figures can be re-plotted and runs diffed.
Used by the CLI's ``--export`` flag.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any

__all__ = ["export_result"]


def _jsonable(value: Any) -> Any:
    """Recursively convert experiment results to JSON-encodable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float):
        if value != value:                       # NaN
            return None
        if value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return f"<{len(value)} bytes>"
    # anything exotic (component refs etc.): a readable placeholder
    return repr(value)


def export_result(name: str, result: Any, directory: str) -> str:
    """Write ``result`` as ``<directory>/<name>.json``; returns the
    path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    payload = {"experiment": name, "result": _jsonable(result)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
