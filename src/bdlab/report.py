"""The one rule by which results become JSON.

`jsonable` converts a value: an object with its own `to_json` serializes
itself, containers are walked, and NumPy scalars and arrays become plain
Python values.  `Report` gives a dataclass a `to_json` made from its fields
in declaration order, leaving out fields that are None.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def jsonable(obj):
    """obj as plain JSON values: lists for tuples and arrays, float for NumPy numbers."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


class Report:
    """Mixin for result dataclasses: to_json() is the fields, in declaration
    order, passed through jsonable; fields that are None are left out."""

    def to_json(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: jsonable(v) for name, v in values if v is not None}
