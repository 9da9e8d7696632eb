"""Deterministic JSON: 17-digit floats; None, bools, ints and strings as ``json`` renders them."""

from __future__ import annotations

import json
import math


def dumps(obj) -> str:
    if type(obj).__module__ == "numpy" and hasattr(obj, "item"):
        obj = obj.item()
    if isinstance(obj, dict):
        inner = ",".join(f"{dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        if math.isnan(obj):
            return '"nan"'
        return format(obj, ".17g")
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag])
    raise TypeError(f"cannot render {type(obj)!r} as JSON")

