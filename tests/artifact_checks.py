"""Exact comparison of a JSON artifact with the values it was written from.

The artifacts are parsed with the stdlib alone, strictly: NaN and Infinity
are refused.  A float must come back bit for bit, an int as an int, a bool
as a bool; numpy values on the in-memory side compare as the Python values
they stand for.
"""

import json
import struct

import numpy as np


def _refuse(constant):
    raise ValueError(f"artifact holds the non-standard constant {constant}")


def load_strict(path) -> object:
    with open(path, "rb") as fh:
        return json.loads(fh.read(), parse_constant=_refuse)


def _plain(value):
    """value as the plain Python value a JSON round trip would give."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, tuple):
        return list(value)
    return value


def mismatches(parsed, expected, where="$") -> list:
    """Paths at which the parsed artifact differs from the in-memory value."""
    expected = _plain(expected)
    if type(parsed) is not type(expected):
        return [f"{where}: {parsed!r} against {expected!r}"]
    if isinstance(expected, dict):
        if list(parsed) != list(expected):
            return [f"{where}: keys {list(parsed)} against {list(expected)}"]
        return [bad for key in expected
                for bad in mismatches(parsed[key], expected[key],
                                      f"{where}.{key}")]
    if isinstance(expected, list):
        if len(parsed) != len(expected):
            return [f"{where}: {len(parsed)} items against {len(expected)}"]
        return [bad for i, (a, b) in enumerate(zip(parsed, expected))
                for bad in mismatches(a, b, f"{where}[{i}]")]
    if isinstance(expected, float):
        same = struct.pack("<d", parsed) == struct.pack("<d", expected)
    else:
        same = parsed == expected
    return [] if same else [f"{where}: {parsed!r} against {expected!r}"]


def null_floats(parsed, expected, where="$") -> list:
    """Paths at which the in-memory value holds a float and the artifact a
    null (what a non-finite float would be written as)."""
    expected = _plain(expected)
    if parsed is None:
        return [where] if isinstance(expected, float) else []
    if isinstance(expected, dict) and isinstance(parsed, dict):
        return [bad for key in expected if key in parsed
                for bad in null_floats(parsed[key], expected[key],
                                       f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(parsed, list):
        return [bad for i, (a, b) in enumerate(zip(parsed, expected))
                for bad in null_floats(a, b, f"{where}[{i}]")]
    return []


def assert_round_trip(path, expected):
    parsed = load_strict(path)
    assert not null_floats(parsed, expected)
    assert not mismatches(parsed, expected)
