"""Tensor grids over boxes, grid functions, and the JSON, CSV and binary writers of run outputs.

Every JSON and CSV file a run writes goes through this module, which owns
their formats: JSON (write_json) has sorted keys, a two-space indent and a
trailing newline; CSV (write_csv) has a header line and float cells as
repr(float), which reads back bit-exactly, other cells as str().

Binary grid format (little-endian, documented for external consumers):

    bytes 0-3   magic  b"FXGB"
    uint32      format version (1)
    uint32      ndim
    uint32[nd]  shape (nodes per axis)
    uint32      axes mode (1 = explicit coordinates; any other is refused)
    float64[m]  coordinates of axis k = 0..nd-1 in turn, m = shape[k]
    uint32      dtype tag (0 = float64)
    float64[*]  values, row-major (C order)
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from numbers import Integral

import numpy as np

_MAGIC = b"FXGB"
_VERSION = 1


@dataclass(frozen=True)
class BoxGrid:
    los: tuple
    his: tuple
    shape: tuple

    def __post_init__(self):
        if not (len(self.los) == len(self.his) == len(self.shape)):
            raise ValueError("los/his/shape must have equal length")
        for lo, hi, m in zip(self.los, self.his, self.shape):
            if not (hi > lo and isinstance(m, Integral) and m >= 3):
                raise ValueError(f"need hi > lo and an integer count of at least 3 nodes per "
                                 f"axis, got ({lo}, {hi}) with {m!r} nodes")

    @property
    def ndim(self):
        return len(self.shape)

    def axes(self):
        return [np.linspace(lo, hi, m) for lo, hi, m in zip(self.los, self.his, self.shape)]

    def interior_mask(self):
        mask = np.ones(self.shape, dtype=bool)
        for ax in range(self.ndim):
            sl = [slice(None)] * self.ndim
            sl[ax] = 0
            mask[tuple(sl)] = False
            sl[ax] = -1
            mask[tuple(sl)] = False
        return mask

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    @staticmethod
    def interval(lo, hi, m):
        return BoxGrid((lo,), (hi,), (m,))

    @staticmethod
    def rectangle(los, his, shape):
        return BoxGrid(tuple(los), tuple(his), tuple(shape))


class GridFunction:
    """Values sampled on a BoxGrid; boundary nodes carry the Dirichlet data."""

    def __init__(self, grid: BoxGrid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values

    @staticmethod
    def from_callable(grid, fn):
        """fn at the nodes, with the boundary nodes set to 0 (Dirichlet data)."""
        gf = GridFunction(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))
        gf.values[~grid.interior_mask()] = 0.0
        return gf

    def interior(self):
        return self.values[self.grid.interior_mask()]


def non_json(value, path):
    """None when value is JSON that `write_json` writes and reads back as
    it is (tuples as lists): dicts with str keys, lists, tuples, str, int,
    float, bool and None, nested to any depth.  Else (where, what) for the
    first value that is not: its path, path extended by [key] or [index]
    per level, and its type name (or the dict's non-str key)."""
    if value is None or isinstance(value, (str, int, float)):  # bool is an int
        return None
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                return path, f"a dict with the {type(key).__name__} key {key!r}"
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return path, type(value).__name__
    for key, item in items:
        if bad := non_json(item, f"{path}[{key!r}]"):
            return bad
    return None


def write_json(path, payload):
    """Write a JSON-native payload in the report format."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    """Write the header names and the rows in the report CSV format."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_grid_binary(path, values, axes):
    """Write a tensor-grid array and its per-axis coordinates in the
    documented binary format."""
    values = np.asarray(values, dtype=float)
    nd = values.ndim
    if len(axes) != nd or any(len(a) != m for a, m in zip(axes, values.shape)):
        raise ValueError("axes do not match value shape")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", nd))
        fh.write(struct.pack(f"<{nd}I", *values.shape))
        fh.write(struct.pack("<I", 1))  # axes mode: explicit coordinates
        for a in axes:
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)
        fh.write(struct.pack("<I", 0))  # dtype tag: float64
        # the array's own buffer, no bytes copy of the field
        fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def read_grid_binary(path):
    """Read the binary grid format; returns (values, axes).

    Every field's length is checked against the bytes left in the file before
    it is decoded, so a short file raises ValueError("truncated grid binary").
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError("truncated grid binary")
        pos += n
        return buf[pos - n:pos]

    if take(4) != _MAGIC:
        raise ValueError("not a grid binary file (bad magic)")
    version, = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise ValueError(f"unsupported grid binary version {version}")
    nd, = struct.unpack("<I", take(4))
    shape = struct.unpack(f"<{nd}I", take(4 * nd))
    mode, = struct.unpack("<I", take(4))
    if mode != 1:
        raise ValueError(f"unsupported axes mode {mode}")
    axes = [np.frombuffer(take(8 * m), dtype="<f8").copy() for m in shape]
    tag, = struct.unpack("<I", take(4))
    if tag != 0:
        raise ValueError(f"unsupported dtype tag {tag}")
    values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
    return values, axes
