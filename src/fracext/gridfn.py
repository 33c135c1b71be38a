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
    uint32      axes mode: 0 = uniform (lower/upper corners follow),
                           1 = explicit (each axis's coordinates follow)
    mode 0:     float64[nd] lower corners, float64[nd] upper corners
    mode 1:     float64[shape[k]] coordinates for k = 0..nd-1
    uint32      dtype tag (0 = float64)
    float64[*]  values, row-major (C order)
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

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
            if not (hi > lo and m >= 3):
                raise ValueError("need hi > lo and at least 3 nodes per axis")

    @property
    def ndim(self):
        return len(self.shape)

    def axes(self):
        return [np.linspace(lo, hi, m) for lo, hi, m in zip(self.los, self.his, self.shape)]

    def spacing(self):
        return tuple((hi - lo) / (m - 1) for lo, hi, m in zip(self.los, self.his, self.shape))

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
    def zeros(grid):
        return GridFunction(grid, np.zeros(grid.shape))

    @staticmethod
    def from_callable(grid, fn, zero_boundary=True):
        mesh = grid.meshgrid()
        vals = np.asarray(fn(*mesh), dtype=float)
        gf = GridFunction(grid, vals)
        if zero_boundary:
            gf.values[~grid.interior_mask()] = 0.0
        return gf

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def interior(self):
        return self.values[self.grid.interior_mask()]

    # -- serialization -----------------------------------------------------------

    def to_csv(self, path):
        """One row per node: x1[, x2], value."""
        axes = self.grid.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = [m.ravel() for m in mesh] + [self.values.ravel()]
        write_csv(path, [f"x{i + 1}" for i in range(self.grid.ndim)] + ["value"], zip(*cols))

    def to_binary(self, path):
        write_grid_binary(path, self.values, los=self.grid.los, his=self.grid.his)

    @staticmethod
    def from_binary(path):
        values, los, his, axes = read_grid_binary(path)
        if axes is not None:
            raise ValueError("file stores explicit axes; use read_grid_binary directly")
        return GridFunction(BoxGrid(los, his, values.shape), values)


def write_json(path, payload):
    """Write a JSON-native payload in the report format."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header, rows):
    """Write the header names and the rows in the report CSV format."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_grid_binary(path, values, los=None, his=None, axes=None):
    """Write a tensor-grid array in the documented binary format.

    Pass either (los, his) for a uniform grid or explicit per-axis
    coordinate arrays.
    """
    values = np.asarray(values, dtype=float)
    nd = values.ndim
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", nd))
        fh.write(struct.pack(f"<{nd}I", *values.shape))
        if axes is None:
            fh.write(struct.pack("<I", 0))
            fh.write(struct.pack(f"<{nd}d", *los))
            fh.write(struct.pack(f"<{nd}d", *his))
        else:
            if len(axes) != nd or any(len(a) != m for a, m in zip(axes, values.shape)):
                raise ValueError("axes do not match value shape")
            fh.write(struct.pack("<I", 1))
            for a in axes:
                fh.write(np.ascontiguousarray(a, dtype="<f8").data)
        fh.write(struct.pack("<I", 0))  # dtype tag: float64
        # the array's own buffer, no bytes copy of the field
        fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def read_grid_binary(path):
    """Read the binary grid format; returns (values, los, his, axes).

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
    los = his = axes = None
    if mode == 0:
        los = struct.unpack(f"<{nd}d", take(8 * nd))
        his = struct.unpack(f"<{nd}d", take(8 * nd))
    elif mode == 1:
        axes = [np.frombuffer(take(8 * m), dtype="<f8").copy() for m in shape]
    else:
        raise ValueError(f"unsupported axes mode {mode}")
    tag, = struct.unpack("<I", take(4))
    if tag != 0:
        raise ValueError(f"unsupported dtype tag {tag}")
    values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
    return values, los, his, axes
