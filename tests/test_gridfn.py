"""Grid containers, the JSON writer and the documented binary grid format."""

import ast
import json
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracext
from fracext.gridfn import (BoxGrid, GridFunction, read_grid_binary,
                            write_grid_binary, write_json)


def test_boxgrid_validation():
    with pytest.raises(ValueError):
        BoxGrid((0.0,), (0.0,), (5,))
    with pytest.raises(ValueError):
        BoxGrid((0.0,), (1.0,), (2,))


def test_gridfunction_finite_and_shape():
    grid = BoxGrid.interval(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(grid, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


def test_from_callable_zeroes_boundary():
    grid = BoxGrid.interval(0.0, np.pi, 9)
    u = GridFunction.from_callable(grid, lambda x: np.cos(x))
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert u.values[4] == pytest.approx(np.cos(grid.axes()[0][4]))


def test_binary_roundtrip_explicit_axes(tmp_path):
    axes = [np.array([0.0, 0.1, 0.5, 1.5]), np.linspace(0, 1, 6)]
    vals = np.arange(24, dtype=float).reshape(4, 6)
    p = tmp_path / "grid.bin"
    write_grid_binary(p, vals, axes)
    out, axes_out = read_grid_binary(p)
    assert np.array_equal(out, vals)
    for a, b in zip(axes, axes_out):
        assert np.array_equal(a, b)


def test_binary_reader_refuses_uniform_corner_mode(tmp_path):
    # axes mode 0 (lower and upper corners in place of the coordinates) has
    # no writer; a well-formed mode-0 file is refused by its mode word
    p = tmp_path / "uniform.bin"
    p.write_bytes(b"FXGB" + struct.pack("<4I", 1, 2, 3, 4) + struct.pack("<I", 0)
                  + struct.pack("<4d", 0.0, -1.0, 2.0, 1.0) + struct.pack("<I", 0)
                  + np.zeros(12).tobytes())
    with pytest.raises(ValueError, match="unsupported axes mode 0"):
        read_grid_binary(p)


@pytest.mark.parametrize("layout", ["C", "F", "strided", "big-endian", "int"])
def test_binary_bytes_equal_the_documented_encoding(tmp_path, layout):
    # the writer hands the array buffers to the file; the bytes must be the
    # struct-packed header plus the little-endian float64 values in C order,
    # whatever the memory layout or dtype of the arrays passed in
    vals = np.arange(24, dtype=float).reshape(4, 6) * 0.37 - 2.0
    axes = [np.array([0.0, 0.1, 0.5, 1.5]), np.linspace(0.0, 1.0, 12)[::2]]
    passed = {"C": vals, "F": np.asfortranarray(vals), "strided": np.repeat(vals, 2, 1)[:, ::2],
              "big-endian": vals.astype(">f8"), "int": np.arange(24).reshape(4, 6)}[layout]
    expected_vals = np.asarray(passed, dtype=float)
    p = tmp_path / f"{layout}.bin"
    write_grid_binary(p, passed, axes)
    assert p.read_bytes() == (b"FXGB" + struct.pack("<I", 1) + struct.pack("<I", 2)
                              + struct.pack("<2I", 4, 6) + struct.pack("<I", 1)
                              + b"".join(np.asarray(a, "<f8").tobytes() for a in axes)
                              + struct.pack("<I", 0)
                              + np.ascontiguousarray(expected_vals, "<f8").tobytes())


def test_binary_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        read_grid_binary(p)


def test_binary_truncated_at_every_offset(tmp_path):
    p = tmp_path / "u.bin"
    cut = tmp_path / "cut.bin"
    write_grid_binary(p, np.arange(12, dtype=float).reshape(3, 4),
                      [np.array([0.0, 0.1, 0.5]), np.linspace(0, 1, 4)])
    data = p.read_bytes()
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValueError, match="truncated grid binary"):
            read_grid_binary(cut)


@given(st.binary(max_size=200))
def test_binary_reader_fuzz(tail):
    # a valid magic and version followed by arbitrary bytes either decodes
    # or raises ValueError, whatever the header claims
    with tempfile.TemporaryDirectory() as d:
        p = f"{d}/f.bin"
        with open(p, "wb") as fh:
            fh.write(b"FXGB" + (1).to_bytes(4, "little") + tail)
        try:
            read_grid_binary(p)
        except ValueError:
            pass


class _JsonWriters(ast.NodeVisitor):
    """Scopes (module.class.function) that call json.dump / json.dumps or
    import from json by name."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
                and isinstance(f.value, ast.Name) and f.value.id == "json"):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "json":
            self.found.append(".".join(self.scope) + ": from json import")


def test_json_formatted_in_one_place():
    # every output's JSON format lives in gridfn.write_json; the compact
    # canonical form is the config hash input, not an output
    found = []
    for path in sorted(pathlib.Path(fracext.__file__).parent.glob("*.py")):
        visitor = _JsonWriters(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert sorted(found) == ["config.ExperimentConfig.canonical_bytes", "gridfn.write_json"]


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(deadline=None)
@given(_JSON_PAYLOADS)
@example({"b": [1.5, float("nan"), (2, -0.0)], "a": {"z": 1e-310, "y": (float("inf"),)},
          "é": "ü"})
def test_write_json_bytes_equal_json_dump(payload):
    # one encode and one write: the bytes json.dump streamed, sorted keys,
    # two-space indent and a trailing newline
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "payload.json"
        write_json(path, payload)
        with open(pathlib.Path(tmp) / "reference.json", "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        assert path.read_bytes() == (pathlib.Path(tmp) / "reference.json").read_bytes()
