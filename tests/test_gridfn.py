"""Grid containers and the documented CSV / binary serialization."""

import ast
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracext
from fracext.gridfn import (BoxGrid, GridFunction, read_grid_binary,
                            write_grid_binary)


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


def test_binary_roundtrip_uniform(tmp_path):
    grid = BoxGrid.rectangle((0.0, -1.0), (2.0, 1.0), (7, 5))
    u = GridFunction.from_callable(grid, lambda x, y: np.sin(x) * y, zero_boundary=False)
    p = tmp_path / "u.bin"
    u.to_binary(p)
    v = GridFunction.from_binary(p)
    assert v.grid == grid
    assert np.array_equal(v.values, u.values)


def test_binary_roundtrip_explicit_axes(tmp_path):
    axes = [np.array([0.0, 0.1, 0.5, 1.5]), np.linspace(0, 1, 6)]
    vals = np.arange(24, dtype=float).reshape(4, 6)
    p = tmp_path / "grid.bin"
    write_grid_binary(p, vals, axes=axes)
    out, los, his, axes_out = read_grid_binary(p)
    assert los is None and his is None
    assert np.array_equal(out, vals)
    for a, b in zip(axes, axes_out):
        assert np.array_equal(a, b)


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
    for kwargs, header in (({"axes": axes}, struct.pack("<I", 1) + b"".join(
                                np.asarray(a, "<f8").tobytes() for a in axes)),
                           ({"los": (0.0, -1.0), "his": (2.0, 1.0)},
                            struct.pack("<I", 0) + struct.pack("<2d", 0.0, -1.0)
                            + struct.pack("<2d", 2.0, 1.0))):
        p = tmp_path / f"{layout}.bin"
        write_grid_binary(p, passed, **kwargs)
        assert p.read_bytes() == (b"FXGB" + struct.pack("<I", 1) + struct.pack("<I", 2)
                                  + struct.pack("<2I", 4, 6) + header + struct.pack("<I", 0)
                                  + np.ascontiguousarray(expected_vals, "<f8").tobytes())


def test_binary_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        read_grid_binary(p)


def test_binary_truncated_at_every_offset(tmp_path):
    p = tmp_path / "u.bin"
    cut = tmp_path / "cut.bin"
    for kwargs in ({"los": (0.0, -1.0), "his": (2.0, 1.0)},
                   {"axes": [np.array([0.0, 0.1, 0.5]), np.linspace(0, 1, 4)]}):
        write_grid_binary(p, np.arange(12, dtype=float).reshape(3, 4), **kwargs)
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


def test_csv_roundtrip(tmp_path):
    grid = BoxGrid.interval(0.0, 1.0, 6)
    u = GridFunction.from_callable(grid, lambda x: x**2, zero_boundary=False)
    p = tmp_path / "u.csv"
    u.to_csv(p)
    rows = p.read_text().strip().split("\n")
    assert rows[0] == "x1,value"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.allclose(data[:, 0], grid.axes()[0])
    assert np.allclose(data[:, 1], u.values)


def test_csv_2d_heads_both_x_axes(tmp_path):
    # a 2-D BoxGrid is the x-domain of L: x1, x2, no z
    grid = BoxGrid.rectangle((0.0, -1.0), (1.0, 1.0), (3, 4))
    u = GridFunction.from_callable(grid, lambda x, y: x + 10.0 * y, zero_boundary=False)
    p = tmp_path / "u.csv"
    u.to_csv(p)
    rows = p.read_text().strip().split("\n")
    assert rows[0] == "x1,x2,value"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape == (12, 3)
    assert np.allclose(data[:, 2], data[:, 0] + 10.0 * data[:, 1])


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
