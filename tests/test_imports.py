"""Source hygiene: every module-level import in the package and the tests is
used, every private helper of the package is referenced by the package,
only `semigroup` imports LAPACK, importing the package loads no scipy
subpackage that only some calls need, and every name the benchmark tracer
hooks by name still resolves."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (module file, imported name) -> why the import stays although nothing uses it
ALLOWED_UNUSED = {
    ("src/fracext/semigroup.py", "spla"):
        "the benchmark tracer patches `semigroup.spla.splu` by name to count "
        "factorizations; it goes once the tracer reads counts recorded by the library",
    ("src/fracext/extension.py", "spla"):
        "the benchmark tracer patches `extension.spla.spsolve` by name to count sparse "
        "solves; it goes once the tracer reads counts recorded by the library",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a package's re-exports are used through __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return {name: line for name, line in bound.items() if name not in used}


def test_no_unused_module_level_imports():
    files = sorted((ROOT / "src" / "fracext").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    found = []
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        for name, line in _unused_imports(path).items():
            if (rel, name) not in ALLOWED_UNUSED:
                found.append(f"{rel}:{line} {name}")
    assert not found, "unused imports: " + ", ".join(found)


def test_allowed_unused_imports_are_still_unused():
    for (rel, name) in ALLOWED_UNUSED:
        assert name in _unused_imports(ROOT / rel), f"{rel}: {name} is used now; drop its entry"


def _private_definitions(path):
    """Module-level private functions and classes (`_name`, not dunder)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _referenced_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_no_unreferenced_private_helpers():
    # a private helper that only tests or the benchmark reach is dead code in
    # the package; a replaced numerical path must not leave one behind
    files = sorted((ROOT / "src" / "fracext").glob("*.py"))
    referenced = set().union(*(_referenced_names(path) for path in files))
    found = [f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
             for path in files for name, line in _private_definitions(path).items()
             if name not in referenced]
    assert not found, "unreferenced private helpers: " + ", ".join(found)


def test_only_semigroup_imports_lapack():
    # the factorization of shifted x-operator systems has one owner,
    # `semigroup._shifted_solver`; no other module calls LAPACK directly
    found = []
    for path in sorted((ROOT / "src" / "fracext").glob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{rel}:{node.lineno} {name}" for name in names
                      if name.startswith("scipy.linalg.lapack")
                      and rel != "src/fracext/semigroup.py"]
    assert not found, "LAPACK imported outside semigroup.py: " + ", ".join(found)


# scipy subpackages the package imports where they are first called, never at
# module level: together they are about a quarter of a cold `import fracext`.
# Only `sup_fit`'s fallback LP and the `brentq` users (geometry and the
# barriers above it) need them.
LAZY_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate")


def test_no_module_level_import_of_lazy_scipy_packages():
    found = []
    for path in sorted((ROOT / "src" / "fracext").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(ROOT).as_posix()}:{node.lineno} {name}"
                      for name in names if name.startswith(LAZY_SCIPY)]
    assert not found, "module-level imports of lazily loaded scipy packages: " + ", ".join(found)


def test_common_experiments_run_without_lazy_scipy_packages(tmp_path):
    # geometry, a case-2 barrier, a 1-D extension solve, a sup-norm fit, the
    # rational fractional powers in 1-D (runner, with inverse and round trip,
    # and end to end) and 2-D, and the semigroup extension in a fresh
    # interpreter; the tracer's names still resolve afterwards
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "import fracext\n"
        "from fracext import barriers, extension, fitting, geometry, runner, semigroup\n"
        "from fracext.config import default_config\n"
        "from fracext.benchmarks import eigen_extension_problem\n"
        "from fracext.gridfn import BoxGrid, GridFunction\n"
        "LAZY = " + repr(LAZY_SCIPY + ("scipy.stats",)) + "\n"
        "def run(kind, problem):\n"
        "    cfg = default_config(kind)\n"
        "    cfg.data['problem'].update(problem)\n"
        "    out = os.path.join(sys.argv[1], kind)\n"
        "    assert runner.run(cfg, out_dir=out).exit_status == 0, kind\n"
        "run('geometry-check', dict(samples=200, engulfing_samples=50))\n"
        "run('fractional-apply', dict(grid_points=128, inverse=True))\n"
        "run('end-to-end', dict(grid_points=128))\n"
        "grid = BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (9, 9))\n"
        "st = semigroup.SemigroupStepper(semigroup.CoefficientField.identity(2), grid)\n"
        "u = GridFunction.from_callable(grid, lambda x, y: np.sin(x) * np.sin(y))\n"
        "semigroup.fractional_apply(st, u, 0.4)\n"
        "grid = BoxGrid.interval(0.0, np.pi, 65)\n"
        "st = semigroup.SemigroupStepper(semigroup.CoefficientField.identity(1), grid)\n"
        "u = GridFunction.from_callable(grid, np.sin)\n"
        "semigroup.extension_via_semigroup_multi(st, u, 0.3, [0.1, 0.5])\n"
        "barriers.BarrierCase2(geometry.MAGeometry(0.75), 0.0, (0.5 / 0.75) ** 0.75, 0.5, 0.125,"
        " 0.1)\n"
        "mesh = extension.ExtensionMesh(nx=33, my=16)\n"
        "state = extension.solve_extension(eigen_extension_problem(0.5, 1)[0], mesh)\n"
        "assert np.isfinite(state.values_at(np.array([1.0]), np.array([0.2]))).all()\n"
        "x = np.linspace(-1.0, 1.0, 50)\n"
        "fitting.sup_fit(np.column_stack([np.ones_like(x), x]), np.abs(x))\n"
        "loaded = [m for m in LAZY if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert geometry.brentq.__module__.startswith('scipy.optimize')\n"
        "assert fitting.linprog.__module__.startswith('scipy.optimize')\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# name below fracext -> why the benchmark tracer (`perfbench/fxbench/trace.py`)
# needs it; the tracer patches or reads each by name (a function's parameters
# included), so a deletion or rename here breaks traced runs.  They go once
# the tracer reads counts recorded by the library.
TRACER_HOOKS = {
    "semigroup.SemigroupStepper.heat_interior":
        "patched in `vars(SemigroupStepper)`; its span is the `semigroup.heat_interior` layer",
    "semigroup.SemigroupStepper._t_cutoff":
        "read on the stepper a patched `heat_interior` receives, to count heats past the "
        "decay cut-off",
    "semigroup.fractional_apply.quad.nodes":
        "the bound default of `quad` is added to `semigroup.quadrature_nodes`",
    "semigroup.fractional_inverse.quad.nodes":
        "the bound default of `quad` is added to `semigroup.quadrature_nodes`",
    "semigroup.extension_via_semigroup_multi.quad.nodes":
        "the bound default of `quad` is added to `semigroup.quadrature_nodes`",
    "semigroup.spla.splu":
        "wrapped through the module proxy to count factorizations and time steps",
    "extension.spla.spsolve":
        "wrapped through the module proxy to count sparse solves, unknowns and nonzeros",
    "geometry.brentq": "patched to count root finds",
    "fitting.linprog": "wrapped to count LP solves and their successes",
    "geometry.MAGeometry.section_interval":
        "patched in `vars(MAGeometry)`; its span is the `geometry.section_interval` layer",
    "geometry.MAGeometry.delta_h": "patched in `vars(MAGeometry)` to count calls",
    "extension.ExtensionState.values_at": "patched in `vars(ExtensionState)` to count calls",
    "barriers.BarrierCase2.__init__":
        "patched in `vars(BarrierCase2)` to count case-2 candidates of the parameter search",
    "semigroup.SemigroupStepper.heat_interior.t":
        "read by name, against `_t_cutoff`, to count heats past the decay cut-off",
    "extension.spla.spsolve.A":
        "read by name to count the unknowns and nonzeros of each sparse solve",
    "fitting.sup_fit.method": "read by name; `lp` fits add their rows to `fitting.lp_rows`",
    "fitting.sup_fit.values": "read by name; its length gives the rows of an `lp` fit",
    "barriers.sample_annulus.samples":
        "read by name and added to `barriers.sample_annulus.points`",
}


def _resolve_tracer_hook(path):
    """Follow `path` the way the tracer reaches it: a class attribute in the
    class's own vars (else on an instance over a small 1-D grid), a
    function's parameter through its default, anything else by getattr."""
    from fracext.gridfn import BoxGrid
    from fracext.semigroup import CoefficientField

    module, *parts = path.split(".")
    obj = importlib.import_module(f"fracext.{module}")
    for part in parts:
        if isinstance(obj, type):
            obj = vars(obj)[part] if part in vars(obj) else getattr(
                obj(CoefficientField.identity(1), BoxGrid.interval(0.0, 1.0, 9)), part)
        elif inspect.isfunction(obj):
            obj = inspect.signature(obj).parameters[part].default
        else:
            obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("path", sorted(TRACER_HOOKS))
def test_tracer_hook_points_resolve(path):
    assert _resolve_tracer_hook(path) is not None
