"""Source hygiene: every module-level import in the package and the tests is
used, every private helper of the package is referenced by the package, and
importing the package loads no scipy subpackage that only some calls need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module file, imported name) -> why the import stays although nothing uses it
ALLOWED_UNUSED = {
    ("src/fracext/semigroup.py", "spla"):
        "the benchmark tracer patches `semigroup.spla.splu` by name to count "
        "factorizations; it goes once the tracer reads counts recorded by the library",
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


# scipy subpackages the package imports where they are first called, never at
# module level: together they are about a quarter of a cold `import fracext`
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
    # geometry, a case-2 barrier, a 1-D extension solve and a sup-norm fit in a
    # fresh interpreter; the tracer's names still resolve afterwards
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import fracext\n"
        "from fracext import barriers, extension, fitting, geometry, runner\n"
        "from fracext.config import default_config\n"
        "from fracext.benchmarks import eigen_extension_problem\n"
        "LAZY = " + repr(LAZY_SCIPY) + "\n"
        "cfg = default_config('geometry-check')\n"
        "cfg.data['problem'].update(samples=200, engulfing_samples=50)\n"
        "assert runner.run(cfg, out_dir=sys.argv[1]).exit_status == 0\n"
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
