"""Source hygiene: every module-level import in the package and the tests is
used, every private helper of the package is referenced by the package,
every public function or class is used by a package module or listed in
API_ONLY with its reason, only `semigroup` imports LAPACK, importing the
package loads no scipy module (each is imported in the function that calls
it), and every name the benchmark tracer hooks or the benchmark's tests read
by name still resolves."""

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
ALLOWED_UNUSED = {}


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


# public module-level function or class below fracext -> why it stays although
# no package module uses it (the re-exports of `__init__` are not uses)
API_ONLY = {
    "barriers.MAParaboloid":
        "the sliding paraboloid of the barrier geometry as an object; "
        "tests/test_barriers.py checks its values and its opening check",
    "barriers.MAPolynomial":
        "the second-order polynomials of the geometry; tests/test_barriers.py checks them",
    "barriers.polynomial_to_MA":
        "classical second-order data to geometry-adapted polynomials; "
        "tests/test_barriers.py checks it",
    "barriers.pucci": "the Pucci extremal operators of the barrier arguments",
    "barriers.touch_test":
        "the viscosity trace derivative; ROADMAP item 7 reports it beside `flux_trace`",
    "benchmarks.x_derivative_scaling":
        "interior x-derivative estimate of harmonic solutions, measured by a Tier-1 test",
    "benchmarks.z_decay_exponent":
        "z-decay of d_z H at the trace, measured by the acceptance tests",
    "config.load_config": "read and validate a config file in one call",
    "config.default_config": "the built-in config of a kind, validated (the CLI takes "
                             "the raw one from `default_raw`)",
    "extension.reflect_even":
        "the even reflection across z = 0 that `harnack_quotient` asks for on symmetric "
        "solutions",
    "regularity.holder_seminorm_state":
        "a state's Hoelder seminorm on a section; ROADMAP item 6 fits its decay",
    "regularity.harnack_quotient": "the Harnack quotient of one solved state; ROADMAP "
                                   "item 6 reports it for rough coefficients",
    "regularity.approximation_distance":
        "the perturbation step of Caffarelli's method; ROADMAP item 5 reports it per scale",
    "regularity.campanato_iterate":
        "the inductive zoom; run by the benchmark's `campanato` cases and by tests",
    "semigroup.extension_via_semigroup":
        "the one-height form of `extension_via_semigroup_multi`",
    "semigroup.richardson_trace_slope":
        "the extrapolated trace slope of a profile, checked against the Bessel profile",
}


def _public_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _package_uses():
    return set().union(*(_referenced_names(path)
                         for path in sorted((ROOT / "src" / "fracext").glob("*.py"))
                         if path.name != "__init__.py"))


def test_no_unreferenced_public_definitions():
    # a public function or class that no package module uses is either API
    # kept on purpose (API_ONLY, with the reason) or dead code
    used = _package_uses()
    found = [f"src/fracext/{path.name}:{line} {name}"
             for path in sorted((ROOT / "src" / "fracext").glob("*.py"))
             for name, line in _public_definitions(path).items()
             if name not in used and f"{path.stem}.{name}" not in API_ONLY]
    assert not found, "public definitions no package module uses: " + ", ".join(found)


def test_api_only_entries_are_defined_and_still_unused():
    used = _package_uses()
    for entry in API_ONLY:
        module, name = entry.split(".")
        assert name in _public_definitions(ROOT / "src" / "fracext" / f"{module}.py"), entry
        assert name not in used, f"{entry} is used by the package now; drop its entry"


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


# scipy subpackages that no common experiment loads: only `sup_fit`'s fallback
# LP and the tracer's `geometry.brentq` and `spla` lookups import them
LAZY_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.sparse.linalg")


def _run_fresh(code, tmp_path):
    """Run `code` in a fresh interpreter on this checkout, tmp_path as argv[1]."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_module_level_import_of_lazy_scipy_packages():
    # every scipy module is imported in the function that calls it: a cold
    # `import fracext` loads numpy only (scipy.linalg, sparse and special
    # were about half of the benchmark's set-up time), and the geometry, the
    # barriers and the sliding paraboloids never load scipy at all
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
                      for name in names if name == "scipy" or name.startswith("scipy.")]
    assert not found, "module-level imports of scipy: " + ", ".join(found)


def test_geometry_barriers_and_sliding_run_without_scipy(tmp_path):
    # in a fresh interpreter: every default config validated, geometry-check
    # in 1-D and 2-D, barrier case 1 through the runner and a case-2 barrier
    # directly, sliding paraboloids on two fixtures and the end-to-end Hoelder
    # quotients and norm report load no scipy module
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "import fracext\n"
        "from fracext import barriers, geometry, runner\n"
        "from fracext.config import EXPERIMENT_KINDS, default_config, default_raw, validate\n"
        "for kind in EXPERIMENT_KINDS:\n"
        "    default_config(kind)\n"
        "def run(raw, name):\n"
        "    out = os.path.join(sys.argv[1], name)\n"
        "    assert runner.run(validate(raw), out_dir=out).exit_status == 0, name\n"
        "for dimension in (1, 2):\n"
        "    raw = default_raw('geometry-check')\n"
        "    raw['problem'].update(samples=200, engulfing_samples=50, dimension=dimension)\n"
        "    run(raw, f'geometry{dimension}')\n"
        "raw = default_raw('barrier-check', 0.3)\n"
        "assert raw['problem'].get('case', 1) == 1\n"
        "run(raw, 'barrier1')\n"
        "barriers.BarrierCase2(geometry.MAGeometry(0.75), 0.0, (0.5 / 0.75) ** 0.75, 0.5, 0.125,"
        " 0.1)\n"
        "for fixture in ('convex', 'paraboloid'):\n"
        "    raw = default_raw('slide-paraboloids')\n"
        "    raw['problem']['fixture'] = fixture\n"
        "    run(raw, fixture)\n"
        "from fracext.regularity import holder_quotient, interior_norm_report\n"
        "xs = np.linspace(0.0, 3.0, 600)\n"
        "assert holder_quotient(xs, np.sin(xs), 0.5) > 0\n"
        "interior_norm_report(xs, np.sin(xs), 1.5, xs > 1.0, 1.0)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n")
    _run_fresh(code, tmp_path)


@pytest.mark.parametrize("module", ["semigroup", "extension"])
def test_tracer_spla_lookup_binds_the_module(module):
    # the tracer's patch reads `vars(module)["spla"]` to restore it later, so
    # the first lookup must bind scipy.sparse.linalg in the module namespace
    mod = importlib.import_module(f"fracext.{module}")
    spla = getattr(mod, "spla")
    assert "spla" in vars(mod) and vars(mod)["spla"] is spla
    assert spla.__name__ == "scipy.sparse.linalg"


def test_common_experiments_run_without_lazy_scipy_packages(tmp_path):
    # geometry, a case-2 barrier, a 1-D extension solve, a sup-norm fit, the
    # rational fractional powers in 1-D (runner, with inverse and round trip,
    # and end to end) and 2-D, and the semigroup extension in a fresh
    # interpreter, none of which loads scipy.sparse.linalg; the tracer's names
    # still resolve afterwards
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
        "assert fitting.linprog.__module__.startswith('scipy.optimize')\n"
        "assert semigroup.spla.__name__ == extension.spla.__name__ == 'scipy.sparse.linalg'\n")
    _run_fresh(code, tmp_path)


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
        "wrapped through a module proxy put in place of `semigroup.spla`, which the "
        "module's `__getattr__` imports and binds on first lookup; no library call "
        "factors with it",
    "extension.spla.spsolve":
        "wrapped through a module proxy put in place of `extension.spla`, which the "
        "module's `__getattr__` imports and binds on first lookup; no library call "
        "solves with it",
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


# name below fracext -> why it stays although the package itself never reads it
BENCHMARK_READS = {
    "config.ExperimentConfig.threads": "read by `perfbench/tests/test_cases.py`",
    "config.ExperimentConfig.emit_plots": "read by `perfbench/tests/test_cases.py`",
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


@pytest.mark.parametrize("path", sorted({**TRACER_HOOKS, **BENCHMARK_READS}))
def test_tracer_hook_points_resolve(path):
    assert _resolve_tracer_hook(path) is not None
