"""Source hygiene: every module-level import in the package and the tests is
used, every private helper of the package is referenced by the package,
every public function, class or method is used by a package module, listed
in API_ONLY with its reason or read by the benchmark, every defaulted
parameter is set by a package or benchmark call or listed in DEFAULT_ONLY
with its reason, no required parameter takes one literal from every package
and benchmark call unless listed in ONE_LITERAL with its reason, only
`semigroup` imports LAPACK, importing the package loads no scipy module
(each is imported in the function that calls it), and every name the
benchmark tracer hooks or the benchmark's tests read by name still
resolves."""

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
    """The names `path` uses: every name, every attribute but those of a
    module the file binds by `import` (`np.zeros` uses numpy's `zeros`, not a
    package definition of that name), and every name imported from a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
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
    "barriers.touch_test":
        "the viscosity trace derivative; ROADMAP item 7 reports it beside `flux_trace`",
    "benchmarks.x_derivative_scaling":
        "interior x-derivative estimate of harmonic solutions, measured by a Tier-1 test",
    "benchmarks.z_decay_exponent":
        "z-decay of d_z H at the trace, measured by the acceptance tests",
    "config.load_config": "read and validate a config file in one call",
    "config.default_config": "the built-in config of a kind, validated (the CLI takes "
                             "the raw one from `default_raw`)",
    "config.ExperimentConfig.emit":
        "writes the validated config as JSON; tests/test_cli_io.py loads it back",
    "extension.rescale_solution":
        "the exact pullback U(rho x, rho^{2s} z) as a state, with its rescaled trace flux; "
        "tests check its flux and the seminorm's scaling covariance on it",
    "extension.ExtensionState.flux_trace":
        "the discrete d_z U at the trace, checked against exact fluxes by the tests; "
        "ROADMAP item 7's Hopf quotient reads it",
    "gridfn.read_grid_binary":
        "reads the `.bin` of `ExtensionState.save`; tests round-trip saved states through it",
    "obs.recording":
        "collects the counters the layers report (ROADMAP item 3 writes them into the "
        "manifest); tests/test_geometry.py reads the endpoint counters through it",
    "regularity.holder_seminorm_state":
        "a state's Hoelder seminorm on a section; ROADMAP item 6 fits its decay",
    "regularity.harnack_quotient": "the Harnack quotient of one solved state; ROADMAP "
                                   "item 6 reports it for rough coefficients",
    "regularity.approximation_distance":
        "the perturbation step of Caffarelli's method; ROADMAP item 5 reports it per scale",
    "regularity.campanato_iterate":
        "the inductive zoom; run by the benchmark's `campanato` cases and by tests",
}


# defaulted parameter below fracext -> why it stays although no call in a
# package module or under perfbench/ sets it (a default no caller changes is a
# constant, and a knob only a test turns is kept only for a reason)
DEFAULT_ONLY = {
    "semigroup.fractional_apply.quad":
        "read by name by the benchmark tracer (TRACER_HOOKS); ROADMAP item 3 deletes it",
    "semigroup.fractional_inverse.quad":
        "read by name by the benchmark tracer (TRACER_HOOKS); ROADMAP item 3 deletes it",
    "semigroup.extension_via_semigroup_multi.quad":
        "read by name by the benchmark tracer (TRACER_HOOKS); ROADMAP item 3 deletes it",
    "fitting.sup_fit.method":
        "read by name by the benchmark tracer (TRACER_HOOKS); ROADMAP item 12 deletes it",
    "barriers.BarrierCase2.__init__.alpha":
        "tests build a barrier at a given alpha to check the search's smallest one",
    "geometry.a_infinity_check.levels": "tests pass the depth of the shrinking subsets",
    "geometry.quotient_check.samples": "the acceptance test samples twice as many points",
    "regularity.campanato_iterate.depth": "tests run shorter zooms",
    "regularity.harnack_quotient.kappa":
        "tests vary the shrunken section; ROADMAP item 6 reports the quotient per kappa",
    "benchmarks.x_derivative_scaling.kmodes":
        "the Tier-1 test measures fewer scales on a coarser mesh",
    "benchmarks.x_derivative_scaling.nx":
        "the Tier-1 test measures fewer scales on a coarser mesh",
    "benchmarks.x_derivative_scaling.my":
        "the Tier-1 test measures fewer scales on a coarser mesh",
    "benchmarks.z_decay_exponent.nx": "tests measure on a coarser mesh",
    "benchmarks.z_decay_exponent.my": "tests measure on a coarser mesh",
    "config.default_config.s": "tests pin the config hash of each kind at two orders s",
    "cli.main.argv": "tests call the command line in-process; the console script passes none",
}


# required parameter below fracext -> why it stays although every call in a
# package module or under perfbench/ passes it one and the same literal (an
# input every caller fixes is a constant of the callee, not an input)
ONE_LITERAL = {
    "gridfn.BoxGrid.interval.lo":
        "a benchmark-read constructor: `perfbench/fxbench/cases.py` builds its 1-D grids on "
        "(0, pi) with it, and tests build grids on other intervals",
    "gridfn.BoxGrid.rectangle.los":
        "a benchmark-read constructor: `perfbench/fxbench/cases.py` builds its 2-D grids on "
        "(0, pi)^2 with it, and tests build grids on other boxes",
    "barriers.sample_annulus.x0":
        "the barriers sample about their base point x = 0, and tests/test_barriers.py checks "
        "the sampler about other centers, in 1-D and 2-D",
}


def _parameters(path, defaulted):
    """`module.function.param` (`module.Class.method.param` for a method of a
    module-level class) -> (the name a call uses, the class for `__init__`;
    the index of the positional argument that sets it, None if keyword-only),
    for the parameters with a default or for the required ones.  A method's
    positions skip `self` or `cls`; a static method's do not."""
    found = {}

    def add(fn, qualname, callee, bound):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[bound:], bound):
            if (i >= first) == defaulted:
                found[f"{path.stem}.{qualname}.{arg.arg}"] = (callee, i - bound)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if (default is not None) == defaulted:
                found[f"{path.stem}.{qualname}.{arg.arg}"] = (callee, None)

    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    add(item, f"{node.name}.{item.name}",
                        node.name if item.name == "__init__" else item.name, 0 if static else 1)
    return found


def _package_parameters(defaulted):
    return {key: value for path in sorted((ROOT / "src" / "fracext").glob("*.py"))
            for key, value in _parameters(path, defaulted).items()}


def _calls(tests=True):
    """Every call in a package module or under perfbench/ (its tests too, or
    not), by the callee's name (a function's, or the attribute's for
    `obj.name(...)`)."""
    calls = {}
    for path in sorted((ROOT / "src" / "fracext").glob("*.py")) + sorted(
            path for path in (ROOT / "perfbench").rglob("*.py")
            if tests or "tests" not in path.relative_to(ROOT).parts):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _unset_defaulted_parameters():
    """The defaulted parameters that no call in a package module or under
    perfbench/ sets, by keyword or position (a call with *args or **kwargs
    may set any), matching calls by the callee's name as the public
    definitions are matched."""
    calls = _calls()

    def sets(call, param, position):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, param) for k in call.keywords)
                or position is not None and len(call.args) > position)

    return {key for key, (callee, position) in _package_parameters(True).items()
            if not any(sets(call, key.rsplit(".", 1)[1], position)
                       for call in calls.get(callee, []))}


def test_every_defaulted_parameter_is_set_by_a_caller():
    found = sorted(_unset_defaulted_parameters() - DEFAULT_ONLY.keys())
    assert not found, "defaulted parameters no package or benchmark call sets: " + ", ".join(found)


def test_default_only_entries_are_defined_and_still_unset():
    params = _package_parameters(True).keys()
    unset = _unset_defaulted_parameters()
    for entry in DEFAULT_ONLY:
        assert entry in params, f"{entry} is not a defaulted parameter; drop it"
        assert entry in unset, f"{entry} is set by the package or the benchmark now; drop it"


def _one_literal_parameters():
    """The required parameters to which every call in a package module or
    under perfbench/ but its tests (at least one call) passes the same
    literal, by position or keyword; a call with *args or **kwargs, or that
    passes anything else, clears the parameter.  Calls are matched by the
    callee's name."""
    calls = _calls(tests=False)

    def passed(call, param, position):
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            return None
        node = next((k.value for k in call.keywords if k.arg == param), None)
        if node is None and position is not None and len(call.args) > position:
            node = call.args[position]
        try:
            ast.literal_eval(node)
        except (ValueError, TypeError):  # not a literal, or not passed
            return None
        return ast.dump(node)

    found = set()
    for key, (callee, position) in _package_parameters(False).items():
        values = {passed(call, key.rsplit(".", 1)[1], position) for call in calls.get(callee, [])}
        if len(values) == 1 and None not in values:
            found.add(key)
    return found


def test_no_required_parameter_takes_one_literal_from_every_caller():
    found = sorted(_one_literal_parameters() - ONE_LITERAL.keys())
    assert not found, ("required parameters every package and benchmark call passes one "
                       "literal: " + ", ".join(found))


def test_one_literal_entries_are_defined_and_still_take_one_literal():
    params = _package_parameters(False).keys()
    flagged = _one_literal_parameters()
    for entry in ONE_LITERAL:
        assert entry in params, f"{entry} is not a required parameter; drop it"
        assert entry in flagged, f"{entry} takes other values now; drop it"


def _public_definitions(path):
    """Public module-level functions and classes, and the public methods of
    those classes as `Class.method`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                found.update({f"{node.name}.{item.name}": item.lineno for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and not item.name.startswith("_")})
    return found


def _package_uses():
    return set().union(*(_referenced_names(path)
                         for path in sorted((ROOT / "src" / "fracext").glob("*.py"))
                         if path.name != "__init__.py"))


def test_no_unreferenced_public_definitions():
    # a public function, class or method that no package module uses (by its
    # name) is either API kept on purpose (API_ONLY, with the reason), a name
    # the benchmark hooks or reads (TRACER_HOOKS, BENCHMARK_READS) or dead code
    used = _package_uses()
    kept = {**API_ONLY, **TRACER_HOOKS, **BENCHMARK_READS}
    found = [f"src/fracext/{path.name}:{line} {name}"
             for path in sorted((ROOT / "src" / "fracext").glob("*.py"))
             for name, line in _public_definitions(path).items()
             if name.split(".")[-1] not in used and f"{path.stem}.{name}" not in kept]
    assert not found, "public definitions no package module uses: " + ", ".join(found)


def test_api_only_entries_are_defined_and_still_unused():
    used = _package_uses()
    for entry in API_ONLY:
        module, name = entry.split(".", 1)
        assert name in _public_definitions(ROOT / "src" / "fracext" / f"{module}.py"), entry
        assert name.split(".")[-1] not in used, f"{entry} is used by the package now; drop it"


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


# scipy subpackages that no common experiment loads: only the tracer's
# `fitting.linprog`, `geometry.brentq` and `spla` lookups import them
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
        "barriers.BarrierCase2(geometry.MAGeometry(0.75), 0.5, 0.125, 0.1)\n"
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
        "barriers.BarrierCase2(geometry.MAGeometry(0.75), 0.5, 0.125, 0.1)\n"
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
    "fitting.linprog": "wrapped to count LP solves and their successes; no fit calls it",
    "geometry.MAGeometry.section_interval":
        "patched in `vars(MAGeometry)`; its span is the `geometry.section_interval` layer",
    "geometry.MAGeometry.delta_h": "patched in `vars(MAGeometry)` to count calls",
    "extension.ExtensionState.values_at": "patched in `vars(ExtensionState)` to count calls",
    "extension.rescale_solution":
        "patched by name; its span is the `extension.rescale_solution` layer",
    "barriers.BarrierCase2.__init__":
        "patched in `vars(BarrierCase2)` to count case-2 candidates of the parameter search",
    "semigroup.SemigroupStepper.heat_interior.t":
        "read by name, against `_t_cutoff`, to count heats past the decay cut-off",
    "extension.spla.spsolve.A":
        "read by name to count the unknowns and nonzeros of each sparse solve",
    "fitting.sup_fit.method":
        "read by name; an `lp` fit adds its rows to `fitting.lp_rows`, and `lp` is the only "
        "method `sup_fit` accepts",
    "fitting.sup_fit.values": "read by name; its length gives the rows of an `lp` fit",
    "barriers.sample_annulus.samples":
        "read by name and added to `barriers.sample_annulus.points`",
}


# name below fracext -> why it stays although the package itself never reads it
BENCHMARK_READS = {
    "config.ExperimentConfig.threads": "read by `perfbench/tests/test_cases.py`",
    "config.ExperimentConfig.emit_plots": "read by `perfbench/tests/test_cases.py`",
    "semigroup.CoefficientField.full_2d":
        "`perfbench/fxbench/cases.py` builds the `mixed2d` coefficients with it",
    "gridfn.BoxGrid.rectangle": "`perfbench/fxbench/cases.py` builds the 2-D grids with it",
    "semigroup.extension_via_semigroup_multi":
        "`perfbench/fxbench/cases.py` runs the `semigroup-extension` cases with it",
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
