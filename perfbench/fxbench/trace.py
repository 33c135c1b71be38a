"""In-memory spans and counters recorded around calls into fracext.

The tracer wraps public functions and methods from outside the program:
methods on their classes, module functions in the module that defines them
and in every fracext module that imported them by name.  Per-point methods
(``delta_h``, ``values_at``) are only counted.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None

    def to_json(self):
        return self.__dict__.copy()


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    covered by its direct children."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, sp.start), min(ch.end, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp.id] = (sp.end - sp.start) - covered
    return out


class _ModuleProxy:
    """Stands in for a module object inside one fracext module, overriding a
    few attributes and forwarding the rest."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _CountedSolves:
    """Stands in for a sparse LU factorisation, counting its solves."""

    def __init__(self, lu, counters, name):
        self._lu = lu
        self._counters = counters
        self._name = name

    def solve(self, *args, **kwargs):
        self._counters[self._name] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self.matrices = []          # (case id, matrix) handed to the sparse solver
        self.case = None
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------------------

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1].id if self._stack else None
        sp = Span(sid, name, self.clock(), 0.0, parent, self.case)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def inside(self, name):
        """True when the innermost span is `name` (the direct caller)."""
        return bool(self._stack) and self._stack[-1].name == name

    def count(self, name, n=1):
        self.counters[name] += n

    # -- patching --------------------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr, make_wrapper):
        self._set(cls, attr, make_wrapper(cls.__dict__[attr]))

    def patch_function(self, func, make_wrapper):
        """Replace `func` in every loaded fracext module that holds it by name."""
        wrapper = make_wrapper(func)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "fracext" or modname.startswith("fracext.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper)

    def patch_module_attr(self, module, attr, overrides):
        self._set(module, attr, _ModuleProxy(getattr(module, attr), overrides))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self):
        return bool(self._patches)

    # -- wrapper factories -----------------------------------------------------------------

    def spanned(self, name, before=None, after=None):
        """Wrapper factory: a span around each call (none when `name` is
        None); `before(args)` runs first and `after(args, result)` on return,
        with `args` the call's arguments by parameter name."""
        def make(func):
            sig = inspect.signature(func) if (before or after) else None

            def wrapper(*args, **kwargs):
                bound = None
                if sig is not None:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    bound = ba.arguments
                if before is not None:
                    before(bound)
                if name is None:
                    result = func(*args, **kwargs)
                else:
                    with self.span(name):
                        result = func(*args, **kwargs)
                if after is not None:
                    after(bound, result)
                return result
            wrapper.__wrapped__ = func
            return wrapper
        return make

    def counted(self, name):
        """Wrapper factory: count calls only, no span (for per-point methods)."""
        def make(func):
            counters = self.counters

            def wrapper(*args, **kwargs):
                counters[name] += 1
                return func(*args, **kwargs)
            wrapper.__wrapped__ = func
            return wrapper
        return make


def install_fracext_hooks(tracer):
    """Wrap the public entry points of every fracext layer; undo on failure."""
    try:
        _install(tracer)
    except BaseException:
        tracer.uninstall()
        raise


def _install(tr):
    from fracext import (barriers, config, extension, fitting, geometry, gridfn,
                         regularity, runner, semigroup)

    c = tr.count

    # geometry -----------------------------------------------------------------------
    def endpoints(_args):
        c("geometry.endpoints_computed", 2)
        c("geometry.endpoints_kept", 1 if tr.inside("barriers.sample_annulus") else 2)

    tr.patch_method(geometry.MAGeometry, "section_interval",
                    tr.spanned("geometry.section_interval", before=endpoints))
    tr.patch_method(geometry.MAGeometry, "delta_h", tr.counted("geometry.delta_h"))
    tr.patch_function(geometry.brentq, tr.counted("geometry.root_finds"))
    for name in ("engulfing_check", "quasi_triangle_check"):
        tr.patch_function(getattr(geometry, name), tr.spanned(f"geometry.{name}"))

    # semigroup ------------------------------------------------------------------------
    def past_decay_cut(args):
        if args["t"] > args["self"]._t_cutoff:
            c("semigroup.zero_heat")

    tr.patch_method(semigroup.SemigroupStepper, "heat_interior",
                    tr.spanned("semigroup.heat_interior", before=past_decay_cut))

    def nodes(args):
        c("semigroup.quadrature_nodes", args["quad"].nodes)

    for name in ("fractional_apply", "fractional_inverse", "extension_via_semigroup_multi"):
        tr.patch_function(getattr(semigroup, name),
                          tr.spanned(f"semigroup.{name}", before=nodes))
    tr.patch_function(semigroup.x_operator, tr.spanned("semigroup.x_operator"))
    factor = tr.spanned("semigroup.lu_factor",
                        before=lambda a: c("semigroup.lu_factorizations"))(semigroup.spla.splu)

    def splu(*args, **kwargs):
        # every solve with a stepper's factorisation is one implicit time step
        return _CountedSolves(factor(*args, **kwargs), tr.counters, "semigroup.time_steps")

    tr.patch_module_attr(semigroup, "spla", {"splu": splu})

    # extension ------------------------------------------------------------------------
    def capture(args):
        A = args["A"]
        c("extension.unknowns", A.shape[0])
        c("extension.matrix_nnz", A.nnz)
        tr.matrices.append((tr.case, A))

    spsolve = tr.spanned("extension.sparse_solve", before=capture)(extension.spla.spsolve)
    tr.patch_module_attr(extension, "spla", {"spsolve": spsolve})

    def backward_error(_args, state):
        err = max(state.residual_interior, state.residual_bottom)
        tr.counters["extension.backward_error_max"] = max(
            tr.counters["extension.backward_error_max"], err)

    tr.patch_function(extension.solve_extension,
                      tr.spanned("extension.solve_extension", after=backward_error))
    tr.patch_function(extension.rescale_solution, tr.spanned("extension.rescale_solution"))
    tr.patch_method(extension.ExtensionState, "values_at",
                    tr.counted("extension.values_at"))

    # fitting ---------------------------------------------------------------------------
    def lp_rows(args):
        if args["method"] == "lp":
            c("fitting.lp_rows", 2 * len(args["values"]))

    tr.patch_function(fitting.sup_fit, tr.spanned("fitting.sup_fit", before=lp_rows))
    tr.patch_function(fitting.linprog, tr.spanned(
        None, before=lambda _a: c("fitting.lp_solves"),
        after=lambda _a, res: c("fitting.lp_successes", int(bool(res.success)))))

    # barriers --------------------------------------------------------------------------
    tr.patch_function(barriers.sample_annulus, tr.spanned(
        "barriers.sample_annulus", before=lambda a: c("barriers.sample_annulus.points",
                                                      a["samples"])))

    def candidate(_args):
        if tr.inside("barriers.search_case2_parameters"):
            c("barriers.case2_candidates")

    tr.patch_method(barriers.BarrierCase2, "__init__", tr.spanned(None, before=candidate))
    tr.patch_function(barriers.search_case2_parameters, tr.spanned(
        "barriers.search_case2_parameters",
        after=lambda _a, _r: c("barriers.case2_hits")))
    for name in ("slide_paraboloids", "inf_convolution"):
        tr.patch_function(getattr(barriers, name), tr.spanned(f"barriers.{name}"))

    # regularity ------------------------------------------------------------------------
    tr.patch_function(regularity.schauder_decay, tr.spanned(
        "regularity.schauder_decay",
        after=lambda _a, rep: c("regularity.schauder_decay.scales", len(rep.scales))))
    tr.patch_function(regularity.campanato_iterate, tr.spanned(
        "regularity.campanato_iterate",
        after=lambda _a, rep: c("regularity.campanato_iterate.steps", rep.steps)))
    for name in ("harnack_family_report", "interior_norm_report"):
        tr.patch_function(getattr(regularity, name), tr.spanned(f"regularity.{name}"))

    # runner / gridfn / config ----------------------------------------------------------
    tr.patch_function(runner.run, tr.spanned("runner.run"))
    tr.patch_function(gridfn.write_grid_binary, tr.spanned("gridfn.write_grid_binary"))
    tr.patch_function(config.validate, tr.spanned("config.validate"))
