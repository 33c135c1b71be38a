"""Seeded case lists for the benchmark workloads, and the code that runs one
case and checks its output against an oracle.

A case is either a validated config handed to ``fracext.runner.run`` or a
direct call into the public API (the 2-D cases, the semigroup extension and
the campanato iteration).
Every fracext function is looked up through its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from fracext import (benchmarks, config, extension, gridfn, regularity, runner,
                     semigroup)

WORKLOADS = ("sections", "spectral", "extension", "plane2d")

# Lower edge of the top s-stratum, where the extension grading and the
# barrier search are known to break (ROADMAP item 5).
NEAR_ONE = 0.945

# Kinds whose failures in the top stratum are the known defects of ROADMAP
# item 5.  They still count in `failed` and `pass_frac`; they only do not
# make a run incorrect.  See is_known_defect for the one other known defect.
KNOWN_DEFECT_KINDS = frozenset({"solve-extension", "barrier-check", "schauder-decay",
                                "mixed2d"})
# From here up, `slide-paraboloids` on the harmonic fixture fails its
# refinement drift check (drift > 0.25) now and then, depending on the
# opening and the fixture seed.
SLIDING_DRIFT_ONSET = 0.7

# Tolerances the runner applies in runner.py, mirrored so a passing runner
# case can report how close it came: error / tolerance.
RUNNER_TOLERANCES = {
    "eigen_rel_error": 1e-3, "roundtrip_rel_error": 1e-3, "scalar_rel_error": 1e-6,
    "field_error": 1e-2, "residual_interior": 1e-8, "scaling_rel_error": 1e-12,
}
# Tolerances of the benchmark's own oracles.
SEMIGROUP_EXT_TOL = 5e-4    # max |U - phi_lambda(z) u|, as in the semigroup tests
APPLY2D_TOL = 1e-3          # relative, as the runner's 1-D eigen check
MIXED2D_FIELD_TOL = 1e-2    # as the runner's solve-extension field check
MIXED2D_RESIDUAL_TOL = 1e-8
MIXED_A12 = 0.3


@dataclass(frozen=True)
class Case:
    id: str
    kind: str
    params: dict

    def to_json(self):
        return {"id": self.id, "kind": self.kind, "params": self.params}


@dataclass
class Outcome:
    status: str              # "pass", "fail" or "error"
    err_ratio: float | None  # achieved oracle error / tolerance, when one exists
    note: str = ""
    details: dict | None = None  # the runner stage's details, when it did not pass


# -- seeded generation -----------------------------------------------------------------


def s_slots(rng, n):
    """n values of s from low to high: one in [0.05, 0.055], n - 2 within
    +-0.01 of centres evenly spaced over [0.3, 0.74], and one in [0.945, 0.95].

    The strata are narrow and every kind keeps its sizes per stratum, so the
    slowest and least accurate cases are the same cases for every seed and
    the end-to-end figures stay steady across seeds.  No draw lands in
    (0.75, 0.945): the known defects switch on inside that band (barrier
    search from ~0.77, schauder case 3 from ~0.86, extension grading near
    0.9), where a case would pass or fail by chance.  The top stratum holds
    them for every seed."""
    if n < 3:
        raise ValueError("need at least 3 slots")
    mids = [(c - 0.01, c + 0.01) for c in np.linspace(0.3, 0.74, n - 2)]
    strata = [(0.05, 0.055)] + mids + [(NEAR_ONE, 0.95)]
    return [round(float(rng.uniform(lo, hi)), 6) for lo, hi in strata]


def _runner_case(kind, s, problem, seed, alpha=None):
    setup = {"s": s}
    if alpha is not None:
        setup["alpha"] = alpha
    return {"config": {"experiment": kind, "setup": setup, "problem": problem,
                       "seed": seed, "threads": 1, "emit_plots": False}}


def _seed(rng):
    return int(rng.integers(0, 2**31))


def _alpha_near(rng, centre, s, gap=0.08):
    """Hoelder exponent within 0.02 of `centre`, with alpha + 2s at least
    `gap` from an integer so the decay case is unambiguous."""
    alpha = round(float(rng.uniform(centre - 0.02, centre + 0.02)), 6)
    frac = (alpha + 2.0 * s) % 1.0
    if not gap < frac < 1.0 - gap:
        raise ValueError(f"alpha {alpha} puts alpha + 2s too close to an integer")
    return alpha


# Each kind has a fixed design per s-stratum (listed low s to high s): the
# sizes, wave numbers and fixtures stay with their stratum for every seed.
# Every workload has an odd number of cases, so with three passes the
# median case run is the middle run of one case.  The sizes also put the
# median, and the tail (the fourth-slowest case), inside groups of
# equal-cost cases, so noise cannot swap which case they read.
# The seed draws s inside each stratum, the sample seeds and the remaining
# free parameters (radii, openings, heights, alpha, kappa), and the case order.

def _sections(rng):
    out = []
    for s, dim in zip(s_slots(rng, 8), [1, 2, 1, 2, 1, 2, 1, 2]):
        problem = {"dimension": dim, "samples": 20_000, "engulfing_samples": 400}
        out.append(("geometry-check",
                    _runner_case("geometry-check", s, problem, _seed(rng))))
    for s in s_slots(rng, 6):
        # R >= 1/2 keeps the default alpha = 9 above the case-1 floor (n+1)/rho;
        # R steers the case-2 parameter search, so it stays near one value
        problem = {"case": 1 if s <= 0.5 else 2, "samples": 1000,
                   "R": round(float(rng.uniform(0.595, 0.605)), 6)}
        out.append(("barrier-check", _runner_case("barrier-check", s, problem, _seed(rng))))
    fixtures = ["convex", "paraboloid", "harmonic"] * 2 + ["convex"]
    for s, fx in zip(s_slots(rng, 7), fixtures):
        problem = {"fixture": fx, "opening": round(float(rng.uniform(0.5, 2.0)), 6)}
        out.append(("slide-paraboloids",
                    _runner_case("slide-paraboloids", s, problem, _seed(rng))))
    return out


def _spectral(rng):
    out = []
    # Two 1024-point inverses are the slowest cases; the three 256-point
    # inverses come next and hold case_tail_s in the middle of their nine
    # runs.  The top stratum gets a plain apply: the cost of an inverse
    # swings with s near 1.
    design = [(1024, 1, True), (512, 2, False), (256, 3, True), (1024, 4, False),
              (256, 4, True), (1024, 2, True), (512, 3, False), (256, 2, True),
              (256, 1, False)]
    for s, (N, k, inv) in zip(s_slots(rng, 9), design):
        problem = {"grid_points": N, "k": k, "inverse": inv}
        out.append(("fractional-apply",
                    _runner_case("fractional-apply", s, problem, _seed(rng))))
    for s, k in zip(s_slots(rng, 5), [2, 3, 1, 4, 2]):
        problem = {"grid_points": 512, "k": k,
                   "subdomain_fraction": round(float(rng.uniform(0.3, 0.7)), 6)}
        out.append(("end-to-end", _runner_case("end-to-end", s, problem, _seed(rng))))
    design = [(192, 1), (256, 2), (320, 3), (384, 1), (256, 2)]
    for s, (N, k) in zip(s_slots(rng, 5), design):
        heights = sorted(round(float(z), 6) for z in rng.uniform(0.05, 1.0, 3))
        out.append(("semigroup-extension", {"s": s, "N": N, "k": k, "heights": heights}))
    return out


def _extension(rng):
    out = []
    design = [(129, 48, 1), (257, 96, 2), (513, 128, 3), (1025, 192, 1), (129, 48, 2),
              (257, 96, 3), (513, 128, 1), (129, 48, 2)]
    for s, (nx, my, k) in zip(s_slots(rng, 8), design):
        problem = {"nx": nx, "my": my, "k": k}
        out.append(("solve-extension",
                    _runner_case("solve-extension", s, problem, _seed(rng))))
    for s, centre in zip(s_slots(rng, 4), [0.5, 0.7, 0.3, 0.5]):
        alpha = _alpha_near(rng, centre, s)
        case = int(np.floor(alpha + 2.0 * s)) + 1
        problem = {"benchmark": "kinked", "case": case, "mx": 160, "my": 80}
        out.append(("schauder-decay", _runner_case("schauder-decay", s, problem,
                                                   _seed(rng), alpha=alpha)))
        out.append(("campanato", {"s": s, "alpha": alpha, "case": case,
                                  "mx": 160, "my": 80}))
    for s in s_slots(rng, 5):
        problem = {"family_size": 20, "kappa": round(float(rng.uniform(0.4, 0.6)), 6)}
        out.append(("harnack", _runner_case("harnack", s, problem, _seed(rng))))
    return out


def _plane2d(rng):
    out = []
    design = [(21, (2, 1)), (25, (3, 2)), (25, (1, 3)), (25, (2, 3)), (29, (1, 1))]
    for s, (n, k) in zip(s_slots(rng, 5), design):
        out.append(("apply2d", {"s": s, "n": n, "k": list(k)}))
    meshes = [(13, 10), (17, 12), (21, 16), (25, 20), (13, 10), (17, 12), (21, 16),
              (13, 10), (17, 12), (21, 16)]
    for s, (nx, my) in zip(s_slots(rng, 10), meshes):
        out.append(("mixed2d", {"s": s, "nx": nx, "my": my}))
    return out


_BUILDERS = {"sections": _sections, "spectral": _spectral,
             "extension": _extension, "plane2d": _plane2d}


def build_cases(workload, seed):
    """The workload's case list for `seed`; equal seeds give equal lists."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    specs = _BUILDERS[workload](rng)
    order = rng.permutation(len(specs))
    return [Case(f"{workload}-{i:02d}-{specs[j][0]}", specs[j][0], specs[j][1])
            for i, j in enumerate(order)]


_TINY = {
    "geometry-check": _runner_case("geometry-check", 0.4, {"samples": 100,
                                                           "engulfing_samples": 10}, 0),
    "barrier-check": _runner_case("barrier-check", 0.4, {"case": 1, "samples": 20}, 0),
    "slide-paraboloids": _runner_case("slide-paraboloids", 0.4, {
        "nx": 9, "nz": 9, "vertex_stride": 2, "check_refinement": False}, 0),
    "fractional-apply": _runner_case("fractional-apply", 0.4, {
        "grid_points": 16, "inverse": True,
        "quadrature": {"nodes": 8, "substeps": 2}}, 0),
    "end-to-end": _runner_case("end-to-end", 0.4, {"grid_points": 16}, 0),
    "solve-extension": _runner_case("solve-extension", 0.4, {"nx": 17, "my": 8}, 0),
    "schauder-decay": _runner_case("schauder-decay", 0.4, {
        "benchmark": "kinked", "case": 2, "mx": 40, "my": 24}, 0, alpha=0.5),
    "harnack": _runner_case("harnack", 0.4, {"family_size": 1, "nx": 17, "my": 8,
                                             "check_refinement": False}, 0),
    "semigroup-extension": {"s": 0.4, "N": 16, "k": 1, "heights": [0.5]},
    "apply2d": {"s": 0.4, "n": 6, "k": [1, 1]},
    "mixed2d": {"s": 0.4, "nx": 7, "my": 6},
    "campanato": {"s": 0.4, "alpha": 0.5, "case": 2, "mx": 40, "my": 24},
}


def tiny_case(kind):
    """A minimal case of `kind`, run once during set-up to warm lazy imports."""
    return Case(f"tiny-{kind}", kind, _TINY[kind])


def validated_configs(cases):
    """Validate every runner config up front; a ConfigError here is a benchmark bug."""
    return {c.id: config.validate(dict(c.params["config"]))
            for c in cases if "config" in c.params}


def case_s(case):
    p = case.params
    return float(p["config"]["setup"]["s"] if "config" in p else p["s"])


def is_known_defect(case, outcome):
    """True when a failed case is a defect documented at this commit: it
    counts in `failed` and `pass_frac` but leaves the run correct.  Every
    other failure, flagged by the runner or by an oracle, makes it incorrect."""
    if outcome.status == "pass":
        return False
    if case.kind in KNOWN_DEFECT_KINDS:
        return case_s(case) >= NEAR_ONE
    if case.kind == "slide-paraboloids":
        return case_s(case) >= SLIDING_DRIFT_ONSET and _drift_only(outcome.details)
    return False


def _drift_only(d):
    """The sliding stage failed its refinement drift check on the harmonic
    fixture and passed every other check."""
    return (d is not None and d.get("fixture") == "harmonic"
            and d.get("ratio_drift", 0.0) > 0.25 and d.get("mu_A", 0.0) > 0.0
            and all(d.get(k) is True
                    for k in ("touching_exact", "infconv_below", "infconv_monotone")))


# -- execution ---------------------------------------------------------------------------


def run_case(case, workdir):
    """Run one case in `workdir` and check it; an exception is an error outcome."""
    try:
        if "config" in case.params:
            return _run_runner_case(case, workdir)
        return _DIRECT[case.kind](case.params)
    except Exception as exc:  # noqa: BLE001 - a raising case is a failed case
        return Outcome("error", None, repr(exc))


def _runner_err_ratio(kind, d):
    t = RUNNER_TOLERANCES
    if kind == "geometry-check":
        sc = d["exact_scaling"]
        return max(sc["max_rel_err_h"], sc["max_rel_err_hp"]) / t["scaling_rel_error"]
    if kind == "fractional-apply":
        r = [d["eigen_rel_error"] / t["eigen_rel_error"],
             max(d["scalar_rel_errors"].values()) / t["scalar_rel_error"]]
        if "roundtrip_rel_error" in d:
            r.append(d["roundtrip_rel_error"] / t["roundtrip_rel_error"])
        return max(r)
    if kind == "end-to-end":
        return d["eigen_rel_error"] / t["eigen_rel_error"]
    if kind == "solve-extension":
        return max(d["field_error"] / t["field_error"],
                   d["residual_interior"] / t["residual_interior"])
    # schauder-decay, barrier, sliding, harnack: the runner's predicates only.
    # A fitted decay exponent is an estimate, not an error against an exact
    # solution; its distance to alpha + 2s jumps with the scales the fit keeps.
    return None


def _run_runner_case(case, workdir):
    raw = dict(case.params["config"], output_dir=workdir)
    cfg = config.validate(raw)
    manifest = runner.run(cfg)
    stage = manifest.stages[0]
    if stage["status"] != "pass":
        return Outcome(stage["status"], None, json.dumps(stage["details"], default=str)[:300],
                       stage["details"])
    ratio = _runner_err_ratio(case.kind, stage["details"])
    if ratio is not None and not ratio < 1.0:
        return Outcome("fail", ratio, "runner passed the stage but the oracle check failed")
    return Outcome("pass", ratio)


def discrete_eigenvalue(k, n, length=np.pi):
    """Eigenvalue of the 3-point Dirichlet Laplacian on n cells for sin(k x)."""
    h = length / n
    return 2.0 * (1.0 - np.cos(k * h)) / h**2


def _semigroup_extension(p):
    """extension_via_semigroup_multi against the Bessel profile of the discrete
    eigenvalue: U(., z) = phi_lambda(z) sin(k x)."""
    s, N, k = p["s"], p["N"], p["k"]
    grid = gridfn.BoxGrid.interval(0.0, np.pi, N + 1)
    stepper = semigroup.SemigroupStepper(semigroup.CoefficientField.identity(1), grid)
    u = gridfn.GridFunction.from_callable(grid, lambda x: np.sin(k * x))
    outs, _ = semigroup.extension_via_semigroup_multi(stepper, u, s, p["heights"])
    lam = discrete_eigenvalue(k, N)
    err = max(float(np.max(np.abs(U.values - semigroup.bessel_extension_profile(lam, s, z)
                                  * u.values)))
              for U, z in zip(outs, p["heights"]))
    return _checked(err / SEMIGROUP_EXT_TOL)


def _apply2d(p):
    """2-D L^s on (0, pi)^2 with identity coefficients; sin(k1 x) sin(k2 y) is an
    exact discrete eigenvector."""
    s, n, (k1, k2) = p["s"], p["n"], p["k"]
    grid = gridfn.BoxGrid.rectangle((0.0, 0.0), (np.pi, np.pi), (n + 1, n + 1))
    stepper = semigroup.SemigroupStepper(semigroup.CoefficientField.identity(2), grid)
    u = gridfn.GridFunction.from_callable(grid, lambda x, y: np.sin(k1 * x) * np.sin(k2 * y))
    Lsu, _ = semigroup.fractional_apply(stepper, u, s)
    lam = discrete_eigenvalue(k1, n) + discrete_eigenvalue(k2, n)
    target = lam**s * u.values
    rel = float(np.max(np.abs(Lsu.values - target)) / np.max(np.abs(target)))
    return _checked(rel / APPLY2D_TOL)


def mixed2d_problem(s, Z=1.0, a12=MIXED_A12):
    """Manufactured 2-D extension problem with a constant mixed coefficient.

    U = sin x sin y phi_2(z), phi_lambda the Bessel profile, solves
    a^{ij} d_ij U + z^{2-1/s} U_zz = F with F = 2 a12 cos x cos y phi_2(z),
    Neumann data -d_s 2^s sin x sin y and zero lateral data.
    """
    coeff = semigroup.CoefficientField.full_2d(
        lambda x, y: np.ones(np.broadcast(x, y).shape),
        lambda x, y: np.full(np.broadcast(x, y).shape, a12),
        lambda x, y: np.ones(np.broadcast(x, y).shape), 1.0 - a12, 1.0 + a12)

    def phi(z):
        return semigroup.bessel_extension_profile(2.0, s, z)

    def oracle(x, y, z):
        return np.sin(x) * np.sin(y) * phi(z)

    problem = extension.ExtensionProblem(
        s=s, coeff=coeff, domain=((0.0, np.pi), (0.0, np.pi)), Z=Z,
        bottom=("neumann", lambda x, y: -semigroup.ds_constant(s) * 2.0**s
                * np.sin(x) * np.sin(y)),
        F=lambda x, y, z: 2.0 * a12 * np.cos(x) * np.cos(y) * phi(z),
        g_lateral=0.0, g_top=lambda x, y: oracle(x, y, Z))
    return problem, oracle


def _mixed2d(p):
    problem, oracle = mixed2d_problem(p["s"])
    state = extension.solve_extension(problem, extension.ExtensionMesh(nx=p["nx"], my=p["my"]))
    Zq, Xq, Yq = np.meshgrid(state.z_nodes, *state.x_axes, indexing="ij")
    err = float(np.max(np.abs(state.values - oracle(Xq, Yq, Zq))))
    return _checked(max(err / MIXED2D_FIELD_TOL,
                        state.residual_interior / MIXED2D_RESIDUAL_TOL))


def _campanato(p):
    """Kinked-trace state, then the inductive zoom.  After the last step the
    accumulated polynomial P matches U on the fit region to within the last
    corrector's scaled fit error; at the origin that reads
    |c - U(0, 0)| <= rho^{(K-1)(alpha+2s)} E_{K-1}."""
    s, alpha, case = p["s"], p["alpha"], p["case"]
    problem, mesh = benchmarks.kinked_trace_problem(s, alpha, mx=p["mx"], my=p["my"])
    state = extension.solve_extension(problem, mesh)
    rho = 0.5
    rep = regularity.campanato_iterate(state, case, alpha, rho=rho)
    if rep.steps == 0:
        return Outcome("fail", None, "no campanato step")
    u00 = float(state.values_at(np.array([0.0]), np.array([0.0]))[0])
    bound = rho ** ((rep.steps - 1) * (alpha + 2.0 * s)) * rep.step_errors[-1]
    if abs(rep.limit["c"] - u00) <= bound * (1.0 + 1e-9) + 1e-14:
        return Outcome("pass", None)
    return Outcome("fail", None, "accumulated constant misses the trace value")


def _checked(ratio):
    ratio = float(ratio)
    if np.isfinite(ratio) and ratio < 1.0:
        return Outcome("pass", ratio)
    return Outcome("fail", ratio, "oracle check failed")


_DIRECT = {"semigroup-extension": _semigroup_extension, "apply2d": _apply2d,
           "mixed2d": _mixed2d, "campanato": _campanato}


def bytes_under(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total
