"""Experiment orchestration: dispatch a validated config to the module
pipelines, persist reports/plots, and assemble a run manifest.

A stage returns (ok, details, extra outputs); `run` writes the details as
the stage's JSON report (the `_DISPATCH` file name) and into the manifest.
Reports are plain data (dicts, or dataclasses taken apart by asdict) and
every JSON and CSV file of a run is written by gridfn.write_json and
gridfn.write_csv, which fix the format.  Reports never contain timestamps,
so a fixed config+seed reproduces them byte-for-byte; the manifest carries
the only timestamps of a run.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from . import __version__
from .barriers import (BarrierCase1, BarrierNotFound, inf_convolution, paraboloid_rows,
                       search_case2_parameters, slide_paraboloids)
from .benchmarks import (eigen_extension_problem, harmonic_family_ycap, kinked_grid,
                         kinked_trace_problem, positive_harmonic_family, sliding_fixture,
                         vertex_lattice)
from .config import ExperimentConfig
from .extension import (ExtensionMesh, ExtensionState, HarmonicCombo, solve_extension,
                        transform_to_z)
from .geometry import (MAGeometry, a_infinity_check, blocks, doubling_check, engulfing_check,
                       quasi_triangle_check, quotient_check, scaling_identity_check)
from .gridfn import BoxGrid, GridFunction, write_csv, write_json
from .plots import svg_heatmap, svg_loglog
from .regularity import (_CASE_COEFFS, _case_polynomial, harnack_family_report,
                         holder_quotient, interior_norm_report, schauder_decay)
from .semigroup import (CoefficientField, SemigroupStepper, fit_rel_error,
                        fractional_apply, fractional_inverse)


# Pass thresholds of the stages, one entry per check: a stage passes only if
# every quantity it measures is inside its threshold.
TOLERANCES = {
    "scaling_rel_error": 1e-12,         # geometry: exact scaling of h and h'
    "scalar_rel_error": 1e-6,           # fractional: the fits at lam = 1, 4, 9
    "eigen_rel_error": 1e-3,            # fractional, end-to-end: against lam_h^{+-s} sin(kx)
    "roundtrip_rel_error": 1e-3,        # fractional: L^s L^{-s} u against u
    "field_error": 1e-2,                # solve-extension: Bessel-profile oracle
    "residual_interior": 1e-8,          # solve-extension: interior residual
    "contact_gap": 1e-10,               # sliding: paraboloid below U
    "contact_touch": 1e-9,              # sliding: paraboloid touches U at contacts
    "sliding_drift": 0.25,              # sliding: measure ratio under refinement
    "infconv_slack": 1e-12,             # inf-convolution below U, monotone in eps
    "harnack_min_quotient": 1.0 - 1e-9,  # harnack: every quotient at least 1
    "harnack_drift": 0.20,              # harnack: C_H_hat under refinement
    "kinked_exponent": 0.15,            # schauder kinked: |fitted - (alpha + 2s)|
    "harmonic_exponent_slack": 0.25,    # schauder harmonic: fitted >= case - slack
    "polynomial_error": 1e-9,           # schauder polynomial: exact fit
}


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    version: str
    started: str
    finished: str = ""
    stages: list = field(default_factory=list)
    exit_status: int = 0

    def add_stage(self, name, status, details, outputs):
        self.stages.append({"name": name, "status": status, "details": details,
                            "outputs": sorted(outputs)})
        if status != "pass":
            self.exit_status = 1

    def save(self, path):  # the stages hold plain data: written as they are, not deep-copied
        write_json(path, {f.name: getattr(self, f.name) for f in fields(self)})


def run(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    outdir = out_dir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    manifest = RunManifest(config=cfg.data, config_hash=cfg.config_hash(),
                           version=__version__,
                           started=time.strftime("%Y-%m-%dT%H:%M:%S"))
    stage, report_name = _DISPATCH[cfg.experiment]
    try:
        ok, details, outputs = stage(cfg, outdir)
        report = os.path.join(outdir, report_name)
        write_json(report, details)
        manifest.add_stage(cfg.experiment, "pass" if ok else "fail", details,
                           [os.path.relpath(o, outdir) for o in outputs + [report]])
    except Exception as exc:  # noqa: BLE001 - stage failures land in the manifest
        manifest.add_stage(cfg.experiment, "error",
                           {"exception": repr(exc), "traceback": traceback.format_exc()}, [])
    manifest.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest.save(os.path.join(outdir, "manifest.json"))
    return manifest


# -- stages ---------------------------------------------------------------------------


def _run_geometry(cfg, outdir):
    s = cfg.setup["s"]
    prob = cfg.problem
    geom = MAGeometry(s, n=prob["dimension"])
    seed = cfg.seed
    qt = quasi_triangle_check(geom, int(prob["samples"]), seed=seed)
    sc = scaling_identity_check(geom, seed=seed)
    radii = [10.0**e for e in (-3, -2, -1, 0, 1)]
    sections = [(z0, R) for z0 in (0.0, 0.5, 2.0) for R in radii]
    db = doubling_check(geom, sections)
    ai = a_infinity_check(geom)
    en = engulfing_check(geom, int(prob["engulfing_samples"]), seed=seed)
    details = {"quasi_triangle": qt, "exact_scaling": sc, "doubling": db,
               "a_infinity": ai, "engulfing": en}
    ok = (np.isfinite(qt["K_hat"]) and qt["K_hat"] >= 1.0
          and sc["max_rel_err_h"] < TOLERANCES["scaling_rel_error"]
          and sc["max_rel_err_hp"] < TOLERANCES["scaling_rel_error"]
          and db["min_ratio"] > 0.0 and np.isfinite(db["max_ratio"])
          and all(a > b for a, b in zip(ai["weight_ratios"][:-1], ai["weight_ratios"][1:]))
          and en["violations"] == 0)
    if s <= 0.5:
        q = quotient_check(geom, seed=seed)
        details["quotient"] = q
        ok = ok and q["passes"]
    return ok, details, []


def _sine_problem(prob):
    """k, its eigenvalue 4 sin^2(k h / 2) / h^2 on h = pi / grid_points, the
    stepper of -d_xx on (0, pi) in grid_points cells and sin(k x) on its grid."""
    k, cells = int(prob["k"]), int(prob["grid_points"])
    grid = BoxGrid.interval(0.0, np.pi, cells + 1)
    stepper = SemigroupStepper(CoefficientField.identity(1), grid)
    h = np.pi / cells
    lam = 4.0 * np.sin(0.5 * k * h) ** 2 / h**2
    return k, lam, stepper, GridFunction.from_callable(grid, lambda x: np.sin(k * x))


def _run_fractional(cfg, outdir):
    s = cfg.setup["s"]
    k, lam, stepper, u = _sine_problem(cfg.problem)
    Lsu, info = fractional_apply(stepper, u, s)
    target = lam**s * u.values
    rel = float(np.max(np.abs(Lsu.values - target)) / np.max(np.abs(target)))
    fits = {"apply": info}
    ok = rel < TOLERANCES["eigen_rel_error"]
    details = {"eigen_rel_error": rel, "k": k, "fit_info": fits,
               "continuum_rel_error": float(abs((lam / k**2) ** s - 1.0))}
    if cfg.problem["inverse"]:
        inv, fits["inverse"] = fractional_inverse(stepper, u, s)
        back, _ = fractional_apply(stepper, inv, s)
        rt = float(np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values)))
        details["roundtrip_rel_error"] = rt
        ok = ok and rt < TOLERANCES["roundtrip_rel_error"]
    # for L^s u = r_{1-s}(L)(L u) the fit's error is |lam r(lam) - lam^s| / lam^s
    details["scalar_rel_errors"] = {str(lam): max(fit_rel_error(i, lam) for i in fits.values())
                                    for lam in (1.0, 4.0, 9.0)}
    ok = ok and max(details["scalar_rel_errors"].values()) < TOLERANCES["scalar_rel_error"]
    return ok, details, []


def _run_solve_extension(cfg, outdir):
    s = cfg.setup["s"]
    prob = cfg.problem
    problem, oracle = eigen_extension_problem(s, int(prob["k"]), Z=prob["Z"])
    mesh = ExtensionMesh(nx=int(prob["nx"]), my=int(prob["my"]))
    state = solve_extension(problem, mesh)
    field_err = float(np.max(np.abs(state.values
                                    - oracle(state.x_axes[0][None, :], state.z_nodes[:, None]))))
    trace_err = float(np.max(np.abs(state.trace() - np.sin(prob["k"] * state.x_axes[0]))))
    details = {"field_error": field_err, "trace_error": trace_err,
               "residual_interior": state.residual_interior,
               "residual_bottom": state.residual_bottom}
    outputs = []
    base = os.path.join(outdir, "extension_state")
    state.save(base)
    outputs += [base + ".bin", base + ".json"]
    if cfg.emit_plots:
        svg = os.path.join(outdir, "extension_state.svg")
        svg_heatmap(svg, state.x_axes[0], state.z_nodes, state.values,
                    meta_comment=f"config {cfg.config_hash()}")
        outputs.append(svg)
    ok = (field_err < TOLERANCES["field_error"]
          and state.residual_interior < TOLERANCES["residual_interior"])
    return ok, details, outputs


def _run_barrier(cfg, outdir):
    prob = cfg.problem
    geom = MAGeometry(cfg.setup["s"])
    R = float(prob["R"])
    rho = R * float(prob["rho_fraction"])
    details = {"case": int(prob["case"]), "z0": geom.trace_center(R), "R": R, "rho": rho}
    if prob["case"] == 1:
        bar = BarrierCase1(geom, R, rho, float(prob["alpha"]))
        details.update(alpha=bar.alpha,
                       **bar.verify(samples=int(prob["samples"]), seed=cfg.seed))
    else:
        try:
            bar = search_case2_parameters(geom, R, rho)
        except BarrierNotFound as exc:
            details["search_failures"] = exc.reasons
        else:
            details.update(eps=bar.eps, eps0=bar.profile.eps0, alpha=bar.alpha,
                           **bar.verify(samples=int(prob["samples"]), seed=cfg.seed))
    return details.get("passes", False), details, []


def _touching_exact(geom, xs, zs, U, rep):
    """Independent check of a slide over the whole grid: each paraboloid
    -a delta_Phi(v, .) + c(v) lies below U within contact_gap and meets U
    within contact_touch at its contact nodes.  Vertices go in blocks."""
    a, c = rep.opening, rep.touching_values
    dphi, dh, pv, qv = paraboloid_rows(geom, xs, zs, [v for v, _, _ in rep.contact_map])
    for vb in blocks(len(c), U.size):
        gap = dphi[pv[vb], :, None] + dh[qv[vb], None, :]
        gap *= -a
        gap += c[vb, None, None]  # the paraboloids P
        if np.min(np.subtract(U, gap, out=gap)) < -TOLERANCES["contact_gap"]:
            return False
    nodes = [n for _, n, _ in rep.contact_map]
    v = np.repeat(np.arange(len(c)), [len(n) for n in nodes])
    i, j = np.array(list(chain.from_iterable(nodes)), dtype=np.intp).reshape(-1, 2).T
    gap = U[i, j] - (-a * (dphi[pv[v], i] + dh[qv[v], j]) + c[v])
    return bool(np.all(np.abs(gap) <= TOLERANCES["contact_touch"]))


def _run_sliding(cfg, outdir):
    geom = MAGeometry(cfg.setup["s"])
    prob = cfg.problem
    a = float(prob["opening"])
    nx, nz = int(prob["nx"]), int(prob["nz"])
    xs, zs, U = sliding_fixture(geom, prob["fixture"], nx, nz, a, seed=cfg.seed)
    verts = vertex_lattice(xs, zs, int(prob["vertex_stride"]))
    rep = slide_paraboloids(geom, xs, zs, U, verts, a)
    touch_ok = _touching_exact(geom, xs, zs, U, rep)
    details = {"fixture": prob["fixture"], "opening": a,
               "mu_A": rep.mu_A, "mu_B": rep.mu_B, "ratio": rep.measure_ratio,
               "touching_exact": touch_ok, "contact_cells": rep.contact_cells}
    ok = touch_ok and rep.mu_A > 0.0
    if prob["check_refinement"]:
        xs2, zs2, U2 = sliding_fixture(geom, prob["fixture"], 2 * nx - 1, 2 * nz - 1,
                                       a, seed=cfg.seed)
        rep2 = slide_paraboloids(geom, xs2, zs2, U2,
                                 vertex_lattice(xs2, zs2, 2 * int(prob["vertex_stride"])), a)
        drift = abs(rep2.measure_ratio - rep.measure_ratio) / rep.measure_ratio
        details["ratio_refined"] = rep2.measure_ratio
        details["contact_cells_refined"] = rep2.contact_cells
        details["ratio_drift"] = drift
        ok = ok and drift <= TOLERANCES["sliding_drift"]
    # inf-convolution ride-along on the same fixture
    eps = float(prob["eps_infconv"])
    U1 = inf_convolution(xs, zs, U, eps)
    U2 = inf_convolution(xs, zs, U, 2 * eps)
    below = bool(np.all(U1 <= U + TOLERANCES["infconv_slack"]))
    monotone = bool(np.all(U2 <= U1 + TOLERANCES["infconv_slack"]))
    details["infconv_below"] = below
    details["infconv_monotone"] = monotone
    ok = ok and below and monotone
    csv = os.path.join(outdir, "contacts.csv")
    write_csv(csv, ["vertex_x", "vertex_z", "contact_x", "contact_z", "touching_value"],
              [(vx, vz, xs[i], zs[j], c)
               for (vx, vz), nodes, c in rep.contact_map for (i, j) in nodes])
    return ok, details, [csv]


def _run_harnack(cfg, outdir):
    s = cfg.setup["s"]
    prob = cfg.problem
    family = positive_harmonic_family(s, int(prob["family_size"]), seed=cfg.seed)
    nx, my = int(prob["nx"]), int(prob["my"])
    rep = harnack_family_report(s, family, nx, my, kappa=prob["kappa"], R=prob["R"])
    quotients = [r.quotient for r in rep["reports"]]
    details = {"C_H_hat": rep["C_H_hat"], "min_quotient": rep["min_quotient"],
               "quotients": quotients}
    ok = rep["min_quotient"] >= TOLERANCES["harnack_min_quotient"]
    if prob["check_refinement"]:
        rep2 = harnack_family_report(s, family, 2 * nx - 1, 2 * my, kappa=prob["kappa"],
                                     R=prob["R"])
        drift = abs(rep2["C_H_hat"] - rep["C_H_hat"]) / rep["C_H_hat"]
        details["C_H_hat_refined"] = rep2["C_H_hat"]
        details["C_H_drift"] = drift
        ok = ok and drift <= TOLERANCES["harnack_drift"]
    csv = os.path.join(outdir, "harnack_quotients.csv")
    write_csv(csv, ["index", "quotient"], enumerate(quotients))
    return ok, details, [csv]


def _run_schauder(cfg, outdir):
    s, alpha = cfg.setup["s"], cfg.setup["alpha"]
    prob = cfg.problem
    case = int(prob["case"])
    rho, depth = float(prob["rho"]), int(prob["depth"])
    if prob["benchmark"] == "kinked":
        problem, mesh = kinked_trace_problem(s, alpha, mx=int(prob["mx"]),
                                             my=int(prob["my"]))
        state = solve_extension(problem, mesh)
        noise = max(state.residual_interior, 1e-14)
        report = schauder_decay(state, case, rho, depth, noise_floor=noise,
                                fit_window=int(prob["fit_window"]))
        reference = alpha + 2.0 * s  # inside (case - 1, case): `validate` checks it
        ok = report.fitted_exponent is not None and \
            abs(report.fitted_exponent - reference) <= TOLERANCES["kinked_exponent"]
    elif prob["benchmark"] == "harmonic":
        combo = HarmonicCombo(s, const=0.3, modes=[(0.5, 1.0, 0.4), (0.2, 2.0, 1.1)])
        state = _synthetic_state(s, combo, mx=int(prob["mx"]), my=int(prob["my"]))
        report = schauder_decay(state, case, rho, depth, noise_floor=1e-13,
                                fit_window=int(prob["fit_window"]))
        ok = report.fitted_exponent is not None and \
            report.fitted_exponent >= case - TOLERANCES["harmonic_exponent_slack"]
        reference = float(case)
    else:  # polynomial: exact representability
        state = _polynomial_state(s, case, mx=int(prob["mx"]), my=int(prob["my"]))
        report = schauder_decay(state, case, rho, depth, noise_floor=0.0)
        errs = [row["E"] for row in report.scales]
        ok = max(errs) < TOLERANCES["polynomial_error"]
        reference = None
    details = {**asdict(report), "target": reference}
    csvp = os.path.join(outdir, "decay_report.csv")
    write_csv(csvp, ["j", "r", "nodes", "sup_error"],
              [(row["j"], row["r"], row["nodes"], row["E"]) for row in report.scales])
    outputs = [csvp]
    if cfg.emit_plots:
        svg = os.path.join(outdir, "decay.svg")
        svg_loglog(svg, [row["r"] for row in report.scales],
                   [max(row["E"], 1e-300) for row in report.scales],
                   ref_slope=reference, title=f"decay case {case}",
                   meta_comment=f"config {cfg.config_hash()}")
        outputs.append(svg)
    return ok, details, outputs


def _synthetic_state(s, fn, mx, my):
    """Exact-valued state on the kinked benchmark's graded grid over S_1 x
    (0, Z), h(Z) = 1 (noise floor ~ machine)."""
    domain, mesh = kinked_grid(mx, my)
    xs, = mesh.x_axes(domain, 1)
    y = mesh.y_nodes(harmonic_family_ycap(s), s)
    vals = fn(xs[None, :], transform_to_z(y, s)[:, None])  # one value per node
    return ExtensionState(s, [xs], y, vals, 0.0, 0.0, meta={"synthetic": True})


def _polynomial_state(s, case, mx, my):
    coeffs = dict(zip(_CASE_COEFFS[case], (0.37, 0.21, 0.4, -0.15)))
    geom = MAGeometry(s)
    return _synthetic_state(s, lambda x, z: _case_polynomial(coeffs, x, z, geom), mx, my)


def _run_end_to_end(cfg, outdir):
    s, alpha = cfg.setup["s"], cfg.setup["alpha"]
    prob = cfg.problem
    k, lam, stepper, f = _sine_problem(prob)
    x = stepper.grid.axes()[0]
    u, _ = fractional_inverse(stepper, f, s)
    rel = float(np.max(np.abs(u.values - lam ** -s * f.values)) / lam ** -s)
    gamma_total = alpha + 2.0 * s  # off the integers: `validate` refuses them
    frac = float(prob["subdomain_fraction"])
    lo, hi = 0.5 * (1 - frac) * np.pi, (0.5 + 0.5 * frac) * np.pi
    sub = (x >= lo) & (x <= hi)
    # data norm: sup|f| plus its Hoelder-alpha constant over all node pairs
    f_holder = holder_quotient(x, f.values, alpha)
    data_norm = float(np.max(np.abs(f.values))) + f_holder
    rep = interior_norm_report(x, u.values, gamma_total, sub, data_norm)
    details = {"eigen_rel_error": rel, "norm_report": asdict(rep), "f_holder_const": f_holder,
               "continuum_rel_error": float(abs((lam / k**2) ** -s - 1.0))}
    ok = rel < TOLERANCES["eigen_rel_error"] and np.isfinite(rep.ratio)
    return ok, details, []


_DISPATCH = {
    "geometry-check": (_run_geometry, "geometry_report.json"),
    "fractional-apply": (_run_fractional, "fractional_report.json"),
    "solve-extension": (_run_solve_extension, "extension_report.json"),
    "barrier-check": (_run_barrier, "barrier_report.json"),
    "slide-paraboloids": (_run_sliding, "sliding_report.json"),
    "harnack": (_run_harnack, "harnack_report.json"),
    "schauder-decay": (_run_schauder, "decay_report.json"),
    "end-to-end": (_run_end_to_end, "endtoend_report.json"),
}
