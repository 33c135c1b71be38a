"""Statistics, per-layer metric derivation and the environment record."""

from __future__ import annotations

import math
import os
import platform
import subprocess
from collections import Counter, defaultdict

from .trace import self_times

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("case_p50_s", "s"),
              ("case_tail_s", "s"), ("peak_rss_mb", "MiB"), ("pass_frac", "ratio"),
              ("err_ratio_max", "ratio"))

# (metric, unit), grouped by module.
PER_LAYER = (
    ("geometry.section_interval.calls", "count"),
    ("geometry.section_interval.self_s", "s"),
    ("geometry.delta_h.calls", "count"),
    ("geometry.root_finds", "count"),
    ("geometry.endpoint_use_ratio", "ratio"),
    ("geometry.engulfing_check.self_s", "s"),
    ("geometry.quasi_triangle_check.self_s", "s"),
    ("semigroup.heat_interior.calls", "count"),
    ("semigroup.heat_interior.self_s", "s"),
    ("semigroup.time_steps", "count"),
    ("semigroup.quadrature_nodes", "count"),
    ("semigroup.zero_heat_ratio", "ratio"),
    ("semigroup.fractional_apply.self_s", "s"),
    ("semigroup.fractional_inverse.self_s", "s"),
    ("semigroup.extension_via_semigroup_multi.self_s", "s"),
    ("semigroup.lu_factorizations", "count"),
    ("semigroup.lu_factor_s", "s"),
    ("semigroup.x_operator.self_s", "s"),
    ("extension.solve_extension.calls", "count"),
    ("extension.solve_extension.self_s", "s"),
    ("extension.sparse_solve_s", "s"),
    ("extension.unknowns", "count"),
    ("extension.matrix_nnz", "count"),
    ("extension.lu_fill_nnz", "count"),
    ("extension.backward_error_max", "ratio"),
    ("extension.rescale_solution.self_s", "s"),
    ("extension.values_at.calls", "count"),
    ("fitting.sup_fit.calls", "count"),
    ("fitting.sup_fit.self_s", "s"),
    ("fitting.lp_rows", "count"),
    ("fitting.lp_success_ratio", "ratio"),
    ("barriers.sample_annulus.self_s", "s"),
    ("barriers.sample_annulus.points", "count"),
    ("barriers.case2_candidates", "count"),
    ("barriers.case2_hit_ratio", "ratio"),
    ("barriers.slide_paraboloids.self_s", "s"),
    ("barriers.inf_convolution.self_s", "s"),
    ("regularity.schauder_decay.self_s", "s"),
    ("regularity.schauder_decay.scales", "count"),
    ("regularity.campanato_iterate.steps", "count"),
    ("regularity.harnack_family_report.self_s", "s"),
    ("regularity.interior_norm_report.self_s", "s"),
    ("runner.run.self_s", "s"),
    ("gridfn.write_grid_binary.self_s", "s"),
    ("io.bytes_written", "bytes"),
    ("config.validate.self_s", "s"),
    ("trace.overhead_s", "s"),
)


# case_tail_s reads the highest percentile with at least this many samples above it.
TAIL_ABOVE = 10


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_ABOVE of n samples above
    it (nearest rank); None when n <= TAIL_ABOVE."""
    if n <= TAIL_ABOVE:
        return None
    return int(math.floor(100.0 * (n - TAIL_ABOVE) / n))


def nearest_rank(values, pct):
    vals = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(vals)))
    return vals[rank - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, lu_fill_nnz, bytes_written, overhead_s):
    """Every per-layer metric from one traced pass; an unreached layer reads 0."""
    st = self_times(tr.spans)
    calls = Counter(sp.name for sp in tr.spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for sp in tr.spans:
        self_s[sp.name] += st[sp.id]
        total_s[sp.name] += sp.end - sp.start
    c = tr.counters
    values = {
        "geometry.endpoint_use_ratio": _ratio(c["geometry.endpoints_kept"],
                                              c["geometry.endpoints_computed"]),
        "geometry.root_finds": c["geometry.root_finds"],
        "semigroup.time_steps": c["semigroup.time_steps"],
        "semigroup.quadrature_nodes": c["semigroup.quadrature_nodes"],
        "semigroup.zero_heat_ratio": _ratio(c["semigroup.zero_heat"],
                                            calls["semigroup.heat_interior"]),
        "semigroup.lu_factorizations": c["semigroup.lu_factorizations"],
        "semigroup.lu_factor_s": total_s["semigroup.lu_factor"],
        "extension.sparse_solve_s": total_s["extension.sparse_solve"],
        "extension.unknowns": c["extension.unknowns"],
        "extension.matrix_nnz": c["extension.matrix_nnz"],
        "extension.lu_fill_nnz": lu_fill_nnz,
        "extension.backward_error_max": c["extension.backward_error_max"],
        "fitting.lp_rows": c["fitting.lp_rows"],
        "fitting.lp_success_ratio": _ratio(c["fitting.lp_successes"], c["fitting.lp_solves"]),
        "barriers.sample_annulus.points": c["barriers.sample_annulus.points"],
        "barriers.case2_candidates": c["barriers.case2_candidates"],
        "barriers.case2_hit_ratio": _ratio(c["barriers.case2_hits"],
                                           c["barriers.case2_candidates"]),
        "regularity.schauder_decay.scales": c["regularity.schauder_decay.scales"],
        "regularity.campanato_iterate.steps": c["regularity.campanato_iterate.steps"],
        "io.bytes_written": bytes_written,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            v = values[name]
        elif name.endswith(".calls"):
            base = name[:-len(".calls")]
            v = calls[base] if base in calls else c[base]
        elif name.endswith(".self_s"):
            v = self_s[name[:-len(".self_s")]]
        else:
            raise KeyError(name)
        out[name] = {"value": float(v) if unit in ("s", "ratio") else int(v), "unit": unit}
    return out


# -- environment -------------------------------------------------------------------------


def _cpuinfo():
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas():
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": deps.get("name"), "version": deps.get("version"),
            "configuration": deps.get("openblas configuration")}


def environment(root, seed):
    import numpy
    import scipy
    cpu = _cpuinfo()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", platform.processor() or "unknown"),
        "l3_cache": cpu.get("cache size", "unknown"),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
