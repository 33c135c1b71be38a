"""Config schema, orchestration, determinism, plots, CLI."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracext.cli import main as cli_main
from fracext.config import (_PROBLEM_SCHEMAS, _TOP_SCHEMA, EXPERIMENT_KINDS, MAX_COUNT,
                            MAX_MESH_POINTS, MAX_THREADS, ConfigError, _boolean, _num,
                            _Optional, default_config, default_raw, load_config, validate)
from fracext.plots import svg_heatmap, svg_loglog
from fracext.runner import _DISPATCH, TOLERANCES, run


def test_minimal_config_defaults():
    cfg = validate({"experiment": "harnack"})
    assert cfg.data["problem"]["kappa"] == 0.5
    assert cfg.data["problem"]["family_size"] == 20
    assert cfg.data["setup"]["s"] == 0.5
    assert cfg.seed == 0 and cfg.threads == 1


def test_out_of_range_rejected():
    with pytest.raises(ConfigError, match="setup.s"):
        validate({"experiment": "harnack", "setup": {"s": 1.2}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate({"experiment": "harnack", "problem": {"kappa": 0.5, "bogus": 1}})
    with pytest.raises(ConfigError, match="Lambda"):
        validate({"experiment": "harnack", "setup": {"lambda": 2.0, "Lambda": 1.0}})
    with pytest.raises(ConfigError, match="setup.alpha: must be < 1"):
        validate({"experiment": "harnack", "setup": {"alpha": 1.0}})
    with pytest.raises(ConfigError, match="experiment"):
        validate({"experiment": "nonsense"})
    with pytest.raises(ConfigError, match="t_max"):
        validate({"experiment": "fractional-apply",
                  "problem": {"quadrature": {"t_min": 1.0, "t_max": 0.5}}})


def _load_text(tmp_path, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    return load_config(p)


def test_nan_s_rejected(tmp_path):
    with pytest.raises(ConfigError, match="setup.s: must be finite"):
        _load_text(tmp_path, '{"experiment": "harnack", "setup": {"s": NaN}}')


def test_overflowing_nx_rejected(tmp_path):
    # json reads 1e400 as inf
    with pytest.raises(ConfigError, match="problem.nx: must be finite"):
        _load_text(tmp_path, '{"experiment": "solve-extension", "problem": {"nx": 1e400}}')


def test_huge_integer_nx_rejected(tmp_path):
    # a 400-digit JSON integer is a Python int, which the finite check passes
    with pytest.raises(ConfigError, match="problem.nx: must be <= 4096"):
        _load_text(tmp_path, '{"experiment": "solve-extension", "problem": {"nx": 1'
                   + "0" * 400 + "}}")


def test_mesh_sizes_share_one_bound():
    keys = {"fractional-apply": ["grid_points"], "end-to-end": ["grid_points"],
            "solve-extension": ["nx", "my"], "harnack": ["nx", "my"],
            "slide-paraboloids": ["nx", "nz"], "schauder-decay": ["mx", "my"]}
    for kind, names in keys.items():
        for name in names:
            validate({"experiment": kind, "problem": {name: 4096}})
            with pytest.raises(ConfigError, match=f"problem.{name}: must be <= 4096"):
                validate({"experiment": kind, "problem": {name: 4097}})


@pytest.mark.parametrize("kind, key, size, cells", [
    ("fractional-apply", "grid_points", 512, 512), ("end-to-end", "grid_points", 512, 512),
    ("solve-extension", "nx", 257, 256)])
def test_wave_numbers_at_or_above_the_cell_count_are_refused(kind, key, size, cells):
    # sin(k x) on (0, pi) vanishes on every node of a grid of k cells, where
    # a run would pass on zero data, and aliases to a lower mode on fewer
    validate({"experiment": kind, "problem": {key: size, "k": cells - 1}})
    for k in (cells, cells + 1, 4096):
        with pytest.raises(ConfigError, match=rf"problem\.k: must be below the {cells} cells "
                                              rf"that problem\.{key} gives, .*got {k}$"):
            validate({"experiment": kind, "problem": {key: size, "k": k}})


def _raw_with(kind, path, value):
    """A config of `kind` with the dotted key `path` set to `value`."""
    raw = {"experiment": kind}
    *parents, leaf = path.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return raw


_COUNT_FIELDS = [
    ("geometry-check", "problem.samples", MAX_COUNT),
    ("geometry-check", "problem.engulfing_samples", MAX_COUNT),
    ("barrier-check", "problem.samples", MAX_COUNT),
    ("slide-paraboloids", "problem.vertex_stride", MAX_COUNT),
    ("harnack", "problem.family_size", MAX_COUNT),
    ("schauder-decay", "problem.depth", MAX_COUNT),
    ("schauder-decay", "problem.fit_window", MAX_COUNT),
    ("fractional-apply", "problem.k", MAX_MESH_POINTS),
    ("solve-extension", "problem.k", MAX_MESH_POINTS),
    ("end-to-end", "problem.k", MAX_MESH_POINTS),
    ("fractional-apply", "problem.quadrature.nodes", MAX_MESH_POINTS),
    ("fractional-apply", "problem.quadrature.substeps", MAX_MESH_POINTS),
    ("fractional-apply", "threads", MAX_THREADS),
]


@pytest.mark.parametrize("kind, path, bound", _COUNT_FIELDS)
def test_count_fields_are_bounded(kind, path, bound):
    if path == "problem.k":  # k must stay below the cell count, which is at most 4096
        with pytest.raises(ConfigError, match="problem.k: must be below the"):
            validate(_raw_with(kind, path, bound))
    else:
        validate(_raw_with(kind, path, bound))
    for value in (bound + 1, 10**400):
        with pytest.raises(ConfigError, match=f"{path}: must be <= {bound}"):
            validate(_raw_with(kind, path, value))


@pytest.mark.parametrize("kind, path, value", [
    ("geometry-check", "problem.samples", 20_000), ("barrier-check", "problem.samples", 1000),
    ("geometry-check", "problem.engulfing_samples", 400),
    ("harnack", "problem.family_size", 20),
    ("fractional-apply", "problem.quadrature.nodes", 8),
    ("fractional-apply", "problem.quadrature.substeps", 2),
    ("schauder-decay", "problem.depth", 9), ("schauder-decay", "problem.fit_window", 5),
    ("slide-paraboloids", "problem.vertex_stride", 2), ("solve-extension", "problem.k", 4),
])
def test_benchmark_counts_stay_valid(kind, path, value):
    assert validate(_raw_with(kind, path, value))


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_defaults_are_within_the_bounds(kind):
    assert default_config(kind)


def test_runner_dispatches_exactly_the_experiment_kinds():
    # the kinds are spelled once, as the problem schemas' keys; the runner has
    # one stage per kind, in the same order
    assert EXPERIMENT_KINDS == tuple(_PROBLEM_SCHEMAS)
    assert tuple(_DISPATCH) == EXPERIMENT_KINDS


def test_cli_rejects_huge_sample_count(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text('{"experiment": "geometry-check", "problem": {"samples": 1' + "0" * 400 + "}}")
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"problem.samples: must be <= {MAX_COUNT}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["fractional-apply", "end-to-end"])
def test_cli_rejects_oversized_grid_points(tmp_path, capsys, kind):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"experiment": kind, "problem": {"grid_points": 4097}}))
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "problem.grid_points: must be <= 4096" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_one_engulfing_sample_is_rejected(tmp_path, capsys):
    # engulfing_check fits its exponent line through the samples: through a
    # single point numpy warns (RankWarning) and the fitted p is arbitrary
    raw = {"experiment": "geometry-check", "problem": {"engulfing_samples": 1}}
    with pytest.raises(ConfigError, match="problem.engulfing_samples: must be >= 2"):
        validate(raw)
    raw["problem"]["engulfing_samples"] = 2
    assert validate(raw)
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"experiment": "geometry-check",
                             "problem": {"engulfing_samples": 1}}))
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "problem.engulfing_samples: must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_nan_nx_rejected(tmp_path):
    with pytest.raises(ConfigError, match="problem.nx: must be finite"):
        _load_text(tmp_path, '{"experiment": "solve-extension", "problem": {"nx": NaN}}')


def test_non_numeric_t_max_rejected():
    with pytest.raises(ConfigError, match="t_max: must be a number"):
        validate({"experiment": "fractional-apply",
                  "problem": {"quadrature": {"t_max": "x"}}})


@pytest.mark.parametrize("kind, path, value", [
    ("barrier-check", "problem.case", True), ("barrier-check", "problem.case", 1.0),
    ("schauder-decay", "problem.case", 3.0), ("geometry-check", "problem.dimension", 2.0),
    ("geometry-check", "problem.dimension", True), ("geometry-check", "schema_version", True),
    ("geometry-check", "schema_version", 1.0), ("slide-paraboloids", "problem.fixture", 1),
])
def test_choices_refuse_values_that_only_compare_equal(kind, path, value):
    with pytest.raises(ConfigError, match=f"{path}: must be one of"):
        validate(_raw_with(kind, path, value))


def test_choices_hash_one_config_one_way():
    # the only accepted spelling of {"dimension": 2, "schema_version": 1}
    cfg = validate({"experiment": "geometry-check", "problem": {"dimension": 2},
                    "schema_version": 1})
    assert cfg.config_hash() == validate(
        {"experiment": "geometry-check", "problem": {"dimension": 2}}).config_hash()
    for kind, path, value in (("barrier-check", "problem.case", 1),
                              ("schauder-decay", "problem.benchmark", "harmonic")):
        assert validate(_raw_with(kind, path, value))
    # case 3 where no alpha + 2s is fitted (the kinked default's 1.5 is outside (2, 3))
    assert validate({"experiment": "schauder-decay",
                     "problem": {"case": 3, "benchmark": "harmonic"}})


def test_config_roundtrip_canonicalization(tmp_path):
    cfg = validate({"experiment": "geometry-check", "setup": {"s": 0.25},
                    "problem": {"samples": 123}, "seed": 5})
    p = tmp_path / "cfg.json"
    cfg.emit(p)
    cfg2 = load_config(p)
    assert cfg2.canonical_bytes() == cfg.canonical_bytes()
    assert cfg2.config_hash() == cfg.config_hash()


def test_parse_error_reports_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "harnack",\n  "setup": }')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(p)


@pytest.mark.parametrize("case, reason", [
    ("missing", "No such file"), ("directory", "Is a directory"), ("not-utf8", "not UTF-8")])
def test_cli_refuses_unreadable_config_files(tmp_path, capsys, case, reason):
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe{}")
    path = str({"missing": tmp_path / "missing.json", "directory": tmp_path,
                "not-utf8": tmp_path / "bom.json"}[case])
    with pytest.raises(ConfigError, match=reason):
        load_config(path)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and reason in err
    assert not (tmp_path / "o").exists()


def test_non_string_experiment_is_a_config_error():
    for kind in (["harnack"], {"harnack": 1}, 2, None):
        with pytest.raises(ConfigError, match="experiment: must be one of"):
            validate({"experiment": kind})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(EXPERIMENT_KINDS),
       key=st.sampled_from(sorted(_TOP_SCHEMA) + ["bogus"]), value=JSON_VALUES)
def test_any_json_value_under_a_top_level_key_is_valid_or_a_config_error(kind, key, value):
    raw = {"experiment": kind, key: value}
    try:
        validate(raw)
    except ConfigError:
        pass


def _small_geometry_cfg(seed=0):
    cfg = default_config("geometry-check")
    cfg.data["problem"]["samples"] = 4000
    cfg.data["problem"]["engulfing_samples"] = 800
    cfg.data["seed"] = seed
    return cfg


def test_run_manifest_lists_outputs(tmp_path):
    cfg = _small_geometry_cfg()
    m = run(cfg, str(tmp_path))
    assert m.exit_status == 0
    assert m.stages[0]["status"] == "pass"
    outs = m.stages[0]["outputs"]
    assert any(o.endswith("geometry_report.json") for o in outs)
    for o in outs:
        assert os.path.exists(tmp_path / o)
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["config_hash"] == cfg.config_hash()
    assert data["config"]["problem"]["samples"] == 4000  # defaults echoed


def test_run_schauder_smoke_with_plots(tmp_path):
    cfg = default_config("schauder-decay")
    cfg.data["problem"].update({"benchmark": "polynomial", "case": 2,
                                "mx": 60, "my": 32, "depth": 4})
    cfg.data["emit_plots"] = True
    m = run(cfg, str(tmp_path))
    assert m.stages[0]["status"] == "pass"
    outs = m.stages[0]["outputs"]
    assert any(o.endswith("decay_report.json") for o in outs)
    assert any(o.endswith("decay.svg") for o in outs)


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        cfg = _small_geometry_cfg(seed=7)
        run(cfg, str(d))
    for name in sorted(os.listdir(d1)):
        b1 = (d1 / name).read_bytes()
        b2 = (d2 / name).read_bytes()
        if name == "manifest.json":
            m1 = json.loads(b1)
            m2 = json.loads(b2)
            for m in (m1, m2):
                m.pop("started"), m.pop("finished")
            assert m1 == m2
        else:
            assert b1 == b2, name


def test_failing_stage_sets_exit_status(tmp_path):
    cfg = default_config("barrier-check")
    cfg.data["setup"]["s"] = 0.75  # case 1 requires s <= 1/2: stage errors
    m = run(cfg, str(tmp_path))
    assert m.exit_status == 1
    assert m.stages[0]["status"] == "error"
    saved = json.loads((tmp_path / "manifest.json").read_text())["stages"][0]["details"]
    assert saved["exception"].startswith("ValueError(")
    assert saved["traceback"].startswith("Traceback (most recent call last)")
    assert "in _run_barrier" in saved["traceback"]
    assert "exponential barrier requires s <= 1/2" in saved["traceback"]


def _barrier_raw(s, **problem):
    return {"experiment": "barrier-check", "setup": {"s": s}, "problem": problem}


# R = 1e300: the endpoint bracket test's product overflows (to an infinity
# of the right sign)
@pytest.mark.parametrize("R", [0.5, 0.6, 1e10, 1e300])
@pytest.mark.parametrize("s", [0.55, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9])
def test_barrier_case2_stage_passes(tmp_path, s, R):
    m = run(validate(dict(_barrier_raw(s, case=2, R=R, samples=2000), seed=4)), str(tmp_path))
    d = m.stages[0]["details"]
    assert m.stages[0]["status"] == "pass", d
    assert d["passes"] and d["bracket_min"] > 0.0 and d["bracket_scan_min"] > 0.0
    assert d["log_dz_trace"] is not None and d["log_inner_bound_low"] is not None


def test_barrier_search_failure_is_a_failed_stage(tmp_path):
    m = run(validate(_barrier_raw(0.95, case=2)), str(tmp_path))
    stage = m.stages[0]
    assert m.exit_status == 1 and stage["status"] == "fail"
    failures = json.loads((tmp_path / "barrier_report.json").read_text())["search_failures"]
    assert [eps for eps, _ in failures] == [0.2, 0.1, 0.05, 0.02]
    assert all(isinstance(reason, str) and reason for _, reason in failures)
    assert stage["details"]["search_failures"] == [tuple(f) for f in failures]


# config_hash of every kind's default config at two orders, pinned: a
# manifest names its experiment by this hash, so a change to the config code
# must keep it
GOLDEN_CONFIG_HASHES = {
    ("geometry-check", 0.3): "76f5e306b9683c4d42e66f04226d7b6235a8fe7768601a1b66fea5acd3c42437",
    ("geometry-check", 0.7): "df9c64424f397487da7bd0f578247cb7eff9bce01f60d3657527d5f2e797b67a",
    ("fractional-apply", 0.3): "55573b851c4b1e2b84c3c657dedc658c25b6e42e3df0b3d60b1a822e78c06a19",
    ("fractional-apply", 0.7): "c4ef59baea1fd6c3342c95de8310278073176c7095c0a6e3de68ece00d97962d",
    ("solve-extension", 0.3): "f41750e60ba3b4629dbe2e65cb1554ee531f3e1c29e6dad05c3aafdfe782a217",
    ("solve-extension", 0.7): "cd27703322b0a853d7e63b452ed1929b0f751ce0b0ddfb864cdd449c5439c6d7",
    ("barrier-check", 0.3): "a32695b3e7014e4c58edce6ccbb4efa1ef0ad25d1978815b0e5195f856f5f6fa",
    ("barrier-check", 0.7): "1834b87ebe5be0abc4894ea1285d2249f73c3c4fef913dcf0faaec4f180dbdf8",
    ("slide-paraboloids", 0.3): "8c6433673cbc99e926eeebce2d70af5a312a4f17d8360e0ff1c96ff443029a46",
    ("slide-paraboloids", 0.7): "e72a3483bc7f11081b86307aea80751900e8c926c5c2db9ed2329da4516c5af5",
    ("harnack", 0.3): "d2f43621274950c56591b87ec68f640ada989771d8ca162537adb4db0c65f782",
    ("harnack", 0.7): "b1ddda5756fb8d6f62564300b46226d30811871450ba6f07fe796993f63cf228",
    ("schauder-decay", 0.3): "31dfd2d743566d7f1a043c0ad36c2be91cfcd0bf76ebd902643b797f65b2a503",
    ("schauder-decay", 0.7): "d7cde447238881a4a1d5d33eb09c5b5232ff330c4a900b954fde1f224cc4c686",
    ("end-to-end", 0.3): "a2971e6a4522d6b6fde7a3ed31a8c5d754fadf533cf8630a89902e8bbc0c68ec",
    ("end-to-end", 0.7): "8c5b25f69cd1ef4d58bbba5b90304a114a12f52c35f969fc4b0cf60ceb0012ac",
}

# a benchmark-shaped config: it still sends `threads` and the no-op `quadrature`
BENCHMARK_SHAPED_RAW = {
    "experiment": "fractional-apply", "setup": {"s": 0.4}, "seed": 0, "threads": 1,
    "emit_plots": False,
    "problem": {"grid_points": 16, "inverse": True,
                "quadrature": {"nodes": 8, "substeps": 2}}}


@pytest.mark.parametrize("kind, s", sorted(GOLDEN_CONFIG_HASHES))
def test_default_config_hashes_are_pinned(kind, s):
    assert default_config(kind, s).config_hash() == GOLDEN_CONFIG_HASHES[kind, s]


BENCHMARK_SHAPED_HASH = "9a4c906d8dd9bbb9e4bdf52307e1faeffa59704a87a8c66246fe761d552e5efc"


def test_benchmark_shaped_config_hash_is_pinned():
    assert validate(BENCHMARK_SHAPED_RAW).config_hash() == BENCHMARK_SHAPED_HASH


def test_optional_keys_leave_the_pinned_hashes_alone(monkeypatch):
    # an optional key in every problem schema and an optional top-level
    # block: absent, or set to their defaults, they stay out of the validated
    # data and the hash; any other value enters both and is checked
    for schema in _PROBLEM_SCHEMAS.values():
        monkeypatch.setitem(schema, "extra", _Optional((0.5, _num(0.0, 1.0))))
    monkeypatch.setitem(_TOP_SCHEMA, "block",
                        _Optional({"a": (1, _num(None)), "b": (True, _boolean)}))
    for (kind, s), digest in GOLDEN_CONFIG_HASHES.items():
        assert default_config(kind, s).config_hash() == digest
        raw = default_raw(kind, s)
        raw["problem"]["extra"], raw["block"] = 0.5, {"a": 1}
        cfg = validate(raw)
        assert "block" not in cfg.data and "extra" not in cfg.problem
        assert cfg.config_hash() == digest
    assert validate(BENCHMARK_SHAPED_RAW).config_hash() == BENCHMARK_SHAPED_HASH
    raw = default_raw("harnack", 0.3)
    raw["problem"]["extra"], raw["block"] = 0.25, {"b": False}
    cfg = validate(raw)
    assert cfg.problem["extra"] == 0.25 and cfg.data["block"] == {"a": 1, "b": False}
    assert cfg.config_hash() != GOLDEN_CONFIG_HASHES["harnack", 0.3]
    del raw["block"]
    assert validate(raw).config_hash() not in (cfg.config_hash(),
                                               GOLDEN_CONFIG_HASHES["harnack", 0.3])
    raw["problem"]["extra"] = 2.0
    with pytest.raises(ConfigError, match=r"problem.extra: must be <= 1.0"):
        validate(raw)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("s", [1e-300, 1e-155, 1e-150, 1e-20, 1e-3, 0.01, 0.05, 0.5, 0.95,
                               1.0 - 1e-10, 1.0 - 1e-16])
def test_geometry_check_at_extreme_s_passes_fails_or_names_s(tmp_path, s, dimension):
    # RuntimeWarnings are errors here: an overflow must surface as a ValueError
    cfg = validate({"experiment": "geometry-check", "setup": {"s": s},
                    "problem": {"samples": 500, "engulfing_samples": 100,
                                "dimension": dimension}})
    stage = run(cfg, str(tmp_path)).stages[0]
    exc = stage["details"].get("exception", "")
    assert stage["status"] in ("pass", "fail") or (
        exc.startswith("ValueError(") and f"s = {s!r}" in exc), exc


@pytest.mark.parametrize("kind, fixture", [
    ("slide-paraboloids", "convex"), ("slide-paraboloids", "paraboloid"),
    ("slide-paraboloids", "harmonic"), ("harnack", None)])
def test_sliding_and_harnack_at_s_1e_6_name_s(tmp_path, kind, fixture):
    # RuntimeWarnings are errors here: h = c |z|^(1/s) and y = 2s z^(1/(2s))
    # overflow on the sample boxes, and the stage must say so through s
    raw = default_raw(kind, 1e-6)
    if fixture is not None:
        raw["problem"]["fixture"] = fixture
    stage = run(validate(raw), str(tmp_path)).stages[0]
    exc = stage["details"].get("exception", "")
    assert stage["status"] == "error" and exc.startswith("ValueError(") and "s = 1e-06" in exc, exc


def test_geometry_check_at_s_0_005_names_the_endpoint_it_cannot_solve(tmp_path):
    stage = run(validate(default_raw("geometry-check", 0.005)), str(tmp_path)).stages[0]
    exc = stage["details"].get("exception", "")
    assert stage["status"] == "error", stage
    assert exc.startswith("ValueError('section endpoint at s = 0.005, z0 = "), exc


@pytest.mark.parametrize("dimension", [1, 2])
def test_geometry_check_at_s_0_01_says_tau_z_cancels(tmp_path, dimension):
    # h = c |z|^100: the engulfing gap delta_h(z1, section end) rounds to 0,
    # and the stage says so instead of repeating numpy's log warning
    raw = default_raw("geometry-check", 0.01)
    raw["problem"]["dimension"] = dimension
    stage = run(validate(raw), str(tmp_path)).stages[0]
    exc = stage["details"].get("exception", "")
    assert stage["status"] == "error", stage
    assert exc.startswith("ValueError('engulfing_check at s = 0.01: tau_z"), exc
    assert "cancels to 0 in double precision" in exc and "log" not in exc


@pytest.mark.parametrize("raw, key", [
    (_barrier_raw(0.75, case=1), "problem.case"),
    (_barrier_raw(0.3, case=2), "problem.case"),
    (_barrier_raw(0.3, case=1, R=0.1), "problem.alpha"),
])
def test_barrier_configs_the_stage_cannot_run_are_rejected(tmp_path, capsys, raw, key):
    with pytest.raises(ConfigError, match=key):
        validate(raw)
    p = tmp_path / "b.json"
    p.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"{key}: case" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("s, refused", [(0.25, True), (0.75, True), (0.3, False)])
def test_end_to_end_refuses_an_integer_alpha_plus_2s(s, refused):
    # at alpha + 2s = 1 or 2 the C^(2s+alpha) norm has no Hoelder part to measure
    raw = default_raw("end-to-end", s)
    assert raw["setup"].get("alpha", 0.5) == 0.5
    if not refused:
        assert validate(raw).setup["s"] == s
        return
    with pytest.raises(ConfigError, match="setup.alpha: .*setup.alpha \\+ 2 setup.s"):
        validate(raw)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.75, 0.9])
def test_kinked_decay_refuses_alpha_plus_2s_outside_its_case(s):
    # the case is floor(alpha + 2s) + 1, derived when absent: a sent case must
    # be that one (case 2 at s = 0.1 and 0.9), and an integer alpha + 2s (no
    # Hoelder part, s = 0.25 and 0.75) is refused; the other benchmarks fit
    # no alpha + 2s and take any case
    raw, gamma = default_raw("schauder-decay", s), 0.5 + 2 * s
    case = None if gamma == math.floor(gamma) else 2
    if case is None:
        message = (f"setup.alpha: schauder-decay needs setup.alpha + 2 setup.s off the "
                   f"integers, where C^(2s+alpha) has no Hoelder part; got {gamma:g}")
    else:
        raw["problem"]["case"] = case
        message = (f"setup.alpha: kinked schauder-decay case {case} needs {case - 1} < "
                   f"setup.alpha + 2 setup.s < {case}; got {gamma:g}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate(raw)
    raw["problem"]["benchmark"] = "harmonic"
    assert validate(raw).setup["s"] == s


@pytest.mark.parametrize("kind, s, case", [("schauder-decay", 0.1, 1), ("schauder-decay", 0.5, 2),
                                           ("schauder-decay", 0.9, 3), ("barrier-check", 0.5, 1),
                                           ("barrier-check", 0.8, 2)])
def test_a_case_other_keys_fix_is_derived_into_the_validated_data(kind, s, case):
    # the bare `fracext schauder-decay --s 0.2` and a barrier config at s > 1/2
    # without a case validate; the derived case enters the data and the hash
    # as if it had been sent, and a sent case that disagrees is refused
    cfg = default_config(kind, s)
    assert cfg.problem["case"] == case
    raw = default_raw(kind, s)
    raw["problem"]["case"] = case
    assert validate(raw).config_hash() == cfg.config_hash()
    raw["problem"]["case"] = 3 - case if kind == "barrier-check" else case % 3 + 1
    with pytest.raises(ConfigError, match=re.escape("problem.case: case" if kind == "barrier-check"
                                                    else "kinked schauder-decay case")):
        validate(raw)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EXPERIMENT_KINDS), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example("schauder-decay", 0.1)
@example("barrier-check", 0.7)
@example("schauder-decay", 0.25)  # alpha + 2s = 1
def test_every_default_config_validates_or_names_an_integer_alpha_plus_2s(kind, s):
    # the advertised config space: each kind's built-in config at any s in
    # (0, 1) validates, or is refused by the one cross-field rule a default
    # can meet, an integer alpha + 2s (end-to-end and kinked decay)
    try:
        cfg = default_config(kind, s)
    except ConfigError as exc:
        assert str(exc) == (f"invalid config:\n  setup.alpha: {kind} needs setup.alpha + 2 "
                            f"setup.s off the integers, where C^(2s+alpha) has no Hoelder part; "
                            f"got {0.5 + 2.0 * s:g}")
        assert 0.5 + 2.0 * s == math.floor(0.5 + 2.0 * s)
        return
    assert cfg.setup["s"] == s


def test_config_hash_leaves_out_the_output_dir(tmp_path):
    # one experiment run into two directories: one config_hash in both
    # manifests, the default-directory config's, and byte-identical plots
    # (the hash is the SVG's metadata comment)
    hashes = []
    for name in ("a", "b"):
        raw = default_raw("solve-extension")
        raw["problem"].update(nx=17, my=8)
        raw["emit_plots"] = True
        digest = validate(raw).config_hash()
        raw["output_dir"] = str(tmp_path / name)
        run(validate(raw))
        hashes.append(json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"])
    assert hashes == [digest, digest]
    assert (tmp_path / "a" / "extension_state.svg").read_bytes() == \
        (tmp_path / "b" / "extension_state.svg").read_bytes()


def test_svg_empty_ladder_and_reference_slope(tmp_path):
    p = tmp_path / "empty.svg"
    svg_loglog(p, [], [], ref_slope=None, title="decay", meta_comment="")
    text = p.read_text()
    assert "no data" in text and "<svg" in text
    p2 = tmp_path / "decay.svg"
    svg_loglog(p2, [1.0, 0.5, 0.25], [1.0, 0.3, 0.09], ref_slope=1.7, title="decay",
               meta_comment="config deadbeef")
    t2 = p2.read_text()
    assert "slope 1.7" in t2 and "config deadbeef" in t2
    assert t2.count("<circle") == 3


def test_svg_heatmap(tmp_path):
    p = tmp_path / "heat.svg"
    xs = np.linspace(0, 1, 8)
    zs = np.geomspace(1e-2, 1.0, 6)
    svg_heatmap(p, xs, zs, np.outer(zs, xs), meta_comment="")
    text = p.read_text()
    assert ">extension state</text>" in text
    assert text.count("<rect") > 40  # cells plus colorbar
    # determinism of plot bytes
    p2 = tmp_path / "heat2.svg"
    svg_heatmap(p2, xs, zs, np.outer(zs, xs), meta_comment="")
    assert p.read_bytes() == p2.read_bytes()


def test_cli_subcommand_and_overrides(tmp_path, capsys):
    rc = cli_main(["geometry-check", "--out", str(tmp_path), "--seed", "3",
                   "--s", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[pass] geometry-check" in out
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["config"]["seed"] == 3
    assert data["config"]["setup"]["s"] == 0.25


def test_cli_emit_plots_flag_adds_the_state_plot(tmp_path, capsys):
    # --emit-plots overrides the config's emit_plots = false; the plot's bytes
    # repeat from run to run, and without the flag no plot is written
    raw = default_raw("solve-extension")
    raw["problem"].update(nx=17, my=8)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for name, flags in (("a", ["--emit-plots"]), ("b", ["--emit-plots"]), ("c", [])):
        assert cli_main(["solve-extension", "--config", str(cfg),
                         "--out", str(tmp_path / name), *flags]) == 0
    assert "[pass] solve-extension" in capsys.readouterr().out
    svg = tmp_path / "a" / "extension_state.svg"
    assert svg.read_bytes() == (tmp_path / "b" / "extension_state.svg").read_bytes()
    assert ">extension state</text>" in svg.read_text()
    assert not (tmp_path / "c" / "extension_state.svg").exists()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["emit_plots"] is True


def test_harmonic_schauder_decay_runs_and_repeats_its_bytes(tmp_path):
    # the harmonic benchmark of the decay stage: an exact combination of
    # harmonic modes whose fitted exponent reaches the case
    for name in ("a", "b"):
        raw = default_raw("schauder-decay")
        raw["problem"].update(benchmark="harmonic", case=2, mx=40, my=24)
        raw["output_dir"] = str(tmp_path / name)
        stage = run(validate(raw)).stages[0]
        assert stage["status"] == "pass"
        assert stage["details"]["target"] == 2.0
        assert stage["details"]["fitted_exponent"] >= 2.0 - TOLERANCES["harmonic_exponent_slack"]
    for report in ("decay_report.json", "decay_report.csv"):
        assert (tmp_path / "a" / report).read_bytes() == (tmp_path / "b" / report).read_bytes()


def test_cli_has_no_threads_flag(tmp_path, capsys):
    # the config key stays (the benchmark sends it); the flag had no effect
    with pytest.raises(SystemExit):
        cli_main(["geometry-check", "--out", str(tmp_path), "--threads", "2"])
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_cli_run_requires_config(capsys):
    assert cli_main(["run"]) == 2
    assert "requires --config" in capsys.readouterr().err


def test_cli_mismatched_kind(tmp_path, capsys):
    cfg = default_config("harnack")
    p = tmp_path / "h.json"
    cfg.emit(p)
    assert cli_main(["geometry-check", "--config", str(p)]) == 2
    assert "not" in capsys.readouterr().err


def test_cli_env_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACEXT_OUT", str(tmp_path / "envout"))
    cfg = _small_geometry_cfg()
    p = tmp_path / "g.json"
    cfg.emit(p)
    rc = cli_main(["run", "--config", str(p)])
    assert rc == 0
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_cli_out_order_is_flag_then_env_then_config(tmp_path, monkeypatch, capsys):
    # output_dir always has a value (default "."), so $FRACEXT_OUT must win over it
    cfg = _small_geometry_cfg()
    cfg.data["output_dir"] = str(tmp_path / "A")
    p = tmp_path / "g.json"
    cfg.emit(p)
    monkeypatch.setenv("FRACEXT_OUT", str(tmp_path / "B"))
    assert cli_main(["run", "--config", str(p)]) == 0
    assert (tmp_path / "B" / "manifest.json").exists() and not (tmp_path / "A").exists()
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "C")]) == 0
    assert (tmp_path / "C" / "manifest.json").exists() and not (tmp_path / "A").exists()
    monkeypatch.delenv("FRACEXT_OUT")
    assert cli_main(["run", "--config", str(p)]) == 0
    assert (tmp_path / "A" / "manifest.json").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli_main(["run", "--help"])
    assert "(default: $FRACEXT_OUT if set, else the config's output_dir, whose default is " \
        "'.')" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("frac, points, refused", [(1e-6, 512, True), (3.99 / 512, 512, True),
                                                   (4 / 512, 512, False), (0.05, 64, True),
                                                   (0.0625, 64, False)])
def test_end_to_end_refuses_a_subdomain_below_4_cells(tmp_path, frac, points, refused):
    # at 1e-6 of 512 cells only x = pi/2 is inside: no Hoelder pair to measure
    raw = {"experiment": "end-to-end",
           "problem": {"grid_points": points, "subdomain_fraction": frac}}
    if refused:
        with pytest.raises(ConfigError, match=re.escape(
                f"problem.subdomain_fraction: must span >= 4 grid cells for Hoelder pairs; "
                f"got {frac:g} of {points}")):
            validate(raw)
        return
    stage = run(validate(raw), str(tmp_path)).stages[0]
    assert stage["status"] == "pass"
    assert stage["details"]["norm_report"]["holder_seminorm"] > 0.0


@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_stage_report_is_the_manifest_details(tmp_path, kind, s):
    raw = default_raw(kind, s)
    raw["emit_plots"] = True
    run(validate(raw), str(tmp_path))
    stage = json.loads((tmp_path / "manifest.json").read_text())["stages"][0]
    assert stage["status"] == "pass"
    reports = [o for o in stage["outputs"] if o.endswith("_report.json")]
    assert len(reports) == 1
    assert json.loads((tmp_path / reports[0]).read_text()) == stage["details"]


@pytest.mark.parametrize("flags, key", [(["--s", "1.5"], "setup.s"),
                                        (["--seed", "-3"], "seed")])
def test_cli_overrides_are_validated(tmp_path, capsys, flags, key):
    p = tmp_path / "g.json"
    _small_geometry_cfg().emit(p)
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")] + flags) == 2
    assert f"{key}: must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
