"""Config schema, orchestration, determinism, plots, CLI."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracext.cli import main as cli_main
from fracext.config import (_TOP_SCHEMA, EXPERIMENT_KINDS, MAX_COUNT, MAX_MESH_POINTS,
                            MAX_THREADS, ConfigError, default_config, load_config, validate)
from fracext.plots import svg_heatmap, svg_loglog
from fracext.runner import run


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


def test_nan_nx_rejected(tmp_path):
    with pytest.raises(ConfigError, match="problem.nx: must be finite"):
        _load_text(tmp_path, '{"experiment": "solve-extension", "problem": {"nx": NaN}}')


def test_non_numeric_t_max_rejected():
    with pytest.raises(ConfigError, match="t_max: must be a number"):
        validate({"experiment": "fractional-apply",
                  "problem": {"quadrature": {"t_max": "x"}}})


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


@pytest.mark.parametrize("R", [0.5, 0.6])
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


def test_svg_empty_ladder_and_reference_slope(tmp_path):
    p = tmp_path / "empty.svg"
    svg_loglog(p, [], [], title="decay")
    text = p.read_text()
    assert "no data" in text and "<svg" in text
    p2 = tmp_path / "decay.svg"
    svg_loglog(p2, [1.0, 0.5, 0.25], [1.0, 0.3, 0.09], ref_slope=1.7,
               meta_comment="config deadbeef")
    t2 = p2.read_text()
    assert "slope 1.7" in t2 and "config deadbeef" in t2
    assert t2.count("<circle") == 3


def test_svg_heatmap(tmp_path):
    p = tmp_path / "heat.svg"
    xs = np.linspace(0, 1, 8)
    zs = np.geomspace(1e-2, 1.0, 6)
    svg_heatmap(p, xs, zs, np.outer(zs, xs), title="state")
    text = p.read_text()
    assert text.count("<rect") > 40  # cells plus colorbar
    # determinism of plot bytes
    p2 = tmp_path / "heat2.svg"
    svg_heatmap(p2, xs, zs, np.outer(zs, xs), title="state")
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


@pytest.mark.parametrize("flags, key", [(["--s", "1.5"], "setup.s"),
                                        (["--seed", "-3"], "seed")])
def test_cli_overrides_are_validated(tmp_path, capsys, flags, key):
    p = tmp_path / "g.json"
    _small_geometry_cfg().emit(p)
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path / "o")] + flags) == 2
    assert f"{key}: must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
