import importlib.util
import os
import shutil
import subprocess
import sys

from fxbench import cases as C
from fxbench.calib import REF_S, Calibrator

from conftest import BENCH, ROOT


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_calibration_scale_is_positive_and_finite():
    calib = Calibrator()
    assert calib.sample() == 0
    assert 0.0 < calib.scale(0) < 100.0


def test_calibration_scale_takes_the_median_of_neighbouring_samples():
    calib = Calibrator()
    calib.samples = [0.02, 0.04, 0.01, 0.02, 0.5]
    assert calib.scale(0) == REF_S / 0.03        # samples 0 and 1
    assert calib.scale(1) == REF_S / 0.02        # samples 0, 1 and 2
    assert calib.scale(3) == REF_S / 0.02        # a one-sample spike does not count
    assert calib.scale(4) == REF_S / 0.26


def _record(run, case, outcome):
    return run.Record(case, 0.1, 0, outcome)


def _runner(kind, s, problem=None):
    return C.Case(f"{kind}-{s}", kind, C._runner_case(kind, s, problem or {}, 0))


def _sliding_details(**changes):
    d = {"fixture": "harmonic", "mu_A": 1e-3, "touching_exact": True, "ratio_drift": 0.4,
         "infconv_below": True, "infconv_monotone": True}
    return {**d, **changes}


def test_any_failure_outside_the_known_defects_makes_a_run_incorrect():
    run = _load_run()
    ok = _record(run, _runner("solve-extension", 0.5), C.Outcome("pass", 0.2))
    assert run.failures([ok]) == ({}, True)
    for outcome in (C.Outcome("fail", None, "field error"),
                    C.Outcome("error", None, "RuntimeError()"),
                    C.Outcome("fail", 1.5, "oracle check failed")):
        for case in (_runner("solve-extension", 0.5), _runner("fractional-apply", 0.5),
                     _runner("geometry-check", 0.3), C.Case("m", "mixed2d", {"s": 0.5}),
                     C.Case("c", "campanato", {"s": 0.947})):
            failing, correct = run.failures([ok, _record(run, case, outcome)])
            assert not correct and list(failing) == [case.id]
            assert not failing[case.id]["known_defect"]


def test_known_defects_keep_a_run_correct_and_are_listed():
    run = _load_run()
    top = [_runner("solve-extension", 0.946), _runner("barrier-check", 0.95, {"case": 2}),
           C.Case("m", "mixed2d", {"s": 0.947})]
    recs = [_record(run, c, C.Outcome("fail", None, "x")) for c in top]
    drift = _record(run, _runner("slide-paraboloids", 0.73),
                    C.Outcome("fail", None, "x", _sliding_details()))
    failing, correct = run.failures(recs + [drift])
    assert correct and len(failing) == 4
    assert all(f["known_defect"] for f in failing.values())


def test_the_sliding_defect_rule_is_narrow():
    high = _runner("slide-paraboloids", 0.73)
    low = _runner("slide-paraboloids", 0.5)
    assert C.is_known_defect(high, C.Outcome("fail", None, "", _sliding_details()))
    assert not C.is_known_defect(low, C.Outcome("fail", None, "", _sliding_details()))
    for changes in ({"fixture": "convex"}, {"ratio_drift": 0.1}, {"touching_exact": False},
                    {"infconv_below": False}, {"mu_A": 0.0}):
        assert not C.is_known_defect(high, C.Outcome("fail", None, "",
                                                     _sliding_details(**changes)))
    assert not C.is_known_defect(high, C.Outcome("error", None, "ValueError()",
                                                 {"exception": "ValueError()"}))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sections",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no fracext sources" in proc.stderr
