import importlib
import sys

from fxbench import cases as C
from fxbench import report as R
from fxbench import trace as T


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tr = T.Tracer(clock=clock)
    with tr.span("root"):             # 0 .. 10
        clock.t = 1.0
        with tr.span("a"):            # 1 .. 4
            clock.t = 2.0
            with tr.span("leaf"):     # 2 .. 3
                clock.t = 3.0
            clock.t = 4.0
        clock.t = 6.0
        with tr.span("b"):            # 6 .. 9
            clock.t = 9.0
        clock.t = 10.0
    st = T.self_times(tr.spans)
    by_name = {sp.name: st[sp.id] for sp in tr.spans}
    assert by_name == {"root": 4.0, "a": 2.0, "leaf": 1.0, "b": 3.0}
    assert [sp.parent for sp in tr.spans] == [None, 0, 1, 0]


def test_self_time_merges_overlapping_children():
    spans = [T.Span(0, "p", 0.0, 10.0, None, None),
             T.Span(1, "c", 1.0, 5.0, 0, None),
             T.Span(2, "c", 4.0, 6.0, 0, None),
             T.Span(3, "c", 9.0, 12.0, 0, None)]
    st = T.self_times(spans)
    assert st[0] == 10.0 - 5.0 - 1.0


def _fracext_namespace():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "fracext" or name.startswith("fracext."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def test_wrappers_reach_importers_and_are_all_removed(tmp_path):
    importlib.import_module("fracext.runner")
    from fracext import extension, regularity, runner
    before = _fracext_namespace()
    original = extension.solve_extension
    tr = T.Tracer()
    T.install_fracext_hooks(tr)
    try:
        assert runner.solve_extension is regularity.solve_extension
        assert runner.solve_extension is not original
        assert runner.solve_extension.__wrapped__ is original
        C.run_case(C.tiny_case("solve-extension"), str(tmp_path))
    finally:
        tr.uninstall()
    assert not tr.installed
    after = _fracext_namespace()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert tr.counters["extension.unknowns"] > 0


def test_traced_run_counts_solve_extension_through_runner_and_regularity(tmp_path):
    from fracext import extension, regularity
    tr = T.Tracer()
    T.install_fracext_hooks(tr)
    try:
        tr.case = "via-runner"
        with tr.span("case"):
            out = C.run_case(C.tiny_case("solve-extension"), str(tmp_path))
        tr.case = "via-regularity"
        with tr.span("case"):
            regularity.approximation_distance(0.5, 0.1, mesh=extension.ExtensionMesh(nx=17, my=8))
    finally:
        tr.uninstall()
    assert out.status == "pass"
    solves = [sp for sp in tr.spans if sp.name == "extension.solve_extension"]
    assert sum(sp.case == "via-runner" for sp in solves) == 1
    assert sum(sp.case == "via-regularity" for sp in solves) == 2
    runs = [sp for sp in tr.spans if sp.name == "runner.run"]
    assert len(runs) == 1 and solves[0].parent == runs[0].id
    assert sum(sp.name == "extension.sparse_solve" for sp in tr.spans) == 3


def test_layer_metrics_report_every_name_and_zero_for_unreached_layers(tmp_path):
    tr = T.Tracer()
    T.install_fracext_hooks(tr)
    try:
        C.run_case(C.tiny_case("mixed2d"), str(tmp_path))
    finally:
        tr.uninstall()
    m = R.layer_metrics(tr, lu_fill_nnz=0, bytes_written=0, overhead_s=0.0)
    assert [name for name, _ in R.PER_LAYER] == list(m)
    assert m["extension.solve_extension.calls"]["value"] == 1
    assert m["semigroup.x_operator.self_s"]["value"] > 0.0
    assert m["geometry.section_interval.calls"]["value"] == 0
    assert m["fitting.lp_success_ratio"]["value"] == 0.0


def test_time_steps_count_the_solves_heat_interior_makes(tmp_path):
    import numpy as np
    from fracext import gridfn, semigroup
    grid = gridfn.BoxGrid.interval(0.0, np.pi, 33)
    v = np.ones(31)
    tr = T.Tracer()
    T.install_fracext_hooks(tr)
    try:
        stepper = semigroup.SemigroupStepper(semigroup.CoefficientField.identity(1), grid)
        stepper.heat_interior(v, 0.1, substeps=5)   # Rannacher start: 2 half steps + 4
        stepper.heat_interior(v, 0.05)              # dt_max 1e-2: 2 + 4 again
        stepper.heat_interior(v, 1e6)               # past the decay cut-off: no steps
    finally:
        tr.uninstall()
    assert tr.counters["semigroup.time_steps"] == 12
    assert tr.counters["semigroup.zero_heat"] == 1
    assert tr.counters["semigroup.lu_factorizations"] == 2


def test_tail_percentile_keeps_ten_samples_above():
    assert R.tail_percentile(10) is None
    assert R.tail_percentile(20) == 50
    assert R.tail_percentile(60) == 83
    vals = list(range(1, 61))
    pct = R.tail_percentile(len(vals))
    assert sum(v > R.nearest_rank(vals, pct) for v in vals) >= 10
