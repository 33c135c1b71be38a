import numpy as np
import pytest

from fxbench import cases as C


@pytest.mark.parametrize("workload", C.WORKLOADS)
def test_equal_seeds_give_identical_case_lists(workload):
    a = [c.to_json() for c in C.build_cases(workload, 7)]
    b = [c.to_json() for c in C.build_cases(workload, 7)]
    assert a == b


@pytest.mark.parametrize("workload", C.WORKLOADS)
def test_different_seeds_give_different_case_lists(workload):
    a = [c.to_json() for c in C.build_cases(workload, 1)]
    b = [c.to_json() for c in C.build_cases(workload, 2)]
    assert a != b
    # same design, other draws: the kinds per pass do not depend on the seed
    assert sorted(c["kind"] for c in a) == sorted(c["kind"] for c in b)


def test_workloads_differ_for_one_seed():
    lists = [[c.params for c in C.build_cases(w, 3)] for w in C.WORKLOADS]
    assert all(lists[i] != lists[j] for i in range(4) for j in range(i))


def test_s_slots_cover_the_range_with_fixed_strata():
    rng = np.random.default_rng(0)
    s = C.s_slots(rng, 6)
    assert 0.05 <= s[0] <= 0.055 and C.NEAR_ONE <= s[-1] <= 0.95
    assert all(0.29 <= v <= 0.75 for v in s[1:-1])
    assert s == sorted(s)
    with pytest.raises(ValueError):
        C.s_slots(rng, 2)


@pytest.mark.parametrize("workload", C.WORKLOADS)
def test_every_runner_config_validates(workload):
    cases = C.build_cases(workload, 11)
    configs = C.validated_configs(cases)
    assert len(configs) == sum("config" in c.params for c in cases)
    assert all(cfg.threads == 1 and not cfg.emit_plots for cfg in configs.values())


def test_every_kind_has_a_tiny_case():
    kinds = {c.kind for w in C.WORKLOADS for c in C.build_cases(w, 0)}
    for kind in kinds:
        assert C.tiny_case(kind).kind == kind


def test_known_defects_sit_in_the_top_stratum_only():
    fail = C.Outcome("fail", None, "field error")
    for w in C.WORKLOADS:
        for c in C.build_cases(w, 5):
            assert C.is_known_defect(c, fail) == (c.kind in C.KNOWN_DEFECT_KINDS
                                                  and C.case_s(c) >= C.NEAR_ONE)
            assert not C.is_known_defect(c, C.Outcome("pass", 0.5))


def test_a_raising_case_counts_as_error(tmp_path):
    bad = C.Case("bad", "apply2d", {"s": 1.5, "n": 6, "k": [1, 1]})
    out = C.run_case(bad, str(tmp_path))
    assert out.status == "error" and "ValueError" in out.note


def test_direct_oracles_pass_on_small_cases(tmp_path):
    for kind in ("semigroup-extension", "apply2d", "mixed2d", "campanato"):
        out = C.run_case(C.tiny_case(kind), str(tmp_path))
        assert out.status in ("pass", "fail"), out.note
    mixed = C.run_case(C.Case("m", "mixed2d", {"s": 0.5, "nx": 13, "my": 10}), str(tmp_path))
    assert mixed.status == "pass" and 0.0 < mixed.err_ratio < 1.0
    sg = C.run_case(C.Case("g", "semigroup-extension",
                           {"s": 0.5, "N": 64, "k": 1, "heights": [0.2, 0.6]}), str(tmp_path))
    assert sg.status == "pass" and 0.0 < sg.err_ratio < 1.0
