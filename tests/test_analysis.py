"""Validation and the branch-evidence pipeline."""

import json

import pytest

from treelocal.analysis import (
    RunConfig,
    theorem1_branch,
    validate_inputs,
)
from treelocal.errors import TreeLocalError
from treelocal.permgroups import is_2transitive_direct

from conftest import FIXED_COLOR_PAIRS, valid_contexts

FAST = RunConfig(census_n=2, sample_size=10, membership_radius=4, window=4,
                 transport_samples=3, transport_max_len=3, qm_max_seg=2,
                 qm_search_bound=4, qm_rank_max_seg=2, rank_target=1,
                 limit_N=8, seed=0)

# The bounds at which branch 2 completes on the pairs whose F' fixes one
# color and is 2-transitive on the rest (F' = Sym(3) at d = 4)
WIDE = RunConfig(qm_max_seg=6, qm_search_bound=11, qm_rank_max_seg=8)


class TestValidateInputs:
    def test_valid_pair(self):
        report, ctx = validate_inputs(3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"])
        assert report.ok and ctx is not None
        assert report.order_F == 3 and report.order_Fp == 6
        assert report.Fp_2transitive

    def test_not_a_subgroup(self):
        report, ctx = validate_inputs(3, ["(1 2)"], ["(1 2 3)"])
        assert not report.is_subgroup
        assert ctx is None

    def test_improper_inclusion(self):
        report, ctx = validate_inputs(3, ["(1 2 3)", "(1 2)"],
                                      ["(1 2 3)", "(1 2)"])
        assert report.is_subgroup and not report.proper_inclusion
        assert ctx is None

    def test_orbit_violation(self):
        report, ctx = validate_inputs(3, ["(1 2)"], ["(1 2)", "(1 2 3)"])
        assert not report.orbits_preserved
        assert ctx is None

    def test_degree_too_small(self):
        report, ctx = validate_inputs(2, [], ["(1 2)"])
        assert not report.degree_ok
        assert ctx is None

    def test_relaxed_orbit_reading(self):
        # F' permutes the two F-orbit blocks {1,2} and {3,4} without
        # preserving them setwise, so the pair is refused
        report, ctx = validate_inputs(
            4, ["(1 2)(3 4)"], ["(1 2)(3 4)", "(1 3)(2 4)"])
        assert not report.orbits_preserved and ctx is None

    def test_report_dict_shape(self):
        report, _ = validate_inputs(3, ["(1 2 3)"], ["(1 2 3)", "(1 2)"])
        d = report.to_dict()
        assert d["valid"] is True
        assert set(d["flags"]) == {
            "degree_ok", "is_subgroup", "proper_inclusion",
            "orbits_preserved", "F_transitive", "Fprime_transitive",
            "Fprime_2transitive"}


class TestBranchDecision:
    def test_branch_matches_2transitivity(self):
        for d in (3, 4):
            for ctx in valid_contexts(d):
                report = theorem1_branch(ctx, FAST)
                expected = ("BoundedlyAcyclic"
                            if is_2transitive_direct(ctx.Fp) else "InfiniteH2")
                assert report.branch == expected

    def test_branch1_complete(self, ctx3):
        report = theorem1_branch(ctx3)
        assert report.branch == "BoundedlyAcyclic"
        assert report.complete
        assert all(v["pass"] for v in report.evidence.values())

    def test_branch2_exhaustion_is_honest(self, ctxd4):
        # with toy search bounds the pipeline must flag incompleteness
        report = theorem1_branch(ctxd4, FAST)
        assert report.branch == "InfiniteH2"
        assert not report.complete
        assert not report.evidence["nonvanishing_qm"]["pass"]

    def test_determinism(self, ctx3):
        cfg = RunConfig(seed=42)
        a = json.dumps(theorem1_branch(ctx3, cfg).to_dict(), sort_keys=True)
        b = json.dumps(theorem1_branch(ctx3, cfg).to_dict(), sort_keys=True)
        assert a == b

    def test_parameters_recorded(self, ctx3):
        report = theorem1_branch(ctx3, FAST)
        assert report.parameters == FAST.to_dict()


class TestRunConfig:
    @pytest.mark.parametrize("values, message", [
        # a sample or window of 0 would pass its check without testing
        ({"sample_size": 0, "transport_samples": 0, "window": 0},
         "config key 'sample_size' needs at least 1, not 0"),
        ({"census_n": -3}, "config key 'census_n' needs at least 1, not -3"),
        ({"window": 1.0}, "config key 'window' needs an int, not 1.0"),
        ({"window": True}, "config key 'window' needs an int, not true"),
        ({"seed": "1"}, "config key 'seed' needs an int, not \"1\""),
        ({"bogus": 1}, "config key 'bogus' is not a RunConfig field"),
    ], ids=["zero-sizes", "negative", "float", "bool", "str-seed", "unknown"])
    def test_refused_through_the_api(self, values, message):
        with pytest.raises(TreeLocalError) as info:
            RunConfig(**values)
        assert str(info.value) == message

    def test_seed_may_be_any_int(self):
        assert RunConfig(seed=-5).seed == -5
        assert RunConfig(seed=0).to_dict() == RunConfig().to_dict()

    def test_fields_cannot_be_assigned(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError, match="window"):
            cfg.window = 0
        assert cfg.window == 8


class TestFixedColorFamily:
    @pytest.mark.parametrize("d, F, Fp", FIXED_COLOR_PAIRS)
    def test_complete_at_wide_bounds(self, d, F, Fp):
        _, ctx = validate_inputs(d, F, Fp)
        report = theorem1_branch(ctx, WIDE)
        assert report.branch == "InfiniteH2"
        assert report.complete

