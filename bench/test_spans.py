"""Self-checks of the layer tracer and the output check, on a small round.

    python3 -m pytest -q bench/test_spans.py
"""

from __future__ import annotations

import importlib

import pytest

import spans
import worker
import workloads
from treelocal import RunConfig

TOL = 1e-6


def small_ops(workdir: str) -> list[workloads.Op]:
    """A round of a few seconds touching every layer: both branches through
    the API, and the d = 3 CLI commands of the survey."""
    ops = workloads.build_ops("branch-2t", 0, workdir)[:1]
    # the smallest bounds under which branch 2 reaches every evidence item
    cfg = RunConfig(qm_max_seg=5, qm_search_bound=7, qm_rank_max_seg=1, rank_target=1)
    (d, F, Fp), = workloads.CANONICAL_H2
    op = workloads._branch_op(d, F, Fp, cfg, "api theorem1_branch h2 small bounds",
                              workloads.BRANCH_H2)
    op.check = lambda rc, text: rc == 2  # rank 1 is not reached under these bounds
    ops.append(op)
    survey = workloads.survey_ops(0, workdir)
    ops += [op for op in survey if " d=3 " in op.label]
    ops += [op for op in survey if "exactness" in op.label][:2]
    return ops


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced rounds, each on freshly built operations."""
    out = []
    for _ in range(2):
        ops = small_ops(str(tmp_path_factory.mktemp("work")))
        tracer = spans.Tracer()
        results, round_s = worker.run_round(ops, tracer)
        assert all(error is None for _, error in results)
        out.append((tracer, round_s))
    return out


def test_round_touches_every_layer(traced):
    tracer, _ = traced[0]
    layers = tracer.layer_self_s()
    assert all(layers[name] > 0 for name in spans.LAYERS if name != "serialize")
    assert {"cli.main", "chains.restriction_correspondence_check",
            "medianqm.independence_search"} <= set(tracer.spans())


def test_self_time_within_inclusive_time(traced):
    for tracer, _ in traced:
        for name, span in tracer.spans().items():
            assert -TOL <= span["self_s"] <= span["s"] + TOL, name


def test_layer_self_times_add_up_to_the_round(traced):
    for tracer, round_s in traced:
        total = sum(tracer.layer_self_s().values())
        assert total == pytest.approx(tracer.root.s, abs=TOL)
        assert tracer.root.s == pytest.approx(round_s, rel=0.01)


def test_evidence_items_partition_theorem1_branch(traced):
    for tracer, _ in traced:
        evidence = sum(tracer.evidence.values())
        branch_s = tracer.stats["analysis.theorem1_branch"].s
        assert 0.9 * branch_s <= evidence <= branch_s + TOL
        assert all(tracer.evidence[k] > 0 for k in spans.EVIDENCE_KEYS)


def test_call_counts_repeat_exactly(traced):
    (first, _), (second, _) = traced
    calls = [{name: span["calls"] for name, span in t.spans().items()}
             for t in (first, second)]
    assert calls[0] == calls[1]
    counts = [{k: v for k, v in t.metrics().items() if not k.endswith((".s", "self_s"))}
              for t in (first, second)]
    assert counts[0] == counts[1]


def test_uninstall_restores_every_attribute(tmp_path):
    def snapshot():
        out = {}
        for name in spans.LAYERS:
            mod = importlib.import_module(f"treelocal.{name}")
            out[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type):
                    out[f"{name}.{attr}"] = dict(vars(obj))
        return out

    before = snapshot()
    worker.run_round(small_ops(str(tmp_path))[:1], spans.Tracer())
    assert snapshot() == before


def test_output_check_rejects_a_wrong_digest_and_exit_code(tmp_path):
    ops = small_ops(str(tmp_path))[:1]
    results, _ = worker.run_round(ops)
    rc, text = ops[0].render(results[0][0])
    good = {"digests": {ops[0].label: worker.sha256_text(text)},
            "exit_codes": {ops[0].kind: rc}}
    assert worker.check_outputs(ops, results, good) == ([], 1)
    wrong_digest = {**good, "digests": {ops[0].label: "0" * 64}}
    assert worker.check_outputs(ops, results, wrong_digest)[0]
    wrong_exit = {**good, "exit_codes": {ops[0].kind: rc + 1}}
    assert worker.check_outputs(ops, results, wrong_exit)[0]
