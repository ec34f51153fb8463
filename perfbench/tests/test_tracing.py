"""Span recording, self times and stage roots."""

import numpy as np

import layers
import tracing


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(end - start, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert tracing.roots(parent).tolist() == [0, 0, 0, 0]


def test_roots_of_a_forest():
    parent = np.array([-1, 0, 1, -1, 3, 3])
    assert tracing.roots(parent).tolist() == [0, 0, 0, 3, 3, 3]


def test_wrapped_calls_nest_and_carry_notes():
    tr = tracing.Tracer()
    leaf = tr.wrap(lambda xs: len(xs), "leaf", note=lambda args, kwargs, result: result * 10)
    outer = tr.wrap(lambda xs: leaf(xs) + leaf(xs[:1]), "outer")
    assert tr.call("stage.x", outer, [1, 2, 3]) == 4
    names = [tr.names[i] for i in tr.name_id]
    assert names == ["stage.x", "outer", "leaf", "leaf"]
    assert list(tr.parent) == [-1, 0, 1, 1]
    assert list(tr.note) == [-1, -1, 30, 10]
    sp = tracing.Spans(tr.name_id, tr.parent, tr.start, tr.end, tr.note, tr.names)
    assert np.all(sp.self_time >= 0)
    assert sp.within("outer").tolist() == [False, True, True, True]


def test_install_wraps_the_looked_up_names_and_uninstall_restores_them():
    import faultgen.cli
    import faultgen.data
    import faultgen.denoiser

    before = (faultgen.cli.load_corpus, faultgen.data.load_corpus, faultgen.denoiser.Backbone.forward)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert faultgen.cli.load_corpus is not before[0]
        assert faultgen.data.load_corpus is not before[1]
        assert faultgen.denoiser.Backbone.forward is not before[2]
    finally:
        tr.uninstall()
    assert (faultgen.cli.load_corpus, faultgen.data.load_corpus, faultgen.denoiser.Backbone.forward) == before


def test_step_durations_end_at_the_closing_boundary():
    assert layers._steps(np.array([1.0, 0.0, 3.0]), 6.0).tolist() == [1.0, 2.0, 3.0]


def test_every_autodiff_op_has_a_kind():
    kinds = {op for ops in layers.OP_KINDS.values() for op in ops}
    assert kinds == set(tracing.AUTODIFF_OPS)


def test_plan_repeats_whole_rounds():
    from workloads import WORKLOADS, plan, round_calls, rounds_for

    w = WORKLOADS["pretrain_b8"]
    one = ["make-data", "make-data", "pretrain", "generate", "evaluate"]
    calls = plan(w, 1, "/w", rounds=3)
    assert [c.command for c in calls] == one * 3
    assert [c.rep for c in calls] == [r for r in range(3) for _ in one]
    assert calls[len(one):2 * len(one)] == round_calls(w, 1, "/w", 1)
    # each round works in its own directory and otherwise makes the same calls
    for c, first in zip(calls, calls[:len(one)] * 3):
        assert all(f"/round{c.rep}/" in a for a in c.argv if a.startswith("/w"))
        assert tuple(a.replace(f"/round{c.rep}/", "/round0/") for a in c.argv) == first.argv
    assert rounds_for(w, 0) == 1 and rounds_for(w, 45) == 3
