"""Per-layer metrics derived from the spans of a traced workload run.

Stage spans (`stage.<command>`) are the roots. Training steps are bounded
by the once-per-step `training.forward_sample` calls (the last one ends
where the final snapshot starts); reverse diffusion steps by the
`denoiser.predict_noise` calls inside `diffusion.sample`. Op times are
self times; a layer function's time includes the ops it calls.
"""

from __future__ import annotations

import numpy as np

from tracing import Spans

OP_KINDS = {
    "gelu": ("gelu",),
    "matmul": ("matmul",),
    "layer_norm": ("layer_norm",),
    "softmax": ("softmax",),
    "elementwise": ("add", "sub", "mul", "div", "absolute", "minimum"),
    "shape": ("reshape", "transpose", "take", "pad", "concat", "stack"),
    "reduce": ("tsum", "tmean"),
}
SCORES = ("context_fid", "correlational", "discriminative", "predictive", "diversity")
SEED_FREE_SCORES = ("context_fid", "correlational", "diversity")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "data.generate_normal.s": "s", "data.make_fault_dataset.s": "s",
    "data.save_corpus.s": "s", "data.load_corpus.s": "s",
    "data.series_written": "count", "data.series_read": "count",
    **{f"autodiff.{phase}.{kind}.ms": "ms" for phase in ("train", "sample") for kind in OP_KINDS},
    "autodiff.backward.ms": "ms", "autodiff.ops_per_step": "count", "autodiff.shape_ops_per_step": "count",
    "denoiser.forward.ms.p50": "ms", "denoiser.predict_noise.ms.p50": "ms",
    "denoiser.attention.ms": "ms", "denoiser.feed_forward.ms": "ms", "denoiser.decompose.ms": "ms",
    "adapter.block_forward.ms": "ms", "adapter.calls": "count",
    "training.step_ms.p50": "ms", "training.step_ms.p90": "ms", "training.adam.ms": "ms",
    "training.loss.ms": "ms", "training.checkpoint.s": "s",
    "diffusion.step_ms.p50": "ms", "diffusion.step_ms.p90": "ms", "diffusion.sampler_self.ms": "ms",
    **{f"metrics.{score}.s": "s" for score in SCORES},
    "metrics.calls": "count", "metrics.repeated_calls": "count", "metrics.runtime_warnings": "count",
    "eig.sym_eig.s": "s", "eig.sym_eig.calls": "count",
    "trace.overhead_pct": "%",
}


def _stage(sp: Spans, command: str) -> tuple[np.ndarray, int]:
    """Mask of spans under the timed stage spans of `command`, and how many there are."""
    roots = np.flatnonzero(sp.mask(f"stage.{command}"))
    if len(roots) == 0:
        raise ValueError(f"no stage.{command} span")
    return np.isin(sp.root, roots), len(roots)


def _steps(starts: np.ndarray, last_end: float) -> np.ndarray:
    return np.diff(np.append(np.sort(starts), last_end))


def per_layer(sp: Spans, train_stage: str, stage_warnings: dict, overhead_pct: float) -> dict:
    """Every PER_LAYER metric's value for one traced run."""
    m: dict = {}
    train, _ = _stage(sp, train_stage)
    gen, _ = _stage(sp, "generate")
    ev, n_ev = _stage(sp, "evaluate")  # evaluation metrics are per evaluate call
    in_predict = sp.within("denoiser.predict_noise")

    for fn in ("generate_normal", "make_fault_dataset", "save_corpus", "load_corpus"):
        m[f"data.{fn}.s"] = float(sp.duration[sp.mask(f"data.{fn}")].sum())
    m["data.series_written"] = int(sp.note[sp.mask("data.save_corpus")].sum())
    m["data.series_read"] = int(sp.note[sp.mask("data.load_corpus")].sum())

    # training steps
    fs = train & sp.mask("training.forward_sample")
    n_steps = int(fs.sum())
    snap = train & sp.mask("training.snapshot")
    step_ms = 1e3 * _steps(sp.start[fs], float(sp.start[snap].max()))
    m["training.step_ms.p50"] = float(np.percentile(step_ms, 50))
    m["training.step_ms.p90"] = float(np.percentile(step_ms, 90))
    m["training.adam.ms"] = 1e3 * float(sp.duration[train & sp.mask("training.adam")].sum()) / n_steps
    loss = train & sp.mask("training.loss")
    outer_loss = loss & ~np.isin(sp.parent, np.flatnonzero(loss))
    m["training.loss.ms"] = 1e3 * float(sp.duration[outer_loss].sum()) / n_steps
    m["training.checkpoint.s"] = float(sp.duration[snap | (train & sp.mask("training.save_checkpoint"))].sum())
    m["autodiff.backward.ms"] = 1e3 * float(sp.duration[train & sp.mask("autodiff.backward")].sum()) / n_steps

    # reverse diffusion steps
    predict = gen & sp.mask("denoiser.predict_noise")
    n_predict = int(predict.sum())
    sample = np.flatnonzero(gen & sp.mask("diffusion.sample"))
    rev_ms = 1e3 * _steps(sp.start[predict], float(sp.end[sample].max()))
    m["diffusion.step_ms.p50"] = float(np.percentile(rev_ms, 50))
    m["diffusion.step_ms.p90"] = float(np.percentile(rev_ms, 90))
    m["diffusion.sampler_self.ms"] = 1e3 * float(sp.self_time[sample].sum()) / n_predict

    # autodiff ops per step
    op_kind = {f"autodiff.{op}": kind for kind, ops in OP_KINDS.items() for op in ops}
    kind_of = np.array([op_kind.get(n, "") for n in sp.name], dtype=object)
    is_op = kind_of != ""
    for kind in OP_KINDS:
        k = kind_of == kind
        m[f"autodiff.train.{kind}.ms"] = 1e3 * float(sp.self_time[train & k].sum()) / n_steps
        m[f"autodiff.sample.{kind}.ms"] = 1e3 * float(sp.self_time[gen & in_predict & k].sum()) / n_predict
    m["autodiff.ops_per_step"] = float((train & is_op).sum()) / n_steps
    m["autodiff.shape_ops_per_step"] = float((train & (kind_of == "shape")).sum()) / n_steps

    # denoiser and adapter, per forward pass over training and sampling
    model = train | gen
    forward = model & sp.mask("denoiser.forward")
    n_forward = int(forward.sum())
    m["denoiser.forward.ms.p50"] = float(np.percentile(1e3 * sp.duration[forward & train & ~in_predict], 50))
    m["denoiser.predict_noise.ms.p50"] = float(np.percentile(1e3 * sp.duration[predict], 50))
    for layer in ("attention", "feed_forward", "decompose"):
        m[f"denoiser.{layer}.ms"] = 1e3 * float(sp.duration[model & sp.mask(f"denoiser.{layer}")].sum()) / n_forward
    blocks = sp.mask("adapter.block_forward")
    m["adapter.block_forward.ms"] = 1e3 * float(sp.duration[model & blocks].sum()) / n_forward
    m["adapter.calls"] = int(blocks.sum())

    # evaluation, per evaluate call; a repeat counts within its own call only
    calls, repeated, seen = 0, 0, set()
    for score in SCORES:
        mask = ev & sp.mask(f"metrics.{score}")
        m[f"metrics.{score}.s"] = float(sp.duration[mask].sum()) / n_ev
        calls += int(mask.sum())
        if score in SEED_FREE_SCORES:
            for root, key in zip(sp.root[mask], sp.note[mask]):
                repeated += (root, score, key) in seen
                seen.add((root, score, key))
    m["metrics.calls"] = calls / n_ev
    m["metrics.repeated_calls"] = repeated / n_ev
    m["metrics.runtime_warnings"] = stage_warnings.get("evaluate", 0) / n_ev
    eig = ev & sp.mask("eig.sym_eig")
    m["eig.sym_eig.s"] = float(sp.duration[eig].sum()) / n_ev
    m["eig.sym_eig.calls"] = int(eig.sum()) / n_ev

    m["trace.overhead_pct"] = float(overhead_pct)
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise ValueError(f"per-layer metrics not computed: {sorted(missing)}")
    return m
