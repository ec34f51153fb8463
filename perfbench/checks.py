"""Checks of each CLI call's outputs, against the oracles or a property of the method.

`check_calls` returns one line per failed check; an empty list means every
output of every call that exited 0 is correct. A check never compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import oracles
from workloads import Call, Workload

FID_RTOL = 1e-6
CORR_ATOL = 1e-9
SERIES_RTOL = 1e-6      # first series vs a separate one-series run
LOSS_FALL = 0.8         # timed pretrain_b8: late losses below this share of E|eps|
LOSS_TAIL = 20          # ... averaged over this many final steps


def _override(c: Call, key: str) -> str:
    for i, a in enumerate(c.argv):
        if a == "--override" and c.argv[i + 1].startswith(key + "="):
            return c.argv[i + 1].split("=", 1)[1]
    raise KeyError(key)


def _tree_digest(directory) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _round0(path: str, rep: int) -> str | None:
    """The same output of round 0, which made the same call with the same seed.

    None in round 0 itself, and when round 0 did not make it: its call
    failed, and that is counted already.
    """
    first = path.replace(f"{os.sep}round{rep}{os.sep}", f"{os.sep}round0{os.sep}", 1)
    return first if rep > 0 and os.path.exists(first) else None


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _read_corpus(directory) -> list:
    """Series as faultgen holds them: the CSV text is float32's shortest repr."""
    return [oracles.read_series(f).astype(np.float32) for f in oracles.corpus_files(directory)]


# ----------------------------------------------------------------------
# per command


def check_make_data(c: Call, fail) -> None:
    out = c.arg("--out")
    n = int(c.arg("--n"))
    manifest = oracles.read_manifest(out)
    files = oracles.corpus_files(out)
    if manifest["n"] != n or len(files) != n:
        fail(f"make-data {out}: manifest says {manifest['n']}, {len(files)} files, asked for {n}")
    if n <= 64:
        for x in _read_corpus(out):
            if x.shape != (manifest["tau"], manifest["dim"]) or not np.all(np.isfinite(x)):
                fail(f"make-data {out}: a series has shape {x.shape} or a non-finite value")
                break
    first = _round0(out, c.rep)
    if first and _tree_digest(out) != _tree_digest(first):
        fail(f"make-data {out}: differs from round 0's copy made with the same seed")


def _check_losses(c: Call, out: str, fail) -> np.ndarray:
    curve = oracles.read_loss_curve(os.path.join(out, "logs", "loss_curve.csv"))
    if not np.all(np.isfinite(curve)):
        fail(f"{c.command} {out}: a logged loss is not finite")
    return curve


def check_pretrain(c: Call, w: Workload, fail) -> None:
    out = c.arg("--out")
    curve = _check_losses(c, out, fail)
    steps = int(_override(c, "train.pretrain_steps"))
    if len(curve) != steps:
        fail(f"pretrain {out}: {len(curve)} logged steps, expected {steps}")
        return
    batch = int(_override(c, "train.batch_size"))
    header, _ = oracles.read_checkpoint(os.path.join(out, "checkpoints", "final.ckpt"))
    model = header["config"]["model"]
    tol = oracles.first_loss_tolerance(batch, model["tau"], model["d"])
    first = curve[0, 3]
    if abs(first - oracles.E_ABS_NORMAL) > tol:
        fail(f"pretrain {out}: first loss {first:.4f} is not within {tol:.4f} of sqrt(2/pi)")
    if c.role == "stage" and w.loss_must_fall:
        late = float(np.mean(curve[-LOSS_TAIL:, 3]))
        if late >= LOSS_FALL * oracles.E_ABS_NORMAL:
            fail(f"pretrain {out}: mean of the last {LOSS_TAIL} losses {late:.4f} "
                 f"is not below {LOSS_FALL} * sqrt(2/pi)")
    ckpt = os.path.join(out, "checkpoints", "final.ckpt")
    first = _round0(ckpt, c.rep)
    if first and not _same_bytes(ckpt, first):
        fail(f"pretrain {out}: checkpoint differs from round 0's, made with the same seed")


def check_finetune(c: Call, seed: int, fail) -> None:
    out = c.arg("--out")
    curve = _check_losses(c, out, fail)
    base_path = c.arg("--checkpoint")
    _, base = oracles.read_checkpoint(base_path)
    header, tuned = oracles.read_checkpoint(os.path.join(out, "checkpoints", "final.ckpt"))
    backbone = sorted(k for k in base if k.startswith("backbone."))
    if not backbone or backbone != sorted(k for k in tuned if k.startswith("backbone.")):
        fail(f"finetune {out}: backbone array names differ from the input checkpoint")
    elif any(base[k] != tuned[k] for k in backbone):
        fail(f"finetune {out}: a backbone array is not byte-identical to the input checkpoint")
    margin = header["config"]["loss"]["margin"]
    div = curve[:, 2]
    if np.any(div < -margin) or np.any(div > 0):
        fail(f"finetune {out}: a diversity term lies outside [-{margin}, 0]")
    ckpt = os.path.join(out, "checkpoints", "final.ckpt")
    first = _round0(ckpt, c.rep)
    if first and not _same_bytes(ckpt, first):
        fail(f"finetune {out}: checkpoint differs from round 0's, made with the same seed")
    if c.rep == 0:
        _check_fresh_adapter(base_path, header["config"]["adapter"], seed, fail)


def _check_fresh_adapter(base_path, adapter_cfg: dict, seed: int, fail) -> None:
    """A freshly attached adapter's output projections are zero, so it adds exactly nothing."""
    from faultgen.adapter import AdapterConfig, AdapterStack, attach
    from faultgen.training import load_checkpoint, model_from_checkpoint

    backbone = model_from_checkpoint(load_checkpoint(base_path))
    cfg = backbone.cfg
    x = np.random.default_rng(seed).standard_normal((4, cfg.tau, cfg.d)).astype(np.float32)
    t = cfg.T // 2
    alone = backbone.predict_noise(x, t)
    composed = attach(backbone, AdapterStack(AdapterConfig(**adapter_cfg), cfg.dec_layers, seed=seed))
    if not np.array_equal(alone, composed.predict_noise(x, t)):
        fail("finetune: a freshly attached adapter changes the backbone's noise prediction")


def check_generate(c: Call, work: str, fail) -> None:
    out = c.arg("--out")
    ckpt = c.arg("--checkpoint")
    n = int(c.arg("--n"))
    header, arrays = oracles.read_checkpoint(ckpt)
    cfg = header["config"]
    series = _read_corpus(out)
    shape = (cfg["model"]["tau"], cfg["model"]["d"])
    if len(series) != n or any(x.shape != shape or not np.all(np.isfinite(x)) for x in series):
        fail(f"generate {out}: expected {n} finite series of shape {shape}")
        return
    lo, hi = oracles.normalizer_bounds(cfg["data"]["normalizer_mode"],
                                       oracles.checkpoint_array(arrays, "norm.lo"),
                                       oracles.checkpoint_array(arrays, "norm.hi"))
    slack = 1e-5 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    values = np.stack(series).astype(np.float64)
    if np.any(values < lo - slack) or np.any(values > hi + slack):
        fail(f"generate {out}: a value lies outside the normalizer's image of the x0 clip")
    first = _round0(out, c.rep)
    if first:
        if not all(_same_bytes(a, b) for a, b in zip(oracles.corpus_files(out), oracles.corpus_files(first))):
            fail(f"generate {out}: a series differs from round 0's, made with the same seed")
    elif cfg["diffusion"]["timesteps"] <= 100:
        from faultgen.cli import main as cli_main

        one = os.path.join(work, "one_series")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["generate", "--checkpoint", ckpt, "--n", "1",
                           "--seed", c.arg("--seed"), "--out", one])
        alone = _read_corpus(one)[0] if rc == 0 else None
        first = series[0]
        if alone is None or not np.allclose(first, alone, rtol=SERIES_RTOL,
                                            atol=SERIES_RTOL * float(np.max(np.abs(first)))):
            fail(f"generate {out}: the first series differs from a one-series run with the same seed")


def check_evaluate(c: Call, fail) -> None:
    from faultgen.metrics import DEFAULT_ENCODER_SEED, METRIC_NAMES, ContextEncoder

    out = c.arg("--out")
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    seeds = c.arg("--seeds").split(",")
    values = report["values"]
    first = _round0(os.path.join(out, "report.json"), c.rep)
    if first:  # round 0's call on byte-identical inputs, checked in full
        with open(first) as fh:
            if json.load(fh)["values"] != values:
                fail(f"evaluate {out}: scores differ from round 0's, made with the same seed")
        return
    if sorted(values) != sorted(METRIC_NAMES) or any(sorted(values[m]) != sorted(seeds) for m in values):
        fail(f"evaluate {out}: report lacks a score for some metric and seed")
        return
    real = _read_corpus(c.arg("--real"))
    synth = _read_corpus(c.arg("--synth"))
    enc = ContextEncoder(real[0].shape[1], DEFAULT_ENCODER_SEED)
    fid = oracles.frechet_sqrtm(np.stack([enc.embed(x) for x in real]),
                                np.stack([enc.embed(x) for x in synth]))
    corr = oracles.correlational_corrcoef(real, synth)
    for s in seeds:
        if abs(values["context_fid"][s] - fid) > FID_RTOL * (1.0 + abs(fid)):
            fail(f"evaluate {out}: context_fid {values['context_fid'][s]!r} != sqrtm oracle {fid!r}")
        if abs(values["correlational"][s] - corr) > CORR_ATOL:
            fail(f"evaluate {out}: correlational {values['correlational'][s]!r} != corrcoef oracle {corr!r}")
        if not 0.0 <= values["discriminative"][s] <= 0.5:
            fail(f"evaluate {out}: discriminative {values['discriminative'][s]!r} outside [0, 0.5]")
        for m in ("predictive", "diversity"):
            v = values[m][s]
            if not (math.isfinite(v) and v > 0):
                fail(f"evaluate {out}: {m} {v!r} is not finite and positive")


def quality_scores(calls: list[tuple[Call, int]]) -> dict | None:
    """Each score's median over seeds from the first evaluate call that exited 0; not gated."""
    for c, rc in calls:
        if c.command == "evaluate" and rc == 0:
            with open(os.path.join(c.arg("--out"), "report.json")) as fh:
                return json.load(fh)["medians"]
    return None


def check_calls(w: Workload, seed: int, work: str, calls: list[tuple[Call, int]]) -> list[str]:
    """Check the outputs of every call that exited 0."""
    failures: list[str] = []
    fail = failures.append
    for c, rc in calls:
        if rc != 0:
            continue
        if c.command == "make-data":
            check_make_data(c, fail)
        elif c.command == "pretrain":
            check_pretrain(c, w, fail)
        elif c.command == "finetune":
            check_finetune(c, seed, fail)
        elif c.command == "generate":
            check_generate(c, work, fail)
        elif c.command == "evaluate":
            check_evaluate(c, fail)
    return failures
