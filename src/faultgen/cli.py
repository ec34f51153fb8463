"""Command-line orchestration: corpora, training phases, generation, evaluation.

Exit codes: 0 ok, 2 usage/validation, 3 checkpoint problems, 4 training
divergence or a non-finite model/sampler state. Every artifact embeds the
resolved config hash and seed so that equal-hash runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys

from .config import RunConfig, resolve_config
from .data import (
    FAULT_KINDS,
    Dataset,
    fit_normalizer,
    generate_normal,
    load_corpus,
    make_fault_dataset,
    save_corpus,
)
from .denoiser import Backbone
from .diffusion import sample
from .embedding import embed_2d
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    CorpusError,
    DivergenceError,
    MetricError,
    NumericError,
)
from .metrics import downstream_eval, evaluate_corpora
from .training import (
    denoiser_config_from_checkpoint,
    finetune,
    load_checkpoint,
    model_from_checkpoint,
    normalizer_from_checkpoint,
    pretrain,
    schedule_from_checkpoint,
)

FAULT_SEED_OFFSET = 1_000_003  # keeps injection rng streams apart from base-signal streams


class ExperimentLayout:
    """Training output directory contract: checkpoints/, logs/, config.lock."""

    def __init__(self, root):
        self.root = root
        self.checkpoints = os.path.join(root, "checkpoints")
        self.logs = os.path.join(root, "logs")

    def prepare(self, cfg: RunConfig) -> None:
        for d in (self.root, self.checkpoints, self.logs):
            os.makedirs(d, exist_ok=True)
        with open(os.path.join(self.root, "config.lock"), "w") as fh:
            fh.write(cfg.canonical_text())


@contextlib.contextmanager
def _in_progress(directory):
    """Hold a `.partial` marker in `directory` while the block runs; it stays if the block raises."""
    os.makedirs(directory, exist_ok=True)
    marker = os.path.join(directory, ".partial")
    with open(marker, "w") as fh:
        fh.write("in progress\n")
    yield
    os.remove(marker)


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_dir(path, what: str):
    if not path or not os.path.isdir(path):
        raise CorpusError(f"missing {what} corpus directory: {path}")
    return path


# ----------------------------------------------------------------------
# subcommands


def cmd_make_data(args) -> int:
    if args.kind not in ("normal", "fault"):
        raise ConfigError(f"--kind must be normal or fault, got {args.kind!r}")
    if args.kind == "fault":
        if not args.fault:
            raise ConfigError("--fault is required when --kind fault")
        if args.fault not in FAULT_KINDS:
            raise ConfigError(f"--fault: unknown fault kind {args.fault!r}")
    if not args.out:
        raise ConfigError("--out is required")

    base = generate_normal(
        args.tau, args.dim, args.n, args.seed,
        base_kind=args.base, noise_std=args.noise_std,
    )
    if args.kind == "fault":
        extra = {}
        if args.period is not None:
            extra["period"] = args.period
        if args.clip_level is not None:
            extra["clip_level"] = args.clip_level
        if args.burst_len is not None:
            extra["burst_len"] = args.burst_len
        if args.count is not None:
            extra["count"] = args.count
        channels = [int(c) for c in args.channels.split(",")] if args.channels else None
        ds = make_fault_dataset(
            base, args.fault, args.seed + FAULT_SEED_OFFSET,
            magnitude=args.magnitude, onset=args.onset, duration=args.duration,
            channels=channels, extra=extra,
        )
    else:
        ds = base
    with _in_progress(args.out):
        save_corpus(ds, args.out)
    summary = {"id": ds.id, "label": ds.label, "n": len(ds), "tau": ds.tau,
               "dim": ds.dim, "seed": args.seed, "out": args.out}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _resolved(args) -> RunConfig:
    return resolve_config(args.preset, args.config, args.override, args.seed)


def cmd_pretrain(args) -> int:
    cfg = _resolved(args)
    corpus = load_corpus(_require_dir(args.data, "training"))
    cfg.set("model", "tau", corpus.tau)
    cfg.set("model", "dim", corpus.dim)
    layout = ExperimentLayout(args.out)
    with _in_progress(layout.root):
        layout.prepare(cfg)
        mode = cfg.get("data", "normalizer")
        norm = fit_normalizer(corpus, mode)
        normed = norm.apply_dataset(corpus)
        tcfg = cfg.train_config("pretrain")
        model = Backbone(cfg.denoiser_config(), seed=tcfg.seed)
        echo = {
            "config_hash": cfg.hash(),
            "data": {"label": corpus.label, "corpus_id": corpus.id,
                     "channel_names": list(corpus.samples[0].channel_names),
                     "normalizer_mode": mode},
            "diffusion": dict(cfg.sections["diffusion"]),
        }
        ckpt = pretrain(
            normed, tcfg, model, cfg.schedule(), normalizer=norm, config_echo=echo,
            checkpoint_dir=layout.checkpoints,
            log_path=os.path.join(layout.logs, "loss_curve.csv"),
        )
    final_loss = ckpt.loss_rows[-1][3] if ckpt.loss_rows else float("nan")
    print(json.dumps({"phase": "pretrain", "steps": tcfg.steps, "final_loss": final_loss,
                      "checkpoint": os.path.join(layout.checkpoints, "final.ckpt"),
                      "config_hash": cfg.hash()}, sort_keys=True))
    return 0


def cmd_finetune(args) -> int:
    if not args.checkpoint:
        raise CheckpointError("--checkpoint is required for finetune")
    cfg = _resolved(args)
    base = load_checkpoint(args.checkpoint)
    # fine-tuning trains with the checkpoint's schedule, so a config file or override may only restate it
    if "diffusion" in cfg.explicit:
        schedule_from_checkpoint(base)  # an unusable stored schedule is a checkpoint error
        if cfg.sections["diffusion"] != base.config["diffusion"]:
            raise ConfigError("finetune trains with the checkpoint's diffusion schedule "
                              f"{base.config['diffusion']}; a diffusion setting must match it")
    fault = load_corpus(_require_dir(args.data, "fault"))
    cfg.set("model", "tau", fault.tau)
    cfg.set("model", "dim", fault.dim)
    # the adapter must match the pretrained backbone's width
    cfg.set("model", "model_dim", denoiser_config_from_checkpoint(base).model_dim)
    layout = ExperimentLayout(args.out)
    with _in_progress(layout.root):
        layout.prepare(cfg)
        norm = normalizer_from_checkpoint(base)
        normed = norm.apply_dataset(fault) if norm is not None else fault
        tcfg = cfg.train_config("finetune")
        finetune(
            normed, base, tcfg, cfg.loss_config(), adapter_cfg=cfg.adapter_config(),
            data_info={"label": fault.label, "corpus_id": fault.id},
            checkpoint_dir=layout.checkpoints,
            log_path=os.path.join(layout.logs, "loss_curve.csv"), config_hash=cfg.hash(),
        )
    print(json.dumps({"phase": "finetune", "steps": tcfg.steps,
                      "checkpoint": os.path.join(layout.checkpoints, "final.ckpt"),
                      "config_hash": cfg.hash()}, sort_keys=True))
    return 0


def cmd_generate(args) -> int:
    if not args.checkpoint:
        raise CheckpointError("--checkpoint is required for generate")
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    for ov in args.override or ():
        dotted, _, value = ov.partition("=")
        if dotted != "adapter.alpha":
            raise ConfigError(f"only adapter.alpha can be overridden at generation, got {ov!r}")
        if not hasattr(model, "stack"):
            raise ConfigError("adapter.alpha override needs a fine-tuned checkpoint")
        try:
            alpha = float(value)
        except ValueError as e:
            raise ConfigError(f"bad value for adapter.alpha: {value!r}") from e
        # AdapterConfig rejects a non-finite alpha (ContractError, exit 2)
        model.stack.alpha = dataclasses.replace(model.stack.cfg, alpha=alpha).alpha
    norm = normalizer_from_checkpoint(ckpt)
    sched = schedule_from_checkpoint(ckpt)
    names = ckpt.config.get("data", {}).get("channel_names")
    label = args.label or ckpt.config.get("data", {}).get("label", "synthetic")

    with _in_progress(args.out):
        series = sample(model, sched, args.n, (model.cfg.tau, model.cfg.d), args.seed,
                        normalizer=norm, channel_names=names)
        ds = Dataset(series, label=label, id=f"gen-{args.seed}-{args.n}", seed=args.seed)
        save_corpus(ds, args.out)
        log = {
            "seed": args.seed,
            "n": args.n,
            "checkpoint_sha256": _file_sha256(args.checkpoint),
            "config_hash": ckpt.config.get("config_hash", ""),
            "alpha": getattr(getattr(model, "stack", None), "alpha", None),
            "label": label,
        }
        with open(os.path.join(args.out, "generation_log.json"), "w") as fh:
            json.dump(log, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"generated": args.n, "out": args.out, "label": label}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    real = load_corpus(_require_dir(args.real, "real"))
    synth = load_corpus(_require_dir(args.synth, "synthetic"))
    metrics = [m.strip() for m in args.metrics.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    report = evaluate_corpora(real, synth, metrics, seeds, config_hash=_resolved(args).hash())
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write(report.to_csv())
    print(json.dumps(report.medians, sort_keys=True))
    return 0


def cmd_embed(args) -> int:
    datasets = [load_corpus(_require_dir(c, "embedding")) for c in args.corpus]
    params = {"features": args.features}
    if args.perplexity is not None:
        params["perplexity"] = args.perplexity
    if args.iters is not None:
        params["iters"] = args.iters
    result = embed_2d(datasets, method=args.method, params=params, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "embedding.csv"), "w") as fh:
        fh.write(result.coords_csv())
    with open(os.path.join(args.out, "kde.csv"), "w") as fh:
        fh.write(result.kde_csv())
    print(json.dumps({"samples": len(result.labels), "method": args.method,
                      "out": args.out}, sort_keys=True))
    return 0


def cmd_downstream(args) -> int:
    train = [load_corpus(_require_dir(d, "training")) for d in args.train]
    synth = [load_corpus(_require_dir(d, "synthetic")) for d in (args.synth or [])]
    test = [load_corpus(_require_dir(d, "test")) for d in args.test]
    result = downstream_eval(train, synth, test, args.seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "downstream.json"), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file with [sections]")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="output directory")
    common.add_argument("--preset", default="desk", choices=["desk", "paper"])
    common.add_argument("--override", action="append", metavar="SECTION.KEY=VALUE")

    parser = argparse.ArgumentParser(prog="faultgen",
                                     description="Few-shot fault time-series generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", parents=[common], help="write a normal or fault corpus")
    p.add_argument("--kind", required=True)
    p.add_argument("--fault", help=f"one of: {', '.join(FAULT_KINDS)}")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--tau", type=int, default=24)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--base", default="sine_mixture", choices=["sine_mixture", "ar_process"])
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--magnitude", type=float)
    p.add_argument("--onset", type=int)
    p.add_argument("--duration", type=int)
    p.add_argument("--channels", help="comma-separated channel indices")
    p.add_argument("--period", type=float)
    p.add_argument("--clip-level", type=float)
    p.add_argument("--burst-len", type=int)
    p.add_argument("--count", type=int)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("pretrain", parents=[common], help="pretrain the backbone on normal data")
    p.add_argument("--data", required=True, help="normal corpus directory")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", parents=[common], help="adapter fine-tuning on fault data")
    p.add_argument("--data", required=True, help="fault corpus directory")
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint path")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("generate", parents=[common], help="sample a synthetic corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--label", help="label for the generated corpus")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", parents=[common], help="run generation-quality metrics")
    p.add_argument("--real", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--metrics", default="all")
    p.add_argument("--seeds", default="0")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", parents=[common], help="2-D projection CSVs (pca or tsne)")
    p.add_argument("--corpus", action="append", required=True)
    p.add_argument("--method", default="tsne", choices=["pca", "tsne"])
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--features", default="flat", choices=["flat", "context"])
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("downstream", parents=[common], help="downstream classification harness")
    p.add_argument("--train", action="append", required=True)
    p.add_argument("--synth", action="append")
    p.add_argument("--test", action="append", required=True)
    p.set_defaults(func=cmd_downstream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs_out = args.command in ("make-data", "pretrain", "finetune", "generate", "evaluate", "embed")
    try:
        if needs_out and not args.out:
            raise ConfigError("--out is required")
        return args.func(args)
    except (ConfigError, ContractError, CorpusError, MetricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 4
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
