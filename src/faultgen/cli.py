"""Command-line orchestration: corpora, training phases, generation, evaluation.

Exit codes: 0 ok, 2 usage/validation, 3 checkpoint problems, 4 training divergence or any other non-finite
value: every command runs with numpy's overflow, invalid and divide-by-zero errors raised, so a numeric blow-up
ends in exit 4, never in a warning and a written artifact. Equal arguments and inputs give byte-identical
artifacts. `main` keeps freed heap in the process where the libc has glibc's `mallopt`: none is trimmed below
1 GiB, and arrays up to 1 MiB come from the heap, so a training step reuses the pages its predecessor's graph
freed instead of faulting fresh ones in.

Only the training phases, `pretrain` and `finetune`, take a run config and `--override`: their settings
come from `--preset`, then each `--override SECTION.KEY=VALUE`, and each accepts only the keys its phase reads
(`config.PHASES`). Their run record is the checkpoint's config header, which also holds what a run takes from
its inputs: the seed, the corpus and, for `finetune`, the checkpoint's model and schedule. `config.lock` is a
JSON copy of it, written once training has finished. `generate` samples a checkpoint as it was trained.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import sys

import numpy as np

from .adapter import AdapterStack, attach
from .config import RunConfig, resolve_config
from .data import (
    FAULT_EXTRAS,
    FAULT_KINDS,
    MAX_SERIES,
    Dataset,
    csv_cell,
    fit_normalizer,
    generate_normal,
    load_corpus,
    make_fault_dataset,
    save_corpus,
    write_atomic,
)
from .denoiser import Backbone
from .diffusion import sample
from .embedding import embed_2d
from .errors import CheckpointError, ContractError, DivergenceError, NumericError
from .metrics import check_request, downstream_eval, evaluate_corpora
from .training import load_checkpoint, restore, train

FAULT_FLAGS = ("fault", "magnitude", "onset", "duration", "channels", *FAULT_EXTRAS)  # read by --kind fault only
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


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
        raise ContractError(f"missing {what} corpus directory: {path}")
    return path


# ----------------------------------------------------------------------
# subcommands


def cmd_make_data(args) -> int:
    given = [key for key in FAULT_FLAGS if getattr(args, key) is not None]
    if args.kind == "normal" and given:
        raise ContractError(f"{', '.join('--' + key.replace('_', '-') for key in given)} apply only to --kind fault")
    if args.kind == "fault" and not args.fault:
        raise ContractError("--fault is required when --kind fault")
    ds = generate_normal(args.tau, args.dim, args.n, args.seed, base_kind=args.base, noise_std=args.noise_std)
    if args.kind == "fault":
        extra = {k: getattr(args, k) for k in FAULT_EXTRAS if getattr(args, k) is not None}
        try:
            channels = [int(c) for c in args.channels.split(",")] if args.channels is not None else None
        except ValueError as e:
            raise ContractError(f"--channels must be comma-separated integers, got {args.channels!r}") from e
        ds = make_fault_dataset(ds, args.fault, args.seed, magnitude=args.magnitude,
                                onset=args.onset, duration=args.duration, channels=channels, extra=extra)
    with _in_progress(args.out):
        save_corpus(ds, args.out)
    summary = {"id": ds.id, "label": ds.label, "n": len(ds), "tau": ds.tau,
               "dim": ds.dim, "seed": args.seed, "out": args.out}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _train(args, cfg: RunConfig, data: Dataset, model, sched, normalizer, loss_cfg=None) -> int:
    """Train `model` into checkpoints/ and logs/ under --out, copy its header to config.lock, print the summary."""
    tcfg, phase = cfg.train_config(args.seed), cfg.phase
    checkpoints = os.path.join(args.out, "checkpoints")
    with _in_progress(args.out):
        ckpt = train(data, model, tcfg, sched, normalizer, loss_cfg, checkpoints,
                     os.path.join(args.out, "logs", "loss_curve.csv"))
        write_atomic(os.path.join(args.out, "config.lock"), json.dumps(ckpt.config, indent=2, sort_keys=True) + "\n")
    summary = {"phase": phase, "steps": tcfg.steps, "checkpoint": os.path.join(checkpoints, "final.ckpt"),
               "config_hash": ckpt.config["config_hash"]}
    if phase == "pretrain":
        summary["final_loss"] = ckpt.loss_rows[-1][3] if ckpt.loss_rows else None  # JSON has no NaN
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_pretrain(args) -> int:
    cfg = resolve_config(args.preset, "pretrain", args.override)
    normal = load_corpus(_require_dir(args.data, "training"))
    model = Backbone(cfg.denoiser_config(normal.tau, normal.dim), seed=args.seed)
    return _train(args, cfg, normal, model, cfg.schedule(),
                  fit_normalizer(normal, cfg.get("data", "normalizer")))


def cmd_finetune(args) -> int:
    cfg = resolve_config(args.preset, "finetune", args.override)
    backbone, sched, norm = restore(load_checkpoint(args.checkpoint))
    if not isinstance(backbone, Backbone):
        raise CheckpointError("finetune expects a backbone-only (pretrain) checkpoint")
    arch = backbone.cfg
    fault = load_corpus(_require_dir(args.data, "fault"))
    if len(fault) < 2:
        raise ContractError(f"fine-tuning needs at least 2 fault series, but {args.data} holds {len(fault)}")
    if (fault.tau, fault.dim) != (arch.tau, arch.d):
        raise ContractError(f"fault corpus {args.data} holds (tau, dim) = ({fault.tau}, {fault.dim}), "
                            f"but checkpoint {args.checkpoint} models ({arch.tau}, {arch.d})")
    stack = AdapterStack(cfg.adapter_config(arch.model_dim), arch.dec_layers, seed=args.seed)
    loss_cfg = cfg.loss_config()
    if loss_cfg.weight > 0 and cfg.train_config(args.seed).batch_size < 2:  # caught here, before --out is made
        raise ContractError("diversity loss needs a batch of >= 2 predictions")
    return _train(args, cfg, fault, attach(backbone, stack), sched, norm, loss_cfg)


def cmd_generate(args) -> int:
    if not 1 <= args.n <= MAX_SERIES:
        raise ContractError(f"--n must be from 1 to {MAX_SERIES}, got {args.n}")
    ckpt = load_checkpoint(args.checkpoint)
    model, sched, norm = restore(ckpt)
    data = ckpt.config["data"]
    label = args.label or data["label"]

    with _in_progress(args.out):
        values = norm.unscale(sample(model, sched, args.n, args.seed))
        ds = Dataset(values, label=label, id=f"gen-{args.seed}-{args.n}", seed=args.seed,
                     channel_names=data["channel_names"])
        save_corpus(ds, args.out)
        log = {
            "seed": args.seed,
            "n": args.n,
            "checkpoint_sha256": _file_sha256(args.checkpoint),
            "config_hash": ckpt.config["config_hash"],
            "alpha": model.stack.cfg.alpha if hasattr(model, "stack") else None,
            "label": label,
        }
        write_atomic(os.path.join(args.out, "generation_log.json"),
                     json.dumps(log, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"generated": args.n, "out": args.out, "label": label}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as e:
        raise ContractError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from e
    metrics = [m.strip() for m in args.metrics.split(",")]
    check_request(metrics, seeds)
    real = load_corpus(_require_dir(args.real, "real"))
    synth = load_corpus(_require_dir(args.synth, "synthetic"))
    report = evaluate_corpora(real, synth, metrics, seeds)
    with _in_progress(args.out):
        write_atomic(os.path.join(args.out, "report.json"), report.to_json())
        write_atomic(os.path.join(args.out, "report.csv"), report.to_csv())
    print(json.dumps(report.medians, sort_keys=True))
    return 0


def cmd_embed(args) -> int:
    tsne = {k: getattr(args, k) for k in ("perplexity", "iters") if getattr(args, k) is not None}
    if tsne and args.method != "tsne":
        raise ContractError(f"{', '.join('--' + k for k in tsne)} apply only to --method tsne")
    datasets = [load_corpus(_require_dir(c, "embedding")) for c in args.corpus]
    result = embed_2d(datasets, method=args.method, features=args.features, seed=args.seed, **tsne)
    with _in_progress(args.out):
        write_atomic(os.path.join(args.out, "embedding.csv"), result.coords_csv())
        write_atomic(os.path.join(args.out, "kde.csv"), result.kde_csv())
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
        write_atomic(os.path.join(args.out, "downstream.json"),
                     json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Takes whole flag names only; its errors end, as every bad input does, in one stderr line and exit 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ContractError(message)


def _non_empty(value: str) -> str:
    """The type of a flag whose empty value would otherwise read as the flag not given."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _label(value: str) -> str:
    """The type of --label: a corpus label (`data.csv_cell`), checked before anything is sampled."""
    if not csv_cell(_non_empty(value)):
        raise argparse.ArgumentTypeError("must hold no ',', '\\n' or '\\r'")
    return value


def build_parser() -> argparse.ArgumentParser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=_non_empty, required=True, help="output directory")
    run = argparse.ArgumentParser(add_help=False)  # the settings only the training phases read
    run.add_argument("--preset", default="desk", choices=["desk", "paper"])
    run.add_argument("--override", action="append", metavar="SECTION.KEY=VALUE")

    parser = _Parser(prog="faultgen", description="Few-shot fault time-series generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", parents=[seed, out], help="write a normal or fault corpus")
    p.add_argument("--kind", required=True, choices=["normal", "fault"])
    p.add_argument("--fault", choices=FAULT_KINDS)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--tau", type=int, default=24)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--base", default="sine_mixture", choices=["sine_mixture", "ar_process"])
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--magnitude", type=float)
    p.add_argument("--onset", type=int)
    p.add_argument("--duration", type=int)
    p.add_argument("--channels", type=_non_empty, help="comma-separated channel indices")
    for name, extra in FAULT_EXTRAS.items():  # each fills the FaultSpec `extra` of its name
        p.add_argument("--" + name.replace("_", "-"), type=extra.type)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("pretrain", parents=[seed, out, run], help="pretrain the backbone on normal data")
    p.add_argument("--data", required=True, help="normal corpus directory")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", parents=[seed, out, run], help="adapter fine-tuning on fault data")
    p.add_argument("--data", required=True, help="fault corpus directory")
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint path")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("generate", parents=[seed, out], help="sample a synthetic corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--label", type=_label, help="label for the generated corpus")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", parents=[out], help="run generation-quality metrics")
    p.add_argument("--real", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--metrics", default="all")
    p.add_argument("--seeds", default="0")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", parents=[seed, out], help="2-D projection CSVs (pca or tsne)")
    p.add_argument("--corpus", action="append", required=True)
    p.add_argument("--method", default="tsne", choices=["pca", "tsne"])
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--features", default="flat", choices=["flat", "context"])
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("downstream", parents=[seed], help="downstream classification harness")
    p.add_argument("--out", type=_non_empty, help="output directory")
    p.add_argument("--train", action="append", required=True)
    p.add_argument("--synth", action="append")
    p.add_argument("--test", action="append", required=True)
    p.set_defaults(func=cmd_downstream)

    return parser


def main(argv=None) -> int:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # another libc keeps its own heap policy
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_TRIM_THRESHOLD, 1 << 30)
        mallopt(M_MMAP_THRESHOLD, 1 << 20)  # setting a threshold stops glibc raising this one from 128 KiB
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ContractError(f"--seed must be >= 0, got {args.seed}")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 3
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 4
    except (NumericError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
