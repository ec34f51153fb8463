"""The pipeline benchmark's tracer and checks must find every faultgen name and field they read.

`perfbench/tracing.py` replaces functions and methods by name, and
`perfbench/checks.py` reads checkpoint header fields and calls faultgen's
loaders; a name or field that a change deletes or moves would otherwise
surface only in a benchmark run.
"""

import importlib
import os

import numpy as np
import pytest

from faultgen import data, metrics
from faultgen.adapter import AdapterConfig, AdapterStack, attach
from faultgen.cli import main
from faultgen.data import generate_normal
from faultgen.denoiser import Backbone, DenoiserConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TOY = DenoiserConfig(tau=6, d=2, T=10, model_dim=8, enc_layers=1, dec_layers=2,
                     heads=2, ff_dim=16, fourier_terms=1, trend_degree=3)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracing").Tracer()
    try:  # a failed install must not leave the wrappers it did place
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()


def _owners(tracer):
    for mod_name, cls_name, attr, _, _ in importlib.import_module("tracing").targets(tracer):
        owner = importlib.import_module(mod_name)
        yield (getattr(owner, cls_name) if cls_name else owner), attr


def test_install_wraps_every_target_and_uninstall_restores_it(tracer):
    wrapped = [(owner, attr, vars(owner)[attr]) for owner, attr in _owners(tracer)]
    assert all(fn.__wrapped__ is not None for _, _, fn in wrapped)
    tracer.uninstall()
    for owner, attr, fn in wrapped:
        assert vars(owner)[attr] is fn.__wrapped__


def test_composed_prediction_records_its_adapter_blocks(tracer):
    backbone = Backbone(TOY, seed=1)
    model = attach(backbone, AdapterStack(AdapterConfig(window=3, heads=2, model_dim=8, alpha=1.0), 2, seed=2))
    x = np.random.default_rng(0).standard_normal((3, 6, 2)).astype(np.float32)
    model.predict_noise(x, 4)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("denoiser.predict_noise") == 1
    assert names.count("denoiser.forward") == 1
    assert names.count("adapter.block_forward") == TOY.dec_layers


def test_a_traced_evaluation_records_one_span_per_seeded_score_with_its_corpora_key(tracer):
    real = generate_normal(8, 2, 10, seed=1)
    synth = generate_normal(8, 2, 10, seed=2, noise_std=0.2)
    metrics.evaluate_corpora(real, synth, metrics=("discriminative", "predictive"), seeds=(0, 1, 2))
    names = [tracer.names[i] for i in tracer.name_id]
    for span in ("metrics.discriminative", "metrics.predictive"):
        [idx] = [i for i, name in enumerate(names) if name == span]
        assert tracer.keys[tracer.note[idx]] == f"{real.id}|{synth.id}"


@pytest.mark.parametrize("n", [1, 7])
def test_a_traced_save_and_load_record_the_corpus_series_count_on_both_spans(tracer, tmp_path, n):
    data.save_corpus(generate_normal(8, 2, n, seed=3), tmp_path / "c")
    assert len(data.load_corpus(tmp_path / "c")) == n
    notes = [(tracer.names[nid], note) for nid, note in zip(tracer.name_id, tracer.note)]
    assert notes == [("data.save_corpus", n), ("data.load_corpus", n)]


TINY_PRETRAIN = ["model.model_dim=8", "model.heads=2", "model.enc_layers=1", "model.dec_layers=1", "model.ff_dim=16",
                 "model.fourier_terms=1", "diffusion.timesteps=10", "train.batch_size=2", "train.warmup_steps=1",
                 "train.pretrain_steps=2"]
TINY_FINETUNE = ["adapter.heads=2", "adapter.window=3", "train.batch_size=2", "train.warmup_steps=1",
                 "train.finetune_steps=2"]


def _with_overrides(argv, overrides):
    return (*argv, *[arg for ov in overrides for arg in ("--override", ov)])


def test_the_benchmarks_finetune_and_generate_checks_pass_on_a_tiny_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    checks, call = importlib.import_module("checks"), importlib.import_module("workloads").Call
    d = str(tmp_path)
    finetune = _with_overrides(["finetune", "--data", f"{d}/fault", "--checkpoint", f"{d}/pre/checkpoints/final.ckpt",
                                "--seed", "1", "--out", f"{d}/fine"], TINY_FINETUNE)
    generate = ("generate", "--checkpoint", f"{d}/fine/checkpoints/final.ckpt", "--n", "2", "--seed", "5",
                "--out", f"{d}/gen")
    for argv in (("make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", f"{d}/normal"),
                 ("make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8", "--out", f"{d}/fault"),
                 _with_overrides(["pretrain", "--data", f"{d}/normal", "--out", f"{d}/pre"], TINY_PRETRAIN),
                 finetune, generate):
        assert main(list(argv)) == 0, argv[0]
    failures = []  # as round 0, which has no earlier round to compare against: the oracles and a fresh adapter
    checks.check_finetune(call("stage", 0, finetune), 1, failures.append)
    checks.check_generate(call("stage", 0, generate), d, failures.append)
    assert failures == []
