"""End-to-end CLI runs on a tiny override config."""

import json

import numpy as np

from faultgen.cli import main
from faultgen.config import resolve_config
from faultgen.training import load_checkpoint, save_checkpoint

TINY = ["model.model_dim=8", "model.heads=2", "model.enc_layers=1", "model.dec_layers=1",
        "model.ff_dim=16", "model.fourier_terms=1", "adapter.heads=2", "adapter.window=3",
        "diffusion.timesteps=10", "train.batch_size=2", "train.warmup_steps=1"]


def _run(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _overrides(*extra):
    return [arg for ov in TINY + list(extra) for arg in ("--override", ov)]


def test_finetune_checkpoint_records_its_own_config_hash(tmp_path, capsys):
    normal, fault = str(tmp_path / "normal"), str(tmp_path / "fault")
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal)
    _run(capsys, "make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8",
         "--out", fault)
    pre = _run(capsys, "pretrain", "--data", normal, "--out", str(tmp_path / "pre"),
               *_overrides("train.pretrain_steps=2"))
    fine = _run(capsys, "finetune", "--data", fault, "--checkpoint", pre["checkpoint"],
                "--out", str(tmp_path / "fine"), *_overrides("train.finetune_steps=2"))
    assert fine["config_hash"] != pre["config_hash"]
    assert load_checkpoint(pre["checkpoint"]).config["config_hash"] == pre["config_hash"]
    assert load_checkpoint(fine["checkpoint"]).config["config_hash"] == fine["config_hash"]

    gen = str(tmp_path / "gen")
    _run(capsys, "generate", "--checkpoint", fine["checkpoint"], "--n", "2", "--out", gen)
    with open(f"{gen}/generation_log.json") as fh:
        assert json.load(fh)["config_hash"] == fine["config_hash"]


def test_evaluate_report_records_the_config_hash(tmp_path, capsys):
    real, synth = str(tmp_path / "real"), str(tmp_path / "synth")
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", real)
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--seed", "1",
         "--out", synth)
    out = str(tmp_path / "report")
    _run(capsys, "evaluate", "--real", real, "--synth", synth, "--metrics", "context_fid",
         "--seed", "5", "--out", out)
    with open(f"{out}/report.json") as fh:
        recorded = json.load(fh)["metadata"]["config_hash"]
    assert recorded and recorded == resolve_config("desk", None, None, 5).hash()


def test_non_finite_weight_ends_generate_with_exit_4(tmp_path, capsys):
    normal = str(tmp_path / "normal")
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal)
    pre = _run(capsys, "pretrain", "--data", normal, "--out", str(tmp_path / "pre"),
               *_overrides("train.pretrain_steps=1"))
    ckpt = load_checkpoint(pre["checkpoint"])
    first = next(iter(ckpt.arrays))
    ckpt.arrays[first].flat[0] = np.nan
    broken = str(tmp_path / "nan.ckpt")
    save_checkpoint(ckpt, broken)
    assert main(["generate", "--checkpoint", broken, "--n", "2", "--out", str(tmp_path / "gen")]) == 4
    assert "non-finite" in capsys.readouterr().err
