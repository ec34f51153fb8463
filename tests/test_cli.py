"""End-to-end CLI runs on a tiny override config."""

import json

from faultgen.cli import main
from faultgen.training import load_checkpoint

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
