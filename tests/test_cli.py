"""End-to-end CLI runs on a tiny override config."""

import json
import os
import shutil

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A fault corpus, a pretrained checkpoint and a fine-tuned one, each from one step."""
    root = tmp_path_factory.mktemp("trained")
    normal, fault = str(root / "normal"), str(root / "fault")
    assert main(["make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal]) == 0
    assert main(["make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8",
                 "--out", fault]) == 0
    assert main(["pretrain", "--data", normal, "--out", str(root / "pre"),
                 *_overrides("train.pretrain_steps=1")]) == 0
    pre = str(root / "pre" / "checkpoints" / "final.ckpt")
    assert main(["finetune", "--data", fault, "--checkpoint", pre, "--out", str(root / "fine"),
                 *_overrides("train.finetune_steps=1")]) == 0
    return {"normal": normal, "fault": fault, "pre": pre,
            "fine": str(root / "fine" / "checkpoints" / "final.ckpt")}


def _edited(src, dst, edit):
    ckpt = load_checkpoint(src)
    edit(ckpt.config)
    save_checkpoint(ckpt, dst)
    return dst


BAD_CONFIGS = {
    "finetune-no-model": ("finetune", "pre", lambda c: c.pop("model")),
    "finetune-no-diffusion": ("finetune", "pre", lambda c: c.pop("diffusion")),
    "generate-no-diffusion": ("generate", "pre", lambda c: c.pop("diffusion")),
    "beta-start-not-a-number": ("generate", "pre", lambda c: c["diffusion"].update(beta_start="x")),
    "even-adapter-window": ("generate", "fine", lambda c: c["adapter"].update(window=4)),
    "unknown-adapter-key": ("generate", "fine", lambda c: c["adapter"].update(depth=2)),
    "unknown-normalizer-mode": ("generate", "pre", lambda c: c["data"].update(normalizer_mode="l2")),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_checkpoint_config_exits_3(trained, tmp_path, capsys, case):
    command, which, edit = BAD_CONFIGS[case]
    ckpt = _edited(trained[which], str(tmp_path / "bad.ckpt"), edit)
    argv = [command, "--checkpoint", ckpt, "--out", str(tmp_path / "out")]
    if command == "finetune":
        argv += ["--data", trained["fault"], *_overrides("train.finetune_steps=1")]
    else:
        argv += ["--n", "2"]
    assert main(argv) == 3
    assert "checkpoint error" in capsys.readouterr().err


def test_bogus_schedule_exits_3_from_a_checkpoint_and_2_from_an_override(trained, tmp_path, capsys):
    ckpt = _edited(trained["pre"], str(tmp_path / "bad.ckpt"),
                   lambda c: c["diffusion"].update(schedule="bogus"))
    assert main(["generate", "--checkpoint", ckpt, "--n", "2", "--out", str(tmp_path / "gen")]) == 3
    assert main(["pretrain", "--data", trained["normal"], "--out", str(tmp_path / "pre"),
                 *_overrides("train.pretrain_steps=1", "diffusion.schedule=bogus")]) == 2
    assert "unknown schedule" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_generate_rejects_n_below_1_before_loading(trained, tmp_path, n):
    for ckpt in (trained["fine"], str(tmp_path / "missing.ckpt")):
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", ckpt, "--n", n, "--out", str(out)]) == 2
        assert not out.exists()


def test_generate_output_does_not_depend_on_the_checkpoint_path(trained, tmp_path):
    outs = []
    for copy in ("a", "b/c"):
        ckpt = tmp_path / copy / "final.ckpt"
        ckpt.parent.mkdir(parents=True)
        shutil.copyfile(trained["fine"], ckpt)
        outs.append(tmp_path / f"gen_{len(outs)}")
        assert main(["generate", "--checkpoint", str(ckpt), "--n", "2", "--out", str(outs[-1])]) == 0
    names = sorted(os.listdir(outs[0]))
    assert "generation_log.json" in names and names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("value", ["abc", "nan", "inf", ""])
def test_generate_rejects_a_bad_alpha_override_with_exit_2(trained, tmp_path, capsys, value):
    out = tmp_path / "gen"
    assert main(["generate", "--checkpoint", trained["fine"], "--n", "2", "--out", str(out),
                 "--override", f"adapter.alpha={value}"]) == 2
    assert "alpha" in capsys.readouterr().err
    assert not (out / "generation_log.json").exists()


def test_generate_applies_a_finite_alpha_override(trained, tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--checkpoint", trained["fine"], "--n", "2", "--out", str(out),
                 "--override", "adapter.alpha=0.5"]) == 0
    assert json.loads((out / "generation_log.json").read_text())["alpha"] == 0.5


@pytest.mark.parametrize("override", ["diffusion.schedule=bogus", "diffusion.schedule=cosine",
                                      "diffusion.timesteps=20", "diffusion.beta_end=0.1"])
def test_finetune_rejects_a_diffusion_override_the_checkpoint_does_not_use(trained, tmp_path, capsys,
                                                                          override):
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"],
                 "--out", str(out), *_overrides("train.finetune_steps=1", override)]) == 2
    assert "diffusion schedule" in capsys.readouterr().err
    assert not out.exists()


def _no_diffusion_overrides(*extra):
    return [arg for ov in TINY + list(extra) if not ov.startswith("diffusion.")
            for arg in ("--override", ov)]


def test_finetune_rejects_a_config_file_diffusion_section_the_checkpoint_does_not_use(trained, tmp_path,
                                                                                     capsys):
    config = tmp_path / "run.ini"
    config.write_text("[diffusion]\ntimesteps = 10\nschedule = cosine\n")
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"], "--out", str(out),
                 "--config", str(config), *_no_diffusion_overrides("train.finetune_steps=1")]) == 2
    assert "diffusion schedule" in capsys.readouterr().err
    assert not (out / "checkpoints" / "final.ckpt").exists()


def test_finetune_runs_with_a_config_file_that_restates_the_checkpoint_schedule(trained, tmp_path):
    stored = load_checkpoint(trained["pre"]).config["diffusion"]
    config = tmp_path / "run.ini"
    config.write_text("[diffusion]\n" + "".join(f"{k} = {v}\n" for k, v in stored.items()))
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"], "--out", str(out),
                 "--config", str(config), *_no_diffusion_overrides("train.finetune_steps=1")]) == 0
    assert (out / "checkpoints" / "final.ckpt").exists()


def test_a_full_finetune_run_leaves_every_backbone_array_byte_identical(trained, tmp_path):
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"],
                 "--out", str(out), *_overrides("train.finetune_steps=4")]) == 0
    before = load_checkpoint(trained["pre"]).arrays
    after = load_checkpoint(str(out / "checkpoints" / "final.ckpt")).arrays
    backbone = [name for name in before if name.startswith("backbone.")]
    assert backbone and backbone == [name for name in after if name.startswith("backbone.")]
    for name in backbone:
        assert after[name].dtype == before[name].dtype and after[name].shape == before[name].shape, name
        assert after[name].tobytes() == before[name].tobytes(), name
    assert np.any(after["adapter0.attn.o.w"] != 0)  # zero at init: the adapter did train


@pytest.mark.parametrize("fault,argv", [("random_noise", ["--magnitude", "-1"]),
                                        ("impulse", ["--count", "0"]),
                                        ("impulse", ["--count", "-2"])])
def test_make_data_rejects_negative_noise_or_an_impulse_count_below_1_with_exit_2(tmp_path, capsys,
                                                                                fault, argv):
    out = tmp_path / "fault"
    assert main(["make-data", "--kind", "fault", "--fault", fault, "--n", "2", "--tau", "8",
                 "--out", str(out), *argv]) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


def _every_stage(capsys, root):
    """make-data, pretrain, finetune, generate, evaluate, embed and downstream into `root`, with tiny step counts."""
    normal, fault, gen = f"{root}/normal", f"{root}/fault", f"{root}/gen"
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal)
    _run(capsys, "make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8", "--out", fault)
    pre = _run(capsys, "pretrain", "--data", normal, "--out", f"{root}/pre", *_overrides("train.pretrain_steps=2"))
    fine = _run(capsys, "finetune", "--data", fault, "--checkpoint", pre["checkpoint"], "--out", f"{root}/fine",
                *_overrides("train.finetune_steps=2"))
    _run(capsys, "generate", "--checkpoint", fine["checkpoint"], "--n", "4", "--out", gen)
    _run(capsys, "evaluate", "--real", fault, "--synth", gen, "--seeds", "0,1", "--out", f"{root}/eval")
    _run(capsys, "embed", "--corpus", normal, "--corpus", gen, "--perplexity", "2", "--iters", "20",
         "--out", f"{root}/embed")
    _run(capsys, "downstream", "--train", normal, "--train", fault, "--synth", gen, "--test", normal,
         "--test", fault, "--out", f"{root}/downstream")


def test_equal_hash_runs_of_every_stage_write_byte_identical_trees(tmp_path, capsys):
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        _every_stage(capsys, root)
    files = [sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()) for root in roots]
    assert files[0] == files[1]
    for name in ("fine/checkpoints/final.ckpt", "gen/generation_log.json", "eval/report.json",
                 "embed/embedding.csv", "downstream/downstream.json"):
        assert name in files[0]
    for name in files[0]:
        assert (roots[0] / name).read_bytes() == (roots[1] / name).read_bytes(), name
    for stage in ("pre", "fine"):  # nothing else is written into a training output
        assert sorted(p.name for p in (roots[0] / stage).iterdir()) == ["checkpoints", "config.lock", "logs"]
