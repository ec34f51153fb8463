"""End-to-end CLI runs on a tiny override config."""

import argparse
import ctypes
import errno
import json
import os
import random
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from faultgen import cli, config, data, metrics, training
from faultgen.cli import build_parser, main
from faultgen.data import Dataset, load_corpus, save_corpus, write_atomic
from faultgen.training import load_checkpoint, save_checkpoint

from helpers import fail_writes_midway

TINY = {  # a tiny run's settings, each phase's only the keys it accepts
    "pretrain": ["model.model_dim=8", "model.heads=2", "model.enc_layers=1", "model.dec_layers=1",
                 "model.ff_dim=16", "model.fourier_terms=1", "diffusion.timesteps=10",
                 "train.batch_size=2", "train.warmup_steps=1"],
    "finetune": ["adapter.heads=2", "adapter.window=3", "train.batch_size=2", "train.warmup_steps=1"],
}


def _run(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _overrides(phase, *extra):
    return [arg for ov in TINY[phase] + list(extra) for arg in ("--override", ov)]


def test_finetune_checkpoint_records_its_own_config_hash(tmp_path, capsys):
    normal, fault = str(tmp_path / "normal"), str(tmp_path / "fault")
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal)
    _run(capsys, "make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8",
         "--out", fault)
    pre = _run(capsys, "pretrain", "--data", normal, "--out", str(tmp_path / "pre"),
               *_overrides("pretrain", "train.pretrain_steps=2"))
    fine = _run(capsys, "finetune", "--data", fault, "--checkpoint", pre["checkpoint"],
                "--out", str(tmp_path / "fine"), *_overrides("finetune", "train.finetune_steps=2"))
    assert fine["config_hash"] != pre["config_hash"]
    assert load_checkpoint(pre["checkpoint"]).config["config_hash"] == pre["config_hash"]
    assert load_checkpoint(fine["checkpoint"]).config["config_hash"] == fine["config_hash"]

    gen = str(tmp_path / "gen")
    _run(capsys, "generate", "--checkpoint", fine["checkpoint"], "--n", "2", "--out", gen)
    with open(f"{gen}/generation_log.json") as fh:
        assert json.load(fh)["config_hash"] == fine["config_hash"]


def test_evaluate_report_metadata_names_its_inputs_and_no_config(tmp_path, capsys):
    real, synth = str(tmp_path / "real"), str(tmp_path / "synth")
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", real)
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--seed", "1",
         "--out", synth)
    out = str(tmp_path / "report")
    _run(capsys, "evaluate", "--real", real, "--synth", synth, "--metrics", "context_fid",
         "--seeds", "5", "--out", out)
    with open(f"{out}/report.json") as fh:
        meta = json.load(fh)["metadata"]
    assert meta == {"seeds": [5], "corpus_real": load_corpus(real).id, "corpus_synth": load_corpus(synth).id,
                    "metric_version": metrics.METRIC_VERSION, "encoder_seed": metrics.DEFAULT_ENCODER_SEED}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A fault corpus, a pretrained checkpoint and a fine-tuned one, each from one step."""
    root = tmp_path_factory.mktemp("trained")
    normal, fault = str(root / "normal"), str(root / "fault")
    assert main(["make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal]) == 0
    assert main(["make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8",
                 "--out", fault]) == 0
    fault12 = str(root / "fault12")  # a fault corpus longer than the models' tau = 8
    assert main(["make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "12",
                 "--out", fault12]) == 0
    long = str(root / "long")  # series long enough that a batch within MAX_BATCH exceeds the attention bound
    assert main(["make-data", "--kind", "normal", "--n", "2", "--tau", "256", "--dim", "1", "--out", long]) == 0
    fault1 = str(root / "fault1")  # too few series to fine-tune on
    assert main(["make-data", "--kind", "fault", "--fault", "sudden", "--n", "1", "--tau", "8",
                 "--out", fault1]) == 0
    offset30 = str(root / "offset30")  # offset by 1e30: trivially separable, but its std overflows float64
    assert main(["make-data", "--kind", "fault", "--fault", "offset", "--magnitude", "1e30", "--n", "6",
                 "--tau", "8", "--out", offset30]) == 0
    assert main(["pretrain", "--data", normal, "--out", str(root / "pre"),
                 *_overrides("pretrain", "train.pretrain_steps=1")]) == 0
    pre = str(root / "pre" / "checkpoints" / "final.ckpt")
    assert main(["finetune", "--data", fault, "--checkpoint", pre, "--out", str(root / "fine"),
                 *_overrides("finetune", "train.finetune_steps=1")]) == 0
    renamed = str(root / "renamed")  # the normal corpus with one sample file headed x,y instead of ch0,ch1
    shutil.copytree(normal, renamed)
    sample3 = os.path.join(renamed, "sample_00003.csv")
    with open(sample3) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(sample3, "w") as fh:
        fh.write("".join(["x,y\n", *lines[1:]]))
    wide = str(root / "wide")  # the normal corpus with each data row of one sample file a value too long
    shutil.copytree(normal, wide)
    with open(os.path.join(wide, "sample_00002.csv")) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(os.path.join(wide, "sample_00002.csv"), "w") as fh:
        fh.write("".join([lines[0], *(line.replace("\n", ",0.5\n") for line in lines[1:])]))
    edited = {}  # a corpus whose manifest `edit` changes
    for name, source, edit in [
        ("label5", normal, lambda m: m.update(label=5)),  # a label that no CSV cell holds
        ("pump7", normal, lambda m: m.update(label="pump,7")),
        ("no_dim", normal, lambda m: m.pop("dim")),
        ("tau1", normal, lambda m: m.update(tau=1)),
        ("tau_huge", normal, lambda m: m.update(tau=10**30)),  # no array of that many rows can be allocated
        ("numbered", normal, lambda m: m.update(channel_names=[0, 1])),
        ("onset2_5", fault, lambda m: m["fault_spec"].update(onset=2.5)),  # loaded as onset 2
        ("duration_true", fault, lambda m: m["fault_spec"].update(duration=True)),  # loaded as duration 1
    ]:
        edited[name] = str(root / name)
        shutil.copytree(source, edited[name])
        with open(os.path.join(edited[name], "manifest.json")) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(os.path.join(edited[name], "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
    return {"normal": normal, "fault": fault, "fault12": fault12, "fault1": fault1, "offset30": offset30,
            "long": long, "renamed": renamed, "wide": wide, **edited, "pre": pre,
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
    "generate-adapter-window-a-float": ("generate", "fine", lambda c: c["adapter"].update(window=3.0)),
    "finetune-adapter-window-a-float": ("finetune", "fine", lambda c: c["adapter"].update(window=3.0)),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_checkpoint_config_exits_3(trained, tmp_path, capsys, case):
    command, which, edit = BAD_CONFIGS[case]
    ckpt = _edited(trained[which], str(tmp_path / "bad.ckpt"), edit)
    argv = [command, "--checkpoint", ckpt, "--out", str(tmp_path / "out")]
    if command == "finetune":
        argv += ["--data", trained["fault"], *_overrides("finetune", "train.finetune_steps=1")]
    else:
        argv += ["--n", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("checkpoint error: ")


def _without_normalizer_mode(ckpt):
    del ckpt.config["data"]["normalizer_mode"]


def _without_normalizer_arrays(ckpt):  # the header still names the normalizer's mode
    del ckpt.arrays["norm.lo"], ckpt.arrays["norm.hi"]


MALFORMED_CHECKPOINTS = {  # an edit of the pretrained checkpoint, and the commands that must refuse it
    "norm-arrays-for-3-channels": (lambda c: c.arrays.update({"norm.lo": np.zeros(3, np.float32),
                                                              "norm.hi": np.ones(3, np.float32)}),
                                   ["generate", "finetune"]),
    "config-a-list": (lambda c: setattr(c, "config", [c.config]), ["generate", "finetune"]),
    "data-a-list": (lambda c: c.config.update(data=[c.config["data"]]), ["generate", "finetune"]),
    "no-normalizer-mode": (_without_normalizer_mode, ["generate", "finetune"]),
    "no-normalizer-arrays": (_without_normalizer_arrays, ["generate", "finetune"]),
    "no-config-hash": (lambda c: c.config.pop("config_hash"), ["generate", "finetune"]),
    "channel-names-for-3-channels": (lambda c: c.config["data"].update(channel_names=["a", "b", "c"]),
                                     ["generate", "finetune"]),
    "label-no-csv-cell-holds": (lambda c: c.config["data"].update(label="pump,7"), ["generate", "finetune"]),
    "model-dim-a-float": (lambda c: c.config["model"].update(model_dim=8.0), ["generate", "finetune"]),
    "heads-a-float": (lambda c: c.config["model"].update(heads=2.0), ["generate", "finetune"]),
    "enc-layers-a-bool": (lambda c: c.config["model"].update(enc_layers=True), ["generate", "finetune"]),
    "config-hash-a-number": (lambda c: c.config.update(config_hash=5), ["generate", "finetune"]),
    "missing-array": (lambda c: c.arrays.pop("backbone.in_proj.w"), ["generate", "finetune"]),
    "array-of-another-shape": (lambda c: c.arrays.update({"backbone.in_proj.w": np.zeros((3, 3), np.float32)}),
                               ["generate", "finetune"]),
    # a size beyond its bound (`DenoiserConfig`) is refused before a model is allocated
    "fourier-terms-1e30": (lambda c: c.config["model"].update(fourier_terms=10**30), ["generate", "finetune"]),
    "trend-degree-1e30": (lambda c: c.config["model"].update(trend_degree=10**30), ["generate", "finetune"]),
    "model-dim-1e12": (lambda c: c.config["model"].update(model_dim=10**12), ["generate", "finetune"]),
    "ff-dim-1e12": (lambda c: c.config["model"].update(ff_dim=10**12), ["generate", "finetune"]),
    "dec-layers-1e30": (lambda c: c.config["model"].update(dec_layers=10**30), ["generate", "finetune"]),
    "tau-1e30": (lambda c: c.config["model"].update(tau=10**30), ["generate", "finetune"]),
    "d-1e30": (lambda c: c.config["model"].update(d=10**30), ["generate", "finetune"]),
}


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_a_malformed_checkpoint_exits_3_before_anything_is_written(trained, tmp_path, capsys, case):
    edit, commands = MALFORMED_CHECKPOINTS[case]
    ckpt = load_checkpoint(trained["pre"])
    edit(ckpt)
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(ckpt, bad)
    for command in commands:
        out = tmp_path / command
        argv = [command, "--checkpoint", bad, "--out", str(out)]
        if command == "finetune":
            argv += ["--data", trained["fault"], *_overrides("finetune", "train.finetune_steps=1")]
        assert main(argv) == 3, command
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("checkpoint error: "), command
        assert not out.exists(), command


def _patched(raw, at, data):
    return raw[:at] + data + raw[at + len(data):]


def _header_edited(raw, edit):
    """The checkpoint file `raw` with its JSON header changed by `edit`, which a `Checkpoint` could not hold."""
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode()
    return raw[:6] + struct.pack("<I", len(hbytes)) + hbytes + raw[10 + hlen:]


RAW_CORRUPTIONS = {  # an edit of the pretrained checkpoint file's bytes, and a fragment of the refusal
    "bad-magic": (lambda raw: _patched(raw, 0, b"XXXX"), "bad magic, not a checkpoint file"),
    "version-99": (lambda raw: _patched(raw, 4, struct.pack("<H", 99)), "unsupported format version 99"),
    "truncated-header": (lambda raw: raw[:20], "truncated header"),
    "header-not-json": (lambda raw: _patched(raw, 10, b"x"), "corrupt header"),
    "truncated-array-data": (lambda raw: raw[:-4], "truncated data for array"),
    "array-name-a-list": (lambda raw: _header_edited(raw, lambda h: h["arrays"][0].update(name=["in_proj.w"])),
                          "malformed header: array name ['in_proj.w'] is not a string"),
}


@pytest.mark.parametrize("command", ["generate", "finetune"])
@pytest.mark.parametrize("case", list(RAW_CORRUPTIONS))
def test_a_corrupt_checkpoint_file_exits_3_in_one_line_before_anything_is_written(trained, tmp_path, capsys,
                                                                                   command, case):
    edit, fragment = RAW_CORRUPTIONS[case]
    bad = tmp_path / "bad.ckpt"
    with open(trained["pre"], "rb") as fh:
        bad.write_bytes(edit(fh.read()))
    out = tmp_path / command
    argv = [command, "--checkpoint", str(bad), "--out", str(out)]
    if command == "finetune":
        argv += ["--data", trained["fault"], *_overrides("finetune", "train.finetune_steps=1")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint error: {bad}: {fragment}") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "finetune"])
@pytest.mark.parametrize("array,value", [("norm.lo", np.nan), ("backbone.in_proj.w", np.nan), ("norm.hi", np.inf)])
def test_a_checkpoint_array_holding_a_non_finite_value_exits_3_naming_it(trained, tmp_path, capsys, command,
                                                                          array, value):
    ckpt = load_checkpoint(trained["pre"])
    ckpt.arrays[array].flat[0] = value
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(ckpt, bad)
    out = tmp_path / command
    argv = [command, "--checkpoint", bad, "--out", str(out)]
    if command == "finetune":
        argv += ["--data", trained["fault"], *_overrides("finetune", "train.finetune_steps=1")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"checkpoint error: {bad}: array {array!r} holds a non-finite value\n"
    assert not out.exists()


def test_bogus_schedule_exits_3_from_a_checkpoint_and_2_from_an_override(trained, tmp_path, capsys):
    ckpt = _edited(trained["pre"], str(tmp_path / "bad.ckpt"),
                   lambda c: c["diffusion"].update(schedule="bogus"))
    assert main(["generate", "--checkpoint", ckpt, "--n", "2", "--out", str(tmp_path / "gen")]) == 3
    assert "names a 'bogus' noise schedule" in capsys.readouterr().err
    assert main(["pretrain", "--data", trained["normal"], "--out", str(tmp_path / "pre"),
                 *_overrides("pretrain", "train.pretrain_steps=1", "diffusion.schedule=bogus")]) == 2
    assert "unknown config key diffusion.schedule for pretrain" in capsys.readouterr().err


DIFFUSION_EDITS = {  # an edit of a checkpoint's diffusion section that `restore` must refuse, and its message
    "cosine": ({"schedule": "cosine"}, "names a 'cosine' noise schedule"),
    "timesteps-8": ({"timesteps": 8}, "schedule has 8 timesteps, but its model was built for 10"),
    "timesteps-12": ({"timesteps": 12}, "schedule has 12 timesteps, but its model was built for 10"),
}


@pytest.mark.parametrize("case", list(DIFFUSION_EDITS))
def test_a_checkpoint_whose_schedule_the_model_cannot_run_exits_3(trained, tmp_path, capsys, case):
    changes, message = DIFFUSION_EDITS[case]
    for which in ("pre", "fine"):
        ckpt = _edited(trained[which], str(tmp_path / f"{which}.ckpt"), lambda c: c["diffusion"].update(changes))
        commands = {"generate": ["--n", "2"]}
        if which == "pre":
            commands["finetune"] = ["--data", trained["fault"], *_overrides("finetune", "train.finetune_steps=1")]
        for command, args in commands.items():
            out = tmp_path / f"{which}-{command}"
            assert main([command, "--checkpoint", ckpt, "--out", str(out), *args]) == 3, (which, command)
            err = capsys.readouterr().err
            assert err.startswith("checkpoint error: ") and message in err and len(err.splitlines()) == 1
            assert not out.exists()


def test_a_checkpoint_whose_header_still_names_the_linear_schedule_generates_the_same_series(trained, tmp_path):
    older = _edited(trained["fine"], str(tmp_path / "older.ckpt"), lambda c: c["diffusion"].update(schedule="linear"))
    for name, ckpt in (("now", trained["fine"]), ("older", older)):
        assert main(["generate", "--checkpoint", ckpt, "--n", "2", "--out", str(tmp_path / name)]) == 0
    for sample in ("sample_00000.csv", "sample_00001.csv", "manifest.json"):
        assert (tmp_path / "now" / sample).read_bytes() == (tmp_path / "older" / sample).read_bytes()


@pytest.mark.parametrize("overrides, message", [
    (["diffusion.beta_start=1e-17"], "need 0 < beta_start <= beta_end < 1 and 1 - beta_start < 1 in float64"),
    (["diffusion.timesteps=3000", "diffusion.beta_start=0.5", "diffusion.beta_end=0.99"],
     "alpha_bar must be strictly decreasing and above 0"),
])
def test_a_schedule_override_make_schedule_refuses_exits_2_before_anything_is_written(trained, tmp_path, capsys,
                                                                                       overrides, message):
    out = tmp_path / "pre"
    assert main(["pretrain", "--data", trained["normal"], "--out", str(out),
                 *_overrides("pretrain", "train.pretrain_steps=1", *overrides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not out.exists()


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


def test_a_checkpoint_alpha_of_0_generates_what_the_backbone_does_and_logs_it(trained, tmp_path):
    alpha0 = _edited(trained["fine"], str(tmp_path / "alpha0.ckpt"), lambda c: c["adapter"].update(alpha=0.0))
    runs = {"pre": trained["pre"], "alpha0": alpha0, "trained": trained["fine"]}
    for name, ckpt in runs.items():
        assert main(["generate", "--checkpoint", ckpt, "--n", "2", "--out", str(tmp_path / name)]) == 0
    samples = {name: [(tmp_path / name / f"sample_0000{i}.csv").read_bytes() for i in (0, 1)] for name in runs}
    assert samples["alpha0"] == samples["pre"] != samples["trained"]
    assert json.loads((tmp_path / "alpha0" / "generation_log.json").read_text())["alpha"] == 0.0


@pytest.mark.parametrize("override", ["diffusion.schedule=bogus", "diffusion.schedule=cosine",
                                      "diffusion.timesteps=20", "diffusion.beta_end=0.1"])
def test_finetune_rejects_a_diffusion_override_the_checkpoint_does_not_use(trained, tmp_path, capsys,
                                                                          override):
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"],
                 "--out", str(out), *_overrides("finetune", "train.finetune_steps=1", override)]) == 2
    assert "unknown config section [diffusion] for finetune" in capsys.readouterr().err
    assert not out.exists()


def test_a_full_finetune_run_leaves_every_backbone_array_byte_identical(trained, tmp_path):
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"],
                 "--out", str(out), *_overrides("finetune", "train.finetune_steps=4")]) == 0
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


@pytest.mark.parametrize("base", ["sine_mixture", "ar_process"])
@pytest.mark.parametrize("std", ["-1", "nan", "inf"])
def test_make_data_rejects_a_negative_or_non_finite_noise_std_with_exit_2(tmp_path, capsys, base, std):
    out = tmp_path / "normal"
    assert main(["make-data", "--kind", "normal", "--base", base, "--n", "2", "--tau", "8",
                 "--out", str(out), "--noise-std", std]) == 2
    assert "noise_std must be a finite standard deviation >= 0" in capsys.readouterr().err
    assert not out.exists()


def _every_stage(capsys, root):
    """make-data, pretrain, finetune, generate, evaluate, embed and downstream into `root`, with tiny step counts."""
    normal, fault, gen = f"{root}/normal", f"{root}/fault", f"{root}/gen"
    _run(capsys, "make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--out", normal)
    _run(capsys, "make-data", "--kind", "fault", "--fault", "sudden", "--n", "4", "--tau", "8", "--out", fault)
    pre = _run(capsys, "pretrain", "--data", normal, "--out", f"{root}/pre",
               *_overrides("pretrain", "train.pretrain_steps=2"))
    fine = _run(capsys, "finetune", "--data", fault, "--checkpoint", pre["checkpoint"], "--out", f"{root}/fine",
                *_overrides("finetune", "train.finetune_steps=2"))
    _run(capsys, "generate", "--checkpoint", fine["checkpoint"], "--n", "4", "--out", gen)
    _run(capsys, "evaluate", "--real", fault, "--synth", gen, "--seeds", "0,1", "--out", f"{root}/eval")
    _run(capsys, "embed", "--corpus", normal, "--corpus", gen, "--perplexity", "2", "--iters", "20",
         "--out", f"{root}/embed")
    _run(capsys, "downstream", "--train", normal, "--train", fault, "--synth", gen, "--test", normal,
         "--test", fault, "--out", f"{root}/downstream")


def _assert_byte_identical(roots):
    files = [sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()) for root in roots]
    assert files[0] == files[1]
    for name in files[0]:
        assert (roots[0] / name).read_bytes() == (roots[1] / name).read_bytes(), name
    return files[0]


def test_equal_hash_runs_of_every_stage_write_byte_identical_trees(tmp_path, capsys):
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        _every_stage(capsys, root)
    files = _assert_byte_identical(roots)
    for name in ("fine/checkpoints/final.ckpt", "gen/generation_log.json", "eval/report.json",
                 "embed/embedding.csv", "downstream/downstream.json"):
        assert name in files
    for stage in ("pre", "fine"):  # nothing else is written into a training output
        assert sorted(p.name for p in (roots[0] / stage).iterdir()) == ["checkpoints", "config.lock", "logs"]


HEAP_PROBE = """
import resource, sys
import numpy as np
from faultgen.cli import main
assert main(["make-data", "--kind", "normal", "--n", "4", "--out", sys.argv[1]]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    np.ones(120 << 10)  # 960 KiB, written through, then freed
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the libc has no mallopt")
def test_a_fresh_cli_process_reuses_the_heap_a_freed_960_kib_array_leaves(tmp_path):
    """Arrays up to 1 MiB come from the heap. Setting glibc's trim threshold alone pins its mmap threshold where
    the process has left it (128 KiB, or what importing numpy freed), and each such array is then mapped and
    faulted in afresh, 240 pages each. A fresh process keeps the test's own allocations from raising it first."""
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE, str(tmp_path / "normal")], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert int(out.stdout.split()[-1]) < 1000, out.stdout


def test_a_libc_without_mallopt_runs_every_stage_to_the_same_bytes(tmp_path, capsys, monkeypatch):
    _every_stage(capsys, tmp_path / "a")
    opened = []

    def no_mallopt(name):  # a libc such as musl's or macOS's, which exports no mallopt
        opened.append(name)
        return object()

    monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
    _every_stage(capsys, tmp_path / "b")
    assert opened == [None] * 8  # one per command
    _assert_byte_identical([tmp_path / "a", tmp_path / "b"])


@pytest.fixture(scope="module")
def corpus_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    for seed, name in enumerate(("real", "synth")):
        assert main(["make-data", "--kind", "normal", "--n", "6", "--tau", "8", "--seed", str(seed),
                     "--out", str(root / name)]) == 0
    return str(root / "real"), str(root / "synth")


@pytest.mark.parametrize("seeds,message", [("", "integers"), ("0,x", "integers"), ("1.5", "integers"),
                                           ("0,0", "twice"), ("3,1,3", "twice")])
def test_evaluate_exits_2_on_a_bad_seed_list(corpus_pair, tmp_path, capsys, seeds, message):
    real, synth = corpus_pair
    out = tmp_path / "report"
    assert main(["evaluate", "--real", real, "--synth", synth, "--seeds", seeds, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_of_diversity_on_corpora_of_tau_2_exits_2_in_one_line(tmp_path, capsys):
    corpus = str(tmp_path / "tau2")  # make-data writes tau >= 8, but load_corpus reads any tau >= 2
    save_corpus(Dataset(np.random.default_rng(0).standard_normal((4, 2, 2)), label="normal", id="tau2"), corpus)
    out = tmp_path / "report"
    assert main(["evaluate", "--real", corpus, "--synth", corpus, "--metrics", "diversity", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: diversity score needs tau >= 3\n"
    assert not out.exists()


@pytest.mark.parametrize("names", ["context_fid,bogus", "all,bogus"])
def test_evaluate_names_an_unknown_metric_before_it_reads_a_corpus(corpus_pair, tmp_path, capsys, names):
    out = tmp_path / "report"
    argv = ["evaluate", "--real", str(tmp_path / "missing"), "--synth", corpus_pair[1],
            "--metrics", names, "--out", str(out)]
    assert main(argv) == 2
    assert "unknown metric 'bogus'" in capsys.readouterr().err
    assert not out.exists()


LOSS_RULE = "error: loss needs a finite weight >= 0, a finite margin > 0 and pair_count >= 1, got LossConfig"
TRAIN_RULE = ("error: train needs steps, warmup_steps and seed >= 0, batch_size >= 1 and a finite learning_rate > 0, "
              "got TrainConfig")
MODEL_RULE = "error: need model_dim, heads, ff_dim, fourier_terms >= 1 and trend_degree >= 0, got DenoiserConfig"
ADAPTER_RULE = "error: need model_dim and heads >= 1, got AdapterConfig"
TAU_RULE = "error: need trend_degree < tau and fourier_terms <= tau // 2 for tau=8, got"
WIDTH_RULE = "error: model_dim and ff_dim must be at most 1024, got"
BATCH_RULE = "error: batch_size must be at most 1024, got"
LAYERS_RULE = "error: enc_layers and dec_layers must be from 1 to 32, got"
CORPUS_RULE = "error: generate_normal needs 8 <= tau <= 1024, 1 <= dim <= 256 and 1 <= n_samples <= 10000, got"
BAD_INPUTS = {  # argv, exit code, a fragment of the one stderr line; a {name} in argv or fragment is a path from `trained`
    "make-data-negative-seed": (["make-data", "--kind", "normal", "--n", "2", "--tau", "8", "--seed", "-1"],
                                2, "--seed must be >= 0"),
    "pretrain-negative-seed": (["pretrain", "--data", "{normal}", "--seed", "-1", *_overrides("pretrain")],
                               2, "--seed must be >= 0"),
    "finetune-negative-seed": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}", "--seed", "-1",
                                *_overrides("finetune", "train.finetune_steps=1")], 2, "--seed must be >= 0"),
    "generate-negative-seed": (["generate", "--checkpoint", "{fine}", "--n", "2", "--seed", "-1"],
                               2, "--seed must be >= 0"),
    "embed-negative-seed": (["embed", "--corpus", "{normal}", "--corpus", "{fault}", "--method", "pca",
                             "--seed", "-1"], 2, "--seed must be >= 0"),
    "downstream-negative-seed": (["downstream", "--train", "{normal}", "--train", "{fault}", "--test", "{normal}",
                                  "--test", "{fault}", "--seed", "-1"], 2, "--seed must be >= 0"),
    "evaluate-negative-seed": (["evaluate", "--real", "{fault}", "--synth", "{normal}", "--seeds=-1,2"],
                               2, "seeds must be >= 0"),
    "channels-not-integers": (["make-data", "--kind", "fault", "--fault", "sudden", "--n", "2", "--tau", "8",
                               "--channels", "a"], 2, "--channels must be comma-separated integers"),
    "burst-len-0": (["make-data", "--kind", "fault", "--fault", "intermittent", "--n", "2", "--tau", "8",
                     "--burst-len", "0"], 2, "burst_len must be >= 1"),
    "negative-clip-level": (["make-data", "--kind", "fault", "--fault", "saturation", "--n", "2", "--tau", "8",
                             "--clip-level", "-1"], 2, "clip_level must be >= 0"),
    "period-0": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "2", "--tau", "8",
                  "--period", "0"], 2, "period must be > 2 steps"),
    "negative-period": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "2", "--tau", "8",
                         "--period", "-2"], 2, "period must be > 2 steps"),
    "period-1": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "2", "--tau", "8",
                  "--period", "1"], 2, "period must be > 2 steps"),
    "period-0.5": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "2", "--tau", "8",
                    "--period", "0.5"], 2, "period must be > 2 steps"),
    "period-2": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "2", "--tau", "8",
                  "--period", "2"], 2, "period must be > 2 steps"),
    "periodic-duration-1": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "4", "--tau", "8",
                             "--duration", "1"], 2, "periodic duration must be >= 2 steps"),
    "low-frequency-duration-1": (["make-data", "--kind", "fault", "--fault", "low_frequency_anomaly", "--n", "4",
                                  "--tau", "8", "--duration", "1"], 2, "low_frequency_anomaly duration must be >= 2"),
    "make-data-n-not-an-integer": (["make-data", "--kind", "normal", "--n", "abc"],
                                   2, "argument --n: invalid int value: 'abc'"),
    "evaluate-unknown-flag": (["evaluate", "--real", "{fault}", "--synth", "{normal}", "--bogus", "1"],
                              2, "unrecognized arguments: --bogus 1"),
    "generate-override": (["generate", "--checkpoint", "{fine}", "--n", "2", "--override", "adapter.alpha=2"],
                          2, "unrecognized arguments: --override adapter.alpha=2"),
    "make-data-config": (["make-data", "--kind", "normal", "--n", "2", "--tau", "8", "--config", "x"],
                         2, "unrecognized arguments: --config x"),
    "generate-preset": (["generate", "--checkpoint", "{fine}", "--n", "2", "--preset", "paper"],
                        2, "unrecognized arguments: --preset paper"),
    "evaluate-override": (["evaluate", "--real", "{fault}", "--synth", "{normal}", "--override", "a.b=c"],
                          2, "unrecognized arguments: --override a.b=c"),
    "evaluate-seed": (["evaluate", "--real", "{fault}", "--synth", "{normal}", "--seed", "1"],
                      2, "unrecognized arguments: --seed 1"),
    "embed-preset": (["embed", "--corpus", "{normal}", "--method", "pca", "--preset", "paper"],
                     2, "unrecognized arguments: --preset paper"),
    "pretrain-model-tau": (["pretrain", "--data", "{normal}", *_overrides("pretrain", "model.tau=12")],
                           2, "unknown config key model.tau"),
    "pretrain-seed-override-without-seed": (["pretrain", "--data", "{normal}", *_overrides("pretrain", "train.seed=3")],
                                            2, "unknown config key train.seed for pretrain"),
    "finetune-enc-layers": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                             *_overrides("finetune", "train.finetune_steps=1", "model.enc_layers=7")],
                            2, "unknown config section [model] for finetune"),
    "finetune-corpus-tau-not-the-checkpoints": (["finetune", "--data", "{fault12}", "--checkpoint", "{pre}",
                                                 *_overrides("finetune", "train.finetune_steps=1")],
                                                2, "fault corpus {fault12} holds (tau, dim) = (12, 2), "
                                                   "but checkpoint {pre} models (8, 2)"),
    "finetune-empty-checkpoint": (["finetune", "--data", "{fault}", "--checkpoint", "", *_overrides("finetune")],
                                  3, "cannot read checkpoint"),
    "generate-empty-checkpoint": (["generate", "--checkpoint", "", "--n", "2"], 3, "cannot read checkpoint"),
    "negative-saturation-magnitude": (["make-data", "--kind", "fault", "--fault", "saturation", "--n", "2",
                                       "--tau", "8", "--magnitude", "-1"], 2, "magnitude must be >= 0"),
    "sample-header-not-the-manifests": (["evaluate", "--real", "{renamed}", "--synth", "{normal}"],
                                        2, "sample_00003.csv: header 'x,y' differs"),
    "pretrain-heads-not-dividing-model-dim": (["pretrain", "--data", "{normal}",
                                               *_overrides("pretrain", "model.heads=3")],
                                              2, "model_dim must be divisible by heads"),
    "pretrain-bogus-schedule": (["pretrain", "--data", "{normal}", *_overrides("pretrain", "diffusion.schedule=bogus")],
                                2, "unknown config key diffusion.schedule for pretrain"),
    "pretrain-bogus-normalizer": (["pretrain", "--data", "{normal}", *_overrides("pretrain", "data.normalizer=bogus")],
                                  2, "unknown normalizer mode 'bogus'"),
    "finetune-one-series": (["finetune", "--data", "{fault1}", "--checkpoint", "{pre}",
                             *_overrides("finetune", "train.finetune_steps=1")],
                            2, "fine-tuning needs at least 2 fault series, but {fault1} holds 1"),
    "finetune-a-finetuned-checkpoint": (["finetune", "--data", "{fault}", "--checkpoint", "{fine}",
                                         *_overrides("finetune", "train.finetune_steps=1")],
                                        3, "finetune expects a backbone-only (pretrain) checkpoint"),
    "finetune-even-adapter-window": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                                      *_overrides("finetune", "train.finetune_steps=1", "adapter.window=4")],
                                     2, "window must be an odd positive integer"),
    "make-data-compound": (["make-data", "--kind", "fault", "--fault", "compound", "--n", "2", "--tau", "8"],
                           2, "argument --fault: invalid choice: 'compound'"),
    "make-data-normal-with-fault-flags": (["make-data", "--kind", "normal", "--fault", "sudden", "--magnitude", "3",
                                           "--onset", "2", "--n", "2", "--tau", "8"],
                                          2, "--fault, --magnitude, --onset apply only to --kind fault"),
    "sudden-with-period-and-count": (["make-data", "--kind", "fault", "--fault", "sudden", "--period", "5",
                                      "--count", "3", "--n", "2", "--tau", "8"],
                                     2, "a sudden fault does not read count, period"),
    "periodic-with-clip-level": (["make-data", "--kind", "fault", "--fault", "periodic", "--clip-level", "1",
                                  "--n", "2", "--tau", "8"], 2, "a periodic fault does not read clip_level"),
    "embed-pca-with-tsne-flags": (["embed", "--corpus", "{normal}", "--corpus", "{fault}", "--method", "pca",
                                   "--perplexity", "0.001", "--iters", "-5"],
                                  2, "--perplexity, --iters apply only to --method tsne"),
    "embed-tsne-negative-iters": (["embed", "--corpus", "{normal}", "--corpus", "{fault}", "--method", "tsne",
                                   "--iters", "-5"], 2, "t-SNE iters must be >= 1, got -5"),
    "embed-tsne-zero-iters": (["embed", "--corpus", "{normal}", "--corpus", "{fault}", "--method", "tsne",
                               "--iters", "0"], 2, "t-SNE iters must be >= 1, got 0"),
    "impulse-count-above-duration": (["make-data", "--kind", "fault", "--fault", "impulse", "--count", "50",
                                      "--duration", "4", "--n", "2", "--tau", "24"],
                                     2, "impulse count must be >= 1 and at most the duration 4, got 50"),
    "burst-len-as-long-as-the-window": (["make-data", "--kind", "fault", "--fault", "intermittent", "--burst-len",
                                         "100", "--duration", "6", "--n", "2", "--tau", "24"],
                                        2, "burst_len must be >= 1 and shorter than the duration 6, got 100"),
    "make-data-duration-beyond-tau": (["make-data", "--kind", "fault", "--fault", "offset", "--onset", "20",
                                       "--duration", "100", "--tau", "24", "--n", "2"],
                                      2, "fault window onset 20 + duration 100 = 120 exceeds tau=24"),
    "make-data-recovery-at-tau": (["make-data", "--kind", "fault", "--fault", "sudden_recovery", "--onset", "20",
                                   "--duration", "4", "--tau", "24", "--n", "2"],
                                  2, "recovery point, onset 20 + duration 4 = 24, below tau=24"),
    "make-data-repeated-channel": (["make-data", "--kind", "fault", "--fault", "offset", "--channels", "0,0",
                                    "--tau", "24", "--n", "2"], 2, "channels [0, 0] name a channel more than once"),
    "embed-tsne-nan-perplexity": (["embed", "--corpus", "{normal}", "--corpus", "{fault}", "--method", "tsne",
                                   "--perplexity", "nan", "--iters", "5"],
                                  2, "perplexity infeasible for n=10, got nan"),
    "make-data-empty-channels": (["make-data", "--kind", "fault", "--fault", "offset", "--channels", "",
                                  "--n", "2", "--tau", "8"], 2, "argument --channels: must not be empty"),
    "pretrain-config": (["pretrain", "--data", "{normal}", "--config", "x", *_overrides("pretrain")],
                        2, "unrecognized arguments: --config x"),
    "finetune-config": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}", "--config", "x",
                         *_overrides("finetune", "train.finetune_steps=1")], 2, "unrecognized arguments: --config x"),
    "finetune-batch-of-1-with-the-diversity-loss": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                                                     *_overrides("finetune", "train.finetune_steps=1",
                                                                 "train.batch_size=1")],
                                                    2, "diversity loss needs a batch of >= 2 predictions"),
    "generate-empty-label": (["generate", "--checkpoint", "{fine}", "--n", "2", "--label", ""],
                             2, "argument --label: must not be empty"),
    "generate-label-no-csv-cell-holds": (["generate", "--checkpoint", "{fine}", "--n", "2", "--label", "a,b"],
                                         2, "argument --label: must hold no ',', '\\n' or '\\r'"),
    "pretrain-corpus-label-5": (["pretrain", "--data", "{label5}",
                                 *_overrides("pretrain", "train.pretrain_steps=1")], 2,
                                "{label5}/manifest.json: corpus label 5 must be a string with no ','"),
    "embed-corpus-label-pump,7": (["embed", "--corpus", "{pump7}", "--corpus", "{fault}", "--method", "pca"],
                                  2, "{pump7}/manifest.json: corpus label 'pump,7' must be a string with no ','"),
    "evaluate-discriminative-one-real-series": (["evaluate", "--real", "{fault1}", "--synth", "{normal}",
                                                 "--metrics", "discriminative"],
                                                2, "discriminative score needs >= 2 samples per corpus"),
    "evaluate-metric-twice": (["evaluate", "--real", "{fault}", "--synth", "{normal}",
                               "--metrics", "discriminative,discriminative"], 2,
                              "metrics must be distinct, none named twice, got ['discriminative', 'discriminative']"),
    # every command runs under one numeric boundary: an overflow ends in exit 4, not a warning and a written result
    "make-data-period-inf": (["make-data", "--kind", "fault", "--fault", "periodic", "--n", "2", "--tau", "8",
                              "--period", "inf"], 2, "periodic period must be finite, got inf"),
    "make-data-low-frequency-period-inf": (["make-data", "--kind", "fault", "--fault", "low_frequency_anomaly",
                                            "--n", "2", "--tau", "8", "--period", "inf"],
                                           2, "low_frequency_anomaly period must be finite, got inf"),
    "make-data-clip-level-inf": (["make-data", "--kind", "fault", "--fault", "saturation", "--n", "2", "--tau", "8",
                                  "--clip-level", "inf"], 2, "saturation clip_level must be finite, got inf"),
    "make-data-count-beyond-int64": (["make-data", "--kind", "fault", "--fault", "impulse", "--n", "2", "--tau", "8",
                                      "--duration", "4", "--count", str(10**30)],
                                     2, f"impulse count must be >= 1 and at most the duration 4, got {10**30}"),
    "make-data-count-2.5": (["make-data", "--kind", "fault", "--fault", "impulse", "--n", "2", "--tau", "8",
                             "--count", "2.5"], 2, "argument --count: invalid int value: '2.5'"),
    "make-data-fault-without-a-kind": (["make-data", "--kind", "fault", "--n", "2", "--tau", "8"],
                                       2, "--fault is required when --kind fault"),
    "finetune-adapter-window-beyond-2-tau": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                                              *_overrides("finetune", "train.finetune_steps=1", "adapter.window=17")],
                                             2, "adapter window exceeds 2*tau - 1"),
    "finetune-adapter-heads-not-dividing-model-dim": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                                                       *_overrides("finetune", "train.finetune_steps=1",
                                                                   "adapter.heads=3")],
                                                      2, "model_dim must be divisible by heads"),
    # a corpus whose manifest or sample file `load_corpus` refuses, naming the file
    "corpus-manifest-without-dim": (["evaluate", "--real", "{no_dim}", "--synth", "{normal}"],
                                    2, "manifest {no_dim}/manifest.json missing field 'dim'"),
    "corpus-tau-1": (["evaluate", "--real", "{tau1}", "--synth", "{normal}"],
                     2, "manifest {tau1}/manifest.json: needs tau >= 2, dim >= 1 and n >= 1, got 1, 2, 6"),
    "corpus-tau-1e30": (["evaluate", "--real", "{tau_huge}", "--synth", "{normal}"],
                        2, f"{{tau_huge}}/sample_00000.csv: 8 timesteps, manifest says {10**30}"),
    "corpus-channel-names-not-strings": (["evaluate", "--real", "{numbered}", "--synth", "{normal}"],
                                         2, "{numbered}/manifest.json: channel_names must be a list of 2 strings"),
    "corpus-rows-a-value-too-wide": (["evaluate", "--real", "{wide}", "--synth", "{normal}"],
                                     2, "{wide}/sample_00002.csv: rows have 3 values, expected 2"),
    "corpus-fault-onset-2.5": (["evaluate", "--real", "{onset2_5}", "--synth", "{normal}"],
                               2, "{onset2_5}/manifest.json: malformed fault_spec: "
                                  "ContractError('fault onset must be an integer, got 2.5')"),
    "corpus-fault-duration-true": (["finetune", "--data", "{duration_true}", "--checkpoint", "{pre}",
                                    *_overrides("finetune", "train.finetune_steps=1")],
                                   2, "{duration_true}/manifest.json: malformed fault_spec: "
                                      "ContractError('fault duration must be an integer, got True')"),
    # a size beyond its bound (`DenoiserConfig`, `TrainConfig`) exits 2 before anything is allocated or written
    **{f"{phase}-{name}": ([phase, "--data", "{normal}" if phase == "pretrain" else "{fault}",
                            *(["--checkpoint", "{pre}"] if phase == "finetune" else []),
                            *_overrides(phase, f"{key}={value}")], 2, message)
       for phase, name, key, value, message in [
           ("pretrain", "fourier-terms-1e30", "model.fourier_terms", 10**30, f"{TAU_RULE} 3 and {10**30}"),
           ("pretrain", "fourier-terms-5", "model.fourier_terms", 5, f"{TAU_RULE} 3 and 5"),
           ("pretrain", "trend-degree-8", "model.trend_degree", 8, f"{TAU_RULE} 8 and 1"),
           ("pretrain", "model-dim-1e12", "model.model_dim", 10**12, f"{WIDTH_RULE} {10**12} and 16"),
           ("pretrain", "ff-dim-1025", "model.ff_dim", 1025, f"{WIDTH_RULE} 8 and 1025"),
           ("pretrain", "batch-size-1e30", "train.batch_size", 10**30, f"{BATCH_RULE} {10**30}"),
           ("finetune", "batch-size-1025", "train.batch_size", 1025, f"{BATCH_RULE} 1025"),
           ("pretrain", "enc-layers-1e30", "model.enc_layers", 10**30, f"{LAYERS_RULE} {10**30} and 1"),
           ("pretrain", "dec-layers-33", "model.dec_layers", 33, f"{LAYERS_RULE} 1 and 33"),
           ("pretrain", "timesteps-1e30", "diffusion.timesteps", 10**30,
            f"error: schedule needs 2 <= T <= 10000, got {10**30}"),
       ]},
    # a batch within MAX_BATCH whose attention scores, 257 x 2 heads x 256^2, exceed `denoiser.MAX_SCORES`
    "pretrain-batch-257-at-tau-256": (["pretrain", "--data", "{long}",
                                       *_overrides("pretrain", "train.batch_size=257")],
                                      2, "error: batch_size must be at most 256 for series of tau 256, so that an "
                                         "attention call holds at most 33554432 scores, got 257"),
    # a series count, length or width beyond its bound (`data.MAX_SERIES`, `MAX_TAU`, `MAX_DIM`) exits 2 before
    # anything is allocated, and `generate` checks --n before it reads the checkpoint
    "generate-n-1e8": (["generate", "--checkpoint", "{fine}", "--n", "100000000"],
                       2, "error: --n must be from 1 to 10000, got 100000000"),
    "generate-n-1e8-of-a-missing-checkpoint": (["generate", "--checkpoint", "", "--n", "100000000"],
                                               2, "error: --n must be from 1 to 10000, got 100000000"),
    **{f"make-data-{name}": (["make-data", "--kind", "normal", f"--{flag}", str(value)], 2, f"{CORPUS_RULE} {got}")
       for name, flag, value, got in [("n-1e30", "n", 10**30, f"24, 2 and {10**30}"),
                                      ("n-1e12", "n", 10**12, f"24, 2 and {10**12}"),
                                      ("n-10001", "n", 10001, "24, 2 and 10001"),
                                      ("tau-1e30", "tau", 10**30, f"{10**30}, 2 and 64"),
                                      ("dim-1e30", "dim", 10**30, f"24, {10**30} and 64"),
                                      ("dim-1e12", "dim", 10**12, f"24, {10**12} and 64")]},
    # sizes each within its bound, but a corpus of more values than `data.MAX_VALUES` (9.8 GiB of float32)
    "make-data-n-10000-tau-1024-dim-256": (["make-data", "--kind", "normal", "--n", "10000", "--tau", "1024",
                                            "--dim", "256"], 2, "error: 10000 series of 1024 steps and 256 channels "
                                                                "hold 2621440000 values, above the bound of 67108864"),
    # every downstream corpus must have the first training corpus's (tau, d); fault12 and fault share an id
    "downstream-test-of-another-tau": (["downstream", "--train", "{normal}", "--train", "{fault}",
                                        "--test", "{normal}", "--test", "{fault12}"],
                                       2, "test corpus 2 (fault-sudden-0) holds (tau, d) = (12, 2), "
                                          "but training corpus 1 holds (8, 2)"),
    "downstream-synth-of-another-tau": (["downstream", "--train", "{normal}", "--train", "{fault}",
                                         "--synth", "{fault12}", "--test", "{normal}", "--test", "{fault}"],
                                        2, "synthetic corpus 1 (fault-sudden-0) holds (tau, d) = (12, 2)"),
    "downstream-train-of-another-tau": (["downstream", "--train", "{normal}", "--train", "{fault12}",
                                         "--test", "{normal}", "--test", "{fault}"],
                                        2, "training corpus 2 (fault-sudden-0) holds (tau, d) = (12, 2)"),
    "downstream-offset-1e30": (["downstream", "--train", "{normal}", "--train", "{offset30}",
                                "--test", "{normal}", "--test", "{offset30}"],
                               4, "numeric error: overflow encountered"),
    # each phase accepts only the keys it reads, the seed and a finetune's model and schedule come from its inputs,
    # and a model or adapter no network can be built with is rejected before anything is written
    **{f"{phase}-{key}-{value}": ([phase, "--data", "{normal}" if phase == "pretrain" else "{fault}",
                                   *(["--checkpoint", "{pre}"] if phase == "finetune" else []),
                                   *_overrides(phase, f"{key}={value}")], 2, message)
       for phase, key, value, message in [
           ("pretrain", "loss.pair_count", "0", "unknown config section [loss] for pretrain"),
           ("pretrain", "adapter.window", "4", "unknown config section [adapter] for pretrain"),
           ("pretrain", "train.finetune_lr", "nan", "unknown config key train.finetune_lr for pretrain"),
           ("finetune", "data.normalizer", "zscore", "unknown config section [data] for finetune"),
           ("finetune", "train.pretrain_steps", "5", "unknown config key train.pretrain_steps for finetune"),
           ("finetune", "model.heads", "2", "unknown config section [model] for finetune"),
           ("finetune", "train.seed", "3", "unknown config key train.seed for finetune"),
           *[("pretrain", key, value, MODEL_RULE) for key, value in [
               ("model.heads", "0"), ("model.model_dim", "0"), ("model.model_dim", "-4"), ("model.ff_dim", "0"),
               ("model.fourier_terms", "0"), ("model.trend_degree", "-1")]],
           ("finetune", "adapter.heads", "0", ADAPTER_RULE),
           ("finetune", "adapter.heads", "-2", ADAPTER_RULE),
       ]},
    **{f"finetune-{key}-{value}": (["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                                    *_overrides("finetune", "train.finetune_steps=1", f"{key}={value}")], 2, message)
       for key, value, message in [
           ("loss.pair_count", "0", f"{LOSS_RULE}(weight=0.1, margin=1.0, pair_count=0)"),
           ("loss.pair_count", "-1", f"{LOSS_RULE}(weight=0.1, margin=1.0, pair_count=-1)"),
           ("loss.weight", "nan", f"{LOSS_RULE}(weight=nan, margin=1.0, pair_count=8)"),
           ("loss.margin", "nan", f"{LOSS_RULE}(weight=0.1, margin=nan, pair_count=8)"),
           ("loss.margin", "inf", f"{LOSS_RULE}(weight=0.1, margin=inf, pair_count=8)"),
           ("train.warmup_steps", "-5", f"{TRAIN_RULE}(steps=1, batch_size=2, learning_rate=0.0001, "
                                        "warmup_steps=-5, seed=0)"),
           ("train.finetune_lr", "nan", f"{TRAIN_RULE}(steps=1, batch_size=2, learning_rate=nan, "
                                        "warmup_steps=1, seed=0)"),
           ("train.finetune_lr", "inf", f"{TRAIN_RULE}(steps=1, batch_size=2, learning_rate=inf, "
                                        "warmup_steps=1, seed=0)"),
       ]},
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_a_bad_input_exits_with_one_error_line_and_writes_nothing(trained, tmp_path, capsys, case):
    argv, code, fragment = BAD_INPUTS[case]
    out = tmp_path / "out"
    assert main([arg.format(**trained) for arg in argv] + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert fragment.format(**trained) in err
    assert not out.exists()


MUTATION_POOL = [None, True, False, 0, -1, 2.5, 10**30, 1e308, "x", "", [], {}, [[1, 2], [3]]]
DELETED = object()  # a mutation that deletes the key or list entry


def _leaf_paths(tree, path=()):
    """The path of each leaf of a JSON tree; an empty list or object is a leaf too."""
    items = list(tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ())
    if not items:
        yield path
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


def _mutated(tree, path, value):
    node = tree
    for key in path[:-1]:
        node = node[key]
    if value is DELETED:
        del node[path[-1]]
    else:
        node[path[-1]] = value


def test_a_one_field_mutation_of_any_input_exits_0_2_3_or_4_and_in_one_line_when_not_0(trained, tmp_path, capsys):
    """Seeded one-field mutations of every file and setting the CLI reads: each field of both checkpoints'
    headers through `generate` or `finetune`, drawn (one array entry, drawn, stands for all of them), each
    manifest and `fault_spec` field through `evaluate`, each `--override` key through `pretrain` and
    `finetune`, and `make-data`'s and `generate`'s size flags. A header field takes four of the pool's values
    and deletion, drawn; a manifest field takes each of them, and an override key or a flag each pool value.
    Exit 0 is not judged. A `<phase>_steps` of 10**30 is left out: it asks for a run that long, which is no
    bad input."""
    rng = random.Random(23)
    pool = MUTATION_POOL + [DELETED]
    cases = []  # (name, argv builder taking the case's directory)
    for which in ("pre", "fine"):
        with open(trained[which], "rb") as fh:
            raw = fh.read()
        (hlen,) = struct.unpack("<I", raw[6:10])
        fields = {}
        for path in _leaf_paths(json.loads(raw[10:10 + hlen])):
            fields.setdefault(path[:1] + path[2:] if path[0] == "arrays" else path, []).append(path)
        for paths in fields.values():
            path = rng.choice(paths)
            for value in rng.sample(pool, 4):
                def argv(d, path=path, value=value, command=rng.choice(["generate", "finetune"]), raw=raw):
                    ckpt = d / "bad.ckpt"
                    ckpt.write_bytes(_header_edited(raw, lambda h: _mutated(h, path, value)))
                    extra = (["--data", trained["fault"], *_overrides("finetune", "train.finetune_steps=1")]
                             if command == "finetune" else ["--n", "2"])
                    return [command, "--checkpoint", str(ckpt), *extra]
                cases.append((f"{which} header {path} = {value!r}", argv))
    with open(os.path.join(trained["fault"], "manifest.json")) as fh:
        manifest = json.load(fh)
    for path in _leaf_paths(manifest):
        for value in pool:
            def argv(d, path=path, value=value):
                shutil.copytree(trained["fault"], d / "corpus")
                edited = json.loads(json.dumps(manifest))
                _mutated(edited, path, value)
                (d / "corpus" / "manifest.json").write_text(json.dumps(edited))
                return ["evaluate", "--real", str(d / "corpus"), "--synth", trained["normal"]]
            cases.append((f"manifest {path} = {value!r}", argv))
    base = {"pretrain": ["pretrain", "--data", trained["normal"], *_overrides("pretrain", "train.pretrain_steps=1")],
            "finetune": ["finetune", "--data", trained["fault"], "--checkpoint", trained["pre"],
                         *_overrides("finetune", "train.finetune_steps=1")]}
    for phase in base:
        for section, keys in config.resolve_config("desk", phase).sections.items():
            for key in keys:
                for value in MUTATION_POOL:
                    if key == f"{phase}_steps" and value == 10**30:
                        continue
                    cases.append((f"{phase} --override {section}.{key}={value}",
                                  lambda d, a=base[phase] + ["--override", f"{section}.{key}={value}"]: a))
    for argv0, flags in ((["make-data", "--kind", "normal", "--n", "4", "--tau", "8"], ("--n", "--tau", "--dim")),
                         (["generate", "--checkpoint", trained["fine"], "--n", "2"], ("--n",))):
        for flag in flags:
            for value in MUTATION_POOL:
                cases.append((f"{argv0[0]} {flag} {value}", lambda d, a=argv0 + [flag, str(value)]: a))

    failures = []
    for i, (name, argv) in enumerate(cases):
        d = tmp_path / str(i)
        d.mkdir()
        try:
            code = main(argv(d) + ["--out", str(d / "out")])
        except Exception as e:  # the oracle: nothing raised out of main, whatever the input
            code = f"raised {e!r}"
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or (code != 0 and len(err.splitlines()) != 1):
            failures.append(f"{name}: exit {code}, stderr {err!r}")
    assert not failures, "\n".join(failures)


def test_a_diverged_training_run_leaves_only_its_partial_marker(trained, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(training, "forward_sample", lambda x0, t, eps, sched: np.full_like(x0, np.nan))
    out = tmp_path / "pre"
    assert main(["pretrain", "--data", trained["normal"], "--out", str(out),
                 *_overrides("pretrain", "train.pretrain_steps=2")]) == 4
    assert capsys.readouterr().err.startswith("divergence: training diverged at step 0")
    assert [p.name for p in out.iterdir()] == [".partial"]


@pytest.mark.parametrize("n", [2, 4])  # on two CPUs, one shard, or two with one in a forked worker
def test_an_overflowing_generate_exits_4_in_one_line_and_leaves_only_its_partial_marker(trained, tmp_path, capsys,
                                                                                        monkeypatch, n):
    # the adapter's output, scaled by a header alpha of 1e30, overflows the decoder's layer_norm
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ckpt = _edited(trained["fine"], str(tmp_path / "alpha1e30.ckpt"), lambda c: c["adapter"].update(alpha=1e30))
    out = tmp_path / "gen"
    assert main(["generate", "--checkpoint", ckpt, "--n", str(n), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numeric error: overflow encountered")
    assert [p.name for p in out.iterdir()] == [".partial"]


def test_a_generate_beyond_the_value_bound_exits_2_in_one_line_before_it_writes(trained, tmp_path, capsys,
                                                                                monkeypatch):
    monkeypatch.setattr(data, "MAX_VALUES", 2 * 8 * 2 - 1)  # the models' series are 8 steps of 2 channels
    out = tmp_path / "gen"
    assert main(["generate", "--checkpoint", trained["fine"], "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: 2 series of 8 steps and 2 channels hold 32 values, above the bound of 31\n"
    assert not out.exists()


@pytest.mark.parametrize("phase, lr", [("pretrain", "1e30"), ("pretrain", "1e10"), ("pretrain", "1e5"),
                                       ("finetune", "1e30")])
def test_a_training_step_whose_arithmetic_overflows_diverges_in_one_line(trained, tmp_path, capsys, phase, lr):
    out = tmp_path / phase
    inputs = ["--data", trained["normal"]] if phase == "pretrain" else ["--data", trained["fault"],
                                                                         "--checkpoint", trained["pre"]]
    assert main([phase, *inputs, "--out", str(out),
                 *_overrides(phase, f"train.{phase}_steps=20", f"train.{phase}_lr={lr}")]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("divergence: training diverged at step ")
    assert [p.name for p in out.iterdir()] == [".partial"]


def test_a_finetune_of_batch_size_1_without_the_diversity_loss_runs(trained, tmp_path, capsys):
    fine = _run(capsys, "finetune", "--data", trained["fault"], "--checkpoint", trained["pre"],
                "--out", str(tmp_path / "fine"),
                *_overrides("finetune", "train.finetune_steps=2", "train.batch_size=1", "loss.weight=0"))
    assert load_checkpoint(fine["checkpoint"]).config["train"]["batch_size"] == 1


EMPTY_OUT = {  # a command's argv but for --out, which the test gives as the empty string
    "make-data": ["make-data", "--kind", "normal", "--n", "2", "--tau", "8"],
    "pretrain": ["pretrain", "--data", "{normal}", *_overrides("pretrain", "train.pretrain_steps=1")],
    "finetune": ["finetune", "--data", "{fault}", "--checkpoint", "{pre}",
                 *_overrides("finetune", "train.finetune_steps=1")],
    "generate": ["generate", "--checkpoint", "{fine}", "--n", "2"],
    "evaluate": ["evaluate", "--real", "{fault}", "--synth", "{normal}", "--metrics", "context_fid"],
    "embed": ["embed", "--corpus", "{normal}", "--corpus", "{fault}", "--method", "pca"],
    "downstream": ["downstream", "--train", "{normal}", "--train", "{fault}", "--test", "{normal}",
                   "--test", "{fault}"],
}


@pytest.mark.parametrize("command", list(EMPTY_OUT))
def test_an_empty_out_exits_2_in_one_line_and_writes_nothing(trained, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(**trained) for arg in EMPTY_OUT[command]] + ["--out", ""]) == 2
    err = capsys.readouterr().err
    assert err == "error: argument --out: must not be empty\n"
    assert list(tmp_path.iterdir()) == []


FLAGS = {  # every flag each subcommand's parser exposes, besides --help
    "make-data": {"--seed", "--out", "--kind", "--fault", "--n", "--tau", "--dim", "--base", "--noise-std",
                  "--magnitude", "--onset", "--duration", "--channels", "--period", "--clip-level", "--burst-len",
                  "--count"},
    "pretrain": {"--seed", "--out", "--preset", "--override", "--data"},
    "finetune": {"--seed", "--out", "--preset", "--override", "--data", "--checkpoint"},
    "generate": {"--seed", "--out", "--checkpoint", "--n", "--label"},
    "evaluate": {"--out", "--real", "--synth", "--metrics", "--seeds"},
    "embed": {"--seed", "--out", "--corpus", "--method", "--perplexity", "--iters", "--features"},
    "downstream": {"--seed", "--out", "--train", "--synth", "--test"},
}


def test_each_subcommand_exposes_exactly_the_flags_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    exposed = {name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert exposed == FLAGS


@pytest.mark.parametrize("command", ["make-data", "pretrain", "finetune", "generate", "evaluate", "embed"])
def test_a_command_that_writes_a_directory_names_a_missing_out_in_one_line(capsys, command):
    assert main([command]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--out" in err and "required" in err


def test_a_pretrain_of_no_steps_prints_strict_json_with_a_null_final_loss(trained, tmp_path, capsys):
    assert main(["pretrain", "--data", trained["normal"], "--out", str(tmp_path / "pre"),
                 *_overrides("pretrain", "train.pretrain_steps=0")]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert summary["steps"] == 0 and summary["final_loss"] is None


def _no_diffusion_overrides(*extra):
    return [arg for ov in TINY["pretrain"] + list(extra) if not ov.startswith("diffusion.")
            for arg in ("--override", ov)]


@pytest.fixture(scope="module")
def paper_backbone(trained, tmp_path_factory):
    """A one-step `--preset paper` pretrain, whose schedule (T=1000, betas 1e-4..0.02) no desk key restates."""
    root = tmp_path_factory.mktemp("paper")
    assert main(["pretrain", "--preset", "paper", "--data", trained["normal"], "--out", str(root / "pre"),
                 *_no_diffusion_overrides("train.pretrain_steps=1")]) == 0
    return str(root / "pre" / "checkpoints" / "final.ckpt")


def _run_dir(ckpt):
    return os.path.dirname(os.path.dirname(ckpt))


def test_every_training_runs_config_lock_is_a_copy_of_its_checkpoints_header(trained, paper_backbone, tmp_path):
    desk_fine = str(tmp_path / "fine")
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", paper_backbone, "--seed", "2",
                 "--out", desk_fine, *_overrides("finetune", "train.finetune_steps=1")]) == 0
    for run_dir in (_run_dir(trained["pre"]), _run_dir(trained["fine"]), _run_dir(paper_backbone), desk_fine):
        with open(os.path.join(run_dir, "config.lock")) as fh:
            assert json.load(fh) == load_checkpoint(os.path.join(run_dir, "checkpoints", "final.ckpt")).config


def test_a_desk_finetune_of_a_paper_backbone_records_its_schedule(trained, paper_backbone, tmp_path):
    out = tmp_path / "fine"
    assert main(["finetune", "--data", trained["fault"], "--checkpoint", paper_backbone, "--out", str(out),
                 *_overrides("finetune", "train.finetune_steps=1")]) == 0
    lock = json.loads((out / "config.lock").read_text())
    assert lock["diffusion"] == {"timesteps": 1000, "beta_start": 0.0001, "beta_end": 0.02}


def test_a_checkpoint_whose_hash_is_not_its_headers_still_finetunes_and_generates(trained, tmp_path, capsys):
    # an older writer hashed another text of the run's settings, so its checkpoints hold some other 16 digits
    stale = _edited(trained["pre"], str(tmp_path / "stale.ckpt"), lambda c: c.update(config_hash="0123456789abcdef"))
    fine = _run(capsys, "finetune", "--data", trained["fault"], "--checkpoint", stale, "--out", str(tmp_path / "fine"),
                *_overrides("finetune", "train.finetune_steps=1"))
    assert fine["config_hash"] == load_checkpoint(fine["checkpoint"]).config["config_hash"] != "0123456789abcdef"
    _run(capsys, "generate", "--checkpoint", stale, "--n", "2", "--out", str(tmp_path / "gen"))
    assert json.loads((tmp_path / "gen" / "generation_log.json").read_text())["config_hash"] == "0123456789abcdef"


def test_write_atomic_writes_exact_bytes_and_leaves_no_temporary_file(tmp_path):
    text = "a,b\n1.5,-2\n" * 100
    write_atomic(tmp_path / "out.csv", text)
    write_atomic(tmp_path / "out.csv", text)  # over an existing file too
    write_atomic(tmp_path / "out.bin", text.encode())
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "out.bin").read_bytes() == text.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.csv"]


def test_a_write_that_fails_midway_leaves_the_old_file_whole(tmp_path, monkeypatch):
    (tmp_path / "report.json").write_text("old report\n")
    fail_writes_midway(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        write_atomic(tmp_path / "report.json", "new report " * 1000)
    assert (tmp_path / "report.json").read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_evaluate_that_fails_to_write_keeps_the_previous_reports(corpus_pair, tmp_path, capsys, monkeypatch):
    real, synth = corpus_pair
    out = tmp_path / "report"
    argv = ["evaluate", "--real", real, "--synth", synth, "--metrics", "context_fid,diversity", "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before["report.json"] == metrics.evaluate_corpora(
        load_corpus(real), load_corpus(synth), ["context_fid", "diversity"]).to_json().encode()
    fail_writes_midway(monkeypatch)
    with pytest.raises(OSError):
        main(argv + ["--seeds", "0,1"])
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.pop(".partial") == b"in progress\n" and after == before


@pytest.mark.parametrize("argv,files", [
    (["evaluate", "--metrics", "context_fid", "--real", "{real}", "--synth", "{synth}"], ["report.json", "report.csv"]),
    (["embed", "--method", "pca", "--corpus", "{real}", "--corpus", "{synth}"], ["embedding.csv", "kde.csv"]),
])
def test_evaluate_and_embed_hold_a_partial_marker_until_their_second_file_is_written(corpus_pair, tmp_path, capsys,
                                                                                    monkeypatch, argv, files):
    argv = [arg.format(real=corpus_pair[0], synth=corpus_pair[1]) for arg in argv]
    done = tmp_path / "done"
    assert main(argv + ["--out", str(done)]) == 0
    assert sorted(p.name for p in done.iterdir()) == sorted(files)
    written = []

    def second_write_fails(path, content):
        written.append(path)
        if len(written) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_atomic(path, content)

    monkeypatch.setattr(cli, "write_atomic", second_write_fails)
    cut = tmp_path / "cut"
    with pytest.raises(OSError):
        main(argv + ["--out", str(cut)])
    assert sorted(p.name for p in cut.iterdir()) == [".partial", files[0]]
