"""Run configuration: override parsing, value coercion, the component views."""

import dataclasses
import inspect
import itertools
import pathlib
import re

import numpy as np
import pytest

from faultgen.adapter import AdapterConfig
from faultgen.config import PHASES, PRESETS, RunConfig, resolve_config
from faultgen.data import MAX_DIM, MAX_TAU, fit_normalizer
from faultgen.denoiser import MAX_LAYERS, MAX_WIDTH, DenoiserConfig, trend_basis
from faultgen.diffusion import make_schedule
from faultgen.embedding import embed_2d, tsne_2d
from faultgen.errors import ContractError
from faultgen.training import MAX_BATCH, LossConfig, TrainConfig


@pytest.mark.parametrize("override", ["model.tau", "tau=12", "=12", "model.tau 12"])
def test_malformed_override_rejected(override):
    with pytest.raises(ContractError, match="section.key=value"):
        resolve_config("desk", "pretrain", [override])


@pytest.mark.parametrize("phase, override, what", [("pretrain", "nosuch.tau=12", r"section \[nosuch\] for pretrain"),
                                                   ("pretrain", "model.nosuch=12", "key model.nosuch for pretrain"),
                                                   ("finetune", "loss.sign=intent", "key loss.sign for finetune")])
def test_unknown_section_or_key_rejected(phase, override, what):
    with pytest.raises(ContractError, match=what):
        resolve_config("desk", phase, [override])


@pytest.mark.parametrize("override", ["model.heads=twelve", "model.heads=1.5", "train.pretrain_lr=fast"])
def test_bad_number_rejected(override):
    with pytest.raises(ContractError, match="bad value"):
        resolve_config("desk", "pretrain", [override])


def test_schedule_reads_the_diffusion_section():
    cfg = resolve_config("desk", "pretrain", ["diffusion.timesteps=50", "diffusion.beta_end=0.1"])
    sched = cfg.schedule()
    expected = make_schedule(50, 1e-3, 0.1)
    assert sched.T == 50
    np.testing.assert_array_equal(sched.beta, expected.beta)
    with pytest.raises(ContractError, match="unknown config key diffusion.schedule for pretrain"):
        resolve_config("desk", "pretrain", ["diffusion.schedule=linear"])
    with pytest.raises(ContractError, match="need 0 < beta_start <= beta_end < 1"):
        resolve_config("desk", "pretrain", ["diffusion.beta_start=0.5"]).schedule()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_pretrain_accepts_15_config_keys_and_finetune_10(preset):
    counts = {phase: sum(map(len, resolve_config(preset, phase).sections.values())) for phase in PHASES}
    assert counts == {"pretrain": 15, "finetune": 10}
    assert set(resolve_config(preset, "pretrain").sections["train"]) == {
        "pretrain_steps", "pretrain_lr", "batch_size", "warmup_steps"}
    assert set(resolve_config(preset, "finetune").sections) == {"train", "adapter", "loss"}


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_settings():
    """The (section, key) pairs README's settings table names in each phase's column, and the count its text states."""
    text = README.read_text().split("## Which command takes which settings", 1)[1].split("\n## ", 1)[0]
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Section |"))
    header, rows = lines[start], itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    phases = [re.findall(r"`(\w+)`", cell) for cell in header.strip("|").split("|")[1:]]
    named = {phase: set() for [phase] in phases}
    for row in rows:
        section, *cells = (cell.strip() for cell in row.strip("|").split("|"))
        for [phase], cell in zip(phases, cells):
            named[phase] |= {(section.strip("`[]"), key) for key in re.findall(r"`(\w+)`", cell)}
    stated = re.search(r"(\d+) for `pretrain` and (\d+) for `finetune`", " ".join(text.split()))
    return named, {"pretrain": int(stated[1]), "finetune": int(stated[2])}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_readme_names_exactly_the_keys_each_phase_accepts_and_counts_them(preset):
    named, stated = _readme_settings()
    assert set(named) == set(stated) == set(PHASES)
    for phase in PHASES:
        accepted = {(section, key) for section, keys in resolve_config(preset, phase).sections.items()
                    for key in keys}
        assert named[phase] == accepted, phase
        assert stated[phase] == len(accepted), phase


def test_a_value_a_run_takes_from_its_inputs_is_an_argument_of_its_view_never_a_key():
    cfg = resolve_config("desk", "finetune", ["loss.weight=0.5"])
    assert cfg.train_config(7).seed == 7 and cfg.adapter_config(64).model_dim == 64
    for written in ("train.seed=7", "model.model_dim=64"):
        with pytest.raises(ContractError, match="for finetune"):
            resolve_config("desk", "finetune", [written])


OTHER_STRINGS = {"normalizer": "zscore"}


def _other_value(key, value):
    """A different value the key's consumer still accepts."""
    if isinstance(value, str):
        return OTHER_STRINGS[key]
    if isinstance(value, float):
        return value / 2.0
    if key == "window":  # must stay odd
        return value + 2
    return 2 * value if value else 1


def _views(cfg):
    """The component views the config's phase builds; fine-tuning's adapter takes model_dim from the checkpoint."""
    if cfg.phase == "pretrain":
        sched = cfg.schedule()
        return (dataclasses.asdict(cfg.denoiser_config(24, 2)), (sched.T, sched.beta.tobytes()),
                dataclasses.asdict(cfg.train_config(0)), cfg.get("data", "normalizer"))
    return (dataclasses.asdict(cfg.adapter_config(64)), dataclasses.asdict(cfg.loss_config()),
            dataclasses.asdict(cfg.train_config(0)))


@pytest.mark.parametrize("preset, phase, section, key", [
    (preset, phase, section, key) for preset in sorted(PRESETS) for phase in PHASES
    for section, keys in resolve_config(preset, phase).sections.items() for key in keys])
def test_every_key_a_phase_accepts_reaches_a_view_it_builds(preset, phase, section, key):
    base = resolve_config(preset, phase)
    value = _other_value(key, base.get(section, key))
    changed = resolve_config(preset, phase, [f"{section}.{key}={value}"])
    assert _views(changed) != _views(base), f"{preset} {phase}: {section}.{key} changes no component view"


@pytest.mark.parametrize("component", [DenoiserConfig, AdapterConfig, LossConfig, TrainConfig])
def test_a_run_setting_component_declares_no_default(component):
    # the presets are the one home of a run's values; a default here would be a second copy
    assert [f.name for f in dataclasses.fields(component)
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING] == []


@pytest.mark.parametrize("function, names", [(make_schedule, ["timesteps", "beta_start", "beta_end"]),
                                             (fit_normalizer, ["mode"]), (trend_basis, ["degree"]),
                                             (resolve_config, ["preset", "phase"]),
                                             (RunConfig.train_config, ["seed"]),
                                             (RunConfig.adapter_config, ["model_dim"]),
                                             (embed_2d, ["method"]), (tsne_2d, ["perplexity", "iters", "seed"])])
def test_a_run_setting_argument_has_no_default(function, names):
    params = inspect.signature(function).parameters
    assert [name for name in names if params[name].default is not inspect.Parameter.empty] == []


@pytest.mark.parametrize("view, key, value", [("denoiser", "model_dim", 8.0), ("denoiser", "heads", 2.0),
                                              ("denoiser", "tau", True), ("adapter", "window", 3.0),
                                              ("adapter", "model_dim", False)])
def test_a_model_size_must_be_an_int_not_a_float_or_a_bool(view, key, value):
    cfg = {"denoiser": resolve_config("desk", "pretrain").denoiser_config(24, 2),
           "adapter": resolve_config("desk", "finetune").adapter_config(64)}[view]
    with pytest.raises(ContractError, match=f"be an int, got .*{key}={value!r}"):
        dataclasses.replace(cfg, **{key: value})


TAU_RULE = "need trend_degree < tau and fourier_terms <= tau // 2 for tau=24, got"
LAYERS_RULE = "enc_layers and dec_layers must be from 1 to 32, got"
LENGTH_RULE = "need 2 <= tau <= 1024, 1 <= d <= 256 and T >= 1, got"


@pytest.mark.parametrize("view, key, value, message", [
    ("denoiser", "model_dim", MAX_WIDTH + 4, f"model_dim and ff_dim must be at most 1024, got {MAX_WIDTH + 4} and 128"),
    ("denoiser", "ff_dim", MAX_WIDTH + 1, f"model_dim and ff_dim must be at most 1024, got 64 and {MAX_WIDTH + 1}"),
    ("denoiser", "fourier_terms", 13, f"{TAU_RULE} 3 and 13"),  # frequency 13 on 24 points is frequency 11
    ("denoiser", "trend_degree", 24, f"{TAU_RULE} 24 and 4"),  # degree 24 on 24 points sums degrees 0-23
    ("train", "batch_size", MAX_BATCH + 1, f"batch_size must be at most 1024, got {MAX_BATCH + 1}"),
    ("denoiser", "enc_layers", MAX_LAYERS + 1, f"{LAYERS_RULE} {MAX_LAYERS + 1} and 4"),
    ("denoiser", "dec_layers", 10**30, f"{LAYERS_RULE} 3 and {10**30}"),
    ("denoiser", "tau", MAX_TAU + 1, f"{LENGTH_RULE} {MAX_TAU + 1}, 2 and 100"),
    ("denoiser", "tau", 10**30, f"{LENGTH_RULE} {10**30}, 2 and 100"),
    ("denoiser", "d", MAX_DIM + 1, f"{LENGTH_RULE} 24, {MAX_DIM + 1} and 100"),
    ("denoiser", "d", 10**30, f"{LENGTH_RULE} 24, {10**30} and 100"),
])
def test_a_size_beyond_its_bound_is_a_contract_error_naming_the_bound(view, key, value, message):
    cfg = {"denoiser": resolve_config("desk", "pretrain").denoiser_config(24, 2),
           "train": resolve_config("desk", "pretrain").train_config(0)}[view]
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(cfg, **{key: value})


def test_a_size_at_its_bound_is_valid():
    pre = resolve_config("desk", "pretrain")
    dataclasses.replace(pre.denoiser_config(24, 2), model_dim=MAX_WIDTH, ff_dim=MAX_WIDTH, fourier_terms=12,
                        trend_degree=23, enc_layers=MAX_LAYERS, dec_layers=MAX_LAYERS)
    pre.denoiser_config(MAX_TAU, MAX_DIM)
    dataclasses.replace(pre.train_config(0), batch_size=MAX_BATCH)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_each_preset_builds_its_components_for_the_shortest_series_make_data_writes(preset):
    # generate_normal writes tau >= 8, where the presets' 4 Fourier terms and degree 3 are within their bounds
    pre, fine = resolve_config(preset, "pretrain"), resolve_config(preset, "finetune")
    pre.denoiser_config(8, 1)
    pre.train_config(0)
    fine.train_config(0)
