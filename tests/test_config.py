"""Run configuration: override parsing, value coercion, hashing, the component views."""

import dataclasses

import numpy as np
import pytest

from faultgen.config import DESK, resolve_config
from faultgen.diffusion import make_schedule
from faultgen.errors import ConfigError, ContractError


@pytest.mark.parametrize("override", ["model.tau", "tau=12", "=12", "model.tau 12"])
def test_malformed_override_rejected(override):
    with pytest.raises(ConfigError, match="section.key=value"):
        resolve_config("desk", None, [override])


@pytest.mark.parametrize("override, what", [("nosuch.tau=12", r"section \[nosuch\]"),
                                            ("model.nosuch=12", "key model.nosuch"),
                                            ("loss.sign=intent", "key loss.sign")])
def test_unknown_section_or_key_rejected(override, what):
    with pytest.raises(ConfigError, match=what):
        resolve_config("desk", None, [override])


@pytest.mark.parametrize("override", ["model.tau=twelve", "model.tau=1.5", "train.pretrain_lr=fast"])
def test_bad_number_rejected(override):
    with pytest.raises(ConfigError, match="bad value"):
        resolve_config("desk", None, [override])


def test_bad_config_file_value_rejected(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[train]\nbatch_size = eight\n")
    with pytest.raises(ConfigError, match="train.batch_size"):
        resolve_config("desk", str(path))


def test_hash_ignores_override_order():
    overrides = ["model.tau=12", "train.seed=3", "loss.weight=0.5", "data.normalizer=zscore"]
    first = resolve_config("desk", None, overrides).hash()
    assert first == resolve_config("desk", None, overrides[::-1]).hash()
    assert first != resolve_config("desk", None, overrides[:-1]).hash()
    assert first != resolve_config("paper", None, overrides).hash()


def test_schedule_reads_the_diffusion_section():
    cfg = resolve_config("desk", None, ["diffusion.schedule=cosine", "diffusion.timesteps=50"])
    sched = cfg.schedule()
    expected = make_schedule(50, "cosine", 1e-3, 0.2)
    assert sched.kind == "cosine" and sched.T == 50
    np.testing.assert_array_equal(sched.beta, expected.beta)
    with pytest.raises(ContractError, match="unknown schedule"):
        resolve_config("desk", None, ["diffusion.schedule=bogus"]).schedule()


OTHER_STRINGS = {"schedule": "cosine", "normalizer": "zscore"}


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
    sched = cfg.schedule()
    return (dataclasses.asdict(cfg.denoiser_config()), (sched.kind, sched.beta.tobytes()),
            dataclasses.asdict(cfg.adapter_config()), dataclasses.asdict(cfg.loss_config()),
            dataclasses.asdict(cfg.train_config("pretrain")), dataclasses.asdict(cfg.train_config("finetune")),
            cfg.get("data", "normalizer"))


@pytest.mark.parametrize("section, key", [(s, k) for s in DESK for k in DESK[s]])
def test_every_desk_key_reaches_a_component_view(section, key):
    base = resolve_config("desk")
    changed = resolve_config("desk", None, [f"{section}.{key}={_other_value(key, DESK[section][key])}"])
    assert _views(changed) != _views(base), f"{section}.{key} changes no component view"
