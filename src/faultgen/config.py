"""Run configuration: named presets of flat sections, and `section.key=value` overrides.

Two presets ship: `paper`, a large-scale recipe (T=1000 steps, 25k-step
pretraining, small learning rates) whose values are not the source paper's
and which has not been run end to end, and `desk`, the scaled-down
single-core preset the acceptance suite pins (T=100, 2000/500 steps). Both
run the linear noise schedule, and `diffusion` holds `make_schedule`'s arguments.
The presets are the one home of every run setting: components take each
value as an argument and declare no default, and each view below builds its
component from a section by field name. `resolve_config` builds a run's
settings in one way: the preset's values, then each override, which must name
a key the phase holds and parse as that key's type.

Each training phase's config holds only the settings that phase reads
(`PHASES`). A value a run takes from its inputs is no key: the view that
needs it takes it as an argument, as `denoiser_config(tau, d)` takes the
corpus's shape, `train_config(seed)` the `--seed` and, for `finetune`,
`adapter_config(model_dim)` the checkpoint's width. The checkpoint header
that `training.train` writes records all of them.
"""

from __future__ import annotations

import copy

from .adapter import AdapterConfig
from .denoiser import DenoiserConfig
from .diffusion import NoiseSchedule, make_schedule
from .errors import ContractError
from .training import LossConfig, TrainConfig

DESK = {
    "model": {
        "model_dim": 64, "enc_layers": 3, "dec_layers": 4, "heads": 4,
        "ff_dim": 128, "fourier_terms": 4, "trend_degree": 3,
    },
    "diffusion": {
        "timesteps": 100, "beta_start": 1e-3, "beta_end": 0.2,
    },
    "adapter": {"window": 5, "heads": 4, "alpha": 1.0},
    "train": {
        "pretrain_steps": 2000, "finetune_steps": 500, "batch_size": 8,
        "pretrain_lr": 1e-3, "finetune_lr": 1e-4, "warmup_steps": 100,
    },
    "loss": {"weight": 0.1, "margin": 1.0, "pair_count": 8},
    "data": {"normalizer": "minmax"},
}

PAPER = copy.deepcopy(DESK)
PAPER["diffusion"].update({"timesteps": 1000, "beta_start": 1e-4, "beta_end": 0.02})
PAPER["train"].update({
    "pretrain_steps": 25000, "finetune_steps": 5000, "batch_size": 64,
    "pretrain_lr": 1e-5, "finetune_lr": 1e-6, "warmup_steps": 500,
})

PRESETS = {"desk": DESK, "paper": PAPER}
# the sections each training phase reads; of [train], the shared keys and the phase's own `<phase>_*` keys
PHASES = {"pretrain": ("model", "diffusion", "train", "data"), "finetune": ("train", "adapter", "loss")}


class RunConfig:
    """One command's resolved configuration; a section or key it does not hold is rejected."""

    def __init__(self, sections: dict, phase: str):
        self.sections = sections
        self.phase = phase

    def get(self, section: str, key: str):
        try:
            return self.sections[section][key]
        except KeyError as e:
            raise ContractError(f"unknown config key {section}.{key}") from e

    def apply_overrides(self, overrides) -> None:
        """Each override is 'section.key=value'; its value takes the type of the one it replaces."""
        for ov in overrides or ():
            if "=" not in ov or "." not in ov.split("=", 1)[0]:
                raise ContractError(f"override must look like section.key=value, got {ov!r}")
            dotted, value = (part.strip() for part in ov.split("=", 1))
            section, key = (part.strip() for part in dotted.split(".", 1))
            if section not in self.sections:
                raise ContractError(f"unknown config section [{section}] for {self.phase}")
            if key not in self.sections[section]:
                raise ContractError(f"unknown config key {section}.{key} for {self.phase}")
            try:
                self.sections[section][key] = type(self.sections[section][key])(value)
            except ValueError as e:
                raise ContractError(f"bad value for {section}.{key}: {value!r}") from e

    # -- component views ----------------------------------------------------
    def denoiser_config(self, tau: int, d: int) -> DenoiserConfig:
        """The denoiser for series of shape (tau, d), which a run takes from its corpus."""
        return DenoiserConfig(tau=tau, d=d, T=self.get("diffusion", "timesteps"), **self.sections["model"])

    def adapter_config(self, model_dim: int) -> AdapterConfig:
        """The adapter for a backbone of width `model_dim`, which a fine-tune takes from its checkpoint."""
        return AdapterConfig(model_dim=model_dim, **self.sections["adapter"])

    def schedule(self) -> NoiseSchedule:
        return make_schedule(**self.sections["diffusion"])

    def train_config(self, seed: int) -> TrainConfig:
        """This phase's steps and learning rate, with the shared settings and the run's `seed`."""
        t, phase = self.sections["train"], self.phase
        return TrainConfig(steps=t[f"{phase}_steps"], batch_size=t["batch_size"], learning_rate=t[f"{phase}_lr"],
                           warmup_steps=t["warmup_steps"], seed=seed)

    def loss_config(self) -> LossConfig:
        return LossConfig(**self.sections["loss"])


def resolve_config(preset: str, phase: str, overrides=None) -> RunConfig:
    """The preset's settings that `phase` reads, then each override."""
    if preset not in PRESETS:
        raise ContractError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    if phase not in PHASES:
        raise ContractError(f"unknown training phase {phase!r}; choose from {sorted(PHASES)}")
    others = PHASES.keys() - {phase}
    sections = {s: dict(PRESETS[preset][s]) for s in PHASES[phase]}
    sections["train"] = {k: v for k, v in sections["train"].items() if k.partition("_")[0] not in others}
    cfg = RunConfig(sections, phase)
    cfg.apply_overrides(overrides)
    return cfg
