"""Run configuration: flat key=value sections, named presets, stable hashing.

Two presets ship: `paper` mirrors the large-scale recipe (T=1000 steps,
25k-step pretraining, small learning rates), `desk` is the scaled-down
single-core preset the acceptance suite pins (T=100, 2000/500 steps).
"""

from __future__ import annotations

import configparser
import copy
import hashlib

from .adapter import AdapterConfig
from .denoiser import DenoiserConfig
from .diffusion import NoiseSchedule
from .errors import ConfigError
from .training import LossConfig, TrainConfig, schedule_from_config

DESK = {
    "model": {
        "tau": 24, "dim": 2, "model_dim": 64, "enc_layers": 3, "dec_layers": 4,
        "heads": 4, "ff_dim": 128, "fourier_terms": 4, "trend_degree": 3,
    },
    "diffusion": {
        "timesteps": 100, "schedule": "linear", "beta_start": 1e-3, "beta_end": 0.2,
    },
    "adapter": {"window": 5, "heads": 4, "alpha": 1.0},
    "train": {
        "pretrain_steps": 2000, "finetune_steps": 500, "batch_size": 8,
        "pretrain_lr": 1e-3, "finetune_lr": 1e-4, "warmup_steps": 100,
        "checkpoint_every": 0, "seed": 0,
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


class RunConfig:
    """Resolved configuration; unknown sections or keys are rejected.

    `explicit` holds the sections that a config file or an override wrote to.
    """

    def __init__(self, sections: dict):
        self.sections = sections
        self.explicit: set[str] = set()

    @classmethod
    def from_preset(cls, preset: str = "desk") -> "RunConfig":
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        return cls(copy.deepcopy(PRESETS[preset]))

    def _coerce(self, section: str, key: str, raw):
        if section not in self.sections:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in self.sections[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        current = self.sections[section][key]
        try:
            if isinstance(current, int):
                return int(raw)
            if isinstance(current, float):
                return float(raw)
            return str(raw)
        except ValueError as e:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from e

    def set(self, section: str, key: str, raw) -> None:
        self.sections[section][key] = self._coerce(section, key, raw)

    def get(self, section: str, key: str):
        try:
            return self.sections[section][key]
        except KeyError as e:
            raise ConfigError(f"unknown config key {section}.{key}") from e

    def load_file(self, path) -> None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                self.set(section, key, raw)
            self.explicit.add(section)

    def apply_overrides(self, overrides) -> None:
        """Each override is 'section.key=value'."""
        for ov in overrides or ():
            if "=" not in ov or "." not in ov.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value, got {ov!r}")
            dotted, value = ov.split("=", 1)
            section, key = (part.strip() for part in dotted.split(".", 1))
            self.set(section, key, value.strip())
            self.explicit.add(section)

    # -- canonical form ---------------------------------------------------
    @staticmethod
    def _canon(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self.sections):
            lines.append(f"[{section}]")
            for key in sorted(self.sections[section]):
                lines.append(f"{key} = {self._canon(self.sections[section][key])}")
            lines.append("")
        return "\n".join(lines)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    # -- component views ----------------------------------------------------
    def denoiser_config(self) -> DenoiserConfig:
        m = self.sections["model"]
        return DenoiserConfig(
            tau=m["tau"], d=m["dim"], T=self.get("diffusion", "timesteps"),
            model_dim=m["model_dim"], enc_layers=m["enc_layers"], dec_layers=m["dec_layers"],
            heads=m["heads"], ff_dim=m["ff_dim"], fourier_terms=m["fourier_terms"],
            trend_degree=m["trend_degree"],
        )

    def adapter_config(self) -> AdapterConfig:
        a = self.sections["adapter"]
        return AdapterConfig(window=a["window"], heads=a["heads"],
                             model_dim=self.get("model", "model_dim"), alpha=a["alpha"])

    def schedule(self) -> NoiseSchedule:
        return schedule_from_config(self.sections["diffusion"])

    def train_config(self, phase: str, seed: int | None = None) -> TrainConfig:
        t = self.sections["train"]
        steps = t["pretrain_steps"] if phase == "pretrain" else t["finetune_steps"]
        lr = t["pretrain_lr"] if phase == "pretrain" else t["finetune_lr"]
        return TrainConfig(phase=phase, steps=steps, batch_size=t["batch_size"],
                           learning_rate=lr, warmup_steps=t["warmup_steps"],
                           seed=t["seed"] if seed is None else seed,
                           checkpoint_every=t["checkpoint_every"])

    def loss_config(self) -> LossConfig:
        l = self.sections["loss"]
        return LossConfig(weight=l["weight"], margin=l["margin"], pair_count=l["pair_count"])


def resolve_config(preset: str = "desk", config_file=None, overrides=None,
                   seed: int | None = None) -> RunConfig:
    cfg = RunConfig.from_preset(preset)
    if config_file:
        cfg.load_file(config_file)
    cfg.apply_overrides(overrides)
    if seed is not None:
        cfg.set("train", "seed", seed)
    return cfg

