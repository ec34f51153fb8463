"""Few-shot fault time-series generation with a diffusion backbone and a
difference adapter, plus the evaluation harness for generated corpora."""

from .adapter import AdapterConfig, AdapterStack, ComposedModel, attach, sliding_window_attention
from .data import (
    Dataset,
    FaultSpec,
    Normalizer,
    TimeSeries,
    FAULT_KINDS,
    fit_normalizer,
    generate_normal,
    inject_fault,
    load_corpus,
    make_fault_dataset,
    save_corpus,
)
from .denoiser import Backbone, DenoiserConfig, timestep_embed
from .diffusion import NoiseSchedule, forward_sample, make_schedule, reverse_step, sample
from .training import (
    Adam,
    Checkpoint,
    LossConfig,
    TrainConfig,
    base_loss,
    diversity_loss,
    load_checkpoint,
    model_from_checkpoint,
    normalizer_from_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)

__version__ = "0.1.0"
