"""Forward noising, noise schedules, and the reverse generation process.

`reverse_step` is the one place the implied clean signal is clipped to +-X0_CLIP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SamplingError

X0_CLIP = 4.0  # normalized-domain bound; keeps rare off-manifold trajectories from running away


@dataclass
class NoiseSchedule:
    """Per-step variance tables for the diffusion chain, with the arguments `make_schedule` built them from."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    posterior_var: np.ndarray
    kind: str
    beta_start: float
    beta_end: float

    def __post_init__(self):
        if np.any(self.beta <= 0) or np.any(self.beta >= 1):
            raise ContractError("beta values must lie in (0, 1)")
        if np.any(np.diff(self.alpha_bar) >= 0):
            raise ContractError("alpha_bar must be strictly decreasing")

    def config(self) -> dict:
        """The `diffusion` config section this schedule was built from."""
        return {"timesteps": self.T, "schedule": self.kind, "beta_start": self.beta_start, "beta_end": self.beta_end}


def make_schedule(timesteps: int, schedule: str, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Build a `diffusion` section's beta/alpha tables. posterior_var[t] = beta_t * (1 - abar_{t-1}) / (1 - abar_t)."""
    if timesteps < 2:
        raise ContractError("schedule needs T >= 2")
    if not (0 < beta_start <= beta_end < 1):
        raise ContractError("need 0 < beta_start <= beta_end < 1")
    if schedule == "linear":
        beta = np.linspace(beta_start, beta_end, timesteps, dtype=np.float64)
    elif schedule == "cosine":
        # squared-cosine cumulative signal level; beta_start/beta_end act as clip bounds
        s = 0.008
        steps = np.arange(timesteps + 1, dtype=np.float64)
        f = np.cos((steps / timesteps + s) / (1 + s) * np.pi / 2.0) ** 2
        abar = f / f[0]
        beta = np.clip(1.0 - abar[1:] / abar[:-1], beta_start, min(beta_end, 0.999))
    else:
        raise ContractError(f"unknown schedule kind {schedule!r}")
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    prev = np.concatenate([[1.0], alpha_bar[:-1]])
    posterior_var = beta * (1.0 - prev) / (1.0 - alpha_bar)
    return NoiseSchedule(timesteps, beta, alpha, alpha_bar, posterior_var, schedule, beta_start, beta_end)


def forward_sample(x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form marginal x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if x0.shape != eps.shape:
        raise ContractError(f"x0/eps shape mismatch: {x0.shape} vs {eps.shape}")
    if not 0 <= t < sched.T:
        raise ContractError(f"t={t} outside [0, {sched.T})")
    ab = sched.alpha_bar[t]
    return (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).astype(x0.dtype)


def reverse_step(x_t: np.ndarray, t: int, eps_hat: np.ndarray, z: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """One denoising step: posterior mean given the clipped clean-signal estimate, plus scaled z.

    x0_hat = clip((x_t - sqrt(1 - abar_t) eps_hat) / sqrt(abar_t), +-X0_CLIP) feeds the
    mean of q(x_{t-1} | x_t, x0_hat) (Ho et al. 2020, eq. 7); at t = 0 that mean is x0_hat.
    """
    x_t = np.asarray(x_t)
    eps_hat = np.asarray(eps_hat)
    z = np.asarray(z)
    if not 0 <= t < sched.T:
        raise ContractError(f"t={t} outside [0, {sched.T})")
    if t == 0 and np.any(z != 0):
        raise ContractError("z must be zero at t = 0")
    ab = sched.alpha_bar[t]
    ab_prev = sched.alpha_bar[t - 1] if t > 0 else 1.0
    x0_hat = np.clip((x_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab), -X0_CLIP, X0_CLIP)
    mean = (np.sqrt(ab_prev) * sched.beta[t] * x0_hat + np.sqrt(sched.alpha[t]) * (1.0 - ab_prev) * x_t) / (1.0 - ab)
    return (mean + np.sqrt(sched.posterior_var[t]) * z).astype(x_t.dtype)


def sample(model, sched: NoiseSchedule, n: int, shape: tuple[int, int], seed: int) -> np.ndarray:
    """Generate `n` series by iterating reverse_step from pure noise, as one float32 (n, tau, d) stack.

    Per-sample noise streams are seeded `seed + index`, so a sample's bits do not depend on
    how many siblings (n >= 2) are generated with it; alone (n = 1), BLAS computes the heads'
    (1, D) @ (D, k) products with another kernel, which can move its last float32 bits.
    `model` must expose predict_noise(x, t) -> array of x's shape. Each step
    clips the implied clean signal inside `reverse_step`, so every sample lies
    in [-X0_CLIP, X0_CLIP]: the series are in the run's scaled space, and the
    normalizer's `unscale` maps them back to the corpus's units.
    """
    if n == 0:
        return np.zeros((0, *shape), dtype=np.float32)
    rngs = [np.random.default_rng(seed + i) for i in range(n)]
    x = np.stack([r.standard_normal(shape) for r in rngs]).astype(np.float32)
    for t in reversed(range(sched.T)):
        eps_hat = model.predict_noise(x, t)
        if t > 0:
            z = np.stack([r.standard_normal(shape) for r in rngs]).astype(np.float32)
        else:
            z = np.zeros_like(x)
        x = reverse_step(x, t, eps_hat, z, sched)
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"non-finite sample state at step t={t}")
    return x
