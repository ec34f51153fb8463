"""Forward noising, the linear noise schedule of Ho et al. (2020), and the reverse generation process.

`make_schedule` alone builds and checks a schedule; `reverse_step` alone clips the implied clean signal to +-X0_CLIP.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
from dataclasses import dataclass

import numpy as np

from .data import MAX_SERIES, NOISE_STREAM, check_value_count, series_rng
from .denoiser import attention_batch
from .errors import ContractError, NumericError

X0_CLIP = 4.0  # normalized-domain bound; keeps rare off-manifold trajectories from running away
MAX_TIMESTEPS = 10_000  # 10 times the paper preset's T; generation runs the denoiser once per step
# series per batch of the reverse chain. At desk widths and tau 24 on a 2-core VM (one BLAS thread), a series took
# 0.56-0.60 ms per step in batches of 32 to 128 and 0.80 ms in batches of 256, and the arrays of one predict_noise
# call peaked at 4.4 MiB in a batch of 64 against 35 MiB in one of 512.
SAMPLE_CHUNK = 64
PR_SET_PDEATHSIG = 1  # Linux's prctl option: the signal a process gets when its parent dies
PRCTL = getattr(ctypes.CDLL(None), "prctl", None)  # Linux's; another libc has none
if PRCTL is not None:
    PRCTL.argtypes, PRCTL.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int


@dataclass
class NoiseSchedule:
    """Per-step variance tables of the linear diffusion chain; `make_schedule` builds and checks each one."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    posterior_var: np.ndarray


def make_schedule(timesteps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear betas over `timesteps` steps, checked before posterior_var[t] = beta_t (1 - abar_{t-1}) / (1 - abar_t)
    divides: alpha_bar must fall from below 1 (1 - beta_start must round below 1) and must not underflow to 0."""
    if not 2 <= timesteps <= MAX_TIMESTEPS:
        raise ContractError(f"schedule needs 2 <= T <= {MAX_TIMESTEPS}, got {timesteps}")
    if not (0 < beta_start <= beta_end < 1 and 1.0 - beta_start < 1.0):
        raise ContractError("need 0 < beta_start <= beta_end < 1 and 1 - beta_start < 1 in float64")
    beta = np.linspace(beta_start, beta_end, timesteps, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    if np.any(np.diff(alpha_bar) >= 0) or alpha_bar[-1] == 0:
        raise ContractError(f"alpha_bar must be strictly decreasing and above 0; it underflows in {timesteps} steps")
    prev = np.concatenate([[1.0], alpha_bar[:-1]])
    posterior_var = beta * (1.0 - prev) / (1.0 - alpha_bar)
    return NoiseSchedule(timesteps, beta, alpha, alpha_bar, posterior_var)


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


def sample(model, sched: NoiseSchedule, n: int, seed: int) -> np.ndarray:
    """Generate `n` series by iterating reverse_step from pure noise, as one float32 (n, cfg.tau, cfg.d) stack.

    Sample i draws its noise from `series_rng(seed, NOISE_STREAM, i)`, so neighbouring seeds share no sample and
    its bits do not depend on how many siblings (n >= 2) are generated with it; alone (n = 1), BLAS computes the
    heads' (1, D) @ (D, k) products with another kernel, which can move its last float32 bits. `model` must expose
    predict_noise(x, t) -> array of x's shape, and the `cfg.T` it was built for must be the schedule's T. Each step
    clips the implied clean signal inside `reverse_step`, so every sample lies in [-X0_CLIP, X0_CLIP]: the series
    are in the run's scaled space, and the normalizer's `unscale` maps them back to the corpus's units.

    The series are split into contiguous, near-equal shards, one per usable CPU (`os.sched_getaffinity`), but at
    most n // 2. This process runs the first; each other runs in a worker process of the explicitly requested
    `multiprocessing` "fork" context, which dies with this process and keeps what `predict_noise` changes. A
    shard runs in near-equal chunks of at most SAMPLE_CHUNK series, and of those whose attention fits
    `denoiser.MAX_SCORES`, but never one series alone, so for n >= 2 a series keeps its bits of one batch of all
    n. The lowest failing shard's error is raised; a worker ending without a reply raises RuntimeError. Without
    `os.fork`, on one CPU, or in a daemonic process, which may start no process, all runs here."""
    if sched.T != model.cfg.T:  # a model runs only the chain it was trained on, as in `train` and `restore`
        raise ContractError(f"the schedule has {sched.T} timesteps, but the model was built for {model.cfg.T}")
    if not 0 <= n <= MAX_SERIES:
        raise ContractError(f"sample needs 0 <= n <= {MAX_SERIES} series, got {n}")
    check_value_count(n, model.cfg.tau, model.cfg.d)
    if n == 0:
        return np.zeros((0, model.cfg.tau, model.cfg.d), dtype=np.float32)

    def run(shard: range) -> np.ndarray:
        chunk = max(2, min(SAMPLE_CHUNK, attention_batch(model)))
        parts = max(1, min(-(-len(shard) // chunk), len(shard) // 2))  # no chunk holds one series of several
        return np.concatenate([_chain(model, sched, rows, seed) for rows in _split(shard, parts)])

    return np.concatenate(_run_shards(run, _split(range(n), _shard_count(n))))


def _chain(model, sched: NoiseSchedule, rows: range, seed: int) -> np.ndarray:
    """Series `rows` run through the whole reverse chain as one batch."""
    rngs = [series_rng(seed, NOISE_STREAM, i) for i in rows]

    def noise() -> np.ndarray:  # one draw for each series from its own stream
        return np.stack([r.standard_normal((model.cfg.tau, model.cfg.d)) for r in rngs]).astype(np.float32)

    x = noise()
    for t in reversed(range(sched.T)):
        eps_hat = model.predict_noise(x, t)
        x = reverse_step(x, t, eps_hat, noise() if t > 0 else np.zeros_like(x), sched)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite sample state at step t={t}")
    return x


def _split(rows: range, parts: int) -> list[range]:
    """`parts` contiguous ranges covering `rows`, whose lengths differ by at most one, the longer first."""
    q, r = divmod(len(rows), parts)
    cuts = [rows.start + k * q + min(k, r) for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _shard_count(n: int) -> int:
    """One shard per usable CPU, but at most n // 2; one where no worker can start, as in a daemonic process."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or multiprocessing.current_process().daemon:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // 2))


def _run_shards(work, shards: list[range]) -> list:
    """[work(shard) for shard in shards]: the first shard here, each other one in a fork-context worker process.
    The lowest failing shard's error is raised once every worker has been killed, if still running, and reaped."""
    workers = []  # (process, read end of its one-way pipe)
    try:
        for shard in shards[1:]:
            read, write = multiprocessing.Pipe(duplex=False)
            with write:  # once started, the worker holds the only write end, so its exit ends the pipe
                proc = multiprocessing.get_context("fork").Process(target=_worker, args=(work, shard, write))
                proc.start()
            workers.append((proc, read))
        blocks = [work(shards[0])]
        for proc, read in workers:
            try:
                ok, value = read.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a sampling worker ended without a reply, exit code {proc.exitcode}") from None
            if not ok:
                raise value
            blocks.append(value)
        return blocks
    finally:
        for proc, read in workers:
            proc.kill()  # a no-op for a worker that has exited
            proc.join()
            read.close()


def _worker(work, shard: range, reply) -> None:
    """A worker's body: it sends back (True, work(shard)), or (False, its exception), and dies with its parent."""
    if PRCTL is not None:
        PRCTL(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:  # the parent died before the death signal was set
        return
    try:
        reply.send((True, work(shard)))
    except BaseException as e:  # the parent raises it
        try:
            reply.send((False, e))
        except Exception:  # an exception that does not pickle is sent by its class name and message
            reply.send((False, RuntimeError(f"{type(e).__name__}: {e}")))
