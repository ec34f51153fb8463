"""Forward noising, the linear noise schedule of Ho et al. (2020), and the reverse generation process.

`make_schedule` alone builds and checks a schedule; `reverse_step` alone clips the implied clean signal to +-X0_CLIP.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .data import MAX_SERIES, NOISE_STREAM, check_value_count, series_rng
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

    The series are split into contiguous, near-equal shards, one per CPU this process may run on
    (`os.sched_getaffinity`, so `taskset` or `os.sched_setaffinity` limits the workers), but at most n // 2, so
    that every shard holds two series or more. This process runs the first shard, and each other shard runs in a
    forked worker, which dies with this process; whatever `predict_noise` changes stays in the worker. Each shard
    runs its series through the whole chain in near-equal chunks of at most SAMPLE_CHUNK, none of a single series,
    so for n >= 2 each series keeps the bits it has in one batch of all n, on any number of CPUs. If shards fail,
    this raises the lowest failing shard's exception, with its class and message. Without `os.fork` or
    `os.sched_getaffinity`, or on one CPU, all runs here. A worker's CPU time and memory count in this process's
    RUSAGE_CHILDREN, not in its own usage, which the benchmark's `peak_rss_mb` and per-call `user_seconds` read."""
    if sched.T != model.cfg.T:  # a model runs only the chain it was trained on, as in `train` and `restore`
        raise ContractError(f"the schedule has {sched.T} timesteps, but the model was built for {model.cfg.T}")
    if not 0 <= n <= MAX_SERIES:
        raise ContractError(f"sample needs 0 <= n <= {MAX_SERIES} series, got {n}")
    check_value_count(n, model.cfg.tau, model.cfg.d)
    if n == 0:
        return np.zeros((0, model.cfg.tau, model.cfg.d), dtype=np.float32)

    def run(shard: range) -> np.ndarray:
        chunks = _split(shard, -(-len(shard) // SAMPLE_CHUNK))
        return np.concatenate([_chain(model, sched, rows, seed) for rows in chunks])

    return np.concatenate(_run_shards(run, _split(range(n), _shard_count(n))))


def _chain(model, sched: NoiseSchedule, rows: range, seed: int) -> np.ndarray:
    """Series `rows` run through the whole reverse chain as one batch."""
    shape = (model.cfg.tau, model.cfg.d)
    rngs = [series_rng(seed, NOISE_STREAM, i) for i in rows]
    x = np.stack([r.standard_normal(shape) for r in rngs]).astype(np.float32)
    for t in reversed(range(sched.T)):
        eps_hat = model.predict_noise(x, t)
        if t > 0:
            z = np.stack([r.standard_normal(shape) for r in rngs]).astype(np.float32)
        else:
            z = np.zeros_like(x)
        x = reverse_step(x, t, eps_hat, z, sched)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite sample state at step t={t}")
    return x


def _split(rows: range, parts: int) -> list[range]:
    """`parts` contiguous ranges covering `rows`, whose lengths differ by at most one, the longer first."""
    q, r = divmod(len(rows), parts)
    cuts = [rows.start + k * q + min(k, r) for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _shard_count(n: int) -> int:
    """One shard per CPU this process may run on, but at most n // 2, and one where a worker cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // 2))


def _run_shards(work, shards: list[range]) -> list:
    """[work(shard) for shard in shards]: the first shard here, each other one in a forked worker."""
    workers, replies, ends = [], [], []  # (pid, read end of its pipe); each one's reply; each one's wait status
    try:
        for shard in shards[1:]:
            workers.append(_fork(work, shard))
        first = work(shards[0])
        for _, fd in workers:  # a worker's reply ends, at EOF, as it exits
            with open(fd, "rb", closefd=False) as fh:
                replies.append(fh.read())
    finally:
        for pid, _ in workers[len(replies):]:  # the workers not heard from when this process's part raised
            os.kill(pid, signal.SIGKILL)
        for pid, fd in workers:
            os.close(fd)
            ends.append(os.waitpid(pid, 0)[1])
    blocks = [first]
    for reply, end in zip(replies, ends):  # every worker is reaped before the lowest failing shard's error is raised
        if not reply:
            raise RuntimeError(f"a sampling worker ended without a reply, wait status {end}")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        blocks.append(value)
    return blocks


def _fork(work, shard: range) -> tuple[int, int]:
    """Start a worker that sends back the pickled (True, work(shard)), or (False, its exception), and exits."""
    parent = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:  # the worker: it leaves by os._exit, so it flushes no inherited buffer and runs no exit hook
        os.close(read)
        if PRCTL is not None:
            PRCTL(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent died before the death signal was set
            os._exit(1)
        try:
            reply = pickle.dumps((True, work(shard)), pickle.HIGHEST_PROTOCOL)
        except BaseException as e:
            try:
                reply = pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an exception that does not pickle is sent by its class name and message
                reply = pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}")))
        with open(write, "wb") as fh:
            fh.write(reply)
        status = 0
    finally:
        os._exit(status)
