"""The workloads: their inputs, set-up calls and timed stage calls.

Every input derives from the benchmark seed, so one seed always gives the
same corpora, the same training batches and the same noise. A workload is
a fixed plan of `faultgen` CLI calls, made in rounds. One round sets up
its own copy of the inputs and then runs the pipeline on it: training,
generation and evaluation. Every round makes the same calls with the same
seeds, so its outputs must equal the first round's.

A metric is the total over all rounds, not one call. On a shared machine
speed drifts in phases of seconds to minutes, and consecutive calls tend to
see the same phase; a process's own state can also move its speed. Each
round runs in a fresh process, so a metric averages over the run's phases
and over several processes rather than sampling one of each. `--seconds`
sets the number of rounds (`rounds_for`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

FAULT_KIND = "sudden"


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    batch: int
    normal_n: int          # series in the normal (pretraining) corpus
    held_n: int            # series in the held-out corpus evaluation compares against
    train_steps: int       # steps of the timed training stage
    generate_n: int        # series the timed generate stage writes
    eval_seeds: tuple[int, ...]
    loss_must_fall: bool = False   # the timed pretrain must end clearly below its first loss
    fault_train_n: int = 0     # fewshot only: fault series the adapter is fine-tuned on
    setup_pretrain_steps: int = 0  # fewshot only: brief backbone pretrain inside set-up
    round_s: float = 15.0          # nominal seconds of one round on the reference machine

    @property
    def fewshot(self) -> bool:
        return self.fault_train_n > 0

    @property
    def train_stage(self) -> str:
        return "finetune" if self.fewshot else "pretrain"


# paper_b64 is not in BENCHMARK.json: see perfbench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("pretrain_b8", preset="desk", batch=8, normal_n=4000, held_n=64,
                 train_steps=100, generate_n=12, eval_seeds=(0, 1, 2, 3, 4), loss_must_fall=True),
        Workload("fewshot", preset="desk", batch=8, normal_n=512, held_n=64,
                 train_steps=60, generate_n=12, eval_seeds=(0, 1, 2, 3, 4),
                 fault_train_n=10, setup_pretrain_steps=30),
        Workload("paper_b64", preset="paper", batch=64, normal_n=4000, held_n=64,
                 train_steps=16, generate_n=4, eval_seeds=(0, 1, 2), round_s=25.0),
    )
}


def rounds_for(w: Workload, seconds: float) -> int:
    """Rounds that fill about `seconds` on the reference machine; at least one."""
    return max(1, round(seconds / w.round_s))


def corpus_seeds(seed: int) -> dict:
    """Distinct make-data seeds for each corpus, all derived from the benchmark seed."""
    base = 1000 * seed
    return {"normal": base + 1, "held": base + 2, "fault_train": base + 3, "fault_held": base + 4}


@dataclass(frozen=True)
class Call:
    """One CLI call: its role ('setup' or 'stage'), its round and its argv."""

    role: str
    rep: int
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def round_dir(work: str, rep: int) -> str:
    return os.path.join(work, f"round{rep}")


def _setup(w: Workload, seed: int, d: str) -> list[list[str]]:
    s = corpus_seeds(seed)
    argvs = [["make-data", "--kind", "normal", "--n", str(w.normal_n),
              "--seed", str(s["normal"]), "--out", f"{d}/normal"]]
    if w.fewshot:
        argvs += [
            ["pretrain", "--preset", w.preset, "--data", f"{d}/normal", "--seed", str(seed),
             "--override", f"train.pretrain_steps={w.setup_pretrain_steps}",
             "--override", f"train.batch_size={w.batch}", "--out", f"{d}/backbone"],
            ["make-data", "--kind", "fault", "--fault", FAULT_KIND, "--n", str(w.fault_train_n),
             "--seed", str(s["fault_train"]), "--out", f"{d}/fault_train"],
            ["make-data", "--kind", "fault", "--fault", FAULT_KIND, "--n", str(w.held_n),
             "--seed", str(s["fault_held"]), "--out", f"{d}/held"],
        ]
    else:
        argvs.append(["make-data", "--kind", "normal", "--n", str(w.held_n),
                      "--seed", str(s["held"]), "--out", f"{d}/held"])
    return argvs


def _stages(w: Workload, seed: int, d: str) -> list[list[str]]:
    if w.fewshot:
        train = ["finetune", "--preset", w.preset, "--data", f"{d}/fault_train",
                 "--checkpoint", f"{d}/backbone/checkpoints/final.ckpt", "--seed", str(seed),
                 "--override", f"train.finetune_steps={w.train_steps}",
                 "--override", f"train.batch_size={w.batch}", "--out", f"{d}/train"]
    else:
        train = ["pretrain", "--preset", w.preset, "--data", f"{d}/normal", "--seed", str(seed),
                 "--override", f"train.pretrain_steps={w.train_steps}",
                 "--override", f"train.batch_size={w.batch}", "--out", f"{d}/train"]
    generate = ["generate", "--checkpoint", f"{d}/train/checkpoints/final.ckpt",
                "--n", str(w.generate_n), "--seed", str(seed), "--out", f"{d}/generated"]
    evaluate = ["evaluate", "--real", f"{d}/held", "--synth", f"{d}/generated",
                "--seeds", ",".join(str(v) for v in w.eval_seeds), "--out", f"{d}/report"]
    return [train, generate, evaluate]


def round_calls(w: Workload, seed: int, work: str, rep: int) -> list[Call]:
    """One round's calls, in order: its set-up, training, generation, evaluation."""
    d = round_dir(work, rep)
    return ([Call("setup", rep, tuple(a)) for a in _setup(w, seed, d)]
            + [Call("stage", rep, tuple(a)) for a in _stages(w, seed, d)])


def plan(w: Workload, seed: int, work: str, rounds: int) -> list[Call]:
    """Every call the workload makes, round after round."""
    return [c for rep in range(rounds) for c in round_calls(w, seed, work, rep)]
