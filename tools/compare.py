"""Byte-identity check: run one fixed pipeline on a git revision and on the working tree, and compare the outputs.

    python3 tools/compare.py --against <rev>

`<rev>`'s `src/` is exported with `git archive` into the gitignored `.compare_work/`. The pipeline then runs once
on that export and once on the working tree's `src/`, each command in a fresh process with one BLAS thread and
relative paths, so that both output trees could be the same byte for byte. Every file that differs, or that
only one side holds, is printed with its sha256 on each side. The exit status is 0 only if the trees are
identical.

The pipeline writes a normal corpus and a corpus of each fault kind, four more with the kind-specific flags and
two held-out test corpora. It then pretrains a desk backbone for 30 steps, fine-tunes an adapter for 10,
generates from each checkpoint, evaluates the fine-tuned series over five seeds, embeds three corpora, and runs
the downstream harness. Both runs take about 15 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".compare_work")
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
FAULT_KINDS = (  # `faultgen.data.FAULT_KINDS`, spelled out because this script imports neither tree's package
    "sudden", "gradual", "periodic", "random_noise", "intermittent", "impulse", "trend", "saturation", "offset",
    "frequency_shift", "amplitude_shift", "missing_data", "low_frequency_anomaly", "sudden_recovery")
PRE, FINE = "pre/checkpoints/final.ckpt", "fine/checkpoints/final.ckpt"
PIPELINE = [
    ["make-data", "--kind", "normal", "--n", "32", "--out", "normal"],
    ["make-data", "--kind", "normal", "--n", "8", "--seed", "2", "--out", "normal_test"],
    ["make-data", "--kind", "fault", "--fault", "sudden", "--n", "8", "--seed", "2", "--out", "sudden_test"],
    *(["make-data", "--kind", "fault", "--fault", kind, "--n", "8", "--seed", "1", "--out", f"fault_{kind}"]
      for kind in FAULT_KINDS),
    ["make-data", "--kind", "fault", "--fault", "periodic", "--period", "7", "--n", "8", "--out", "period_7"],
    ["make-data", "--kind", "fault", "--fault", "saturation", "--clip-level", "0.5", "--n", "8", "--out", "clip_0.5"],
    ["make-data", "--kind", "fault", "--fault", "intermittent", "--burst-len", "2", "--n", "8", "--out", "burst_2"],
    ["make-data", "--kind", "fault", "--fault", "impulse", "--count", "3", "--n", "8", "--out", "count_3"],
    ["pretrain", "--data", "normal", "--override", "train.pretrain_steps=30", "--out", "pre"],
    ["finetune", "--data", "fault_sudden", "--checkpoint", PRE, "--override", "train.finetune_steps=10",
     "--out", "fine"],
    ["generate", "--checkpoint", PRE, "--n", "12", "--seed", "3", "--out", "gen_pre"],
    ["generate", "--checkpoint", FINE, "--n", "12", "--seed", "3", "--out", "gen_fine"],
    ["evaluate", "--real", "fault_sudden", "--synth", "gen_fine", "--seeds", "0,1,2,3,4", "--out", "eval"],
    ["embed", "--corpus", "normal", "--corpus", "fault_sudden", "--corpus", "gen_fine", "--out", "embed"],
    ["downstream", "--train", "normal", "--train", "fault_sudden", "--synth", "gen_pre", "--synth", "gen_fine",
     "--test", "normal_test", "--test", "sudden_test", "--out", "downstream"],
]


def file_hashes(root) -> dict[str, str]:
    """The sha256 of each file under `root`, keyed by its path relative to `root`, '/'-separated."""
    hashes = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, root).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def compare_trees(a, b) -> list[tuple[str, str | None, str | None]]:
    """(path, sha256 under `a`, sha256 under `b`) of each file whose bytes differ, None on the side without it."""
    ha, hb = file_hashes(a), file_hashes(b)
    return [(path, ha.get(path), hb.get(path)) for path in sorted(ha.keys() | hb.keys())
            if ha.get(path) != hb.get(path)]


def export(rev: str, dest: str) -> str:
    """Extract `rev`'s src/ under `dest` with `git archive`; returns its commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return commit


def run_pipeline(src: str, out: str) -> None:
    """Run PIPELINE with `src` on the path, in `out`, one fresh process per command."""
    os.makedirs(out)
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": src}
    for argv in PIPELINE:
        done = subprocess.run([sys.executable, "-m", "faultgen.cli", *argv], cwd=out, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode:
            sys.exit(f"{' '.join(argv)} exited {done.returncode} with src {src}:\n{done.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the git revision to compare the working tree with")
    args = parser.parse_args(argv)
    shutil.rmtree(WORK, ignore_errors=True)
    commit = export(args.against, os.path.join(WORK, "rev"))
    sides = {"rev": os.path.join(WORK, "rev", "src"), "tree": os.path.join(ROOT, "src")}
    for side, src in sides.items():
        run_pipeline(src, os.path.join(WORK, side, "out"))
    a, b = (os.path.join(WORK, side, "out") for side in sides)
    differing = compare_trees(a, b)
    for path, ha, hb in differing:
        print(f"{path}  {ha or '(missing)'}  {hb or '(missing)'}")
    print(f"{len(differing)} files differ between {commit[:12]}'s outputs and the working tree's")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
