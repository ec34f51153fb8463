"""Pipeline benchmark for faultgen: one workload per run, stages timed from outside.

    python3 perfbench/run.py --workload {pretrain_b8,fewshot,paper_b64} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/faultgen`. Each round of
the workload runs in a fresh child process that calls `faultgen.cli.main`
for each stage; this process then checks every stage's outputs and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, totals over the rounds
--seconds asks for; with --trace 1 one round runs untraced and one traced,
and the metrics are the per-layer ones plus the tracing overhead. Working
files go under .perfbench_work/ and are removed; a record of each run
(provenance, per-call times, spans) stays under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # a run must print its result within 180 s

sys.path.insert(0, HERE)

from workloads import WORKLOADS, plan, rounds_for  # noqa: E402

END_TO_END = {"setup_s": "s", "train.samples_per_s": "samples/s",
              "generate.series_per_s": "series/s", "evaluate.s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FD_THREADS", None)  # data and metric jobs run with the CLI default of one worker
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_rounds(workload: str, seed: int, work: str, out: str, rounds: int, traced: bool,
               deadline: float) -> dict:
    """Each round in a fresh child process, one after another; their calls and peak RSS."""
    calls, peak_kb = [], 0
    for rep in range(rounds):
        rout = os.path.join(out, f"round{rep}")
        os.makedirs(rout, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--work", work, "--out", rout,
               "--round", str(rep)] + (["--trace"] if traced else [])
        subprocess.run(cmd, env=child_env(), stdout=sys.stderr, check=True, cwd=ROOT,
                       timeout=max(1.0, deadline - time.monotonic()))
        with open(os.path.join(rout, "calls.json")) as fh:
            rec = json.load(fh)
        calls += rec["calls"]
        peak_kb = max(peak_kb, rec["peak_rss_kb"])
    return {"calls": calls, "peak_rss_kb": peak_kb}


def end_to_end(w, record: dict) -> dict:
    """Set-up is the median round; each stage metric is the total over all rounds."""
    calls = record["calls"]
    setup = {}
    for c in calls:
        if c["role"] == "setup":
            setup[c["rep"]] = setup.get(c["rep"], 0.0) + c["seconds"]
    stage: dict = {}
    for c in calls:
        if c["role"] == "stage":
            stage.setdefault(c["argv"][0], []).append(c["seconds"])
    train, generate, evaluate = stage[w.train_stage], stage["generate"], stage["evaluate"]
    return {
        "setup_s": statistics.median(setup.values()),
        "train.samples_per_s": w.train_steps * w.batch * len(train) / sum(train),
        "generate.series_per_s": w.generate_n * len(generate) / sum(generate),
        "evaluate.s": sum(evaluate) / len(evaluate),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def stage_seconds(record: dict) -> float:
    return sum(c["seconds"] for c in record["calls"] if c["role"] == "stage")


def stage_warnings(record: dict) -> dict:
    """RuntimeWarnings per stage command, summed over its calls."""
    out: dict = {}
    for c in record["calls"]:
        if c["role"] == "stage":
            out[c["argv"][0]] = out.get(c["argv"][0], 0) + c["runtime_warnings"]
    return out


# ----------------------------------------------------------------------
# provenance


def git_sha() -> str | None:
    """HEAD's commit from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def filesystem_of(path: str) -> str:
    """File system type of the mount holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def provenance(args, work: str, rounds: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "work_filesystem": filesystem_of(os.path.dirname(work)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="sets the number of rounds; the same value always makes the same calls")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "faultgen", "cli.py")):
        print(f"perfbench: no faultgen sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind: subprocess.run kills and reaps the child, and the finally below cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in BLAS_VARS:  # this process checks outputs with numpy too
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out = os.path.join(ROOT, ".perfbench_runs", tag)
    work = os.path.join(ROOT, ".perfbench_work", tag)
    # a traced run reports no end-to-end metric, so each of its two children makes one round
    variants = ["untraced", "traced"] if args.trace else ["untraced"]
    rounds = 1 if args.trace else rounds_for(w, args.seconds)
    records, quality, failures, attempted, failed = {}, {}, [], 0, 0
    try:
        import checks

        for v in variants:
            vwork = os.path.join(work, v)
            rec = run_rounds(w.name, args.seed, vwork, os.path.join(out, v), rounds,
                             v == "traced", deadline)
            records[v] = rec
            planned = plan(w, args.seed, vwork, rounds)
            rcs = [c["rc"] for c in rec["calls"]]
            if [list(c.argv) for c in planned] != [c["argv"] for c in rec["calls"]]:
                raise RuntimeError("the workload process made other calls than planned")
            attempted += len(rcs)
            failed += sum(rc != 0 for rc in rcs)
            failures += checks.check_calls(w, args.seed, vwork, list(zip(planned, rcs)))
            quality[v] = checks.quality_scores(list(zip(planned, rcs)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if failed:
        metrics_values = {}
    elif args.trace:
        from layers import PER_LAYER, per_layer
        from tracing import Spans

        overhead = 100.0 * (stage_seconds(records["traced"]) / stage_seconds(records["untraced"]) - 1.0)
        values = per_layer(Spans.load(os.path.join(out, "traced", "round0")), w.train_stage,
                           stage_warnings(records["traced"]), overhead)
        metrics_values = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = end_to_end(w, records["untraced"])
        metrics_values = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics_values}
    with open(os.path.join(out, "record.json"), "w") as fh:
        json.dump({"provenance": provenance(args, work, rounds), "result": result,
                   "check_failures": failures, "quality_scores": quality,
                   "calls": {v: r["calls"] for v, r in records.items()}}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
