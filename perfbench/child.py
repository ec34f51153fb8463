"""The workload process: runs one round's CLI calls in-process and times each.

    python3 perfbench/child.py --workload NAME --seed N --work DIR --out DIR \
        --round R [--trace]

Each call goes through `faultgen.cli.main`, timed from outside. The process
writes `calls.json` (per-call exit code, wall time and CPU times, plus its
own peak resident set) to --out, and with --trace also the spans of the
wrapped layer functions. Run it with `src/` and `perfbench/` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import warnings

from workloads import WORKLOADS, round_calls


def _run_call(cli_main, argv, tracer, log) -> tuple[object, str, int]:
    """(exit code or None, error text, RuntimeWarnings counted) for one CLI call."""
    with contextlib.redirect_stdout(log), warnings.catch_warnings(record=tracer is not None) as seen:
        if tracer is not None:
            warnings.simplefilter("always", RuntimeWarning)
        try:
            if tracer is None:
                rc = cli_main(list(argv))
            else:
                rc = tracer.call(f"stage.{argv[0]}", cli_main, list(argv))
            error = "" if rc == 0 else f"exit code {rc}"
        except Exception as e:  # a stage that raises is a failed operation, not a crash of the run
            rc, error = None, f"{type(e).__name__}: {e}"
    counted = sum(issubclass(w.category, RuntimeWarning) for w in seen or ())
    return rc, error, counted


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    from faultgen.cli import main as cli_main

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    broken = False
    os.makedirs(args.work, exist_ok=True)
    try:
        with open(os.path.join(args.work, "cli_stdout.log"), "w") as log:
            for call in round_calls(WORKLOADS[args.workload], args.seed, args.work, args.round):
                if broken:  # a call needs the earlier calls of its round
                    rc, error, warned = None, "skipped: an earlier call it needs failed", 0
                    seconds, user, system = 0.0, 0.0, 0.0
                else:
                    t0, c0 = time.perf_counter(), os.times()
                    rc, error, warned = _run_call(cli_main, call.argv, tracer, log)
                    seconds, c1 = time.perf_counter() - t0, os.times()
                    user, system = c1.user - c0.user, c1.system - c0.system
                if rc != 0:
                    broken = True
                    print(f"perfbench: {' '.join(call.argv)}: {error}", file=sys.stderr)
                records.append({"role": call.role, "rep": call.rep, "argv": list(call.argv),
                                "rc": rc, "error": error, "seconds": seconds,
                                "user_seconds": user, "system_seconds": system,
                                "runtime_warnings": warned})
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.save(args.out)
    with open(os.path.join(args.out, "calls.json"), "w") as fh:
        json.dump({"calls": records, "peak_rss_kb": peak_kb}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
