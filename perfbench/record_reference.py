"""Record the reference result values that checks.py compares against.

    python3 perfbench/record_reference.py --seeds 0-10 [--workloads a,b]

Runs fit, predict, evaluate and tune once per workload and seed, exactly as
the benchmark does, and merges the values (rkhs_loss, top1_accuracy,
top10_accuracy, tune_best_score) into perfbench/reference.json. Each
workload's plausibility band, used for seeds without a recorded value, spans
the recorded values widened by BAND_FACTOR on both sides: wide enough for a
seed with only a couple of top-1 hits, narrow enough that rankings in random
order fall outside it.

Re-record only when a change is meant to alter results, and say so with the
change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run

BAND_FACTOR = 3.0


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-10 or 1,2,5")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import checks
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    reference = checks.load_reference()
    for name in names:
        entry = reference.setdefault(name, {"seeds": {}, "bands": {}})
        for seed in _seeds(args.seeds):
            work = run.WORK / f"reference-{name}-seed{seed}-{os.getpid()}"
            ctx = run.Context(wl=WORKLOADS[name], seed=seed,
                              runner=run.Runner(time.monotonic() + run.RUN_BUDGET_S),
                              reference={}, inputs_dir=work / "inputs")
            try:
                run.setup(ctx, work, 1)
                result = run.run_pass(ctx, work / "pass0", run.THREADS, False,
                                      ("fit", "predict", "evaluate", "tune"))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            errors = [e for inv in result.invocations.values() for e in inv.errors]
            if errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = result.values
            print(f"{name} seed {seed}: {result.values}")
        for metric in next(iter(entry["seeds"].values())):
            values = [v[metric] for v in entry["seeds"].values()]
            entry["bands"][metric] = [min(values) / BAND_FACTOR, max(values) * BAND_FACTOR]
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
