"""mapdyn benchmark: `estimate` and `simulate` end to end, layers when traced.

    python3 perfbench/run.py --workload state-tau --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from `src/` of the checkout this
file sits in. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The full record (seed, raw
timings, digests, environment, failed operations) is the line before it and
is also written to `.perfbench/results/`. perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CLI_TIMEOUT_S = 60.0

# One BLAS thread for this process and, inherited, for every command it
# starts. With the default the `estimate` pool oversubscribes the cores and
# per-sample times spread threefold between runs, which no bound can hold.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ.pop("MAPDYN_LOG", None)
    sys.path.insert(0, str(SRC))
    # imported only now, so that numpy starts with the BLAS settings above
    import measure

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(measure.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mapdyn" / "cli.py").is_file():
        print(f"perfbench: no mapdyn sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = measure.Bench(work, args.workload, args.seed, CLI_TIMEOUT_S)
        if args.trace:
            import trace_run

            record = trace_run.traced(bench, args.seconds, WORK / "results")
        else:
            record = bench.untraced(args.seconds)
    except measure.SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
