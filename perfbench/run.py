"""qdyn benchmark: one seeded workload as a closed loop of CLI jobs.

    python3 perfbench/run.py --workload {boundary,fates,spectra,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Every run also writes perfbench/out/<workload>-seed<N>-trace<T>.json with
the environment, the input and output property shares and the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_environment() -> None:
    """Single-threaded BLAS and no qdyn logging, set before numpy loads.

    QDYN_LOG stays unset because cli._setup_logging adds a stderr handler on
    every main() call, so in-process repeats would stack handlers.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QDYN_LOG", None)


def main(argv=None) -> int:
    pin_environment()
    args = parse_args(argv)
    if not (ROOT / "src" / "qdyn" / "cli.py").is_file():
        print(f"perfbench: no qdyn sources at {ROOT / 'src' / 'qdyn'}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    path = harness.out_dir(ROOT) / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"workload={args.workload} seed={args.seed} jobs={record['jobs']} items={record['items']} "
          f"failed_frac={record['failed_frac']:.4g} record={path.relative_to(ROOT)}")
    print("environment: " + json.dumps(record["environment"]))
    print("shares: " + " ".join(f"{k}={v:.3f}" for k, v in record["shares"].items()))
    for reason, count in record["failure_reasons"].items():
        print(f"FAILED x{count}: {reason}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
