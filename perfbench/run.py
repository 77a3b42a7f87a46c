"""Closed-loop tick benchmark for apfmpc.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corridor_apf --seed 1 --seconds 30 --trace 0

Prints notes (host facts, log digest, any failed check) and, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
Exits 1 when a correctness or determinism check fails and 2 when the
apfmpc sources are missing. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("corridor_apf", "open_tracking", "slip_recovery", "corridor_full")


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apfmpc" / "__init__.py").is_file():
        print(f"apfmpc sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import benchmark

    outcome = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    for note in outcome.notes:
        print(note)
    width = max(len(name) for name in outcome.metrics)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
