"""SHA-256 of the CSV log of every closed-loop report run.

Usage, from the root of a source checkout:

    python3 tools/log_digests.py > digests.txt

The report runs are the three packaged scenarios under both controller
variants, then every seed-1 episode of the four `perfbench` workloads, each
run whole. One line per run: the digest of `SimulationLog.to_csv`, then the
run's name. Two checkouts give the same logs exactly when `diff` of their
outputs is empty.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGED = ("straight_corridor", "orthogonal_corridor", "ablation")
SEED = 1


def main() -> int:
    # one BLAS thread before numpy loads, as the benchmark runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from apfmpc.mpc import VARIANTS
    from apfmpc.simulator import load_scenario, packaged_scenario_path, run, with_variant
    from workloads import WORKLOADS

    runs = [(f"{name}.{variant}",
             with_variant(load_scenario(packaged_scenario_path(name)), variant))
            for name in PACKAGED for variant in VARIANTS]
    runs += [(f"{workload}.seed{SEED}.{k}", episode.scenario)
             for workload, make in WORKLOADS.items()
             for k, episode in enumerate(make(SEED))]
    with tempfile.TemporaryDirectory() as workdir:
        csv = Path(workdir) / "log.csv"
        for label, scenario in runs:
            run(scenario).to_csv(csv)
            print(hashlib.sha256(csv.read_bytes()).hexdigest(), label, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
