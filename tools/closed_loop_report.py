"""Closed-loop report of one source tree, or of a change against its parent.

Usage, with each ROOT the root of a source checkout:

    python3 tools/closed_loop_report.py ROOT > digests.txt
    python3 tools/closed_loop_report.py ROOT CHANGE_ROOT

The report runs are the three packaged scenarios under both controller
variants, then every seed-1 episode of the four `perfbench` workloads, each
run whole, then a start that overlaps a wall under both variants: 40 runs.
The wall start is the one run whose field reads contact rows. Each tree
runs in its own interpreter, with its own `src` and `perfbench` first on
the path and one BLAS thread, so imports never mix.

With one tree it prints one line per run: the SHA-256 of its CSV log
(`SimulationLog.to_csv`), then the run's name. Two trees give the same logs
exactly when `diff` of their outputs is empty.

With two trees it prints a markdown table, one row per run: the digests
(first 12 hex digits), outcome and tick count on both sides, the first tick
whose CSV row differs with its first differing column, the same outside the
`solver_iterations` column (so a change that moves only iteration counts
reads `-` there), the largest
relative drift |b - a| / max(|a|, |b|) over the numeric `metrics()`
figures, with the figure's name, and the ticks of each QP answer status
(`TickRecord.solver_status`, not a CSV column) on both sides, such as
`max_iterations 1 / 0`. The last line counts byte-identical logs.
The log prints 12 significant digits and the metrics use full precision,
so a byte-identical log can still show a drift.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

PACKAGED = ("straight_corridor", "orthogonal_corridor", "ablation")
SEED = 1
TOOLS = Path(__file__).resolve().parent


def worker(root: str, workdir: str, labels: list[str]) -> None:
    """Run the tree's report runs (only `labels`, if any are given), write
    each CSV log to workdir/<label>.csv and print one JSON line per run."""
    root_path = Path(root)
    sys.path[:0] = [str(root_path / "src"), str(root_path / "perfbench")]
    import numpy as np
    from apfmpc.geometry import OrientedRectangle, Pose2D
    from apfmpc.kinematics import RobotState
    from apfmpc.mpc import VARIANTS
    from apfmpc.simulator import Scenario, load_scenario, metrics, packaged_scenario_path, run
    from workloads import WORKLOADS

    runs = [(f"{name}.{variant}",
             replace(load_scenario(packaged_scenario_path(name)), controller_variant=variant))
            for name in PACKAGED for variant in VARIANTS]
    runs += [(f"{workload}.seed{SEED}.{k}", episode.scenario)
             for workload, make in WORKLOADS.items()
             for k, episode in enumerate(make(SEED))]
    # the robot starts overlapping a wall by 0.47 m, its push's length, and
    # tracks (2, 7)-(12, 7) for 2 s
    wall = OrientedRectangle(Pose2D(0.565, 8.836, 1.8325), 7.83, 0.2026)
    runs += [(f"wall_start.{variant}",
              Scenario("wall_start", [wall], np.array([[2.0, 7.0], [12.0, 7.0]]), 1.0, [],
                       RobotState(2.127, 7.177, 2.781, 1.276, 0.318), 2.0, variant))
             for variant in VARIANTS]
    for label, scenario in runs:
        if labels and label not in labels:
            continue
        log = run(scenario)
        log.to_csv(Path(workdir) / f"{label}.csv")
        figures = metrics(log, scenario.path) if log.records else {}
        print(json.dumps({"label": label, "outcome": log.outcome, "ticks": len(log.records),
                          "statuses": Counter(r.solver_status for r in log.records),
                          "metrics": {k: v for k, v in figures.items()
                                      if isinstance(v, float)}}), flush=True)


def start(root: Path, workdir: Path, labels=()) -> subprocess.Popen:
    """The report runs of the tree at root, in a new interpreter."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = ("import sys; from closed_loop_report import worker; "
            "worker(sys.argv[1], sys.argv[2], sys.argv[3:])")
    return subprocess.Popen([sys.executable, "-c", code, str(Path(root).resolve()),
                             str(workdir), *labels],
                            cwd=TOOLS, env=env, stdout=subprocess.PIPE, text=True)


def results(proc: subprocess.Popen, workdir: Path):
    """Each run's record as it finishes, with the digest of its CSV log."""
    with proc:
        for line in proc.stdout:
            record = json.loads(line)
            record["csv"] = (workdir / f"{record['label']}.csv").read_bytes()
            record["digest"] = hashlib.sha256(record["csv"]).hexdigest()
            yield record
    if proc.returncode != 0:
        raise SystemExit(f"report runs failed with exit code {proc.returncode}")


def first_divergence(old: bytes, new: bytes, ignored: tuple[str, ...] = ()) -> str:
    """'tick, column' of the first differing CSV field outside the `ignored`
    columns, or '-' if none."""
    old_rows, new_rows = old.decode().splitlines(), new.decode().splitlines()
    header = old_rows[0].split(",")
    for tick, (a, b) in enumerate(zip(old_rows[1:], new_rows[1:])):
        column = next((name for name, x, y in zip(header, a.split(","), b.split(","))
                       if x != y and name not in ignored), None)
        if column is not None:
            return f"{tick}, {column}"
    if len(old_rows) != len(new_rows):
        return f"{min(len(old_rows), len(new_rows)) - 1}, end of log"
    return "-"


def largest_drift(old: dict, new: dict) -> str:
    """The largest relative drift of the shared metric figures, and its name."""
    drifts = [(0.0 if a == new[name] else abs(new[name] - a) / max(abs(a), abs(new[name])),
               name) for name, a in old.items() if name in new]
    drift, name = max(drifts, default=(0.0, ""))
    return f"{drift:.2g} ({name})" if drift else "0"


def status_ticks(old: dict, new: dict) -> str:
    """The ticks of each solver status on either side, 'max_iterations 1 / 0',
    in name order."""
    return ", ".join(f"{name} {old.get(name, 0)} / {new.get(name, 0)}"
                     for name in sorted(old.keys() | new.keys())) or "-"


def report_rows(old_runs: list[dict], new_runs: list[dict]) -> list[str]:
    """The two-tree table: a header, one row per run, and the identical count."""
    rows = ["| run | digest | outcome | ticks | first divergence (tick, column) "
            "| first divergence outside solver_iterations | largest relative drift "
            "| ticks per solver status |",
            "|---|---|---|---|---|---|---|---|"]
    same = 0
    for a, b in zip(old_runs, new_runs):
        same += a["csv"] == b["csv"]
        rows.append(
            f"| {a['label']} | {a['digest'][:12]} / {b['digest'][:12]} "
            f"| {a['outcome']} / {b['outcome']} | {a['ticks']} / {b['ticks']} "
            f"| {first_divergence(a['csv'], b['csv'])} "
            f"| {first_divergence(a['csv'], b['csv'], ('solver_iterations',))} "
            f"| {largest_drift(a['metrics'], b['metrics'])} "
            f"| {status_ticks(a['statuses'], b['statuses'])} |")
    rows.append(f"{same} of {len(old_runs)} logs byte-identical")
    return rows


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / str(k) for k in range(len(argv))]
        for d in dirs:
            d.mkdir()
        procs = [start(Path(root), d) for root, d in zip(argv, dirs)]
        if len(argv) == 1:
            for record in results(procs[0], dirs[0]):
                print(record["digest"], record["label"], flush=True)
            return 0
        old_runs, new_runs = (list(results(p, d)) for p, d in zip(procs, dirs))
    print("\n".join(report_rows(old_runs, new_runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
