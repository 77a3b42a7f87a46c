"""Closed-loop benchmark driver: timed passes, set-up timing, metrics.

A pass runs a list of episodes once through `apfmpc.simulator.run`, one
after the other in this process (a closed loop with one client: each tick
waits for the previous one). One pass over every whole episode feeds the
correctness checks and quality metrics. Then a fixed number of timed passes
replay the workload's timed episodes (see `workloads.Timing`); the count
depends on `--seconds` and the workload only, never on how fast the passes
run, so two commits are measured on the same sample design. Every timed
pass replays the same ticks; each tick's time is scaled to reference-host
speed (see `hostspeed`) and taken as its median over the passes.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import apfmpc.simulator
import hostspeed
from checks import check_episode
from tracing import STEP_ONLY, Tracer
from workloads import SETUP_LAYOUT, TIMING, WORKLOADS, timed_episodes

SETUP_REPEATS = 11
# timed passes stop early past this many times `--seconds`, so that a run on
# a host much slower than the calibration still ends in time; a note says so
TIME_CAP = 2.5

_SETUP_CODE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
start = perf_counter()
import apfmpc, apfmpc.cli
from apfmpc.mpc import MpcConfig, MpcController
from apfmpc.simulator import DEFAULT_GEOMETRY, load_scenario, packaged_scenario_path
scenario = load_scenario(packaged_scenario_path(sys.argv[2]))
MpcController(MpcConfig(), DEFAULT_GEOMETRY, variant=scenario.controller_variant)
print(perf_counter() - start)
"""


def setup_seconds(src: Path) -> float:
    """Median time, in fresh interpreters, to import apfmpc (CLI included),
    load a packaged scenario and build the controller, each scaled to
    reference-host speed with the calibrations taken around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.kernel_seconds()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src), SETUP_LAYOUT],
                              capture_output=True, text=True, timeout=60, check=True)
        scale = hostspeed.scale(before, hostspeed.kernel_seconds())
        times.append(scale * float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def csv_bytes(log, workdir: str) -> bytes:
    path = Path(workdir) / "episode.csv"
    log.to_csv(path)
    return path.read_bytes()


@dataclass
class Pass:
    logs: list
    digests: list[bytes]
    tick_seconds: np.ndarray       # per tick, MpcController.step
    loop_seconds: np.ndarray       # per tick, one turn of the closed loop
    tracer: Tracer
    # both series are at reference-host speed: each episode's raw times
    # times the `hostspeed.scale()` of the kernel timings around it


def run_pass(episodes, tracer: Tracer, workdir: str) -> Pass:
    """Run the episodes once. Each tick's turn of the closed loop runs from
    the start of its controller step to the start of the next one; the
    first turn also holds the episode's set-up and the last its wind-down,
    so the turns add up to the time spent in `simulator.run`."""
    logs, digests, loop_s, tick_scale, loop_scale = [], [], [], [], []
    kernel = hostspeed.kernel_seconds()
    with tracer.installed():
        for episode in episodes:
            first = len(tracer.tick_starts)
            start = perf_counter()
            logs.append(apfmpc.simulator.run(episode.scenario))
            marks = [start, *tracer.tick_starts[first + 1:], perf_counter()]
            before, kernel = kernel, hostspeed.kernel_seconds()
            scale = hostspeed.scale(before, kernel)
            loop_s.extend(np.diff(marks).tolist())
            loop_scale.extend([scale] * (len(marks) - 1))
            tick_scale.extend([scale] * (len(tracer.tick_starts) - first))
    for log in logs:
        digests.append(hashlib.sha256(csv_bytes(log, workdir)).digest())
    return Pass(logs, digests, np.array(tracer.tick_seconds) * tick_scale,
                np.array(loop_s) * loop_scale, tracer)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list[str]


def typical(passes: list[Pass], attr: str) -> np.ndarray:
    """Element-wise median over passes of a per-tick series."""
    return np.median(np.array([getattr(p, attr) for p in passes]), axis=0)


def _end_to_end(passes: list[Pass], checks, setup_s: float) -> dict:
    ticks = typical(passes, "tick_seconds")
    n_ticks = sum(len(log.records) for log in passes[0].logs)
    passed = sum(c.ok for c in checks)
    return {
        "tick_ms.p50": (1e3 * float(np.quantile(ticks, 0.50)), "ms"),
        "tick_ms.p95": (1e3 * float(np.quantile(ticks, 0.95)), "ms"),
        "closed_loop_ticks_per_s": (n_ticks / float(np.sum(typical(passes, "loop_seconds"))), "1/s"),
        "setup_s": (setup_s, "s"),
        "completion_rate": (passed / len(checks), "ratio"),
        "min_clearance_m": (min(c.min_clearance for c in checks), "m"),
        "rms_tracking_error_m": (statistics.fmean(c.rms_tracking_error for c in checks), "m"),
        "max_slip_measure": (max(c.max_slip for c in checks), "m/s"),
    }


def _per_layer(traced: list[Pass], untraced: list[Pass]) -> dict:
    def total(attr, *names):
        return sum(getattr(p.tracer.spans[n], attr) for p in traced for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    ticks = total("calls", "mpc.step")
    cp_calls = total("calls", "geometry.closest_pair")
    solves = total("calls", "qp.solve")
    iterations = sum(p.tracer.qp_iterations for p in traced)
    ms = 1e3 / ticks
    return {
        "geometry.closest_pair.calls_per_tick": (cp_calls / ticks, "count"),
        "geometry.closest_pair.ms_per_tick": (total("total_s", "geometry.closest_pair") * ms, "ms"),
        "geometry.closest_pair.us_per_call": (ratio(1e6 * total("total_s", "geometry.closest_pair"), cp_calls), "us"),
        "geometry.active_pair_ratio": (ratio(total("calls", "potential_field.quadratic_approx"), cp_calls), "ratio"),
        "potential_field.quadratic_approx.calls_per_tick": (total("calls", "potential_field.quadratic_approx") / ticks, "count"),
        "potential_field.quadratic_approx.ms_per_tick": (total("total_s", "potential_field.quadratic_approx") * ms, "ms"),
        "linearization.ms_per_tick": (total("total_s", "linearization.linearize", "linearization.augment") * ms, "ms"),
        "prediction.ms_per_tick": (total("total_s", "prediction.predict_robot", "prediction.predict_obstacle") * ms, "ms"),
        "mpc.assemble.calls_per_tick": (total("calls", "mpc.assemble") / ticks, "count"),
        "mpc.assemble.self_ms_per_tick": (total("self_s", "mpc.assemble") * ms, "ms"),
        "mpc.step.self_ms_per_tick": (total("self_s", "mpc.step") * ms, "ms"),
        "mpc.band_doublings_per_tick": (sum(p.tracer.band_doublings for p in traced) / ticks, "count"),
        "mpc.held_input_ticks": (sum(p.tracer.held_input_ticks for p in traced[:1]), "count"),
        "mpc.build_reference.ms_per_tick": (total("total_s", "mpc.build_reference") * ms, "ms"),
        "qp.solve.calls_per_tick": (solves / ticks, "count"),
        "qp.solve.ms_per_tick": (total("total_s", "qp.solve") * ms, "ms"),
        "qp.iterations_per_tick": (iterations / ticks, "count"),
        "qp.us_per_iteration": (ratio(1e6 * total("total_s", "qp.solve"), iterations), "us"),
        "qp.infeasible_ratio": (ratio(sum(p.tracer.qp_infeasible for p in traced), solves), "ratio"),
        "kinematics.euler_step.ms_per_tick": (total("total_s", "kinematics.euler_step") * ms, "ms"),
        "simulator.closest_pair.ms_per_tick": (total("total_s", "simulator.closest_pair") * ms, "ms"),
        "simulator.run.self_ms_per_tick": (total("self_s", "simulator.run") * ms, "ms"),
        "trace.overhead_ratio": (float(np.median(typical(traced, "tick_seconds"))
                                       / np.median(typical(untraced, "tick_seconds"))), "ratio"),
    }


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / TIMING[workload].pass_seconds))


def benchmark(workload: str, seed: int, seconds: float, trace: bool, src: Path) -> Outcome:
    episodes = WORKLOADS[workload](seed)
    timed = timed_episodes(workload, episodes)
    notes = [f"host {host_facts()}"]
    setup_s = math.nan if trace else setup_seconds(src)
    # with --trace 1 each round is an untraced and a traced pass
    rounds = pass_count(workload, seconds / 2 if trace else seconds)

    with tempfile.TemporaryDirectory(prefix=".csv-", dir=Path(__file__).parent) as workdir:
        # determinism: the first episode twice in this process, byte for byte
        twice = [csv_bytes(apfmpc.simulator.run(episodes[0].scenario), workdir)
                 for _ in range(2)]
        checked = run_pass(episodes, Tracer(STEP_ONLY), workdir)
        untraced, traced = [], []
        cap = perf_counter() + TIME_CAP * seconds
        while not untraced or (len(untraced) < rounds and perf_counter() < cap):
            untraced.append(run_pass(timed, Tracer(STEP_ONLY), workdir))
            if trace:
                traced.append(run_pass(timed, Tracer(), workdir))

    first = untraced[0]
    deterministic = (twice[0] == twice[1]
                     and checked.digests[0] == hashlib.sha256(twice[0]).digest()
                     and all(p.digests == first.digests for p in untraced[1:] + traced))
    if not deterministic:
        # passes no longer replay the same ticks; time the first one only
        untraced, traced = untraced[:1], traced[:1]
    checks = [check_episode(e, log) for e, log in zip(episodes, checked.logs)]
    failed = sum(not c.ok for c in checks)
    for episode, check in zip(episodes, checks):
        for problem in check.problems:
            notes.append(f"FAIL {episode.scenario.name}: {problem}")
    if not deterministic:
        notes.append("FAIL logs differ between repeated runs of the same episode")
    if len(untraced) < rounds:
        notes.append(f"time cap reached after {len(untraced)} of {rounds} timed passes")
    digest = hashlib.sha256(b"".join(checked.digests)).hexdigest()
    notes.append(f"digest {workload} seed={seed} {digest}")
    notes.append(f"episodes={len(episodes)} timed_episodes={len(timed)}"
                 f" tick_samples={len(first.tick_seconds)}"
                 f" (each the median of {len(untraced)} passes at reference-host speed)")

    metrics = (_per_layer(traced, untraced) if trace
               else _end_to_end(untraced, checks, setup_s))
    return Outcome(correct=failed == 0 and deterministic, attempted=len(episodes),
                   failed=failed, metrics=metrics, notes=notes)
