"""Tests of the benchmark itself: seeded inputs, wrapper hygiene, the
outside check and metric names. Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import apfmpc.mpc  # noqa: E402
import apfmpc.simulator  # noqa: E402
from apfmpc.kinematics import RobotState  # noqa: E402
from apfmpc.simulator import scenario_to_dict  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import check_episode  # noqa: E402
from workloads import TIMING, WORKLOADS, Episode, _Strata, timed_episodes  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _as_data(episodes):
    return [(scenario_to_dict(e.scenario), [repr(w) for w in e.walls]) for e in episodes]


def _short(episode: Episode, seconds: float = 0.5) -> Episode:
    return Episode(dataclasses.replace(episode.scenario, duration=seconds), episode.walls)


def _targets():
    return {name: tracing._owner(*where) for name, where in tracing.TARGETS.items()}


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_scenarios(workload):
    make = WORKLOADS[workload]
    assert _as_data(make(7)) == _as_data(make(7))
    assert _as_data(make(7)) != _as_data(make(8))


def test_strata_cover_every_slice():
    draw = _Strata(np.random.default_rng(0), 5)
    slices = sorted(int(draw("q", k, 0.0, 5.0)) for k in range(5))
    assert slices == [0, 1, 2, 3, 4]


def test_timed_episodes_replay_the_first_ticks_exactly():
    episodes = [_short(e, 2.0) for e in WORKLOADS["open_tracking"](3)[:2]]
    timed = timed_episodes("open_tracking", episodes)
    for whole, cut in zip(episodes, timed):
        assert cut.scenario.duration == TIMING["open_tracking"].seconds
        full = apfmpc.simulator.run(whole.scenario).records
        head = apfmpc.simulator.run(cut.scenario).records
        assert full[:len(head)] == head


def test_pass_series_have_one_entry_per_tick(tmp_path):
    episodes = [_short(e, 0.3) for e in WORKLOADS["corridor_apf"](2)[:2]]
    result = harness.run_pass(episodes, tracing.Tracer(tracing.STEP_ONLY), str(tmp_path))
    ticks = sum(len(log.records) for log in result.logs)
    assert len(result.tick_seconds) == len(result.loop_seconds) == ticks
    assert np.all(result.tick_seconds > 0) and np.all(result.loop_seconds > result.tick_seconds)


def test_pass_count_follows_seconds():
    assert harness.pass_count("corridor_apf", 0.01) == 1
    assert harness.pass_count("open_tracking", 40) > harness.pass_count("open_tracking", 10)


def test_wrappers_restored_after_run_and_after_error():
    before = {name: _current(*where) for name, where in _targets().items()}
    episode = _short(WORKLOADS["corridor_apf"](1)[0])
    tracer = tracing.Tracer()
    with tracer.installed():
        assert apfmpc.mpc.closest_pair is not before["geometry.closest_pair"]
        apfmpc.simulator.run(episode.scenario)
    assert {name: _current(*where) for name, where in _targets().items()} == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert {name: _current(*where) for name, where in _targets().items()} == before

    spans = tracer.spans
    ticks = spans["mpc.step"].calls
    assert ticks == 5 and len(tracer.tick_seconds) == ticks
    # mpc and simulator closest-pair calls are counted apart
    footprints = len(episode.scenario.obstacles) + len(episode.scenario.corridor)
    assert spans["geometry.closest_pair"].calls == ticks * 20 * footprints
    assert spans["simulator.closest_pair"].calls == ticks * len(episode.scenario.obstacles)
    for stats in spans.values():
        assert 0.0 <= stats.self_s <= stats.total_s


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.installed():
        apfmpc.simulator.run(_short(WORKLOADS["open_tracking"](1)[0]).scenario)
    run = tracer.spans["simulator.run"]
    children = sum(tracer.spans[n].total_s for n in ("mpc.step", "mpc.build_reference",
                                                     "kinematics.euler_step",
                                                     "simulator.closest_pair"))
    assert run.self_s == pytest.approx(run.total_s - children, rel=1e-6, abs=1e-9)
    assert tracer.spans["geometry.closest_pair"].calls == 0


def test_check_passes_clean_episode_and_flags_wall_overlap():
    episode = _short(WORKLOADS["slip_recovery"](3)[0], 1.0)
    log = apfmpc.simulator.run(episode.scenario)
    assert check_episode(episode, log).ok
    # push one logged state into the top wall: still labelled completed
    wall_y = episode.walls[0].center.y
    record = log.records[3]
    moved = RobotState(record.state.x, wall_y, record.state.heading,
                       record.state.v_front, record.state.v_rear)
    log.records[3] = dataclasses.replace(record, state=moved)
    problems = check_episode(episode, log).problems
    assert "completed with obstacle or wall overlap" in problems


def test_check_flags_nonfinite_state_labelled_collided():
    episode = _short(WORKLOADS["open_tracking"](2)[0], 0.3)
    log = apfmpc.simulator.run(episode.scenario)
    record = log.records[-1]
    nan_state = RobotState(float("nan"), record.state.y, record.state.heading,
                           record.state.v_front, record.state.v_rear)
    log.records[-1] = dataclasses.replace(record, state=nan_state)
    log.outcome = apfmpc.simulator.COLLIDED
    problems = check_episode(episode, log).problems
    assert "non-finite state labelled collided" in problems


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)

    episodes = [_short(WORKLOADS["corridor_apf"](1)[0], 0.2)]
    plain = harness.run_pass(episodes, tracing.Tracer(tracing.STEP_ONLY), str(tmp_path))
    traced = harness.run_pass(episodes, tracing.Tracer(), str(tmp_path))
    checks = [check_episode(e, log) for e, log in zip(episodes, plain.logs)]
    e2e = harness._end_to_end([plain], checks, setup_s=0.1)
    layer = harness._per_layer([traced], [plain])
    assert list(e2e) == declared_e2e
    assert list(layer) == declared_layer
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**e2e, **layer}.items():
        assert units[name] == unit, name
