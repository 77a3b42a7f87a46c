"""Spans around the public functions each apfmpc layer exposes.

`Tracer.installed()` replaces each target attribute with a timing wrapper
for the duration of a `with` block and puts the original back when it
ends, also on error. Spans are aggregated in memory per name: call count,
total time and self time (a span's duration minus the time its child spans
took). Functions are wrapped where their callers look them up, so the
closest-pair calls that `apfmpc.mpc` makes are counted apart from the
clearance checks in `apfmpc.simulator`.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass
from time import perf_counter

# span name -> (module that owns the looked-up name, attribute path)
TARGETS = {
    "simulator.run": ("apfmpc.simulator", "run"),
    "simulator.closest_pair": ("apfmpc.simulator", "closest_pair"),
    "kinematics.euler_step": ("apfmpc.simulator", "euler_step"),
    "mpc.build_reference": ("apfmpc.simulator", "build_reference"),
    "mpc.step": ("apfmpc.mpc", "MpcController.step"),
    "mpc.assemble": ("apfmpc.mpc", "MpcController.assemble"),
    "linearization.linearize": ("apfmpc.mpc", "linearize"),
    "linearization.augment": ("apfmpc.mpc", "augment"),
    "prediction.predict_robot": ("apfmpc.mpc", "predict_robot"),
    "prediction.predict_obstacle": ("apfmpc.mpc", "predict_obstacle"),
    "geometry.closest_pair": ("apfmpc.mpc", "closest_pair"),
    "potential_field.quadratic_approx": ("apfmpc.mpc", "quadratic_approx"),
    "qp.solve": ("apfmpc.qp", "QpSolver.solve"),
}

# the untraced run times controller ticks and nothing else
STEP_ONLY = ("mpc.step",)


def _owner(module: str, path: str):
    """The object holding the attribute and the attribute's name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans plus the per-tick facts the layers return."""

    def __init__(self, names=tuple(TARGETS)):
        unknown = set(names) - set(TARGETS)
        if unknown:
            raise ValueError(f"unknown span names: {sorted(unknown)}")
        self.names = tuple(names)
        self.spans = {name: SpanStats() for name in self.names}
        self.tick_seconds: list[float] = []   # one per MpcController.step
        self.tick_starts: list[float] = []    # perf_counter() as each step began
        self.band_doublings = 0
        self.held_input_ticks = 0
        self.qp_iterations = 0
        self.qp_infeasible = 0
        self._children: list[float] = []      # child time of each open span
        self._last_solve = None               # (solution, solver) of the tick

    def _after_solve(self, args, solution):
        self.qp_iterations += solution.iterations
        self.qp_infeasible += solution.status == "infeasible"
        self._last_solve = (solution, args[0])

    def _after_step(self, args, mpc_solution):
        self.band_doublings += mpc_solution.fallback_doublings
        if self._last_solve is not None:
            # MpcController.step holds the previous input when its final QP
            # attempt stopped unconverged with a large primal residual
            solution, solver = self._last_solve
            if (solution.status == "max_iterations"
                    and solution.primal_residual > 10.0 * solver.tolerance):
                self.held_input_ticks += 1
        self._last_solve = None

    def _wrap(self, name: str, fn):
        stats = self.spans[name]
        children = self._children
        after = {"qp.solve": self._after_solve, "mpc.step": self._after_step}.get(name)
        ticks = self.tick_seconds if name == "mpc.step" else None
        starts = self.tick_starts

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = children.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if children:
                    children[-1] += elapsed
            if ticks is not None:
                ticks.append(elapsed)
                starts.append(start)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the block; restore the originals after."""
        saved = []
        try:
            for name in self.names:
                owner, attr = _owner(*TARGETS[name])
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
