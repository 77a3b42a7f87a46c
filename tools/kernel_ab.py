"""Raw closest-pair kernels of two source trees, compared in one process.

Usage, with each ROOT the root of a source checkout:

    python3 tools/kernel_ab.py PARENT_ROOT [CHANGE_ROOT] [--seed N] [--rounds R]

CHANGE_ROOT defaults to the checkout this tool is in, the seed to 1 and the
rounds to 30. Each tree first runs the timed episodes of the seed-N
`corridor_apf` workload once, untimed, in its own interpreter with one BLAS
thread, and records every closest-pair query the controller makes
(`apfmpc.mpc.closest_pair`): both frames, the six numbers (x, y, cos h,
sin h, half_length, half_width) the kernel reads of each argument's
`.frame`, and the cutoff `within` the call passed (inf where it passed
none). Both trees must record the same frames, or there is nothing to
compare. A tree may pass rectangles or bare frames: the kernel reads the
frame either way.

Then both trees' `geometry` modules are loaded into this process, each
under its own name, and each replays its own recorded calls on the same
kind of frame holder, made here, so that neither tree's argument types
enter the timing. Every row is checked bit for bit against the
other tree's row: they may differ only where one tree cut the query,
returning (inf, 0.0, 0.0), and the other tree's distance exceeds that
cutoff. The timing calls each tree's kernel directly, with no tracing
wrapper, over all recorded calls in one round; the trees alternate which
goes first each round, and gc is off while a round runs. The tool prints
each tree's median µs per call over the rounds, their ratio, and how many
rows each tree cut. It exits 1 if a row differs, and 2 if the trees
record different frames, that is different rectangles.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import inspect
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import deque, namedtuple
from pathlib import Path
from time import perf_counter

import numpy as np

WORKLOAD = "corridor_apf"
TOOLS = Path(__file__).resolve().parent


# what the kernel reads of an argument, its six-number `.frame`; both
# trees replay on these
FrameHolder = namedtuple("FrameHolder", "frame")


def record(root: str, seed: int, out: str) -> None:
    """Run the tree's timed episodes once and save one row per controller
    query: A's and B's frames, then within."""
    root_path = Path(root)
    sys.path[:0] = [str(root_path / "src"), str(root_path / "perfbench")]
    import apfmpc.mpc
    import apfmpc.simulator
    from workloads import WORKLOADS, timed_episodes

    kernel, calls = apfmpc.mpc.closest_pair, []

    def recorder(a, b, *within):
        calls.append((*a.frame, *b.frame, *(within or (math.inf,))))
        return kernel(a, b, *within)

    apfmpc.mpc.closest_pair = recorder
    for episode in timed_episodes(WORKLOAD, WORKLOADS[WORKLOAD](seed)):
        apfmpc.simulator.run(episode.scenario)
    np.save(out, np.array(calls, dtype=float).reshape(-1, 13))


def recorded_calls(root: Path, seed: int, out: Path) -> np.ndarray:
    """The tree's recorded queries, from a new interpreter, through `out`."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = ("import sys; from kernel_ab import record; "
            "record(sys.argv[1], int(sys.argv[2]), sys.argv[3])")
    subprocess.run([sys.executable, "-c", code, str(root.resolve()), str(seed), str(out)],
                   cwd=TOOLS, env=env, check=True)
    return np.load(out)


def load_geometry(root: Path, name: str):
    """The tree's `apfmpc/geometry.py` as the module `name`."""
    spec = importlib.util.spec_from_file_location(name, root / "src" / "apfmpc" / "geometry.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while decorating
    spec.loader.exec_module(module)
    return module


def replay_args(geometry, calls: np.ndarray) -> tuple[list, ...]:
    """The kernel's positional argument lists for the recorded calls, each
    frame in a `FrameHolder`; no cutoff for a kernel that takes none."""
    def frames(cols):
        return [FrameHolder(tuple(frame)) for frame in cols.tolist()]
    args = (frames(calls[:, 0:6]), frames(calls[:, 6:12]))
    if "within" in inspect.signature(geometry.closest_pair).parameters:
        args += (calls[:, 12].tolist(),)
    return args


def _bits(row) -> tuple[str, ...]:
    return tuple(map(float.hex, row))  # -0.0 and 0.0 differ here


CUT = _bits((math.inf, 0.0, 0.0))


def compare_rows(rows_a, within_a, rows_b, within_b) -> tuple[int, int, int]:
    """(rows differing, rows only A cut, rows only B cut). A row may differ
    only where one tree cut it, returning (inf, 0.0, 0.0), and the other's
    distance, a finite one, exceeds that cut."""
    differing = cut_a = cut_b = 0
    for ra, rb, wa, wb in zip(rows_a, rows_b, within_a, within_b):
        bits_a, bits_b = _bits(ra), _bits(rb)
        if bits_a == bits_b:
            continue
        if bits_a == CUT and wa < rb[0] < math.inf:
            cut_a += 1
        elif bits_b == CUT and wb < ra[0] < math.inf:
            cut_b += 1
        else:
            differing += 1
    return differing, cut_a, cut_b


def _round_seconds(kernel, args) -> float:
    start = perf_counter()
    deque(map(kernel, *args), maxlen=0)
    return perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path, nargs="?", default=TOOLS.parent)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    opts = parser.parse_args(argv)
    roots = (opts.parent_root, opts.change_root)
    with tempfile.TemporaryDirectory() as tmp:
        calls = [recorded_calls(root, opts.seed, Path(tmp) / f"{k}.npy")
                 for k, root in enumerate(roots)]
    if calls[0].shape != calls[1].shape or not np.array_equal(
            calls[0][:, :12].view(np.int64), calls[1][:, :12].view(np.int64)):
        print("the trees record different rectangles: their closed loops differ",
              file=sys.stderr)
        return 2

    modules = [load_geometry(root, f"kernel_ab_{side}")
               for root, side in zip(roots, ("parent", "change"))]
    kernels = [module.closest_pair for module in modules]
    args = [replay_args(module, c) for module, c in zip(modules, calls)]
    rows = [list(map(kernel, *a)) for kernel, a in zip(kernels, args)]
    within = [c[:, 12].tolist() for c in calls]
    differing, cut_parent, cut_change = compare_rows(rows[0], within[0], rows[1], within[1])

    seconds = ([], [])
    gc.collect()
    for k in range(opts.rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        gc.disable()
        try:
            for side in order:
                seconds[side].append(_round_seconds(kernels[side], args[side]))
        finally:
            gc.enable()
    n = len(calls[0])
    us = [1e6 * statistics.median(s) / n for s in seconds]
    print(f"{WORKLOAD} seed {opts.seed}, timed episodes: {n} closest-pair calls")
    print(f"cut rows: parent {sum(math.isinf(r[0]) for r in rows[0])}, "
          f"change {sum(math.isinf(r[0]) for r in rows[1])} of {n}")
    print(f"rows differing: {differing} of {n} (cut by the parent only: {cut_parent}, "
          f"by the change only: {cut_change}, each beyond its cutoff)")
    print(f"median us/call over {opts.rounds} rounds: parent {us[0]:.3f}, "
          f"change {us[1]:.3f}, change/parent {us[1] / us[0]:.3f}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
