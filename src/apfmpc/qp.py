"""Dense convex quadratic program solver.

Solves   min 1/2 z'Hz + f'z   s.t.  lower <= A z <= upper
by Goldfarb and Idnani's dual active-set method (Math. Prog. 27, 1983), as
qpOASES uses it for MPC (Ferreau et al., Math. Prog. Comp., 2014), written
in set form: every iterate is the KKT point of one held set, solved from
scratch. Every constraint, a simple bound on z too, is a row of A. Problem
sizes here are small (tens of variables), so dense linear algebra is used
throughout.

The rows arrive normalized: each row of A and its bounds divided by the
row's largest |entry| (`row_scales`), so that one tolerance reads every
row's violation on one scale. The caller states its rows in that form
where it makes them. The scaling does not move the minimizer.

A held set is a side per row of A, -1 lower, +1 upper, 0 free.
`_held_point` holds each row with a nonzero side at that side's bound, as
an equality, in the KKT system of the cost, and returns the point, the row
multipliers and every row's violation. The row multipliers are one vector
over the rows of A: each held row's multiplier times its side, +0.0 on a
free row, so a held row pushes the right way exactly when its entry is
>= 0. One rule accepts the point: every scaled row within `tolerance` of
its bounds, and no row multiplier negative. Such a point is a KKT point,
hence the minimizer of the convex QP, and is returned as OPTIMAL with its
violation as the primal residual and its set. A NaN point's violation is
NaN, and a NaN multiplier is not >= 0, so neither is ever accepted.

The KKT system is regularized, so that a set of dependent rows still has a
point: +1e-10 on the diagonal of H and -1e-10 / max(1, max H_ii) on that
of the held rows' block (H_ii >= 0 for a convex cost). A held row then
misses its bound by that times its multiplier, and a multiplier grows with
the curvature it works against, so the miss stays near 1e-10 times the
distance the hold moves the row however stiff the cost; an absolute -1e-10
missed by up to 0.29 at a contact curvature of 7.9e12, where no set
certified. A set that holds no row solves H + 1e-10 I alone.

A solve is one loop over sets, and its first set is the caller's guess,
such as the set of the previous solve in a sequence of similar problems,
or else the empty set, whose point is the unconstrained minimizer (the
online active-set idea of Ferreau, Bock and Diehl, 2008). Each set's point
is put to the acceptance rule first; an accepted guess returns with 0
iterations and checks nothing more. Before the first set change, a failed
guess raises FloatingPointError if the cost is not finite, and a guess
that holds an infinite bound is replaced by the empty set. Then each pass
makes one of two steps:

1. Dual feasibility. If a row multiplier is negative, the most negative
   row is freed.
2. Goldfarb-Idnani steps. The most violated row p is held at its violated
   side, and that set is solved. If no held row's multiplier turns
   negative, the set is taken, or, if its point still misses p, the QP is
   proved infeasible: p depends on the held rows, and no row can be freed
   to make room for it. Otherwise the ratio test on the current and the
   trial row multipliers, t = s / (s - s') over the held rows that fall,
   frees the row of the smallest t, moves the current multipliers to the
   interpolant at t (the point is not needed: the next set's is solved
   from scratch) and retries p.

Each set costs one `_held_point` solve, and `QpSolution.iterations` counts
them after the guess's. Where freeing the most negative multiplier and the
ratio test agree, the method visits the sets that plain primal exchanges
visit (free the most negative multiplier, else hold the most violated row).
Where several sets certify one minimizer within the tolerance (degenerate
rows), the method returns the first it reaches by these rules, every tie
going to the lowest row index; the same problem and guess always give the
same set. In exact arithmetic the dual objective rises at every taken set,
so no set is taken twice and the method ends. A solve that has not ended
after m + n set changes, as many as the problem has rows and variables, is
taken for numerical cycling: it returns its last point as MAX_ITERATIONS,
which the controller holds, as it holds an infeasible QP.

A solve never writes into its problem, whose arrays may be shared and
read-only. Identity terms go on diagonal views, `m.ravel()[::n + 1]`, and
reductions call the ufuncs' `reduce`. A problem checks its shapes when made:
H (n, n), f (n,), A (m, n) and both bounds (m,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"  # numerical cycling: m + n set changes without an answer


@dataclass
class QpProblem:
    h_mat: np.ndarray
    f_vec: np.ndarray
    a_mat: np.ndarray   # m x n, may have m == 0
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        # shapes by attribute reads: H (n, n), f (n,), A (m, n), bounds (m,)
        shape = self.f_vec.shape
        n = shape[0] if len(shape) == 1 else -1
        m = self.a_mat.shape[0]
        if (n < 0 or self.h_mat.shape != (n, n) or self.a_mat.shape != (m, n)
                or self.lower.shape != (m,) or self.upper.shape != (m,)):
            raise ValueError("need H (n, n), f (n,), A (m, n) and bounds (m,)")
        if not np.logical_and.reduce(self.lower <= self.upper):  # False for a NaN bound
            raise ValueError("constraint bounds must satisfy lower <= upper")


def row_scales(a_mat: np.ndarray) -> np.ndarray:
    """1 / the largest |entry| of each row of A, 1e10 for a zero row."""
    return 1.0 / np.maximum(np.maximum.reduce(np.abs(a_mat), axis=1, initial=0.0), 1e-10)


@dataclass
class QpSolution:
    z: np.ndarray
    status: str
    primal_residual: float
    iterations: int     # set changes after the guess; 0 for an accepted guess
    active: np.ndarray  # side of each row of A: -1 lower, +1 upper, 0 free


class QpSolver:
    tolerance = 1e-4  # on the scaled rows' violation

    def solve(self, problem: QpProblem, active: np.ndarray | None = None) -> QpSolution:
        """Minimize 1/2 z'Hz + f'z subject to lower <= A z <= upper. The rows
        arrive normalized (see `row_scales`); they are read as given.
        `active` guesses the side of each row of A at the optimum (-1, +1 or
        0, as `QpSolution.active`); without one, or with one not of length
        m, the guess is the empty set."""
        lo, tol = problem.lower, self.tolerance
        m, n = len(lo), len(problem.f_vec)
        held = None if active is None else np.asarray(active)
        if held is None or held.shape != (m,):
            held = np.zeros(m, int)
        point, iterations = _held_point(problem, held), 0
        while iterations <= m + n:
            if point is not None:  # the one acceptance rule
                x, mult, gaps = point
                viol = float(np.maximum.reduce(gaps, initial=0.0))
                low = np.minimum.reduce(mult, initial=0.0)  # NaN if any is NaN
                if viol <= tol and low >= 0.0:
                    return QpSolution(x, OPTIMAL, viol, iterations, held)
            if iterations == 0:  # a failed guess, before the first set change
                if not (np.logical_and.reduce(np.isfinite(problem.f_vec))
                        and np.logical_and.reduce(np.isfinite(problem.h_mat), axis=None)):
                    raise FloatingPointError("QP cost is not finite")
                held = held.copy()
                if point is None:  # the guess holds an infinite bound
                    held[:] = 0
                    point, iterations = _held_point(problem, held), 1
                    continue
            if point is None:
                break
            if low < 0.0:  # 1: free the most negative
                held[mult.argmin()] = 0
                point, iterations = _held_point(problem, held), iterations + 1
                continue
            # 2: hold the most violated row p at its violated side
            p = gaps.argmax()
            side = -1 if lo[p] > problem.a_mat[p] @ x else 1
            while True:  # mult moves along the step as held rows are freed
                trial = held.copy()
                trial[p] = side
                point, iterations = _held_point(problem, trial), iterations + 1
                if point is None:
                    break
                new = point[1]
                falling = ((new < 0.0) & (held != 0)).nonzero()[0]
                if not len(falling):
                    if point[2][p] > tol:  # p depends on the held rows
                        return QpSolution(point[0], INFEASIBLE,
                                          float(np.maximum.reduce(point[2])), iterations, trial)
                    held = trial
                    break
                ratio = mult[falling] / (mult[falling] - new[falling])
                k = ratio.argmin()
                mult += ratio[k] * (new - mult)
                mult[falling[k]] = 0.0
                held[falling[k]] = 0
        # cycling, or a singular system: no answer to apply
        if point is None:
            z, viol = np.full(n, np.nan), np.nan
        else:
            z, viol = point[0], float(np.maximum.reduce(point[2], initial=0.0))
        return QpSolution(z, MAX_ITERATIONS, viol, iterations, held)


def _held_point(problem, active):
    """The point of `active`'s held set: each row with a nonzero side held at
    that side's bound in the KKT system of the cost, regularized (see the
    module docstring). Returns (x, the row multipliers, each row's violation
    max(lo - Ax, Ax - hi)), or None when a held bound is infinite or the
    system is singular. The row multipliers are an (m,) vector: each held
    row's multiplier times its side, +0.0 on a free row."""
    a_mat, lo, hi = problem.a_mat, problem.lower, problem.upper
    rows = active.nonzero()[0]
    n, k = len(problem.f_vec), len(rows)
    sides = active[rows]
    rhs = np.empty(n + k)  # [-f; the held bounds]
    np.negative(problem.f_vec, out=rhs[:n])
    rhs[n:] = np.where(sides < 0, lo[rows], hi[rows])
    if not np.logical_and.reduce(np.isfinite(rhs[n:])):
        return None
    a_act = a_mat[rows]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = problem.h_mat
    kkt[:n, n:] = a_act.T
    kkt[n:, :n] = a_act
    kkt[n:, n:] = -0.0  # -delta I, whose off-diagonal is -0.0
    diagonal = kkt.ravel()[::n + k + 1]
    if k:  # relative to the cost: -1e-10 / max(1, the largest H_ii)
        diagonal[n:] = -1e-10 / max(1.0, np.maximum.reduce(diagonal[:n], initial=0.0))
    diagonal[:n] += 1e-10
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    x, mult = sol[:n], np.zeros(len(lo))
    mult[rows] = sol[n:] * sides
    ax = a_mat @ x
    # lower <= upper, so a row's violation is the larger of its two gaps
    return x, mult, np.maximum(lo - ax, ax - hi)
