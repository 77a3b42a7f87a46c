"""Dense convex quadratic program solver.

Solves   min 1/2 z'Hz + f'z   s.t.  lower <= A z <= upper
from a guessed active set, repaired by primal exchanges, and else with a
first-order operator-splitting (ADMM) iteration and an active-set polish
step, tried at its checks, for high accuracy. Every constraint, a
simple bound on z too, is a row of A: the one form of OSQP. A small ridge
keeps the KKT system well posed when H is only semidefinite. Problem sizes
here are small (tens of variables), so dense linear algebra is used
throughout.

The rows arrive normalized: each row of A and its bounds divided by the
row's largest |entry|, the `row_scales`, so that the fixed-step splitting
converges on badly scaled rows. The caller states its rows in that form
where it makes them, as OSQP scales once at setup and then only the new
bounds of an update. A solve normalizes only the cost magnitude. Neither
scaling moves the minimizer.

The iteration is the ADMM of OSQP (Stellato et al., 2020) in scaled-dual
form: with v = y/rho the dual, zc the projected constraint values and
w = [x, zc - v, 1], the x-update solves K x+ = sigma x + rho A'(zc - v) - f
with K = P + sigma I + rho A'A, which is the one product x+ = G w with
G = K^-1 [sigma I | rho A' | -f]. G is built from one explicit inverse per
rho. Each iteration then projects t = A x + v onto the bounds and keeps
what the projection cuts off as the new v. Two w buffers alternate: an
iteration reads one and writes x and zc - v into the other, so x+ = G w is
one product into place. Every few iterations the checks rebuild y = rho v
for the polish of the set it holds (below), the primal residual and the
infeasibility certificate. The dual residual is computed only where the
solve reads it: by the stopping test once the primal residual passes, and
by the rho rule every 100 iterations. When rho adapts, v is rescaled by
rho_old/rho_new (y does not move) and G is rebuilt. A solve runs at most
MAX_ADMM_ITERATIONS iterations. A returned iterate is a copy, never a
buffer.

The polish, `_certified(problem, active, iterations)`, is one equality
solve (`_held_point`): the problem's own rows of an active set, each at the
side of its bound (-1 lower, +1 upper), held as equalities in a slightly
regularized KKT system of the unscaled cost. One rule accepts its point:
every scaled row within `tolerance` of its bounds, and every multiplier of
the side's sign (upper >= 0, lower <= 0). The violation is one maximum, of
max(lo - Ax, Ax - hi) over the rows and 0; as lower <= upper is validated
(a NaN bound fails it), at most one of a row's two gaps is positive, so it
equals the sum of the clamped gaps. A NaN point's violation is NaN, which
fails the test `viol <= tolerance`, so it is never accepted. Only held rows
have a multiplier to check; the others' are 0. Such a point is a KKT point,
hence the minimizer of the convex QP, and is returned as OPTIMAL with its
violation as the primal residual and its multipliers; its stationarity
holds by the KKT solve.

A caller may guess the set, with its multipliers, such as those of the
previous solve in a sequence of similar problems, or the empty set, whose
point is the unconstrained minimizer (the online active set idea of
Ferreau, Bock and Diehl, 2008). The guess is tried first, on the unscaled
cost, whose finiteness an accepted guess never checks (the test costs a few
µs, a tenth of an accepted guess). Otherwise a cost that is not finite
returns at once, as MAX_ITERATIONS with a NaN point, a NaN primal residual
and 0 iterations, before any exchange or iteration. Else, unless the caller
asks for no repair, up to MAX_EXCHANGES primal exchanges repair the guess
(`_exchanged`), each one change to the held set read off the last KKT
point: drop the held row whose multiplier has the wrong sign, most negative
first, else hold the most violated row at its violated side, and stop when
the set would pass n rows. Each set's point comes from the same
`_held_point` and passes the same rule as the polish; the first accepted
returns as OPTIMAL with 0 iterations and scales nothing. The exchanges do
no line search and may cycle; the cap ends them. Otherwise the ADMM runs,
its duals starting at 0 or, as OSQP's warm start takes y with x, at the
guess's multipliers when there is one per held row: v = cost_scale y / rho,
then one projection of A x + v makes zc and v consistent; the exchanges
leave it exactly as without them. At each check the set read from the duals
is tried if it holds at most n rows, as many as can be linearly
independent, and is not the set last tried (a failed guess counts as tried;
the exchanges' sets do not); the first that certifies ends the solve with
the iterations run so far. MAX_ADMM_ITERATIONS is a multiple of the check
interval, so every solve ends on a check and no set is tried after the
loop. An iterate whose residuals passed but whose set failed is returned as
INEXACT, OSQP's "solved inaccurate"; one that ran out, as MAX_ITERATIONS.
Every solution carries the side of each row of A and the multipliers of its
held rows, aligned with `active.nonzero()`: a certified answer's from its
KKT solve, an iterate's y / cost_scale.

A solve never writes into its problem, whose arrays may be shared and
read-only. Identity terms (ridge, sigma I) go on diagonal views,
`m.ravel()[::n + 1]` of an array made C-contiguous here, and reductions
call the ufuncs' `reduce`. A problem checks its shapes when made: H (n, n),
f (n,), A (m, n) and both bounds (m,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INEXACT = "inexact"  # ADMM's stopping test passed, the certificate did not
MAX_ITERATIONS = "max_iterations"
INFEASIBLE = "infeasible"
MAX_ADMM_ITERATIONS = 4000  # a multiple of _CHECK_EVERY: the last iteration is a check
MAX_EXCHANGES = 12  # from a failed guess, before the ADMM: the most a report run's repair took
_RHO = 0.1          # initial ADMM step size; a solve adapts it
_SIGMA = 1e-6       # proximal weight on the previous iterate
_RIDGE = 1e-8       # added to the scaled H
_CHECK_EVERY = 10   # iterations between convergence checks
_ACTIVE_DUAL = 1e-9  # |y| beyond which a row counts as active


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
        if self.a_mat.size == 0:
            self.a_mat = self.a_mat.reshape(0, max(n, 0))
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
    iterations: int
    active: np.ndarray  # side of each row of A: -1 lower, +1 upper, 0 free
    # multipliers of the unscaled cost on the held rows, aligned with
    # active.nonzero(): the next solve's dual warm start
    multipliers: np.ndarray


class QpSolver:
    tolerance = 1e-4  # on the scaled rows' violation and the ADMM residuals

    def solve(self, problem: QpProblem, warm_start: np.ndarray | None = None,
              active: np.ndarray | None = None,
              multipliers: np.ndarray | None = None, repair: bool = True) -> QpSolution:
        """Minimize 1/2 z'Hz + f'z subject to lower <= A z <= upper, from
        `warm_start` (primal, default 0). The rows arrive normalized (see
        `row_scales`); they are read as given. `active` guesses the side of
        each row of A at the optimum (-1, +1 or 0, as `QpSolution.active`),
        which exchanges repair when it is not a KKT point, unless `repair`
        is False, and `multipliers` that set's multipliers (as
        `QpSolution.multipliers`), the dual start of the ADMM when no
        exchange certifies. A guess not of that length, or multipliers not
        one per held row, change nothing."""
        a_mat, lo, hi = problem.a_mat, problem.lower, problem.upper
        m, n = len(lo), len(problem.f_vec)
        tried = point = None  # the set last given to the certificate, its point
        if active is not None and np.asarray(active).shape == (m,):
            # tried on the unscaled cost: an accepted guess never checks or
            # scales it
            tried = np.asarray(active)
            point = _held_point(problem, tried)
            certified = None if point is None else self._accepted(tried, 0, *point)
            if certified is not None:
                return certified
        if not (np.logical_and.reduce(np.isfinite(problem.f_vec))
                and np.logical_and.reduce(np.isfinite(problem.h_mat), axis=None)):
            # no set certifies and no iterate converges on such a cost: the
            # answer is NaN at once
            z = np.empty(n)
            z.fill(np.nan)
            return QpSolution(z, MAX_ITERATIONS, np.nan, 0, np.zeros(m, int), np.zeros(0))
        if point is not None and repair:
            repaired = self._exchanged(problem, tried, point)
            if repaired is not None:
                return repaired
        p_mat, f, cost_scale = _scaled_cost(problem)

        # scaled-dual iteration on w = [x, zc - v, 1] (see the module
        # docstring); G is rebuilt only when rho changes. Iteration `it`
        # reads w from one buffer and writes the next into the other.
        rho = _RHO
        g_mat = self._step_matrix(p_mat, a_mat, f, rho)
        x = np.zeros(n) if warm_start is None else np.asarray(warm_start, float)
        ax = a_mat @ x
        v = np.zeros(m)
        held = None if tried is None else tried.nonzero()[0]
        if held is None or getattr(multipliers, "shape", None) != held.shape:
            zc = np.minimum(np.maximum(ax, lo), hi)
        else:
            # the guessed set's duals, scaled as the iteration's v = y / rho;
            # one projection of A x + v makes zc and v consistent
            v[held] = cost_scale * multipliers / rho
            t = ax + v
            zc = np.minimum(np.maximum(t, lo), hi)
            np.subtract(t, zc, out=v)
        w = np.concatenate([x, zc - v, [1.0]])
        buffers = (w, w.copy())
        xs = tuple(w[:n] for w in buffers)
        mids = tuple(w[n:n + m] for w in buffers)  # zc - v, rewritten in place
        t = np.empty(m)
        prev_y = np.zeros(m)

        status = MAX_ITERATIONS
        r_prim = np.inf
        it = 0
        for it in range(1, MAX_ADMM_ITERATIONS + 1):
            side = it & 1
            x, mid = xs[side], mids[side]
            np.dot(g_mat, buffers[side ^ 1], out=x)
            np.dot(a_mat, x, out=ax)
            # project ax + v onto [lo, hi]; what the projection cuts off is
            # the new scaled dual
            np.add(ax, v, out=t)
            np.maximum(t, lo, out=zc)
            np.minimum(zc, hi, out=zc)
            np.subtract(t, zc, out=v)
            np.subtract(zc, v, out=mid)

            if it % _CHECK_EVERY == 0:
                y = rho * v
                # the set the duals hold, certified when it is a new one of
                # at most n rows, as many as can be linearly independent
                # (the diverging duals of an infeasible QP hold more): the
                # first KKT point ends the solve
                sides = _sides(y)
                if (np.add.reduce(sides != 0) <= n
                        and (tried is None or np.logical_or.reduce(sides != tried))):
                    tried = sides
                    certified = self._certified(problem, sides, it)
                    if certified is not None:
                        return certified
                r_prim = float(np.maximum.reduce(np.abs(ax - zc)))
                # the dual residual only where it is read: by the stopping
                # test once the primal one passes, and by the rho rule
                r_dual = (_dual_residual(p_mat, f, a_mat, x, y)
                          if r_prim <= self.tolerance or it % 100 == 0 else np.inf)
                if r_prim <= self.tolerance and r_dual <= self.tolerance:
                    status = INEXACT  # unless the duals' set certifies below
                    break
                if self._primal_infeasible(a_mat, lo, hi, y - prev_y):
                    return QpSolution(x.copy(), INFEASIBLE, r_prim, it, sides,
                                      _held(y, sides, cost_scale))
                prev_y = y
                # mild deterministic step-size adaptation; y = rho v stays
                # put, so v scales by rho_old / rho_new and w follows
                if it % 100 == 0 and r_dual > 0.0 and r_prim > 0.0:
                    ratio = r_prim / r_dual
                    if ratio > 10.0 or ratio < 0.1:
                        new_rho = min(max(rho * np.sqrt(ratio), 1e-4), 1e4)
                        v *= rho / new_rho
                        np.subtract(zc, v, out=mid)
                        rho = new_rho
                        g_mat = self._step_matrix(p_mat, a_mat, f, rho)

        # the loop ends on a check, which tried the duals' set if it could
        y = rho * v
        sides = _sides(y)
        return QpSolution(x.copy(), status, r_prim, it, sides, _held(y, sides, cost_scale))

    @staticmethod
    def _step_matrix(p_mat, a_mat, f, rho: float) -> np.ndarray:
        """G = K^-1 [sigma I | rho A' | -f] with K = P + sigma I + rho A'A."""
        kkt = p_mat.copy()
        kkt.ravel()[::len(f) + 1] += _SIGMA
        kkt_inv = np.linalg.inv(kkt + rho * a_mat.T @ a_mat)
        return np.concatenate([_SIGMA * kkt_inv, (rho * kkt_inv) @ a_mat.T,
                               -(kkt_inv @ f)[:, None]], axis=1)

    @staticmethod
    def _primal_infeasible(a_mat, lo, hi, dy, eps: float = 1e-10) -> bool:
        norm_dy = float(np.maximum.reduce(np.abs(dy)))
        if norm_dy <= eps:
            return False
        dy = dy / norm_dy
        if float(np.maximum.reduce(np.abs(a_mat.T @ dy))) > 1e-6:
            return False
        pos, neg = np.maximum(dy, 0.0), np.minimum(dy, 0.0)
        # any unbounded side engaged by the certificate kills it
        if np.logical_or.reduce(np.isinf(hi) & (pos > 1e-9) | np.isinf(lo) & (neg < -1e-9)):
            return False
        support = float(np.add.reduce(hi[pos > 0] * pos[pos > 0])
                        + np.add.reduce(lo[neg < 0] * neg[neg < 0]))
        return support < -1e-8

    def _certified(self, problem, active, iterations: int) -> QpSolution | None:
        """Hold each row of `problem` with a nonzero side of `active` at that
        side's bound and solve the regularized KKT system of the unscaled
        cost (`_held_point`). Its point is returned as OPTIMAL, with its
        multipliers, when it is a KKT point of the QP: every scaled row within
        `tolerance` of its bounds and every held row's multiplier of its
        side's sign (upper >= 0, lower <= 0). None otherwise, also when a
        held bound is infinite or the system is singular."""
        held = _held_point(problem, active)
        return None if held is None else self._accepted(active, iterations, *held)

    def _accepted(self, active, iterations: int, x, multipliers, signed, gaps):
        """`_certified`'s rule on a held set's `_held_point`."""
        viol = float(np.maximum.reduce(gaps, initial=0.0))
        if not (viol <= self.tolerance and np.logical_and.reduce(signed >= 0.0)):
            return None
        return QpSolution(x, OPTIMAL, viol, iterations, active, multipliers)

    def _exchanged(self, problem, active, point) -> QpSolution | None:
        """Up to MAX_EXCHANGES primal exchanges from the failed set `active`
        and its `_held_point` `point`, each one change to the held set: drop
        the held row whose multiplier has the wrong sign, most negative
        first, else hold the most violated row at its violated side. The
        first set that `_certified`'s rule accepts is returned as OPTIMAL
        with 0 iterations, with its bits. None when none is accepted, the set
        would pass n rows, or its KKT system fails."""
        n = len(problem.f_vec)
        for _ in range(MAX_EXCHANGES):
            x, _, signed, gaps = point
            rows = active.nonzero()[0]
            active = active.copy()
            if len(rows) and signed.min() < 0.0:
                active[rows[signed.argmin()]] = 0
            elif len(rows) == n:
                return None
            else:  # the violated side: below the lower bound, or above the upper
                worst = gaps.argmax()
                active[worst] = -1 if problem.lower[worst] > problem.a_mat[worst] @ x else 1
            point = _held_point(problem, active)
            if point is None:
                return None
            certified = self._accepted(active, 0, *point)
            if certified is not None:
                return certified
        return None


def _held_point(problem, active):
    """The point of `active`'s held set: each row with a nonzero side held at
    that side's bound in the KKT system of the unscaled cost, regularized by
    1e-10 on both diagonal blocks. Returns (x, the held rows' multipliers,
    those times their sides, each row's violation max(lo - Ax, Ax - hi)),
    or None when a held bound is infinite or the system is singular."""
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
    kkt[n:, n:] = -0.0  # -1e-10 I, whose off-diagonal is -0.0
    diagonal = kkt.ravel()[::n + k + 1]
    diagonal[:n] += 1e-10
    diagonal[n:] = -1e-10
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    x = sol[:n]
    ax = a_mat @ x
    # lower <= upper, so a row's violation is the larger of its two gaps
    return x, sol[n:], sol[n:] * sides, np.maximum(lo - ax, ax - hi)


def _scaled_cost(problem: QpProblem):
    """(P, f, cost_scale), the cost the ADMM iterates on: H and f times
    cost_scale = 1 / max(1, the largest |diagonal entry| of H), which does
    not move the minimizer, and _RIDGE added to P's diagonal."""
    h_mat = problem.h_mat
    cost_scale = 1.0 / max(1.0, float(np.maximum.reduce(np.abs(h_mat.diagonal()), initial=0.0)))
    p_mat = np.multiply(cost_scale, h_mat, order="C")
    p_mat.ravel()[::len(h_mat) + 1] += _RIDGE  # + _RIDGE I; the same bits where H has no -0.0
    return p_mat, cost_scale * problem.f_vec, cost_scale


def _dual_residual(p_mat, f, a_mat, x, y) -> float:
    """Largest entry of the gradient of the Lagrangian, P x + f + A'y."""
    return float(np.maximum.reduce(np.abs(p_mat @ x + f + a_mat.T @ y)))


def _held(y: np.ndarray, sides: np.ndarray, cost_scale: float) -> np.ndarray:
    """An ADMM answer's multipliers: the duals y of the scaled cost on its
    held rows, divided by cost_scale."""
    return y[sides.nonzero()[0]] / cost_scale


def _sides(y: np.ndarray) -> np.ndarray:
    """The bound side each dual holds its row at: -1 lower, +1 upper, 0 free."""
    return (y > _ACTIVE_DUAL).astype(int) - (y < -_ACTIVE_DUAL)
