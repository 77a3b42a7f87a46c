"""Dense convex quadratic program solver.

Solves   min 1/2 z'Hz + f'z   s.t.  lower <= A z <= upper
with a first-order operator-splitting (ADMM) iteration, followed by an
active-set polish step for high accuracy. Every constraint, a simple bound
on z too, is a row of A: the one form of OSQP. A small ridge keeps the KKT
system well posed when H is only semidefinite. Problem sizes here are small
(tens of variables), so dense linear algebra is used throughout.

The iteration is the ADMM of OSQP (Stellato et al., 2020) in scaled-dual
form: with v = y/rho the dual, zc the projected constraint values and
w = [x, zc - v, 1], the x-update solves K x+ = sigma x + rho A'(zc - v) - f
with K = P + sigma I + rho A'A, which is the one product x+ = G w with
G = K^-1 [sigma I | rho A' | -f]. G is built from one explicit inverse per
rho. Each iteration then projects t = A x + v onto the bounds and keeps
what the projection cuts off as the new v. Every few iterations the checks
rebuild y = rho v for the residuals and the infeasibility certificate. When
rho adapts, v is rescaled by rho_old/rho_new (y does not move) and G is
rebuilt.

The polish is one equality solve: the rows of an active set, each at the
side of its bound (-1 lower, +1 upper), held as equalities in a slightly
regularized KKT system. One rule accepts its point: every scaled row within
`tolerance` of its bounds, and every multiplier of the side's sign (upper
>= 0, lower <= 0). Such a point is a KKT point, hence the minimizer of the
convex QP, and is returned as OPTIMAL with its own residuals. A caller may
guess the set, such as that of the previous solve in a sequence of similar
problems (the online active set idea of Ferreau, Bock and Diehl, 2008); an
accepted guess returns with 0 iterations. Otherwise the ADMM runs exactly
as without a guess and the set read from its final duals is tried, also
when the iteration ran out. If it fails, the ADMM iterate is returned with
its status. Every solution carries the side of each row of A.

A solve never writes into its problem, whose arrays may be shared and
read-only: the controller's increment box is built in its `__init__`.
Identity terms (ridge, sigma I) go on diagonal views, `m.flat[::n + 1] += c`,
and reductions call the ufuncs' `reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
INFEASIBLE = "infeasible"
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
        n = len(self.f_vec)
        if self.a_mat.size == 0:
            self.a_mat = self.a_mat.reshape(0, n)
        if np.logical_or.reduce(self.lower > self.upper):
            raise ValueError("constraint bounds must satisfy lower <= upper")

    def objective(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.h_mat @ z + self.f_vec @ z)


@dataclass
class QpSolution:
    z: np.ndarray
    status: str
    primal_residual: float
    dual_residual: float
    iterations: int
    active: np.ndarray  # side of each row of A: -1 lower, +1 upper, 0 free


@dataclass
class QpSolver:
    max_iterations: int = 4000
    tolerance: float = 1e-4

    def solve(self, problem: QpProblem, warm_start: np.ndarray | None = None,
              active: np.ndarray | None = None) -> QpSolution:
        """Minimize 1/2 z'Hz + f'z subject to lower <= A z <= upper, from
        `warm_start` (primal, default 0). `active` guesses the side of each
        row of A at the optimum (-1, +1 or 0, as `QpSolution.active`); a
        guess that is not a KKT point, or not of that length, changes
        nothing."""
        n = len(problem.f_vec)
        # internal scaling: normalize constraint rows and the cost magnitude
        # so the fixed-step splitting converges on badly scaled problems;
        # neither rescaling moves the minimizer (a row with one unit entry,
        # such as a simple bound, keeps the scale 1.0 and its bits)
        row_scale = 1.0 / np.maximum(np.maximum.reduce(np.abs(problem.a_mat), axis=1,
                                                       initial=0.0), 1e-10)
        cost_scale = 1.0 / max(1.0, float(np.maximum.reduce(
            np.abs(problem.h_mat.diagonal()), initial=0.0)))
        p_mat = cost_scale * problem.h_mat
        p_mat.flat[::n + 1] += _RIDGE  # + _RIDGE I; the same bits where H has no -0.0
        f = cost_scale * problem.f_vec
        a_mat = row_scale[:, None] * problem.a_mat
        lo = row_scale * problem.lower
        hi = row_scale * problem.upper
        m = len(lo)

        if active is not None and np.asarray(active).shape == (m,):
            certified = self._certified(problem, p_mat, f, cost_scale, a_mat,
                                        lo, hi, np.asarray(active), 0)
            if certified is not None:
                return certified

        # scaled-dual iteration on w = [x, zc - v, 1] (see the module
        # docstring); G is rebuilt only when rho changes
        rho = _RHO
        g_mat = self._step_matrix(p_mat, a_mat, f, rho)
        x = np.zeros(n) if warm_start is None else np.asarray(warm_start, float).copy()
        ax = a_mat @ x
        zc = np.minimum(np.maximum(ax, lo), hi)
        v = np.zeros(m)
        w = np.concatenate([x, zc, [1.0]])
        mid = w[n:n + m]   # zc - v, rewritten in place
        t = np.empty(m)
        prev_y = np.zeros(m)

        status = MAX_ITERATIONS
        r_prim = r_dual = np.inf
        it = 0
        for it in range(1, self.max_iterations + 1):
            x = g_mat @ w
            w[:n] = x
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
                r_prim = float(np.maximum.reduce(np.abs(ax - zc)))
                r_dual = float(np.maximum.reduce(np.abs(p_mat @ x + f + a_mat.T @ y)))
                if r_prim <= self.tolerance and r_dual <= self.tolerance:
                    status = OPTIMAL
                    break
                if self._primal_infeasible(a_mat, lo, hi, y - prev_y):
                    return QpSolution(x, INFEASIBLE, r_prim, r_dual, it, _sides(y))
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

        sides = _sides(rho * v)
        certified = self._certified(problem, p_mat, f, cost_scale, a_mat,
                                    lo, hi, sides, it)
        if certified is not None:
            return certified
        return QpSolution(x, status, r_prim, r_dual, it, sides)

    @staticmethod
    def _step_matrix(p_mat, a_mat, f, rho: float) -> np.ndarray:
        """G = K^-1 [sigma I | rho A' | -f] with K = P + sigma I + rho A'A."""
        kkt = p_mat.copy()
        kkt.flat[::len(f) + 1] += _SIGMA
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

    def _certified(self, problem, p_mat, f, cost_scale, a_mat, lo, hi,
                   active, iterations: int) -> QpSolution | None:
        """Hold each row with a nonzero side of `active` at that side's
        bound and solve the regularized KKT system of the unscaled cost.
        Its point is returned as OPTIMAL when it is a KKT point of the QP:
        every scaled row within `tolerance` of its bounds and every
        multiplier of its side's sign (upper >= 0, lower <= 0). None
        otherwise, also when a held bound is infinite or the system is
        singular."""
        rows = active.nonzero()[0]
        b_act = np.where(active[rows] < 0, lo[rows], hi[rows])
        if not np.logical_and.reduce(np.isfinite(b_act)):
            return None
        n, k = len(f), len(rows)
        a_act = a_mat[rows]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = problem.h_mat
        kkt[:n, :n].flat[::n + 1] += 1e-10
        kkt[:n, n:] = a_act.T
        kkt[n:, :n] = a_act
        kkt[n:, n:] = -0.0  # -1e-10 I, whose off-diagonal is -0.0
        kkt[n:, n:].flat[::k + 1] = -1e-10
        try:
            sol = np.linalg.solve(kkt, np.concatenate([-problem.f_vec, b_act]))
        except np.linalg.LinAlgError:
            return None
        x = sol[:n]
        lam = np.zeros(len(lo))
        lam[rows] = sol[n:]
        ax = a_mat @ x
        viol = float(np.maximum.reduce(np.maximum(lo - ax, 0.0) + np.maximum(ax - hi, 0.0)))
        if viol > self.tolerance or not np.logical_and.reduce(lam * active >= 0.0):
            return None
        # lam holds the multipliers of the unscaled cost
        r_dual = float(np.maximum.reduce(np.abs(p_mat @ x + f + a_mat.T @ (cost_scale * lam))))
        return QpSolution(x, OPTIMAL, viol, r_dual, iterations, active)


def _sides(y: np.ndarray) -> np.ndarray:
    """The bound side each dual holds its row at: -1 lower, +1 upper, 0 free."""
    return (y > _ACTIVE_DUAL).astype(int) - (y < -_ACTIVE_DUAL)
