"""Dense convex quadratic program solver.

Solves   min 1/2 z'Hz + f'z   s.t.  lower <= A z <= upper,  zl <= z <= zu
with a first-order operator-splitting (ADMM) iteration over the stacked
constraints, followed by an active-set polish step for high accuracy. A
small ridge keeps the KKT system well posed when H is only semidefinite.
Problem sizes here are small (tens of variables), so dense linear algebra
is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
INFEASIBLE = "infeasible"


@dataclass
class QpProblem:
    h_mat: np.ndarray
    f_vec: np.ndarray
    a_mat: np.ndarray   # m x n, may have m == 0
    lower: np.ndarray
    upper: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray

    def __post_init__(self):
        n = len(self.f_vec)
        if self.a_mat.size == 0:
            self.a_mat = self.a_mat.reshape(0, n)
        if np.any(self.lower > self.upper) or np.any(self.z_lower > self.z_upper):
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


@dataclass
class QpSolver:
    max_iterations: int = 4000
    tolerance: float = 1e-4
    rho: float = 0.1
    sigma: float = 1e-6
    ridge: float = 1e-8
    check_every: int = 10

    def solve(self, problem: QpProblem, warm_start: np.ndarray | None = None) -> QpSolution:
        n = len(problem.f_vec)
        # internal scaling: normalize constraint rows and the cost magnitude
        # so the fixed-step splitting converges on badly scaled problems;
        # neither rescaling moves the minimizer
        row_scale = 1.0 / np.maximum(np.max(np.abs(problem.a_mat), axis=1,
                                            initial=0.0), 1e-10)
        cost_scale = 1.0 / max(1.0, float(np.max(np.abs(np.diag(problem.h_mat)),
                                                 initial=0.0)))
        p_mat = cost_scale * problem.h_mat + self.ridge * np.eye(n)
        f = cost_scale * problem.f_vec
        a_full = np.vstack([row_scale[:, None] * problem.a_mat, np.eye(n)])
        lo = np.concatenate([row_scale * problem.lower, problem.z_lower])
        hi = np.concatenate([row_scale * problem.upper, problem.z_upper])

        rho = self.rho
        kkt_inv = np.linalg.inv(p_mat + self.sigma * np.eye(n) + rho * a_full.T @ a_full)

        x = np.zeros(n) if warm_start is None else np.asarray(warm_start, float).copy()
        zc = np.clip(a_full @ x, lo, hi)
        y = np.zeros(len(lo))
        prev_y = y.copy()

        status = MAX_ITERATIONS
        r_prim = r_dual = np.inf
        it = 0
        for it in range(1, self.max_iterations + 1):
            rhs = self.sigma * x - f + a_full.T @ (rho * zc - y)
            x = kkt_inv @ rhs
            ax = a_full @ x
            zc = np.clip(ax + y / rho, lo, hi)
            y = y + rho * (ax - zc)

            if it % self.check_every == 0:
                r_prim = float(np.max(np.abs(ax - zc))) if len(lo) else 0.0
                r_dual = float(np.max(np.abs(p_mat @ x + f + a_full.T @ y)))
                if r_prim <= self.tolerance and r_dual <= self.tolerance:
                    status = OPTIMAL
                    break
                if self._primal_infeasible(a_full, lo, hi, y - prev_y):
                    return QpSolution(x, INFEASIBLE, r_prim, r_dual, it)
                prev_y = y.copy()
                # mild deterministic step-size adaptation
                if it % 100 == 0 and r_dual > 0.0 and r_prim > 0.0:
                    ratio = r_prim / r_dual
                    if ratio > 10.0 or ratio < 0.1:
                        rho = float(np.clip(rho * np.sqrt(ratio), 1e-4, 1e4))
                        kkt_inv = np.linalg.inv(
                            p_mat + self.sigma * np.eye(n) + rho * a_full.T @ a_full)

        polished = self._polish(problem, a_full, lo, hi, x, y)
        if polished is not None:
            x = polished
            ax = a_full @ x
            r_prim = float(np.max(np.clip(lo - ax, 0.0, None)
                                  + np.clip(ax - hi, 0.0, None))) if len(lo) else 0.0
        return QpSolution(x, status, r_prim, r_dual, it)

    @staticmethod
    def _primal_infeasible(a_full, lo, hi, dy, eps: float = 1e-10) -> bool:
        norm_dy = float(np.max(np.abs(dy))) if len(dy) else 0.0
        if norm_dy <= eps:
            return False
        dy = dy / norm_dy
        if float(np.max(np.abs(a_full.T @ dy))) > 1e-6:
            return False
        pos, neg = np.clip(dy, 0.0, None), np.clip(dy, None, 0.0)
        # any unbounded side engaged by the certificate kills it
        if np.any(np.isinf(hi) & (pos > 1e-9)) or np.any(np.isinf(lo) & (neg < -1e-9)):
            return False
        support = float(np.sum(hi[pos > 0] * pos[pos > 0])
                        + np.sum(lo[neg < 0] * neg[neg < 0]))
        return support < -1e-8

    def _polish(self, problem, a_full, lo, hi, x, y):
        """Equality-solve on the active set detected from the duals."""
        act_lo = y < -1e-9
        act_hi = y > 1e-9
        rows = np.where(act_lo | act_hi)[0]
        n = len(x)
        a_act = a_full[rows]
        b_act = np.where(act_lo[rows], lo[rows], hi[rows])
        k = len(rows)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = problem.h_mat + 1e-10 * np.eye(n)
        kkt[:n, n:] = a_act.T
        kkt[n:, :n] = a_act
        kkt[n:, n:] = -1e-10 * np.eye(k)
        rhs = np.concatenate([-problem.f_vec, b_act])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x_new = sol[:n]
        ax = a_full @ x_new
        viol = float(np.max(np.clip(lo - ax, 0.0, None)
                            + np.clip(ax - hi, 0.0, None))) if len(lo) else 0.0
        if viol > self.tolerance:
            return None
        if problem.objective(x_new) <= problem.objective(x) + self.tolerance:
            return x_new
        return None
