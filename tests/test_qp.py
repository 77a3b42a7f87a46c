import numpy as np
import pytest

from apfmpc import qp as qp_module
from apfmpc.kinematics import ControlInput, RobotState
from apfmpc.mpc import MpcConfig, MpcController, build_reference, path_table
from apfmpc.qp import QpProblem, QpSolver

INF = np.inf


def with_box(h, f, a, lower, upper, box_lo, box_hi):
    """QpProblem of the rows a, then the box box_lo <= z <= box_hi as
    identity rows, last."""
    n = len(f)
    return QpProblem(np.asarray(h, float), np.asarray(f, float),
                     np.concatenate([np.asarray(a, float).reshape(-1, n), np.eye(n)]),
                     np.concatenate([np.asarray(lower, float), np.asarray(box_lo, float)]),
                     np.concatenate([np.asarray(upper, float), np.asarray(box_hi, float)]))


def box_problem(h, f, box_lo, box_hi):
    return with_box(h, f, np.zeros((0, len(f))), [], [], box_lo, box_hi)


def box_bounds(problem):
    """Lower and upper bounds of the box, the last n rows."""
    n = len(problem.f_vec)
    return problem.lower[-n:], problem.upper[-n:]


def projected_gradient_oracle(problem, iters=200_000, tol=1e-12):
    """Slow but trustworthy reference for convex QPs whose rows are only
    the box."""
    h, f = problem.h_mat, problem.f_vec
    assert np.array_equal(problem.a_mat, np.eye(len(f)))
    box_lo, box_hi = box_bounds(problem)
    step = 1.0 / np.linalg.eigvalsh(h).max()
    z = np.clip(np.zeros(len(f)), box_lo, box_hi)
    for _ in range(iters):
        z_new = np.clip(z - step * (h @ z + f), box_lo, box_hi)
        if np.max(np.abs(z_new - z)) < tol:
            return z_new
        z = z_new
    return z


def random_box_qp(rng, n=10):
    m = rng.normal(size=(n, n))
    h = m @ m.T + n * np.eye(n)
    f = rng.normal(size=n) * 5.0
    lo = rng.uniform(-2.0, -0.2, size=n)
    hi = rng.uniform(0.2, 2.0, size=n)
    return box_problem(h, f, lo, hi)


def loop_admm(problem, solver, warm_start=None):
    """Reference oracle: the textbook unscaled-dual ADMM iteration, one
    K^-1 product, one clip and one dual step per iteration, with the
    solver's own scaling, checks, rho rule and certified polish. Returns
    (z, status, iterations, rho_updates)."""
    n = len(problem.f_vec)
    row_scale = 1.0 / np.maximum(np.max(np.abs(problem.a_mat), axis=1, initial=0.0), 1e-10)
    cost_scale = 1.0 / max(1.0, float(np.max(np.abs(np.diag(problem.h_mat)), initial=0.0)))
    p_mat = cost_scale * problem.h_mat + qp_module._RIDGE * np.eye(n)
    f = cost_scale * problem.f_vec
    a_full = row_scale[:, None] * problem.a_mat
    lo = row_scale * problem.lower
    hi = row_scale * problem.upper
    sigma = qp_module._SIGMA

    def kkt_inverse(rho):
        return np.linalg.inv(p_mat + sigma * np.eye(n) + rho * a_full.T @ a_full)

    rho = qp_module._RHO
    kkt_inv = kkt_inverse(rho)
    x = np.zeros(n) if warm_start is None else np.asarray(warm_start, float).copy()
    zc = np.clip(a_full @ x, lo, hi)
    y = np.zeros(len(lo))
    prev_y = y.copy()
    status, it, rho_updates = qp_module.MAX_ITERATIONS, 0, 0
    for it in range(1, solver.max_iterations + 1):
        x = kkt_inv @ (sigma * x - f + a_full.T @ (rho * zc - y))
        ax = a_full @ x
        zc = np.clip(ax + y / rho, lo, hi)
        y = y + rho * (ax - zc)
        if it % qp_module._CHECK_EVERY == 0:
            r_prim = float(np.max(np.abs(ax - zc)))
            r_dual = float(np.max(np.abs(p_mat @ x + f + a_full.T @ y)))
            if r_prim <= solver.tolerance and r_dual <= solver.tolerance:
                status = qp_module.OPTIMAL
                break
            if solver._primal_infeasible(a_full, lo, hi, y - prev_y):
                return x, qp_module.INFEASIBLE, it, rho_updates
            prev_y = y.copy()
            if it % 100 == 0 and r_dual > 0.0 and r_prim > 0.0:
                ratio = r_prim / r_dual
                if ratio > 10.0 or ratio < 0.1:
                    rho = float(np.clip(rho * np.sqrt(ratio), 1e-4, 1e4))
                    kkt_inv = kkt_inverse(rho)
                    rho_updates += 1
    polished = solver._certified(problem, p_mat, f, cost_scale, a_full, lo, hi,
                                 qp_module._sides(y), it)
    if polished is not None:
        return polished.z, polished.status, it, rho_updates
    return x, status, it, rho_updates


def controller_qps(geom, seed, count=12):
    """Seeded (problem, warm start) pairs as the controller assembles them:
    40 increments, 90 general rows, then the 40 rows of the box. Front/rear
    speed gaps up to 1 m/s push the slip rows towards infeasibility and make
    rho adapt."""
    rng = np.random.default_rng(seed)
    cfg = MpcConfig()
    path = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
    for k in range(count):
        mean, gap = rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0) * (-1) ** k
        state = RobotState(*rng.uniform(-0.5, 0.5, 3), mean + gap / 2, mean - gap / 2)
        u0 = ControlInput(*rng.uniform(-0.3, 0.3, 2), *rng.uniform(-0.5, 0.5, 2))
        asm = MpcController(cfg, geom, initial_input=u0).assemble(
            state, u0, build_reference(path, state, 1.389, cfg), [])
        warm = None if k % 3 else rng.uniform(-0.05, 0.05, cfg.n_ctrl * 4)
        yield asm.qp, warm


class TestTrivialCases:
    def test_unconstrained_analytic(self):
        h = np.diag([2.0, 4.0])
        f = np.array([-2.0, -8.0])
        prob = box_problem(h, f, [-INF, -INF], [INF, INF])
        sol = QpSolver().solve(prob)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.z - [1.0, 2.0])) < 1e-8

    def test_active_box_bound(self):
        prob = box_problem(np.eye(2), [-10.0, 0.0], [-1, -1], [1, 1])
        sol = QpSolver().solve(prob)
        assert np.max(np.abs(sol.z - [1.0, 0.0])) < 1e-6

    def test_single_linear_constraint(self):
        # min (z0-2)^2 + (z1-2)^2 s.t. z0 + z1 <= 2 -> (1, 1)
        prob = with_box(2.0 * np.eye(2), np.array([-4.0, -4.0]),
                        np.array([[1.0, 1.0]]), np.array([-INF]),
                        np.array([2.0]),
                        np.full(2, -INF), np.full(2, INF))
        sol = QpSolver().solve(prob)
        assert np.max(np.abs(sol.z - [1.0, 1.0])) < 1e-6

    def test_equality_via_tight_bounds(self):
        prob = with_box(np.eye(2), np.zeros(2),
                        np.array([[1.0, 1.0]]), np.array([3.0]),
                        np.array([3.0]),
                        np.full(2, -INF), np.full(2, INF))
        sol = QpSolver().solve(prob)
        assert np.max(np.abs(sol.z - [1.5, 1.5])) < 1e-6

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            box_problem(np.eye(2), np.zeros(2), [1, 0], [0, 1])


class TestAgainstOracle:
    def test_random_box_qps(self, rng):
        solver = QpSolver()
        for _ in range(20):
            prob = random_box_qp(rng)
            sol = solver.solve(prob)
            ref = projected_gradient_oracle(prob)
            assert prob.objective(sol.z) <= prob.objective(ref) + 1e-6
            assert np.max(np.abs(sol.z - ref)) < 1e-4

    def test_random_with_general_rows(self, rng):
        solver = QpSolver()
        for _ in range(10):
            n, m = 8, 4
            base = random_box_qp(rng, n=n)
            a = rng.normal(size=(m, n))
            mid = a @ np.zeros(n)
            prob = with_box(base.h_mat, base.f_vec, a,
                            mid - rng.uniform(1.0, 3.0, size=m),
                            mid + rng.uniform(1.0, 3.0, size=m),
                            *box_bounds(base))
            sol = solver.solve(prob)
            ax = prob.a_mat[:m] @ sol.z
            assert np.all(ax >= prob.lower[:m] - 10 * solver.tolerance)
            assert np.all(ax <= prob.upper[:m] + 10 * solver.tolerance)
            box_lo, box_hi = box_bounds(prob)
            assert np.all(sol.z >= box_lo - 10 * solver.tolerance)
            assert np.all(sol.z <= box_hi + 10 * solver.tolerance)
            # box-only relaxation bounds the constrained optimum from below
            # (up to the solver's feasibility slack)
            relaxed = base.objective(projected_gradient_oracle(base))
            assert prob.objective(sol.z) >= relaxed - 1e-2


class TestBehaviour:
    def test_feasibility_within_tolerance(self, rng):
        solver = QpSolver()
        for _ in range(20):
            prob = random_box_qp(rng)
            sol = solver.solve(prob)
            box_lo, box_hi = box_bounds(prob)
            assert np.all(sol.z >= box_lo - 10 * solver.tolerance)
            assert np.all(sol.z <= box_hi + 10 * solver.tolerance)

    def test_warm_start_does_not_change_answer(self, rng):
        solver = QpSolver()
        prob = random_box_qp(rng)
        cold = solver.solve(prob)
        warm = solver.solve(prob, warm_start=cold.z)
        assert np.max(np.abs(cold.z - warm.z)) < 1e-6
        assert warm.iterations <= cold.iterations

    def test_deterministic(self, rng):
        prob = random_box_qp(rng)
        a = QpSolver().solve(prob)
        b = QpSolver().solve(prob)
        assert np.array_equal(a.z, b.z)
        assert a.iterations == b.iterations

    def test_semidefinite_hessian(self):
        # rank-1 H with bounded feasible set still solves
        h = np.outer([1.0, 1.0], [1.0, 1.0])
        prob = box_problem(h, np.array([1.0, 1.0]), [-1, -1], [1, 1])
        sol = QpSolver().solve(prob)
        assert prob.objective(sol.z) <= prob.objective(np.array([-1.0, -1.0])) + 1e-6

    def test_detects_infeasible(self):
        # z0 <= -1 and z0 >= 1 simultaneously
        prob = with_box(np.eye(1), np.zeros(1),
                        np.array([[1.0], [1.0]]),
                        np.array([-INF, 1.0]), np.array([-1.0, INF]),
                        np.full(1, -INF), np.full(1, INF))
        sol = QpSolver().solve(prob)
        assert sol.status == "infeasible"

    def test_badly_scaled_problem_converges(self):
        h = np.diag([1e5, 1.0])
        f = np.array([-1e5, -2.0])
        prob = with_box(h, f, np.array([[0.1, 2.0]]),
                        np.array([-1.0]), np.array([1.0]),
                        np.full(2, -INF), np.full(2, INF))
        sol = QpSolver().solve(prob)
        assert sol.status == "optimal"
        ax = float(prob.a_mat[0] @ sol.z)
        assert -1.0 - 1e-3 <= ax <= 1.0 + 1e-3

    def test_certifiable_polish_is_accepted(self, geom):
        # the iterate after 10 iterations is (4.47, 0), outside its own box,
        # and scores lower than the exact optimum (1, 0); the detected set
        # certifies the optimum, so the solve ends optimal
        prob = box_problem(np.eye(2), [-10.0, 0.0], [-1, -1], [1, 1])
        solver = QpSolver(max_iterations=10)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        assert sol.iterations == 10
        assert np.max(np.abs(sol.z - [1.0, 0.0])) < 1e-8
        assert sol.primal_residual <= solver.tolerance
        # controller QPs whose iterate scores lower than their KKT point by
        # 5e-3 and 0.25: the detected set's point is the answer
        solver = QpSolver()
        problems = list(controller_qps(geom, 1))
        for prob, warm in (problems[5], problems[11]):
            sol = solver.solve(prob, warm_start=warm)
            assert sol.status == "optimal"
            assert np.array_equal(sol.z, solver.solve(prob, active=sol.active).z)


class TestMatchesLoopIteration:
    def test_controller_shaped_problems(self, geom):
        solver = QpSolver()
        outcomes = []
        for seed in (1, 2):
            for prob, warm in controller_qps(geom, seed):
                assert prob.a_mat.shape == (130, 40)
                sol = solver.solve(prob, warm_start=warm)
                z, status, iterations, rho_updates = loop_admm(prob, solver, warm)
                assert sol.status == status
                assert sol.iterations == iterations
                assert np.max(np.abs(sol.z - z)) < 1e-9
                outcomes.append((status, rho_updates))
        adapted = {status for status, updates in outcomes if updates > 0}
        assert adapted == {"optimal", "infeasible"}

    def test_infeasible_certificate(self):
        # z0 + z1 <= -1 and z0 + z1 >= 1 with a box
        prob = with_box(np.eye(2), np.array([1.0, -1.0]),
                        np.array([[1.0, 1.0], [2.0, 2.0]]),
                        np.array([-INF, 2.0]), np.array([-1.0, INF]),
                        np.full(2, -5.0), np.full(2, 5.0))
        solver = QpSolver()
        sol = solver.solve(prob)
        z, status, iterations, _ = loop_admm(prob, solver)
        assert sol.status == status == "infeasible"
        assert sol.iterations == iterations
        assert np.max(np.abs(sol.z - z)) < 1e-9


class TestActiveSetGuess:
    @staticmethod
    def solves(geom):
        """(problem, warm start, no-guess solution) of the controller QPs."""
        solver = QpSolver()
        for seed in (1, 2):
            for prob, warm in controller_qps(geom, seed):
                yield prob, warm, solver.solve(prob, warm_start=warm)

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a.z, b.z)
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert np.array_equal(a.active, b.active)

    def test_correct_guess_is_certified(self, geom, monkeypatch):
        polished = []
        certify = QpSolver._certified

        def recording(self, *args):
            out = certify(self, *args)
            polished.append(out is not None)
            return out

        monkeypatch.setattr(QpSolver, "_certified", recording)
        solver, kept = QpSolver(), 0
        for prob, warm, sol in self.solves(geom):
            if sol.status != "optimal":
                continue
            took_polish = polished[-1]
            guessed = solver.solve(prob, warm_start=warm, active=sol.active)
            assert guessed.status == "optimal"
            assert guessed.iterations == 0
            assert np.array_equal(guessed.active, sol.active)
            assert guessed.primal_residual <= solver.tolerance
            if took_polish:
                # the same active set gives the same KKT system: same bits
                assert np.array_equal(guessed.z, sol.z)
                assert guessed.primal_residual == sol.primal_residual
                assert guessed.dual_residual == sol.dual_residual
                kept += 1
        assert kept >= 5

    def test_wrong_guess_changes_nothing(self, geom):
        solver, tried = QpSolver(), 0
        for prob, warm, sol in self.solves(geom):
            if sol.status != "optimal":
                continue
            active = sol.active
            flipped = active.copy()
            held = np.flatnonzero(active)[0]
            flipped[held] = -flipped[held]
            added = active.copy()
            added[np.flatnonzero(active == 0)[0]] = 1
            for guess in (flipped, added, active[:-1], np.append(active, 0)):
                self.assert_same(solver.solve(prob, warm_start=warm, active=guess), sol)
                tried += 1
        assert tried >= 20

    def test_infeasible_with_guess_keeps_certificate(self, geom):
        solver, tried = QpSolver(), 0
        for prob, warm, sol in self.solves(geom):
            if sol.status != "infeasible":
                continue
            for guess in (sol.active, np.zeros_like(sol.active)):
                self.assert_same(solver.solve(prob, warm_start=warm, active=guess), sol)
                tried += 1
        assert tried >= 20

    def test_interior_optimum_rejects_guessed_bound(self):
        # optimum (0.5, 0) is interior; holding z0 at its upper bound 1 is
        # primal feasible but needs a negative upper multiplier
        prob = box_problem(np.eye(2), [-0.5, 0.0], [-1, -1], [1, 1])
        solver = QpSolver()
        sol = solver.solve(prob)
        assert np.array_equal(sol.active, [0, 0])
        guessed = solver.solve(prob, active=np.array([1, 0]))
        self.assert_same(guessed, sol)
        assert np.max(np.abs(guessed.z - [0.5, 0.0])) < 1e-6

    def test_guess_on_infinite_bound_falls_back(self):
        prob = box_problem(np.diag([2.0, 4.0]), [-2.0, -8.0], [-INF, -INF], [INF, INF])
        solver = QpSolver()
        sol = solver.solve(prob)
        self.assert_same(solver.solve(prob, active=np.array([1, -1])), sol)

    def test_admm_reports_bound_sides(self):
        prob = box_problem(np.eye(3), [-10.0, 0.0, 10.0], [-1, -1, -1], [1, 1, 1])
        sol = QpSolver().solve(prob)
        assert np.array_equal(sol.active, [1, 0, -1])
