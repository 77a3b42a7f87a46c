import numpy as np
import pytest

from apfmpc import qp as qp_module
from apfmpc.kinematics import ControlInput, RobotState, euler_step
from apfmpc.mpc import MpcConfig, MpcController, build_reference, path_table
from apfmpc.qp import QpProblem, QpSolver
from conftest import cold, normalized, objective

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


def loop_admm(problem, solver, warm_start=None, active=None, multipliers=None):
    """Reference oracle: the textbook unscaled-dual ADMM iteration, one
    K^-1 product, one clip and one dual step per iteration, with the
    solver's cost scaling, checks, rho rule and certificate: a guessed set
    is tried first and its multipliers start y, and each check tries the
    set its duals hold if it holds at most n rows and is not the one last
    tried. The rows arrive normalized and are read as given, as the solver
    reads them. Returns (z, status, iterations, rho_updates)."""
    n = len(problem.f_vec)
    cost_scale = 1.0 / max(1.0, float(np.max(np.abs(np.diag(problem.h_mat)), initial=0.0)))
    p_mat = cost_scale * problem.h_mat + qp_module._RIDGE * np.eye(n)
    f = cost_scale * problem.f_vec
    a_full, lo, hi = problem.a_mat, problem.lower, problem.upper
    sigma = qp_module._SIGMA
    tried = active
    if active is not None:
        guessed = solver._certified(problem, active, 0)
        if guessed is not None:
            return guessed.z, guessed.status, 0, 0

    def kkt_inverse(rho):
        return np.linalg.inv(p_mat + sigma * np.eye(n) + rho * a_full.T @ a_full)

    rho = qp_module._RHO
    kkt_inv = kkt_inverse(rho)
    x = np.zeros(n) if warm_start is None else np.asarray(warm_start, float).copy()
    y = np.zeros(len(lo))
    zc = np.clip(a_full @ x, lo, hi)
    if multipliers is not None:
        # the guessed duals, then one projection: zc = clip(Ax + y / rho),
        # and y keeps what it cuts off
        y[np.flatnonzero(active)] = cost_scale * multipliers
        zc = np.clip(a_full @ x + y / rho, lo, hi)
        y = y + rho * (a_full @ x - zc)
    prev_y = np.zeros(len(lo))
    status, it, rho_updates = qp_module.MAX_ITERATIONS, 0, 0
    for it in range(1, qp_module.MAX_ADMM_ITERATIONS + 1):
        x = kkt_inv @ (sigma * x - f + a_full.T @ (rho * zc - y))
        ax = a_full @ x
        zc = np.clip(ax + y / rho, lo, hi)
        y = y + rho * (ax - zc)
        if it % qp_module._CHECK_EVERY == 0:
            sides = qp_module._sides(y)
            if np.count_nonzero(sides) <= n and (tried is None
                                                 or not np.array_equal(sides, tried)):
                tried = sides
                polished = solver._certified(problem, sides, it)
                if polished is not None:
                    return polished.z, polished.status, it, rho_updates
            r_prim = float(np.max(np.abs(ax - zc)))
            r_dual = float(np.max(np.abs(p_mat @ x + f + a_full.T @ y)))
            if r_prim <= solver.tolerance and r_dual <= solver.tolerance:
                status = qp_module.INEXACT
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
        c = MpcController(cfg, geom)
        asm = c.assemble(state, cold(u0), build_reference(path, state, 1.389, cfg), [])
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
        # lower <= upper is False for a NaN bound, which would otherwise run
        # every ADMM iteration to a NaN answer
        for lower, upper in (([1, 0], [0, 1]), ([0, np.nan], [1, 1])):
            with pytest.raises(ValueError):
                box_problem(np.eye(2), np.zeros(2), lower, upper)


class TestAgainstOracle:
    def test_random_box_qps(self, rng):
        solver = QpSolver()
        for _ in range(20):
            prob = random_box_qp(rng)
            sol = solver.solve(prob)
            ref = projected_gradient_oracle(prob)
            assert objective(prob, sol.z) <= objective(prob, ref) + 1e-6
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
            relaxed = objective(base, projected_gradient_oracle(base))
            assert objective(prob, sol.z) >= relaxed - 1e-2


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
        assert objective(prob, sol.z) <= objective(prob, np.array([-1.0, -1.0])) + 1e-6

    def test_detects_infeasible(self):
        # z0 <= -1 and z0 >= 1 simultaneously
        prob = with_box(np.eye(1), np.zeros(1),
                        np.array([[1.0], [1.0]]),
                        np.array([-INF, 1.0]), np.array([-1.0, INF]),
                        np.full(1, -INF), np.full(1, INF))
        sol = QpSolver().solve(prob)
        assert sol.status == "infeasible"

    def test_nan_point_is_not_certified(self):
        # a NaN cost gives a NaN point, whose violation NaN is not within
        # the tolerance: no set certifies it (the solve then returns at
        # once, test_non_finite_cost_returns_at_once)
        prob = QpProblem(np.eye(3), np.array([np.nan, 1.0, 0.0]), np.eye(3),
                         -np.ones(3), np.ones(3))
        solver = QpSolver()
        for active in (np.zeros(3, int), np.array([1, 0, -1])):
            assert solver._certified(prob, active, 0) is None

    @pytest.mark.parametrize("term,index,value", [
        ("f_vec", 0, np.nan), ("f_vec", 2, -INF), ("h_mat", (1, 1), np.nan),
        ("h_mat", (0, 2), INF)],
        ids=["nan_f", "minus_inf_f", "nan_h_diagonal", "inf_h_off_diagonal"])
    @pytest.mark.parametrize("guess", [None, np.array([1, 0, -1])], ids=["no_guess", "guess"])
    def test_non_finite_cost_returns_at_once(self, monkeypatch, term, index, value, guess):
        # no ADMM iterate converges on it: no step matrix is built, and the
        # answer is NaN with 0 iterations, which the controller's hold rule
        # reads as not held (NaN > tolerance is False), so the tick raises
        costs = {"h_mat": np.eye(3), "f_vec": np.array([0.5, 1.0, 0.0])}
        costs[term][index] = value
        prob = QpProblem(costs["h_mat"], costs["f_vec"], np.eye(3), -np.ones(3), np.ones(3))
        built = []
        step_matrix = QpSolver._step_matrix
        monkeypatch.setattr(QpSolver, "_step_matrix",
                            staticmethod(lambda *args: built.append(1) or step_matrix(*args)))
        sol = QpSolver().solve(prob, active=guess)
        assert (sol.status, sol.iterations, built) == ("max_iterations", 0, [])
        assert np.isnan(sol.z).all() and sol.z.shape == (3,)
        assert np.isnan(sol.primal_residual) and sol.multipliers.shape == (0,)
        assert sol.active.tobytes() == np.zeros(3, int).tobytes()

    def test_badly_scaled_problem_converges(self):
        h = np.diag([1e5, 1.0])
        f = np.array([-1e5, -2.0])
        prob = with_box(h, f, np.array([[0.1, 2.0]]),
                        np.array([-1.0]), np.array([1.0]),
                        np.full(2, -INF), np.full(2, INF))
        sol = QpSolver().solve(prob)
        # the cost-scaled residuals pass, but the free row is not the KKT
        # point's set (test_uncertified_tail_is_inexact): inexact, not optimal
        assert sol.status == "inexact"
        ax = float(prob.a_mat[0] @ sol.z)
        assert -1.0 - 1e-3 <= ax <= 1.0 + 1e-3

    def test_uncertified_tail_is_inexact(self):
        # the QP above: its cost-scaled residuals pass after 10 iterations
        # with the general row free, but holding no row is not a KKT point
        # (the row's unconstrained value 4.1 is above its bound 1), so the
        # answer is the iterate, labelled inexact; holding the row at its
        # upper bound certifies the minimizer
        h = np.diag([1e5, 1.0])
        prob = with_box(h, np.array([-1e5, -2.0]), np.array([[0.1, 2.0]]),
                        np.array([-1.0]), np.array([1.0]), np.full(2, -INF), np.full(2, INF))
        solver = QpSolver()
        sol = solver.solve(prob)
        assert (sol.status, sol.iterations) == ("inexact", 10)
        assert sol.active.tolist() == [0, 0, 0] and sol.multipliers.shape == (0,)
        assert sol.primal_residual <= solver.tolerance
        assert solver._certified(prob, sol.active, 0) is None
        exact = solver._certified(prob, np.array([1, 0, 0]), 0)
        assert exact is not None and exact.status == "optimal"
        assert abs(float(prob.a_mat[0] @ exact.z) - 1.0) <= solver.tolerance
        assert objective(prob, exact.z) < objective(prob, sol.z) - 1e-3

    def test_badly_scaled_rows_converge_once_normalized(self):
        # the rows of the test above times 1e-4 and 1e4, through `normalized`:
        # the same minimizer as the rows stated at unit scale
        h, f = np.diag([1e5, 1.0]), np.array([-1e5, -2.0])
        rows, lower, upper = np.array([[0.1, 2.0], [1.0, -1.0]]), [-1.0, -0.5], [1.0, 0.5]
        unit = with_box(h, f, rows / [[2.0], [1.0]], np.divide(lower, [2.0, 1.0]),
                        np.divide(upper, [2.0, 1.0]), np.full(2, -INF), np.full(2, INF))
        factors = np.array([1e-4, 1e4])
        skewed = with_box(h, f, factors[:, None] * rows, factors * lower, factors * upper,
                          np.full(2, -INF), np.full(2, INF))
        sol, want = QpSolver().solve(normalized(skewed)), QpSolver().solve(unit)
        assert sol.status == want.status == "optimal"
        assert np.max(np.abs(sol.z - want.z)) < 1e-8

    def test_certifiable_polish_is_accepted(self, geom, monkeypatch):
        # the iterate after 10 iterations is (4.47, 0), outside its own box,
        # and scores lower than the exact optimum (1, 0); the detected set
        # certifies the optimum, so the solve ends optimal
        prob = box_problem(np.eye(2), [-10.0, 0.0], [-1, -1], [1, 1])
        solver = QpSolver()
        with monkeypatch.context() as capped:
            capped.setattr(qp_module, "MAX_ADMM_ITERATIONS", 10)
            sol = solver.solve(prob)
        assert sol.status == "optimal"
        assert sol.iterations == 10
        assert np.max(np.abs(sol.z - [1.0, 0.0])) < 1e-8
        assert sol.primal_residual <= solver.tolerance
        # controller QPs whose iterate scores lower than their KKT point by
        # 5e-3 and 0.25: the detected set's point is the answer
        problems = list(controller_qps(geom, 1))
        for prob, warm in (problems[5], problems[11]):
            sol = solver.solve(prob, warm_start=warm)
            assert sol.status == "optimal"
            assert np.array_equal(sol.z, solver.solve(prob, active=sol.active).z)


class TestMatchesLoopIteration:
    def test_iteration_cap_ends_on_a_check(self):
        # the last iteration is a check, so no set is tried after the loop
        assert qp_module.MAX_ADMM_ITERATIONS % qp_module._CHECK_EVERY == 0

    def test_controller_shaped_problems(self, geom, monkeypatch):
        # the ADMM path: a failed guess goes to it with no exchange
        monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
        solver = QpSolver()
        outcomes, dual_starts = [], 0
        for seed in (1, 2):
            for prob, warm in controller_qps(geom, seed):
                assert prob.a_mat.shape == (130, 40)
                sol = solver.solve(prob, warm_start=warm)
                z, status, iterations, rho_updates = loop_admm(prob, solver, warm)
                assert sol.status == status
                assert sol.iterations == iterations
                assert np.max(np.abs(sol.z - z)) < 1e-9
                outcomes.append((status, rho_updates))
                if sol.active.any():
                    # a failed guess, one side flipped, with the answer's
                    # multipliers as the dual start
                    guess = sol.active.copy()
                    held = np.flatnonzero(guess)[0]
                    guess[held] = -guess[held]
                    warm_dual = solver.solve(prob, warm, guess, sol.multipliers)
                    z, status, iterations, _ = loop_admm(prob, solver, warm, guess,
                                                         sol.multipliers)
                    assert (warm_dual.status, warm_dual.iterations) == (status, iterations)
                    assert np.max(np.abs(warm_dual.z - z)) < 1e-9
                    dual_starts += 1
        adapted = {status for status, updates in outcomes if updates > 0}
        assert adapted == {"optimal", "infeasible"}
        assert dual_starts >= 5

    def test_infeasible_certificate(self):
        # z0 + z1 <= -1 and z0 + z1 >= 1 with a box, the rows normalized
        prob = normalized(with_box(np.eye(2), np.array([1.0, -1.0]),
                                   np.array([[1.0, 1.0], [2.0, 2.0]]),
                                   np.array([-INF, 2.0]), np.array([-1.0, INF]),
                                   np.full(2, -5.0), np.full(2, 5.0)))
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
                assert guessed.multipliers.tobytes() == sol.multipliers.tobytes()
                kept += 1
        assert kept >= 5

    def test_wrong_guess_changes_nothing(self, geom, monkeypatch):
        # without exchanges, a failed guess leaves the ADMM's answer as it is
        monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
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

    def test_multipliers_not_one_per_held_row_change_nothing(self, geom, monkeypatch):
        # a failed guess whose multipliers are not one per held row starts
        # the duals at 0, as without multipliers: none broadcasts or raises
        monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
        solver, tried = QpSolver(), 0
        for prob, warm, sol in self.solves(geom):
            held = np.flatnonzero(sol.active)
            if len(held) < 2:
                continue
            guess = sol.active.copy()
            guess[held[0]] = -guess[held[0]]
            zero_duals = solver.solve(prob, warm, guess)
            for multipliers in (np.array([5.0]), np.append(sol.multipliers, 5.0),
                                sol.multipliers[:, None]):
                self.assert_same(solver.solve(prob, warm, guess, multipliers), zero_duals)
                tried += 1
        assert tried >= 15

    def test_infeasible_with_guess_keeps_certificate(self, geom):
        solver, tried = QpSolver(), 0
        for prob, warm, sol in self.solves(geom):
            if sol.status != "infeasible":
                continue
            for guess in (sol.active, np.zeros_like(sol.active)):
                self.assert_same(solver.solve(prob, warm_start=warm, active=guess), sol)
                tried += 1
        assert tried >= 20

    def test_checks_try_no_set_of_more_rows_than_variables(self, geom, monkeypatch):
        # the diverging duals of an infeasible QP hold more rows than there
        # are variables, more than can be linearly independent: no check
        # tries such a set
        held, certify = [], QpSolver._certified

        def recording(self, problem, active, iterations):
            held.append(int(np.count_nonzero(active)))
            return certify(self, problem, active, iterations)

        monkeypatch.setattr(QpSolver, "_certified", recording)
        solver, wide = QpSolver(), 0
        for seed in (1, 2):
            for prob, warm in controller_qps(geom, seed):
                held.clear()
                sol = solver.solve(prob, warm_start=warm)
                if sol.status == "infeasible":
                    assert max(held, default=0) <= len(prob.f_vec)
                    wide += np.count_nonzero(sol.active) > len(prob.f_vec)
        assert wide >= 3

    def test_interior_optimum_rejects_guessed_bound(self, monkeypatch):
        # optimum (0.5, 0) is interior; holding z0 at its upper bound 1 is
        # primal feasible but needs a negative upper multiplier
        monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
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


def recorded_held_sets(monkeypatch):
    """Every set whose KKT point `qp._held_point` solves, as a list."""
    sets, held_point = [], qp_module._held_point
    monkeypatch.setattr(qp_module, "_held_point",
                        lambda problem, active: sets.append(active.tolist())
                        or held_point(problem, active))
    return sets


class TestExchanges:
    """A failed guess is repaired by exchanges before the ADMM runs."""

    def test_cold_controller_qp_is_repaired_with_certified_bits(self, geom):
        # from the empty set, the unconstrained minimizer: each repaired
        # answer is `_certified`'s at its set, with 0 iterations
        solver, repaired = QpSolver(), 0
        for seed in (1, 2, 3):
            for prob, warm in controller_qps(geom, seed):
                sol = solver.solve(prob, warm_start=warm, active=np.zeros(len(prob.lower), int))
                if sol.iterations:
                    continue  # infeasible, or more exchanges than the cap
                assert sol.status == "optimal" and sol.active.any()
                assert_same_bits(sol, solver._certified(prob, sol.active, 0))
                repaired += 1
        assert repaired >= 8

    def test_wrong_sign_multiplier_is_dropped_before_a_row_is_added(self, monkeypatch):
        # min 1/2 |z|^2 - 0.5 z0 - 10 z1 in the box [-1, 1]^2, optimum
        # (0.5, 1). The guess holds z0 at its upper bound, whose multiplier
        # is -0.5, while z1 = 10 violates its bound: the hold on z0 goes
        # first, then z1 is held at its upper bound
        sets = recorded_held_sets(monkeypatch)
        prob = box_problem(np.eye(2), [-0.5, -10.0], [-1, -1], [1, 1])
        sol = QpSolver().solve(prob, active=np.array([1, 0]))
        assert sets == [[1, 0], [0, 0], [0, 1]]
        assert (sol.status, sol.iterations, sol.active.tolist()) == ("optimal", 0, [0, 1])
        assert np.max(np.abs(sol.z - [0.5, 1.0])) < 1e-8

    def test_capped_exchanges_leave_the_parent_admm_answer(self, geom, monkeypatch):
        # with one exchange allowed, cold controller QPs that need more go
        # to the ADMM from zero duals: its answer is the parent form's bit
        # for bit, after two KKT solves
        monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 1)
        sets = recorded_held_sets(monkeypatch)
        solver, fell_back = QpSolver(), 0
        for seed in (1, 2, 3):
            for raw, warm in controller_qps(geom, seed):
                empty = np.zeros(len(raw.lower), int)
                sets.clear()
                got = solver.solve(normalized(raw), warm_start=warm, active=empty)
                if got.iterations == 0:
                    continue  # repaired within the cap
                assert sets[0] == empty.tolist() and np.count_nonzero(sets[1]) == 1
                assert_same_bits(got, parent_solve(solver, raw, warm, empty))
                fell_back += 1
        assert fell_back >= 5

    def test_without_repair_a_failed_guess_goes_to_the_admm(self, geom, monkeypatch):
        # `repair=False`: the guess is tried and no exchange runs, so the
        # answer is that of a solve with no exchange allowed
        solver, compared = QpSolver(), 0
        for prob, warm in controller_qps(geom, 1):
            empty = np.zeros(len(prob.lower), int)
            with monkeypatch.context() as patched:
                patched.setattr(QpSolver, "_exchanged", None)  # any call raises
                got = solver.solve(prob, warm, empty, repair=False)
            with monkeypatch.context() as patched:
                patched.setattr(qp_module, "MAX_EXCHANGES", 0)
                assert_same_bits(got, solver.solve(prob, warm, empty))
            compared += got.iterations > 0
        assert compared >= 5

    @pytest.mark.parametrize("guess", [None, np.zeros(3, int), np.array([1, 0, -1])],
                             ids=["no_guess", "empty", "guess"])
    def test_nan_cost_returns_before_any_exchange(self, monkeypatch, guess):
        # the guess's one KKT solve (NaN, so not accepted), then the answer
        # is NaN at once: no exchange and no ADMM
        sets = recorded_held_sets(monkeypatch)
        prob = QpProblem(np.eye(3), np.array([np.nan, 1.0, 0.0]), np.eye(3),
                         -np.ones(3), np.ones(3))
        sol = QpSolver().solve(prob, active=guess)
        assert (sol.status, sol.iterations) == ("max_iterations", 0)
        assert sets == ([] if guess is None else [guess.tolist()])
        assert np.isnan(sol.z).all()

    def test_infeasible_qp_stays_infeasible(self, monkeypatch):
        # z0 + z1 <= -1 and 2 z0 + 2 z1 >= 2: no exchange certifies, and the
        # ADMM's certificate follows as without a guess (the controller QPs
        # from the empty set: test_infeasible_with_guess_keeps_certificate)
        sets = recorded_held_sets(monkeypatch)
        prob = normalized(with_box(np.eye(2), np.array([1.0, -1.0]),
                                   np.array([[1.0, 1.0], [2.0, 2.0]]),
                                   np.array([-INF, 2.0]), np.array([-1.0, INF]),
                                   np.full(2, -5.0), np.full(2, 5.0)))
        sol = QpSolver().solve(prob, active=np.zeros(4, int))
        assert sol.status == "infeasible" and len(sets) > 1
        assert_same_bits(sol, QpSolver().solve(prob))


def assert_same_bits(got, want):
    assert got.z.tobytes() == want.z.tobytes()
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert np.float64(got.primal_residual).tobytes() == np.float64(want.primal_residual).tobytes()
    assert got.active.tobytes() == want.active.tobytes()
    assert got.multipliers.tobytes() == want.multipliers.tobytes()


def parent_certified(solver, problem, active, iterations):
    """`QpSolver._certified` as first written: the violation as the sum of
    the two clamped gaps, every row's multiplier sign checked, the
    right-hand side concatenated. The oracle for the current form."""
    a_mat, lo, hi = problem.a_mat, problem.lower, problem.upper
    rows = active.nonzero()[0]
    b_act = np.where(active[rows] < 0, lo[rows], hi[rows])
    if not np.logical_and.reduce(np.isfinite(b_act)):
        return None
    n, k = len(problem.f_vec), len(rows)
    a_act = a_mat[rows]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = problem.h_mat
    kkt[:n, :n].flat[::n + 1] += 1e-10
    kkt[:n, n:] = a_act.T
    kkt[n:, :n] = a_act
    kkt[n:, n:] = -0.0
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
    if viol > solver.tolerance or not np.logical_and.reduce(lam * active >= 0.0):
        return None
    return qp_module.QpSolution(x, qp_module.OPTIMAL, viol, iterations, active, lam[rows])


def test_certified_matches_parent_form(geom):
    # on the controller QPs: the detected set, one side flipped, one row
    # added, none held, and seeded random sides; accepted or not, the same
    # answer bit for bit
    solver, rng = QpSolver(), np.random.default_rng(7)
    accepted = rejected = 0
    for seed in (1, 2, 3):
        for prob, warm in controller_qps(geom, seed):
            active = solver.solve(prob, warm_start=warm).active
            flipped, added = active.copy(), active.copy()
            if active.any():
                held = np.flatnonzero(active)[0]
                flipped[held] = -flipped[held]
            added[np.flatnonzero(active == 0)[0]] = 1
            guesses = [active, flipped, added, np.zeros_like(active)]
            guesses += [rng.integers(-1, 2, len(active)) * (rng.random(len(active)) < 0.1)
                        for _ in range(3)]
            for guess in guesses:
                got = solver._certified(prob, guess, 5)
                want = parent_certified(solver, prob, guess, 5)
                assert (got is None) == (want is None)
                if want is None:
                    rejected += 1
                    continue
                accepted += 1
                assert_same_bits(got, want)
    assert accepted >= 10 and rejected >= 100


def test_certified_tick_scales_no_cost_and_computes_no_residual(cfg, geom, monkeypatch):
    # a warm step whose guess certifies computes no dual residual and scales
    # no cost; its answer is the first form's bit for bit
    c = MpcController(cfg, geom)
    path = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
    state = RobotState(0.0, 0.3, 0.05, 0.8, 0.8)
    ref = build_reference(path, state, 1.389, cfg)
    solves, solve = [], c.solver.solve

    def recording(problem, **kw):
        solves.append((problem, solve(problem, **kw)))
        return solves[-1][1]

    c.solver.solve = recording
    c.step(state, ref, [])
    calls, scalings = [], []
    dual_residual, scaled_cost = qp_module._dual_residual, qp_module._scaled_cost
    monkeypatch.setattr(qp_module, "_dual_residual",
                        lambda *args: calls.append(1) or dual_residual(*args))
    monkeypatch.setattr(qp_module, "_scaled_cost",
                        lambda *args: scalings.append(1) or scaled_cost(*args))
    c.step(state, ref, [])
    prob, sol = solves[-1]
    assert (sol.status, sol.iterations) == ("optimal", 0)
    assert (calls, scalings) == ([], [])
    assert_same_bits(sol, parent_certified(QpSolver(), prob, sol.active, 0))


@pytest.mark.parametrize("shapes", [
    ((2, 2), (2,), (3, 2), (1,), (3,)),     # bounds of length 1 broadcast over 3 rows
    ((2, 2), (2,), (3, 2), (3,), (1,)),
    ((2, 3), (2,), (3, 2), (3,), (3,)),     # H not n x n
    ((2,), (2,), (3, 2), (3,), (3,)),
    ((2, 2), (2, 1), (3, 2), (3,), (3,)),   # f not a vector
    ((2, 2), (2,), (3, 1), (3,), (3,)),     # A not m x n
    ((2, 2), (2,), (6,), (6,), (6,)),
    ((2, 2), (2,), (3, 2), (3, 1), (3, 1)),
], ids=["lower_1", "upper_1", "h_2x3", "h_vector", "f_column", "a_3x1", "a_vector",
        "bounds_column"])
def test_problem_rejects_mismatched_shapes(shapes):
    h, f, a, lower, upper = shapes
    with pytest.raises(ValueError):
        QpProblem(np.eye(*h) if len(h) == 2 else np.ones(h), np.zeros(f), np.ones(a),
                  np.zeros(lower), np.ones(upper))


def test_normalized_divides_each_row_by_its_largest_entry():
    prob = normalized(with_box(np.eye(2), np.zeros(2), np.array([[0.1, -2.0], [0.0, 0.0]]),
                               np.array([-1.0, -INF]), np.array([4.0, 0.0]),
                               np.full(2, -3.0), np.full(2, 3.0)))
    assert prob.a_mat.tolist() == [[0.05, -1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert prob.lower.tolist() == [-0.5, -INF, -3.0, -3.0]
    assert prob.upper.tolist() == [2.0, 0.0, 3.0, 3.0]


def parent_solve(solver, problem, warm_start=None, active=None, multipliers=None,
                 old_stop=False):
    """`QpSolver.solve` as it was before the rows arrived normalized: the
    row scale taken on every solve, one w buffer, the dual residual at every
    check, the ridge and sigma on `.flat` views; with the guess's
    multipliers as the dual start and a certificate try at each check whose
    set holds at most n rows and is not the one last tried. The oracle for
    the current form, which reads `normalized(problem)`. With `old_stop`,
    the stop rule before those tries: the duals start at 0, only the set of
    the final duals is tried after the loop, and an iterate that fails it
    returns as `optimal` when its residuals pass."""
    n = len(problem.f_vec)
    row_scale = 1.0 / np.maximum(np.maximum.reduce(np.abs(problem.a_mat), axis=1,
                                                   initial=0.0), 1e-10)
    cost_scale = 1.0 / max(1.0, float(np.maximum.reduce(
        np.abs(problem.h_mat.diagonal()), initial=0.0)))
    p_mat = cost_scale * problem.h_mat
    p_mat.flat[::n + 1] += qp_module._RIDGE
    f = cost_scale * problem.f_vec
    a_mat = row_scale[:, None] * problem.a_mat
    lo = row_scale * problem.lower
    hi = row_scale * problem.upper
    m = len(lo)

    def step_matrix(rho):
        kkt = p_mat.copy()
        kkt.flat[::n + 1] += qp_module._SIGMA
        kkt_inv = np.linalg.inv(kkt + rho * a_mat.T @ a_mat)
        return np.concatenate([qp_module._SIGMA * kkt_inv, (rho * kkt_inv) @ a_mat.T,
                               -(kkt_inv @ f)[:, None]], axis=1)

    held = QpProblem(problem.h_mat, problem.f_vec, a_mat, lo, hi)  # the rows it holds
    tried = None
    if active is not None and np.asarray(active).shape == (m,):
        tried = np.asarray(active)
        certified = solver._certified(held, tried, 0)
        if certified is not None:
            return certified
    rho = qp_module._RHO
    g_mat = step_matrix(rho)
    x = np.zeros(n) if warm_start is None else np.asarray(warm_start, float).copy()
    ax = a_mat @ x
    v = np.zeros(m)
    if tried is None or multipliers is None or old_stop:
        zc = np.minimum(np.maximum(ax, lo), hi)
    else:
        v[tried.nonzero()[0]] = cost_scale * multipliers / rho
        t = ax + v
        zc = np.minimum(np.maximum(t, lo), hi)
        v = t - zc
    w = np.concatenate([x, zc - v, [1.0]])
    mid = w[n:n + m]
    t = np.empty(m)
    prev_y = np.zeros(m)
    status = qp_module.MAX_ITERATIONS
    r_prim = r_dual = np.inf
    it = 0
    for it in range(1, qp_module.MAX_ADMM_ITERATIONS + 1):
        x = g_mat @ w
        w[:n] = x
        np.dot(a_mat, x, out=ax)
        np.add(ax, v, out=t)
        np.maximum(t, lo, out=zc)
        np.minimum(zc, hi, out=zc)
        np.subtract(t, zc, out=v)
        np.subtract(zc, v, out=mid)
        if it % qp_module._CHECK_EVERY == 0:
            y = rho * v
            sides = qp_module._sides(y)
            if not old_stop and np.count_nonzero(sides) <= n and (
                    tried is None or not np.array_equal(sides, tried)):
                tried = sides
                certified = solver._certified(held, sides, it)
                if certified is not None:
                    return certified
            r_prim = float(np.maximum.reduce(np.abs(ax - zc)))
            r_dual = float(np.maximum.reduce(np.abs(p_mat @ x + f + a_mat.T @ y)))
            if r_prim <= solver.tolerance and r_dual <= solver.tolerance:
                status = qp_module.OPTIMAL if old_stop else qp_module.INEXACT
                break
            if solver._primal_infeasible(a_mat, lo, hi, y - prev_y):
                return qp_module.QpSolution(x, qp_module.INFEASIBLE, r_prim, it, sides,
                                            y[sides.nonzero()[0]] / cost_scale)
            prev_y = y
            if it % 100 == 0 and r_dual > 0.0 and r_prim > 0.0:
                ratio = r_prim / r_dual
                if ratio > 10.0 or ratio < 0.1:
                    new_rho = min(max(rho * np.sqrt(ratio), 1e-4), 1e4)
                    v *= rho / new_rho
                    np.subtract(zc, v, out=mid)
                    rho = new_rho
                    g_mat = step_matrix(rho)
    sides = qp_module._sides(rho * v)
    if old_stop:
        certified = solver._certified(held, sides, it)
        if certified is not None:
            return certified
    return qp_module.QpSolution(x, status, r_prim, it, sides,
                                (rho * v)[sides.nonzero()[0]] / cost_scale)




@pytest.mark.parametrize("max_iterations,statuses", [
    (4000, {"optimal", "infeasible"}), (10, {"max_iterations"}), (15, {"max_iterations"}),
    (250, {"optimal", "infeasible", "max_iterations"})])
def test_solve_matches_parent_form(geom, monkeypatch, max_iterations, statuses):
    # the controller QPs of seeds 1-3 as assembled, and with each row
    # multiplied by a seeded factor in [1e-3, 1e3]: the current solve of
    # the normalized rows against the parent's solve of the rows as given,
    # without a guess and with the detected set as one; a failed guess goes
    # to the ADMM with no exchange
    monkeypatch.setattr(qp_module, "MAX_ADMM_ITERATIONS", max_iterations)
    monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
    solver, rng = QpSolver(), np.random.default_rng(3)
    seen = set()
    for seed in (1, 2, 3):
        for prob, warm in controller_qps(geom, seed):
            factors = 10.0 ** rng.uniform(-3.0, 3.0, len(prob.lower))
            skewed = QpProblem(prob.h_mat, prob.f_vec, factors[:, None] * prob.a_mat,
                               factors * prob.lower, factors * prob.upper)
            for raw in (prob, skewed):
                got = solver.solve(normalized(raw), warm_start=warm)
                assert_same_bits(got, parent_solve(solver, raw, warm))
                if got.status != "optimal":  # a loop iterate owns its data
                    assert got.z.base is None
                seen.add(got.status)
                assert_same_bits(solver.solve(normalized(raw), warm_start=warm, active=got.active),
                                 parent_solve(solver, raw, warm, got.active))
                if got.active.any():  # a failed guess with the answer's multipliers
                    guess = got.active.copy()
                    held = np.flatnonzero(guess)[0]
                    guess[held] = -guess[held]
                    assert_same_bits(solver.solve(normalized(raw), warm, guess, got.multipliers),
                                     parent_solve(solver, raw, warm, guess, got.multipliers))
    assert seen == statuses


@pytest.mark.parametrize("max_iterations", [4000, 10, 15, 250])
def test_infeasible_solve_matches_parent_form(monkeypatch, max_iterations):
    # z0 + z1 <= -1 and 2 z0 + 2 z1 >= 2 with a box
    raw = with_box(np.eye(2), np.array([1.0, -1.0]), np.array([[1.0, 1.0], [2.0, 2.0]]),
                   np.array([-INF, 2.0]), np.array([-1.0, INF]),
                   np.full(2, -5.0), np.full(2, 5.0))
    monkeypatch.setattr(qp_module, "MAX_ADMM_ITERATIONS", max_iterations)
    solver = QpSolver()
    got = solver.solve(normalized(raw))
    assert_same_bits(got, parent_solve(solver, raw))
    assert (got.status, got.iterations) == ("infeasible", 10)
    assert np.isfinite(got.multipliers).all()
    assert got.z.base is None


def test_old_stop_rule_certified_answers_keep_their_bits(geom, monkeypatch):
    # the controller QPs of seeds 1-3: every solve that the stop rule before
    # the check-time tries certifies (its final duals' set) returns the same
    # point bit for bit, in no more iterations, from zero duals and from a
    # failed guess with that answer's multipliers, which no exchange repairs
    monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
    solver, kept, sooner = QpSolver(), 0, 0
    for seed in (1, 2, 3):
        for prob, warm in controller_qps(geom, seed):
            old = parent_solve(solver, prob, warm, old_stop=True)
            if solver._certified(normalized(prob), old.active, 0) is None:
                continue  # not certified: infeasible, or an uncertified tail
            starts = [(None, None)]
            if old.active.any():
                guess = old.active.copy()
                held = np.flatnonzero(guess)[0]
                guess[held] = -guess[held]
                starts.append((guess, old.multipliers))
            for guess, multipliers in starts:
                new = solver.solve(normalized(prob), warm, guess, multipliers)
                assert new.status == old.status == "optimal"
                assert new.z.tobytes() == old.z.tobytes()
                assert 0 < new.iterations <= old.iterations
                kept += 1
                sooner += new.iterations < old.iterations
    assert kept >= 20 and sooner >= 10


def next_ticks(geom, seed, count=12):
    """The controller QPs' starts, each stepped once: the next tick's QP
    with what that step carried, where the step's QP was solved."""
    rng = np.random.default_rng(seed)
    cfg = MpcConfig()
    path = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
    for k in range(count):
        mean, gap = rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0) * (-1) ** k
        state = RobotState(*rng.uniform(-0.5, 0.5, 3), mean + gap / 2, mean - gap / 2)
        u0 = ControlInput(*rng.uniform(-0.3, 0.3, 2), *rng.uniform(-0.5, 0.5, 2))
        c = MpcController(cfg, geom)
        c._carry = cold(u0)
        sol = c.step(state, build_reference(path, state, 1.389, cfg), [])
        state = euler_step(state, sol.applied_input, geom, cfg.dt, substeps=10)
        if c._carry.active is not None:
            yield c.assemble(state, c._carry, build_reference(path, state, 1.389, cfg),
                             []).qp, c._carry


def test_previous_multipliers_certify_in_fewer_iterations(geom, monkeypatch):
    # the tick after a solved one, its guess failed and not repaired:
    # started from the last answer's multipliers, the ADMM certifies the
    # same point as from zero duals, and in fewer iterations summed over
    # seeds 1-3
    monkeypatch.setattr(qp_module, "MAX_EXCHANGES", 0)
    solver, with_duals, without, fewer = QpSolver(), 0, 0, 0
    for seed in (1, 2, 3):
        for prob, carry in next_ticks(geom, seed):
            warm = solver.solve(prob, carry.warm, carry.active, carry.multipliers)
            zero = solver.solve(prob, carry.warm, carry.active)
            if zero.iterations == 0 or zero.status != "optimal":
                continue  # an accepted guess, or infeasible
            assert warm.status == "optimal"
            assert warm.z.tobytes() == zero.z.tobytes()
            with_duals, without = with_duals + warm.iterations, without + zero.iterations
            fewer += warm.iterations < zero.iterations
    assert fewer >= 5
    assert with_duals < 0.8 * without
