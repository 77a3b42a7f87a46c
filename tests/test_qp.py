import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from apfmpc import qp as qp_module
from apfmpc.kinematics import ControlInput, RobotState
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




def controller_qps(geom, seed, count=12):
    """Seeded problems as the controller assembles them: 40 increments, 90
    general rows, then the 40 rows of the box. Front/rear speed gaps up to
    1 m/s push the slip rows towards infeasibility."""
    rng = np.random.default_rng(seed)
    cfg = MpcConfig()
    path = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
    for k in range(count):
        mean, gap = rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0) * (-1) ** k
        state = RobotState(*rng.uniform(-0.5, 0.5, 3), mean + gap / 2, mean - gap / 2)
        u0 = ControlInput(*rng.uniform(-0.3, 0.3, 2), *rng.uniform(-0.5, 0.5, 2))
        c = MpcController(cfg, geom)
        yield c.assemble(state, cold(u0), build_reference(path, state, 1.389, cfg), []).qp


def recorded_held_sets(monkeypatch):
    """Every set whose KKT point `qp._held_point` solves, as a list."""
    sets, held_point = [], qp_module._held_point
    monkeypatch.setattr(qp_module, "_held_point",
                        lambda problem, active: sets.append(active.tolist())
                        or held_point(problem, active))
    return sets


def assert_same_bits(got, want):
    assert got.z.tobytes() == want.z.tobytes()
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert np.float64(got.primal_residual).tobytes() == np.float64(want.primal_residual).tobytes()
    assert got.active.tobytes() == want.active.tobytes()


def certifies(problem, active, tolerance=QpSolver.tolerance):
    """Whether the KKT point of `active`'s held set is a KKT point of the QP."""
    _, signed, gaps = qp_module._held_point(problem, active)
    return bool(np.max(gaps, initial=0.0) <= tolerance and np.all(signed >= 0.0))


class TestTrivialCases:
    def test_unconstrained_analytic(self):
        h = np.diag([2.0, 4.0])
        f = np.array([-2.0, -8.0])
        prob = box_problem(h, f, [-INF, -INF], [INF, INF])
        sol = QpSolver().solve(prob)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.z - [1.0, 2.0])) < 1e-8

    def test_no_rows(self):
        # A of shape (0, n): the unconstrained minimizer, with no row to hold
        prob = QpProblem(np.diag([2.0, 4.0]), np.array([-2.0, -8.0]), np.zeros((0, 2)),
                         np.zeros(0), np.zeros(0))
        sol = QpSolver().solve(prob)
        assert sol.status == "optimal" and sol.active.shape == (0,)
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
        # lower <= upper is False for a NaN bound, whose rows no set could
        # ever certify
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
        # the warm start is the guessed set: the answer's own set returns
        # the same point at once
        solver, repaired = QpSolver(), 0
        for _ in range(5):
            prob = random_box_qp(rng)
            first = solver.solve(prob)
            warm = solver.solve(prob, first.active)
            assert_same_bits(warm, replace(first, iterations=0))
            repaired += first.iterations > 0
        assert repaired >= 2

    def test_deterministic(self, rng):
        prob = random_box_qp(rng)
        a = QpSolver().solve(prob)
        b = QpSolver().solve(prob)
        assert_same_bits(a, b)

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
        # the tolerance: no set certifies it, and the solve raises
        # (test_non_finite_cost_returns_at_once)
        prob = QpProblem(np.eye(3), np.array([np.nan, 1.0, 0.0]), np.eye(3),
                         -np.ones(3), np.ones(3))
        for active in (np.zeros(3, int), np.array([1, 0, -1])):
            assert not certifies(prob, active)
            with pytest.raises(FloatingPointError):
                QpSolver().solve(prob, active)

    @pytest.mark.parametrize("term,index,value", [
        ("f_vec", 0, np.nan), ("f_vec", 2, -INF), ("h_mat", (1, 1), np.nan),
        ("h_mat", (0, 2), INF)],
        ids=["nan_f", "minus_inf_f", "nan_h_diagonal", "inf_h_off_diagonal"])
    @pytest.mark.parametrize("guess", [None, np.array([1, 0, -1])], ids=["no_guess", "guess"])
    def test_non_finite_cost_returns_at_once(self, term, index, value, guess):
        # no set certifies such a cost: once the guess fails, the solve ends
        # by raising FloatingPointError, which ends a run as a numerical
        # failure, before any set change
        costs = {"h_mat": np.eye(3), "f_vec": np.array([0.5, 1.0, 0.0])}
        costs[term][index] = value
        prob = QpProblem(costs["h_mat"], costs["f_vec"], np.eye(3), -np.ones(3), np.ones(3))
        with pytest.raises(FloatingPointError, match="QP cost is not finite"):
            QpSolver().solve(prob, guess)

    def test_badly_scaled_problem_converges(self):
        # curvatures 1e5 and 1: the general row's unconstrained value 4.1 is
        # above its bound 1, so the minimizer holds it there
        h = np.diag([1e5, 1.0])
        f = np.array([-1e5, -2.0])
        prob = with_box(h, f, np.array([[0.1, 2.0]]),
                        np.array([-1.0]), np.array([1.0]),
                        np.full(2, -INF), np.full(2, INF))
        solver = QpSolver()
        sol = solver.solve(prob)
        assert (sol.status, sol.active.tolist()) == ("optimal", [1, 0, 0])
        assert abs(float(prob.a_mat[0] @ sol.z) - 1.0) <= solver.tolerance
        assert objective(prob, sol.z) < objective(prob, QpSolver().solve(
            with_box(h, f, np.zeros((0, 2)), [], [], [-INF] * 2, [INF] * 2)).z) + 1e5

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

    def test_held_row_at_contact_curvature_certifies(self):
        # the curvature of the field's contact continuation, V''(d0) ~ 7.9e12
        # (see `potential_field`), against a bound z0 <= 0 from z0 = d: the
        # multiplier is K d. With the held rows regularized by an absolute
        # -1e-10 the row missed its bound by K d 1e-10 / (1 + K 1e-10), ~d,
        # and no set certified; relative to the cost it misses by ~1e-10 d
        k = 7.9e12
        for d in (1.0, 2.0, 10.0):
            prob = with_box(np.diag([k, 1.0]), np.array([-k * d, -0.5]),
                            np.array([[1.0, 0.0]]), np.array([-INF]), np.array([0.0]),
                            np.full(2, -5.0), np.full(2, 5.0))
            sol = QpSolver().solve(prob)
            assert (sol.status, sol.active.tolist()) == ("optimal", [1, 0, 0])
            assert sol.primal_residual <= 2e-10 * d
            assert np.max(np.abs(sol.z - [0.0, 0.5])) <= 2e-10 * d


class TestActiveSetGuess:
    @staticmethod
    def solves(geom):
        """(problem, no-guess solution) of the controller QPs."""
        solver = QpSolver()
        for seed in (1, 2):
            for prob in controller_qps(geom, seed):
                yield prob, solver.solve(prob)

    def test_correct_guess_is_certified(self, geom):
        # the answer's own set: the same KKT system, so the same bits, at once
        solver, kept = QpSolver(), 0
        for prob, sol in self.solves(geom):
            if sol.status != "optimal":
                continue
            guessed = solver.solve(prob, sol.active)
            assert_same_bits(guessed, replace(sol, iterations=0))
            assert guessed.primal_residual <= solver.tolerance
            kept += 1
        assert kept >= 10

    def test_wrong_guess_changes_nothing(self, geom):
        # a wrong guess is repaired to the answer's set, so to its point bit
        # for bit; a guess not of length m is the empty set's
        solver, tried = QpSolver(), 0
        for prob, sol in self.solves(geom):
            if sol.status != "optimal":
                continue
            active = sol.active
            flipped = active.copy()
            held = np.flatnonzero(active)[0]
            flipped[held] = -flipped[held]
            added = active.copy()
            added[np.flatnonzero(active == 0)[0]] = 1
            for guess in (flipped, added, active[:-1], np.append(active, 0)):
                got = solver.solve(prob, guess)
                assert_same_bits(got, replace(sol, iterations=got.iterations))
                tried += 1
        assert tried >= 40

    def test_infeasible_with_guess_keeps_certificate(self, geom):
        # infeasible from every start
        solver, tried = QpSolver(), 0
        for prob, sol in self.solves(geom):
            if sol.status != "infeasible":
                continue
            assert sol.primal_residual > solver.tolerance
            for guess in (sol.active, -sol.active, np.zeros_like(sol.active)):
                assert solver.solve(prob, guess).status == "infeasible"
                tried += 1
        assert tried >= 20

    def test_checks_try_no_set_of_more_rows_than_variables(self, geom, monkeypatch):
        # on the controller QPs no set the method solves holds more rows
        # than there are variables, as many as can be linearly independent,
        # also on the way to proving a QP infeasible
        sets = recorded_held_sets(monkeypatch)
        solver, infeasible = QpSolver(), 0
        for seed in (1, 2):
            for prob in controller_qps(geom, seed):
                sets.clear()
                sol = solver.solve(prob)
                assert max(map(np.count_nonzero, sets)) <= len(prob.f_vec)
                infeasible += sol.status == "infeasible"
        assert infeasible >= 5

    def test_interior_optimum_rejects_guessed_bound(self):
        # optimum (0.5, 0) is interior; holding z0 at its upper bound 1 is
        # primal feasible but needs a negative upper multiplier: one change
        # frees it
        prob = box_problem(np.eye(2), [-0.5, 0.0], [-1, -1], [1, 1])
        solver = QpSolver()
        sol = solver.solve(prob)
        assert np.array_equal(sol.active, [0, 0])
        guessed = solver.solve(prob, np.array([1, 0]))
        assert_same_bits(guessed, replace(sol, iterations=1))
        assert np.max(np.abs(guessed.z - [0.5, 0.0])) < 1e-6

    def test_guess_on_infinite_bound_falls_back(self):
        # the guess holds two infinite bounds: the empty set replaces it
        prob = box_problem(np.diag([2.0, 4.0]), [-2.0, -8.0], [-INF, -INF], [INF, INF])
        solver = QpSolver()
        sol = solver.solve(prob)
        assert_same_bits(solver.solve(prob, np.array([1, -1])), replace(sol, iterations=1))

    def test_reports_bound_sides(self):
        prob = box_problem(np.eye(3), [-10.0, 0.0, 10.0], [-1, -1, -1], [1, 1, 1])
        sol = QpSolver().solve(prob)
        assert np.array_equal(sol.active, [1, 0, -1])


class TestExchanges:
    """A failed guess is repaired by exchanges of held rows: rows whose
    multiplier has the wrong sign freed, then Goldfarb-Idnani steps."""

    def test_cold_controller_qp_is_repaired_with_certified_bits(self, geom):
        # from the empty set, the unconstrained minimizer: each repaired
        # answer is its set's KKT point bit for bit, as when that set is
        # guessed
        solver, repaired = QpSolver(), 0
        for seed in (1, 2, 3):
            for prob in controller_qps(geom, seed):
                sol = solver.solve(prob, np.zeros(len(prob.lower), int))
                if sol.status != "optimal":
                    continue
                assert sol.iterations > 0 and sol.active.any()
                assert certifies(prob, sol.active)
                assert_same_bits(solver.solve(prob, sol.active), replace(sol, iterations=0))
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
        assert (sol.status, sol.iterations, sol.active.tolist()) == ("optimal", 2, [0, 1])
        assert np.max(np.abs(sol.z - [0.5, 1.0])) < 1e-8

    def test_ratio_test_frees_the_row_whose_multiplier_crosses_zero_first(self, monkeypatch):
        # the guess holds rows 0 and 1 (signed multipliers 3.25, 0.222),
        # row 2 is violated; holding it too turns both negative (-15.25,
        # -8.0). Row 1's crosses zero first along the step (t = 0.027
        # against 0.176), so the ratio test frees row 1, where freeing the
        # most negative would free row 0
        sets = recorded_held_sets(monkeypatch)
        prob = normalized(QpProblem(np.eye(3), np.array([4.0, -2.0, -1.5]),
                                    np.array([[-1.0, 0.0, 1.0], [-1.0, -0.5, -1.0],
                                              [-1.5, 0.0, 0.5]]),
                                    np.full(3, -INF), np.array([-1.0, 1.0, -1.0])))
        sol = QpSolver().solve(prob, np.array([1, 1, 0]))
        assert sets[:3] == [[1, 1, 0], [1, 1, 1], [1, 0, 1]]
        assert sol.status == "optimal" and certifies(prob, sol.active)
        assert np.max(np.abs(sol.z - enumerated_minimum(prob))) < 1e-9

    @pytest.mark.parametrize("guess", [None, np.zeros(3, int), np.array([1, 0, -1])],
                             ids=["no_guess", "empty", "guess"])
    def test_nan_cost_returns_before_any_exchange(self, monkeypatch, guess):
        # the guess's one KKT solve (the empty set's without a guess), NaN,
        # so not accepted, then the solve raises: no set change follows
        sets = recorded_held_sets(monkeypatch)
        prob = QpProblem(np.eye(3), np.array([np.nan, 1.0, 0.0]), np.eye(3),
                         -np.ones(3), np.ones(3))
        with pytest.raises(FloatingPointError):
            QpSolver().solve(prob, active=guess)
        assert sets == [[0, 0, 0] if guess is None else guess.tolist()]

    def test_infeasible_qp_stays_infeasible(self, monkeypatch):
        # z0 + z1 <= -1 and 2 z0 + 2 z1 >= 2: the first is held, then the
        # second, which depends on it; its point cannot meet both, and no
        # multiplier turns negative to make room: a proof of infeasibility,
        # the same from the empty set as without a guess
        sets = recorded_held_sets(monkeypatch)
        prob = normalized(with_box(np.eye(2), np.array([1.0, -1.0]),
                                   np.array([[1.0, 1.0], [2.0, 2.0]]),
                                   np.array([-INF, 2.0]), np.array([-1.0, INF]),
                                   np.full(2, -5.0), np.full(2, 5.0)))
        sol = QpSolver().solve(prob, active=np.zeros(4, int))
        assert sol.status == "infeasible"
        assert sets == [[0, 0, 0, 0], [1, 0, 0, 0], [1, -1, 0, 0]]
        assert_same_bits(sol, QpSolver().solve(prob))

    def test_cycling_guard_ends_the_solve_after_m_plus_n_changes(self, monkeypatch):
        # a `_held_point` whose row 0 is violated while free and takes a
        # negative multiplier once held: the method would hold and free it
        # forever. After m + n set changes the solve ends as max_iterations
        held_point = qp_module._held_point

        def cycling(problem, active):
            x, signed, gaps = held_point(problem, active)
            gaps = gaps.copy()
            gaps[0] = 0.0 if active[0] else 1.0
            return x, -np.abs(signed) if active[0] else signed, gaps

        monkeypatch.setattr(qp_module, "_held_point", cycling)
        prob = box_problem(np.eye(2), [-0.5, 0.0], [-1, -1], [1, 1])
        sol = QpSolver().solve(prob)
        assert sol.status == "max_iterations"
        assert sol.iterations == len(prob.lower) + len(prob.f_vec) + 1


def dependent_slip_block(rng):
    """A QP shaped like the controller's, 2 steps of 2 inputs (n = 4): the
    cumulative-input rows, the slip rows (row k = e_row times cumulative
    input row k, so each depends on the input rows of its step) and two box
    rows, normalized; the slip band's offset g may exceed what the input
    bounds allow, so some are infeasible."""
    cumulative = np.tril(np.ones((2, 2)))
    e_row = rng.uniform(-1.0, 1.0, 2)
    u0, u_max = rng.uniform(-0.3, 0.3, 2), np.array([1.0, 0.5])
    band, g = 0.1 * 2 ** rng.integers(0, 4), rng.uniform(-1.5, 1.5)
    rows = np.vstack([np.kron(cumulative, np.eye(2)), np.kron(cumulative, e_row[None, :]),
                      np.eye(4)[:2]])
    lower = np.concatenate([np.tile(-u_max - u0, 2), [-band - g] * 2, [-0.4, -0.4]])
    upper = np.concatenate([np.tile(u_max - u0, 2), [band - g] * 2, [0.4, 0.4]])
    m = rng.normal(size=(4, 4))
    return normalized(QpProblem(m @ m.T + 0.1 * np.eye(4), rng.normal(size=4) * 3.0,
                                rows, lower, upper))


def random_rows(rng):
    """A QP of n = 2-4 variables and up to 8 random rows, some one-sided;
    the bounds are drawn around the rows' values at a random point or,
    every other draw, anywhere, so some are infeasible."""
    n, m = rng.integers(2, 5), rng.integers(2, 9)
    a = rng.normal(size=(m, n))
    center = a @ rng.normal(size=n) if rng.random() < 0.5 else rng.normal(size=m) * 2.0
    lower = center - rng.uniform(0.0, 1.0, m)
    upper = center + rng.uniform(0.0, 1.0, m)
    lower[rng.random(m) < 0.2], upper[rng.random(m) < 0.2] = -INF, INF
    h = rng.normal(size=(n, n))
    return normalized(QpProblem(h @ h.T + 0.1 * np.eye(n), rng.normal(size=n) * 3.0,
                                a, lower, upper))


def degenerate_vertex(rng):
    """A QP whose minimizer is a vertex where more rows are active than
    there are variables, some of them repeated: several held sets certify
    the one minimizer."""
    n = rng.integers(2, 4)
    vertex = rng.normal(size=n)
    a = rng.normal(size=(n + 2, n))
    a = np.vstack([a, a[:1]])  # a repeated row
    # every row active at the vertex, the cost pulling across all of them
    return normalized(QpProblem(np.eye(n), -(vertex + a.T @ rng.uniform(1.0, 2.0, len(a))),
                                a, np.full(len(a), -INF), a @ vertex)), vertex


def enumerated_minimum(problem):
    """The QP's minimizer by brute force, or None if no point is feasible:
    the equality-constrained minimizer of every set of at most n rows, each
    held at one of its finite bounds, solved exactly; the cheapest that
    meets every row. The minimizer's multipliers can be carried by at most
    n independent active rows, so its point is among them."""
    h, f, a, lo, hi = (problem.h_mat, problem.f_vec, problem.a_mat, problem.lower,
                       problem.upper)
    n, m = len(f), len(lo)
    best = None
    for k in range(n + 1):
        for rows in itertools.combinations(range(m), k):
            held = a[list(rows)]
            if k and np.linalg.matrix_rank(held) < k:
                continue  # dependent rows: a smaller set holds the same point
            # one column per choice of sides, the infinite ones dropped
            upper = np.array(list(itertools.product((False, True), repeat=k)), bool)
            b = np.where(upper.reshape(2 ** k, k), hi[list(rows)], lo[list(rows)])
            b = b[np.isfinite(b).all(axis=1)]
            kkt = np.block([[h, held.T], [held, np.zeros((k, k))]])
            rhs = np.vstack([np.repeat(-f[:, None], len(b), axis=1), b.T])
            for x in np.linalg.solve(kkt, rhs)[:n].T:
                ax = a @ x
                if np.all(ax >= lo - 1e-9) and np.all(ax <= hi + 1e-9):
                    if best is None or objective(problem, x) < objective(problem, best):
                        best = x
    return best


def feasible(problem):
    """Whether lower <= A z <= upper has a point, by `scipy.optimize.linprog`."""
    a, lo, hi = problem.a_mat, problem.lower, problem.upper
    up, down = np.isfinite(hi), np.isfinite(lo)
    lp = linprog(np.zeros(a.shape[1]), A_ub=np.vstack([a[up], -a[down]]),
                 b_ub=np.concatenate([hi[up], -lo[down]]), bounds=(None, None), method="highs")
    assert lp.status in (0, 2)  # solved, or proved infeasible
    return lp.status == 0


class TestSeededOracle:
    """Seeded small QPs against brute-force enumeration of the sides for
    the minimizer and `scipy.optimize.linprog` for feasibility."""

    @staticmethod
    def check(problem, seen):
        sol = QpSolver().solve(problem)
        want = enumerated_minimum(problem)
        assert sol.status == ("infeasible" if want is None else "optimal")
        assert (want is not None) == feasible(problem)
        if want is not None:
            assert np.max(np.abs(sol.z - want)) < 1e-6
            assert certifies(problem, sol.active)
        seen[sol.status] += 1

    def test_random_rows(self):
        rng, seen = np.random.default_rng(39), Counter()
        for _ in range(60):
            self.check(random_rows(rng), seen)
        assert seen["optimal"] >= 10 and seen["infeasible"] >= 10

    def test_dependent_slip_rows(self):
        rng, seen = np.random.default_rng(40), Counter()
        for _ in range(40):
            self.check(dependent_slip_block(rng), seen)
        assert seen["optimal"] >= 10 and seen["infeasible"] >= 10

    def test_degenerate_vertex_returns_one_certified_set(self):
        # the vertex is the minimizer whichever set certifies it; the set the
        # method returns is the first it reaches, the same on every solve
        rng, seen = np.random.default_rng(41), Counter()
        for _ in range(20):
            problem, vertex = degenerate_vertex(rng)
            self.check(problem, seen)
            sol = QpSolver().solve(problem)
            assert np.max(np.abs(sol.z - vertex)) < 1e-6
            assert_same_bits(QpSolver().solve(problem), sol)
            # more than one set certifies it
            sets = [np.array(sides) for sides in itertools.product((0, 1), repeat=len(vertex) + 3)
                    if sum(sides) <= len(vertex)]
            assert sum(certifies(problem, s) for s in sets) >= 2
        assert seen["optimal"] == 20

    def test_row_multipliers_of_every_optimal_answer(self):
        # the same draws as above: `_held_point` of each optimal answer's set
        # returns its point and one multiplier per row, +0.0 on a free row,
        # >= 0 on a held one, and H z + f + A'(side * mult) = 0 up to the
        # KKT solve's regularization and rounding (1.9e-9 at worst here)
        rng = [np.random.default_rng(seed) for seed in (39, 40, 41)]
        problems = ([random_rows(rng[0]) for _ in range(60)]
                    + [dependent_slip_block(rng[1]) for _ in range(40)]
                    + [degenerate_vertex(rng[2])[0] for _ in range(20)])
        optimal = 0
        for problem in problems:
            sol = QpSolver().solve(problem)
            if sol.status != "optimal":
                continue
            optimal += 1
            z, mult, _ = qp_module._held_point(problem, sol.active)
            free = sol.active == 0
            assert z.tobytes() == sol.z.tobytes() and mult.shape == sol.active.shape
            assert np.all(mult[free] == 0.0) and not np.signbit(mult[free]).any()
            assert np.all(mult[~free] >= 0.0)
            stationarity = (problem.h_mat @ z + problem.f_vec
                            + problem.a_mat.T @ (sol.active * mult))
            assert np.max(np.abs(stationarity)) < 1e-7
        assert optimal >= 60


def test_certified_tick_scales_no_cost_and_computes_no_residual(cfg, geom, monkeypatch):
    # a warm step whose guess certifies makes one KKT solve and nothing
    # else; its answer is the first form of the certificate's, bit for bit
    c = MpcController(cfg, geom)
    path = path_table(np.array([[0.0, 0.0], [40.0, 0.0]]))
    state = RobotState(0.0, 0.3, 0.05, 0.8, 0.8)
    ref = build_reference(path, state, 1.389, cfg)
    solves, solve = [], c.solver.solve

    def recording(problem, *args):
        solves.append((problem, solve(problem, *args)))
        return solves[-1][1]

    c.solver.solve = recording
    c.step(state, ref, [])
    sets = recorded_held_sets(monkeypatch)
    c.step(state, ref, [])
    prob, sol = solves[-1]
    assert (sol.status, sol.iterations) == ("optimal", 0)
    assert sets == [sol.active.tolist()]
    assert_same_bits(sol, parent_certified(QpSolver(), prob, sol.active, 0))


def parent_certified(solver, problem, active, iterations):
    """The certificate as first written: the violation as the sum of the two
    clamped gaps, every row's multiplier sign checked, the right-hand side
    concatenated; with the held rows' regularization relative to the cost,
    -1e-10 / max(1, max|H_ii|). The oracle for `_held_point` and its rule."""
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
    kkt[n:, n:].flat[::k + 1] = -1e-10 / max(1.0, np.abs(np.diag(problem.h_mat)).max())
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
    return qp_module.QpSolution(x, qp_module.OPTIMAL, viol, iterations, active)


def test_certified_matches_parent_form(geom):
    # on the controller QPs: the answer's set, one side flipped, one row
    # added, none held, and seeded random sides; accepted at once or not as
    # the first form accepts it, and then the same answer bit for bit
    solver, rng = QpSolver(), np.random.default_rng(7)
    accepted = rejected = 0
    for seed in (1, 2, 3):
        for prob in controller_qps(geom, seed):
            active = solver.solve(prob).active
            flipped, added = active.copy(), active.copy()
            if active.any():
                held = np.flatnonzero(active)[0]
                flipped[held] = -flipped[held]
            added[np.flatnonzero(active == 0)[0]] = 1
            guesses = [active, flipped, added, np.zeros_like(active)]
            guesses += [rng.integers(-1, 2, len(active)) * (rng.random(len(active)) < 0.1)
                        for _ in range(3)]
            for guess in guesses:
                want = parent_certified(solver, prob, guess, 0)
                if want is None:
                    rejected += 1
                    assert solver.solve(prob, guess).iterations > 0
                    continue
                accepted += 1
                assert_same_bits(solver.solve(prob, guess), want)
    assert accepted >= 10 and rejected >= 100


@pytest.mark.parametrize("shapes", [
    ((2, 2), (2,), (3, 2), (1,), (3,)),     # bounds of length 1 broadcast over 3 rows
    ((2, 2), (2,), (3, 2), (3,), (1,)),
    ((2, 3), (2,), (3, 2), (3,), (3,)),     # H not n x n
    ((2,), (2,), (3, 2), (3,), (3,)),
    ((2, 2), (2, 1), (3, 2), (3,), (3,)),   # f not a vector
    ((2, 2), (2,), (3, 1), (3,), (3,)),     # A not m x n
    ((2, 2), (2,), (6,), (6,), (6,)),
    ((2, 2), (2,), (3, 2), (3, 1), (3, 1)),
    ((2, 2), (2,), (0,), (0,), (0,)),       # no rows, but A not 0 x n
], ids=["lower_1", "upper_1", "h_2x3", "h_vector", "f_column", "a_3x1", "a_vector",
        "bounds_column", "a_empty_vector"])
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
