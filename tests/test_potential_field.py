import math

import numpy as np
import pytest

from apfmpc.mpc import BOUNDARY_APF, OBSTACLE_APF
from apfmpc.potential_field import (MIN_SQ_DISTANCE, QuadraticApproximation, params_table,
                                    quadratic_approx)
from conftest import expand_row

OBS, BND = OBSTACLE_APF, BOUNDARY_APF  # (scale_a, exponent_b)


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm to each of (..., n, n).

    Eigendecomposes the symmetric input, clamps negative eigenvalues to
    zero, and recomposes.
    """
    h = np.asarray(h, dtype=float)
    h_t = np.swapaxes(h, -1, -2)
    if h.shape[-1] != h.shape[-2] or not np.allclose(h, h_t, atol=1e-9):
        raise ValueError("input must be symmetric")
    vals, vecs = np.linalg.eigh(h)
    vals = np.maximum(vals, 0.0)
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def value_at(distance, params):
    """Field value at the given closest-point distance."""
    return expand_row((distance, 0.0), params)[0]


D0 = math.sqrt(MIN_SQ_DISTANCE)


def continuation(s, params):
    """Value, slope and curvature of the field inside d0 at signed distance
    s: the Taylor quadratic of a / s^(2b) at d0, written out."""
    a, b = params
    v0, v1 = a * D0 ** (-2 * b), -2 * a * b * D0 ** (-2 * b - 1)
    v2 = 2 * a * b * (2 * b + 1) * D0 ** (-2 * b - 2)
    t = s - D0
    return v0 + v1 * t + 0.5 * v2 * t * t, v1 + v2 * t, v2


def contact(s, params, direction=(1.0, 0.0)):
    """The expansion at signed distance s along a unit direction: a
    separation's gap for s > 0, and for s <= 0 a contact row's push (as
    long as the overlap), whose distance, s, is read for its sign alone."""
    return expand_row(abs(s) * np.asarray(direction), params, s)


class TestValue:
    def test_unit_distance(self):
        assert value_at(1.0, OBS) == pytest.approx(3.0)

    def test_two_meters(self):
        # 3 / 4^1.8
        assert value_at(2.0, OBS) == pytest.approx(3.0 / 4.0 ** 1.8)
        assert value_at(2.0, OBS) == pytest.approx(0.24741, abs=1e-5)

    def test_contact_continues_the_field(self):
        # at d0 = 1 cm the field's own value; inside it the quadratic in the
        # signed distance with the field's value, slope and curvature at d0
        at_d0 = 3.0 / 1e-4 ** 1.8
        assert value_at(0.01, OBS) == pytest.approx(at_d0, rel=1e-12)
        for s in (0.005, 0.0):
            assert value_at(s, OBS) == pytest.approx(continuation(s, OBS)[0], rel=1e-12)
            assert value_at(s, OBS) > at_d0

    def test_boundary_params(self):
        assert value_at(1.0, BND) == pytest.approx(0.3)
        assert value_at(3.0, BND) == pytest.approx(0.3 / 9.0 ** 1.1)

    def test_monotone_decay(self):
        ds = np.linspace(0.1, 10.0, 200)
        vals = [value_at(d, OBS) for d in ds]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_far_field_small(self):
        assert value_at(100.0, OBS) < 1e-6

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            params_table((0.0, 1.8))
        with pytest.raises(ValueError):
            params_table(OBS, (3.0, -1.0))

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_params(self, a, b):
        with pytest.raises(ValueError):
            params_table((a, b))

    def test_params_table_columns_are_the_kinds(self):
        table = params_table(OBS, BND)
        assert table.shape == (2, 2) and table.flags.c_contiguous
        assert table.tolist() == [[OBS[0], BND[0]], [OBS[1], BND[1]]]

    def test_kind_constants_are_positive_and_finite(self):
        # the field decays from contact only with a > 0 and b > 0
        for params in (OBSTACLE_APF, BOUNDARY_APF):
            assert len(params) == 2
            assert all(math.isfinite(p) and p > 0.0 for p in params)


class TestPsdProject:
    def test_clamps_negative_eigenvalue(self):
        got = psd_project(np.diag([2.0, -1.0]))
        assert np.allclose(got, np.diag([2.0, 0.0]), atol=1e-12)

    def test_psd_fixed_point(self):
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(psd_project(h), h, atol=1e-12)

    def test_antidiagonal(self):
        got = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(got, np.full((2, 2), 0.5), atol=1e-12)

    def test_idempotent(self, rng):
        for _ in range(100):
            m = rng.normal(size=(2, 2))
            h = 0.5 * (m + m.T)
            once = psd_project(h)
            assert np.allclose(psd_project(once), once, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(once)) >= -1e-12

    def test_nearest_among_random_psd_candidates(self, rng):
        # projection must beat random PSD matrices in Frobenius distance
        for _ in range(20):
            m = rng.normal(size=(2, 2))
            h = 0.5 * (m + m.T)
            proj = psd_project(h)
            base = np.linalg.norm(proj - h)
            for _ in range(50):
                g = rng.normal(size=(2, 2))
                cand = g @ g.T
                assert np.linalg.norm(cand - h) >= base - 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_project(np.array([[1.0, 2.0], [0.0, 1.0]]))


def fd_gradient(robot_pos, offset, obstacle_point, params, eps=1e-6):
    g = np.zeros(2)
    for i in range(2):
        p_plus = list(robot_pos)
        p_minus = list(robot_pos)
        p_plus[i] += eps
        p_minus[i] -= eps
        g[i] = (raw_value(p_plus, offset, obstacle_point, params)
                - raw_value(p_minus, offset, obstacle_point, params)) / (2 * eps)
    return g


def gap(robot_pos, offset, obstacle_point):
    """From the robot's closest point, robot_pos + offset, to the obstacle's."""
    return np.subtract(obstacle_point, np.add(robot_pos, offset))


def raw_value(robot_pos, offset, obstacle_point, params):
    dx = obstacle_point[0] - (robot_pos[0] + offset[0])
    dy = obstacle_point[1] - (robot_pos[1] + offset[1])
    d_sq = max(dx * dx + dy * dy, MIN_SQ_DISTANCE)
    a, b = params
    return a / d_sq ** b


class TestQuadraticApprox:
    def test_value_matches_field(self):
        value = expand_row((2.0, 0.0), OBS)[0]
        assert value == pytest.approx(3.0 / 4.0 ** 1.8)

    def test_axis_gradient(self):
        # d/dX of a/((p - X)^2)^b at separation 2: 2ab * 2 / 4^2.8
        gradient = expand_row((2.0, 0.0), OBS)[1]
        expected = 2.0 * 3.0 * 1.8 * 2.0 / 4.0 ** 2.8
        assert gradient[0] == pytest.approx(expected, abs=1e-12)
        assert gradient[0] == pytest.approx(0.44529, abs=1e-4)
        assert gradient[1] == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            pos = tuple(rng.uniform(-3, 3, size=2))
            off = tuple(rng.uniform(-1, 1, size=2))
            obst = tuple(rng.uniform(-3, 3, size=2))
            dx = obst[0] - (pos[0] + off[0])
            dy = obst[1] - (pos[1] + off[1])
            if dx * dx + dy * dy < 0.05:
                continue
            gradient = expand_row((dx, dy), OBS)[1]
            fd = fd_gradient(pos, off, obst, OBS)
            assert np.max(np.abs(gradient - fd)) < 1e-5

    def test_gradient_points_away_from_obstacle(self):
        # the field decreases moving away, so the gradient (of increase)
        # points toward the obstacle along +x here
        assert expand_row((2.0, 0.0), OBS)[1][0] > 0.0

    def test_hessian_is_psd(self):
        # eigenvalues are exact only to rounding at the Hessian's scale, so
        # the bound is relative to max|H|; the oracle applies psd_project to
        # the field's raw Hessian at the same point
        rng = np.random.default_rng(7)
        a, b = OBS
        for k in range(200):
            pos = tuple(rng.uniform(-4, 4, size=2))
            obst = tuple(rng.uniform(-4, 4, size=2))
            if k % 20 == 0:  # inside d0
                obst = tuple(np.add(pos, rng.uniform(-0.007, 0.007, size=2)))
            h = expand_row(np.subtract(obst, pos), OBS)[2]
            scale = float(np.max(np.abs(h)))
            assert np.min(np.linalg.eigvalsh(h)) >= -1e-12 * max(1.0, scale)
            assert np.allclose(h, h.T)
            r = np.subtract(obst, pos)
            d_sq = float(r @ r)
            n = r / math.sqrt(d_sq)
            expected = continuation(math.sqrt(d_sq), OBS)[2] * np.outer(n, n)
            if d_sq > MIN_SQ_DISTANCE:
                raw = 2.0 * a * b * d_sq ** (-b - 2.0) * (
                    2.0 * (b + 1.0) * np.outer(r, r) - d_sq * np.eye(2))
                expected = psd_project(raw)
            np.testing.assert_allclose(h, expected, rtol=0, atol=1e-13 * scale)

    def test_radial_symmetry(self):
        d = 1.7
        vals, grads = [], []
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            obst = (d * math.cos(phi), d * math.sin(phi))
            value, gradient, _ = expand_row(obst, OBS)
            vals.append(value)
            grads.append(np.linalg.norm(gradient))
        assert np.ptp(vals) < 1e-9
        assert np.ptp(grads) < 1e-9

    def test_continued_inside_d0(self):
        # value V(s), gradient -V'(s) n and Hessian V''(d0) n n' along the
        # unit gap n, at a separation inside d0 and inside an overlap
        n = np.array([0.6, -0.8])
        for s in (0.005, -0.3):
            value, gradient, hessian = contact(s, OBS, n)
            want, slope, curvature = continuation(s, OBS)
            assert value == pytest.approx(want, rel=1e-12)
            np.testing.assert_allclose(gradient, -slope * n, rtol=1e-12)
            np.testing.assert_allclose(hessian, curvature * np.outer(n, n), rtol=1e-12)

    def test_value_and_slope_continuous_at_d0(self):
        # the gradient along the gap is -dV/ds on both sides of d0
        for params in (OBS, BND):
            for side in (1.0 - 1e-9, 1.0 + 1e-9):
                inner, outer = contact(D0 * side, params), contact(D0 / side, params)
                assert inner[0] == pytest.approx(outer[0], rel=1e-7)
                np.testing.assert_allclose(inner[1], outer[1], rtol=1e-7)
                np.testing.assert_allclose(inner[2], outer[2], rtol=1e-7)

    def test_push_grows_through_contact_and_value_is_bounded_below(self):
        # the push -dV/ds grows as s falls through 0 into the obstacle, and
        # no value inside d0 is below the value at d0
        for params in (OBS, BND):
            at_d0 = contact(D0, params)[0]
            s = np.linspace(D0, -0.5, 201)
            value, gradient, _ = quadratic_approx(np.abs(s)[:, None] * [0.0, 1.0], s,
                                                  np.repeat([params], len(s), axis=0).T)
            push = gradient[:, 1]
            assert np.all(np.diff(push) > 0.0) and push[0] > 0.0
            assert np.all(np.diff(value) > 0.0) and np.all(value >= at_d0)
            # a zero gap has no direction: the value alone
            value, gradient, hessian = contact(0.0, params)
            assert value > at_d0
            assert not np.any(gradient) and not np.any(hessian)

    def test_frozen_offset_shifts_effective_distance(self):
        # with the offset frozen, translating the robot by -offset must
        # reproduce the zero-offset expansion: the gap is the same
        q1 = expand_row(gap((0.0, 0.0), (0.5, 0.2), (3.0, 1.0)), OBS)
        q2 = expand_row(gap((0.5, 0.2), (0.0, 0.0), (3.0, 1.0)), OBS)
        assert q1[0] == pytest.approx(q2[0])
        assert np.allclose(q1[1], q2[1])
        assert np.allclose(q1[2], q2[2])


class TestStacked:
    def test_psd_project_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(200, 2, 2)) * 10.0 ** rng.uniform(-3, 8, size=(200, 1, 1))
        stack = m + np.swapaxes(m, -1, -2)
        expected = np.array([psd_project(h) for h in stack])
        assert np.array_equal(psd_project(stack), expected)
        assert np.array_equal(psd_project(stack.reshape(20, 10, 2, 2)),
                              expected.reshape(20, 10, 2, 2))

    def test_psd_project_rejects_stack_with_one_asymmetric_matrix(self):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(5, 2, 2))
        stack = m + np.swapaxes(m, -1, -2)
        assert psd_project(stack).shape == (5, 2, 2)
        stack[3, 0, 1] += 1.0
        with pytest.raises(ValueError):
            psd_project(stack)

    @pytest.mark.parametrize("params", [OBS, BND], ids=["obstacle", "boundary"])
    def test_quadratic_approx_rows_match_scalar_calls(self, params):
        # a stack of K rows against K one-row stacks, bit for bit: separations,
        # a tenth of them inside d0, and contact rows
        rng = np.random.default_rng(23)
        pos = rng.uniform(-4, 4, size=(300, 2))
        off = rng.uniform(-1, 1, size=(300, 2))
        obst = rng.uniform(-4, 4, size=(300, 2))
        obst[::10] = pos[::10] + off[::10] + rng.uniform(-0.005, 0.005, size=(30, 2))
        rel = gap(pos, off, obst)
        distance = np.hypot(rel[:, 0], rel[:, 1])
        distance[5::10] = 0.0
        stacked = quadratic_approx(rel, distance, np.repeat([params], len(rel), axis=0).T)
        inside = 0
        for k in range(len(rel)):
            one = expand_row(rel[k], params, distance[k])
            inside += float(rel[k] @ rel[k]) <= MIN_SQ_DISTANCE
            for got, want in zip(stacked, one):
                assert got[k].tobytes() == want.tobytes()
        assert inside == 30

    def test_empty_stack(self):
        value, gradient, hessian = quadratic_approx(np.zeros((0, 2)), np.zeros(0),
                                                    np.zeros((2, 0)))
        assert value.shape == (0,)
        assert gradient.shape == (0, 2)
        assert hessian.shape == (0, 2, 2)
        empty = QuadraticApproximation(value, gradient, hessian, np.zeros((0, 2)))
        assert empty.value(np.zeros((0, 2))) == 0.0

    def test_value_sums_each_expansion_at_its_row(self):
        rng = np.random.default_rng(24)
        pos = rng.uniform(-4, 4, size=(50, 2))
        obst = rng.uniform(-4, 4, size=(50, 2))
        at = pos + rng.uniform(-0.3, 0.3, size=(50, 2))
        rel = obst - pos
        rows = quadratic_approx(rel, np.hypot(rel[:, 0], rel[:, 1]),
                                np.repeat([OBS], len(rel), axis=0).T)
        stacked = QuadraticApproximation(*rows, pos)
        expected = 0.0
        for k in range(len(pos)):
            c, g, h = expand_row(rel[k], OBS)
            r = at[k] - pos[k]
            expected += c + g @ r + 0.5 * r @ h @ r
            one = QuadraticApproximation(c[None], g[None], h[None], pos[k:k + 1])
            assert one.value(at[k:k + 1]) == pytest.approx(c + g @ r + 0.5 * r @ h @ r,
                                                            rel=1e-12)
        assert stacked.value(at) == pytest.approx(expected, rel=1e-12)
