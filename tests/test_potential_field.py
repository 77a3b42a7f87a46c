import math

import numpy as np
import pytest

from apfmpc.potential_field import MIN_SQ_DISTANCE, ApfParams, quadratic_approx

OBS = ApfParams(scale_a=3.0, exponent_b=1.8)
BND = ApfParams(scale_a=0.3, exponent_b=1.1)


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
    return quadratic_approx((0.0, 0.0), (distance, 0.0), params).constant


class TestValue:
    def test_unit_distance(self):
        assert value_at(1.0, OBS) == pytest.approx(3.0)

    def test_two_meters(self):
        # 3 / 4^1.8
        assert value_at(2.0, OBS) == pytest.approx(3.0 / 4.0 ** 1.8)
        assert value_at(2.0, OBS) == pytest.approx(0.24741, abs=1e-5)

    def test_contact_clamped(self):
        expected = 3.0 / 1e-4 ** 1.8
        assert value_at(0.0, OBS) == pytest.approx(expected)
        assert value_at(0.005, OBS) == pytest.approx(expected)

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
            ApfParams(0.0, 1.8)
        with pytest.raises(ValueError):
            ApfParams(3.0, -1.0)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_params(self, a, b):
        with pytest.raises(ValueError):
            ApfParams(a, b)


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
    return params.scale_a / d_sq ** params.exponent_b


class TestQuadraticApprox:
    def test_value_matches_field(self):
        q = quadratic_approx((0.0, 0.0), (2.0, 0.0), OBS)
        assert q.constant == pytest.approx(3.0 / 4.0 ** 1.8)

    def test_axis_gradient(self):
        # d/dX of a/((p - X)^2)^b at separation 2: 2ab * 2 / 4^2.8
        q = quadratic_approx((0.0, 0.0), (2.0, 0.0), OBS)
        expected = 2.0 * 3.0 * 1.8 * 2.0 / 4.0 ** 2.8
        assert q.gradient[0] == pytest.approx(expected, abs=1e-12)
        assert q.gradient[0] == pytest.approx(0.44529, abs=1e-4)
        assert q.gradient[1] == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            pos = tuple(rng.uniform(-3, 3, size=2))
            off = tuple(rng.uniform(-1, 1, size=2))
            obst = tuple(rng.uniform(-3, 3, size=2))
            dx = obst[0] - (pos[0] + off[0])
            dy = obst[1] - (pos[1] + off[1])
            if dx * dx + dy * dy < 0.05:
                continue
            q = quadratic_approx(pos, (dx, dy), OBS)
            fd = fd_gradient(pos, off, obst, OBS)
            assert np.max(np.abs(q.gradient - fd)) < 1e-5

    def test_gradient_points_away_from_obstacle(self):
        # the field decreases moving away, so the gradient (of increase)
        # points toward the obstacle along +x here
        q = quadratic_approx((0.0, 0.0), (2.0, 0.0), OBS)
        assert q.gradient[0] > 0.0

    def test_hessian_is_psd(self):
        # eigenvalues are exact only to rounding at the Hessian's scale, so
        # the bound is relative to max|H|; the oracle applies psd_project to
        # the field's raw Hessian at the same point
        rng = np.random.default_rng(7)
        a, b = OBS.scale_a, OBS.exponent_b
        for k in range(200):
            pos = tuple(rng.uniform(-4, 4, size=2))
            obst = tuple(rng.uniform(-4, 4, size=2))
            if k % 20 == 0:  # inside the clamp region
                obst = tuple(np.add(pos, rng.uniform(-0.007, 0.007, size=2)))
            q = quadratic_approx(pos, np.subtract(obst, pos), OBS)
            h = q.hessian_psd
            scale = float(np.max(np.abs(h)))
            assert np.min(np.linalg.eigvalsh(h)) >= -1e-12 * max(1.0, scale)
            assert np.allclose(h, h.T)
            r = np.subtract(obst, pos)
            d_sq = float(r @ r)
            expected = np.zeros((2, 2))
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
            q = quadratic_approx((0.0, 0.0), obst, OBS)
            vals.append(q.constant)
            grads.append(np.linalg.norm(q.gradient))
        assert np.ptp(vals) < 1e-9
        assert np.ptp(grads) < 1e-9

    def test_flat_inside_clamp(self):
        q = quadratic_approx((0.0, 0.0), (0.005, 0.0), OBS)
        assert q.constant == pytest.approx(3.0 / 1e-4 ** 1.8)
        assert np.all(q.gradient == 0.0)
        assert np.all(q.hessian_psd == 0.0)

    def test_anchor_records_expansion_point(self):
        q = quadratic_approx((1.5, -2.0), gap((1.5, -2.0), (0.3, 0.1), (4.0, 0.0)), OBS)
        assert q.anchor == (1.5, -2.0)

    def test_frozen_offset_shifts_effective_distance(self):
        # with the offset frozen, translating the robot by -offset must
        # reproduce the zero-offset expansion: the gap is the same
        q1 = quadratic_approx((0.0, 0.0), gap((0.0, 0.0), (0.5, 0.2), (3.0, 1.0)), OBS)
        q2 = quadratic_approx((0.5, 0.2), gap((0.5, 0.2), (0.0, 0.0), (3.0, 1.0)), OBS)
        assert q1.constant == pytest.approx(q2.constant)
        assert np.allclose(q1.gradient, q2.gradient)
        assert np.allclose(q1.hessian_psd, q2.hessian_psd)


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
        rng = np.random.default_rng(23)
        pos = rng.uniform(-4, 4, size=(300, 2))
        off = rng.uniform(-1, 1, size=(300, 2))
        obst = rng.uniform(-4, 4, size=(300, 2))
        obst[::10] = pos[::10] + off[::10] + rng.uniform(-0.005, 0.005, size=(30, 2))
        stacked = quadratic_approx(pos, gap(pos, off, obst), params)
        assert np.array_equal(stacked.anchor, pos)
        clamped = 0
        for k in range(len(pos)):
            one = quadratic_approx(tuple(pos[k]), gap(pos[k], off[k], obst[k]), params)
            clamped += bool(np.all(one.hessian_psd == 0.0))
            np.testing.assert_allclose(stacked.constant[k], one.constant, rtol=1e-14, atol=0)
            np.testing.assert_allclose(stacked.gradient[k], one.gradient, rtol=1e-14, atol=0)
            np.testing.assert_allclose(stacked.hessian_psd[k], one.hessian_psd,
                                       rtol=1e-14, atol=0)
        assert clamped == 30

    def test_empty_stack(self):
        q = quadratic_approx(np.zeros((0, 2)), np.zeros((0, 2)), OBS)
        assert q.constant.shape == (0,)
        assert q.gradient.shape == (0, 2)
        assert q.hessian_psd.shape == (0, 2, 2)
        assert q.value(np.zeros((0, 2))) == 0.0

    def test_value_sums_each_expansion_at_its_row(self):
        rng = np.random.default_rng(24)
        pos = rng.uniform(-4, 4, size=(50, 2))
        obst = rng.uniform(-4, 4, size=(50, 2))
        at = pos + rng.uniform(-0.3, 0.3, size=(50, 2))
        stacked = quadratic_approx(pos, obst - pos, OBS)
        expected = 0.0
        for k in range(len(pos)):
            q = quadratic_approx(tuple(pos[k]), obst[k] - pos[k], OBS)
            r = at[k] - pos[k]
            expected += q.constant + q.gradient @ r + 0.5 * r @ q.hessian_psd @ r
            assert q.value(at[k]) == pytest.approx(
                q.constant + q.gradient @ r + 0.5 * r @ q.hessian_psd @ r, rel=1e-12)
        assert stacked.value(at) == pytest.approx(expected, rel=1e-12)
