import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.spatial import cKDTree

from apfmpc.geometry import (ClosestPair, OrientedRectangle, Pose2D, closest_pair,
                             corners, frames, normalize_angle)
from apfmpc.prediction import Obstacle, advance_obstacle
from apfmpc.simulator import (load_scenario, packaged_scenario_path, scenario_from_dict,
                              scenario_to_dict)
from conftest import axis_overlaps, sat_intersect


def rect(x, y, heading, hl, hw):
    return OrientedRectangle(Pose2D(x, y, heading), hl, hw)


def sample_boundary(r, n=10_000):
    """Dense boundary samples including the exact corners."""
    cs = np.array(corners(r))
    pts = []
    per_edge = n // 4
    for i in range(4):
        a, b = cs[i], cs[(i + 1) % 4]
        t = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
        pts.append(a + t * (b - a))
    return np.vstack(pts)


def oracle_distance(a, b, n=10_000):
    pa, pb = sample_boundary(a, n), sample_boundary(b, n)
    tree = cKDTree(pa)
    d, _ = tree.query(pb)
    return float(d.min())


def random_rect(rng, span=8.0):
    return rect(rng.uniform(-span, span), rng.uniform(-span, span),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))


def _point_segment_closest(p, a, b):
    """Closest point on segment AB to P; returns (distance, point)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    denom = dx * dx + dy * dy
    if denom == 0.0:
        t = 0.0
    else:
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / denom
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    qx, qy = a[0] + t * dx, a[1] + t * dy
    return math.hypot(p[0] - qx, p[1] - qy), (qx, qy)


def _parallel_overlap_midpoint(p1, p2, q1, q2):
    """Midpoint of the part of edge P that overlaps edge Q in projection, or
    None when the edges are not parallel or do not overlap."""
    ux, uy = p2[0] - p1[0], p2[1] - p1[1]
    vx, vy = q2[0] - q1[0], q2[1] - q1[1]
    if abs(ux * vy - uy * vx) > 1e-12 * math.hypot(ux, uy) * math.hypot(vx, vy):
        return None
    denom = ux * ux + uy * uy
    t1 = ((q1[0] - p1[0]) * ux + (q1[1] - p1[1]) * uy) / denom
    t2 = ((q2[0] - p1[0]) * ux + (q2[1] - p1[1]) * uy) / denom
    lo, hi = max(0.0, min(t1, t2)), min(1.0, max(t1, t2))
    if lo >= hi:
        return None
    tm = 0.5 * (lo + hi)
    return p1[0] + tm * ux, p1[1] + tm * uy


def loop_closest_pair(a, b):
    """Reference oracle in world coordinates, (on_a, on_b, distance): SAT for
    overlap, with both witnesses at the centers' midpoint, then the minimum
    of the 32 vertex-to-edge checks; a parallel edge pair that overlaps at
    that distance puts the witness on A at the overlap's midpoint."""
    if sat_intersect(a, b):
        mid = (0.5 * (a.center.x + b.center.x), 0.5 * (a.center.y + b.center.y))
        return mid, mid, 0.0
    pa, pb = corners(a), corners(b)
    edges_a = list(zip(pa, pa[1:] + pa[:1]))
    edges_b = list(zip(pb, pb[1:] + pb[:1]))
    best_d, on_a, on_b = math.inf, None, None
    for p in pa:
        for q1, q2 in edges_b:
            d, q = _point_segment_closest(p, q1, q2)
            if d < best_d:
                best_d, on_a, on_b = d, p, q
    for q in pb:
        for p1, p2 in edges_a:
            d, p = _point_segment_closest(q, p1, p2)
            if d < best_d:
                best_d, on_a, on_b = d, p, q

    tol = 1e-12 * (1.0 + best_d)
    for p1, p2 in edges_a:
        for q1, q2 in edges_b:
            face_mid = _parallel_overlap_midpoint(p1, p2, q1, q2)
            if face_mid is not None:
                d, q = _point_segment_closest(face_mid, q1, q2)
                if d <= best_d + tol:
                    on_a, on_b = face_mid, q
    return on_a, on_b, best_d


def _nearest_corner(cx, cy, ux, uy, vx, vy, hl, hw):
    """(distance, corner minus clamped corner) of the first of c + u + v,
    c - u + v, c - u - v, c + u - v nearest to the box |x| <= hl, |y| <= hw."""
    best = (math.inf,)
    for x, y in ((cx + ux + vx, cy + uy + vy), (cx - ux + vx, cy - uy + vy),
                 (cx - ux - vx, cy - uy - vy), (cx + ux - vx, cy + uy - vy)):
        qx = hl if x > hl else -hl if x < -hl else x
        qy = hw if y > hw else -hw if y < -hw else y
        d = math.hypot(x - qx, y - qy)
        if d < best[0]:
            best = (d, (x - qx, y - qy))
    return best


def relative_frame_closest_pair(a, b):
    """Reference oracle for bit-exact checks: the same relative-frame query
    as `closest_pair`, with each rectangle's four corners searched by a loop
    (`_nearest_corner`) and A's winner kept unless B's is strictly nearer;
    the winner's corner-minus-clamp vector, turned into the world, is the
    gap. On contact the four axes are searched by a loop for the first
    largest gap, and the push is that axis times the overlap, from A's
    center to B's."""
    hla, hwa, hlb, hwb = a.half_length, a.half_width, b.half_length, b.half_width
    ca, sa = math.cos(a.center.heading), math.sin(a.center.heading)
    cb, sb = math.cos(b.center.heading), math.sin(b.center.heading)
    c, s = ca * cb + sa * sb, ca * sb - sa * cb
    dx, dy = b.center.x - a.center.x, b.center.y - a.center.y
    bx, by = ca * dx + sa * dy, ca * dy - sa * dx
    ax, ay = -(cb * dx + sb * dy), sb * dx - cb * dy
    ubx, uby, vbx, vby = hlb * c, hlb * s, -(hwb * s), hwb * c
    uax, uay, vax, vay = hla * c, -(hla * s), hwa * s, hwa * c
    # (gap, world axis, B's center minus A's along it) per separating axis
    axes = ((abs(bx) - (abs(ubx) + abs(vbx)) - hla, (ca, sa), bx),
            (abs(by) - (abs(uby) + abs(vby)) - hwa, (-sa, ca), by),
            (abs(ax) - (abs(uax) + abs(vax)) - hlb, (cb, sb), -ax),
            (abs(ay) - (abs(uay) + abs(vay)) - hwb, (-sb, cb), -ay))
    if all(gap <= 0.0 for gap, _, _ in axes):
        gap, (ux, uy), side = axes[0]
        for row in axes[1:]:
            if row[0] > gap:
                gap, (ux, uy), side = row
        depth = -gap if side >= 0.0 else gap
        return ClosestPair(0.0, depth * ux, depth * uy)

    d, (ex, ey) = _nearest_corner(ax, ay, uax, uay, vax, vay, hlb, hwb)
    db, (fx, fy) = _nearest_corner(bx, by, ubx, uby, vbx, vby, hla, hwa)
    if db < d:  # B's corner, in A's frame
        return ClosestPair(db, ca * fx - sa * fy, sa * fx + ca * fy)
    return ClosestPair(d, -(cb * ex - sb * ey), -(sb * ex + cb * ey))  # A's, in B's


def assert_bit_identical(got, want):
    """Every field equal, and every sign bit too (so -0.0 differs from 0.0)."""
    g = (got.distance, got.gap_x, got.gap_y)
    w = (want.distance, want.gap_x, want.gap_y)
    assert g == w
    assert [math.copysign(1.0, v) for v in g] == [math.copysign(1.0, v) for v in w]


def face_parallel(rng, a, b):
    """B turned so that its edges are parallel to A's."""
    return rect(b.center.x, b.center.y,
                a.center.heading + rng.integers(4) * math.pi / 2,
                b.half_length, b.half_width)


class TestFrames:
    def test_bit_for_bit_the_rectangles_frames(self):
        # headings inside (-pi, pi] and unwrapped ones past it
        rng = np.random.default_rng(29)
        rows = np.column_stack([rng.uniform(-50, 50, 400), rng.uniform(-50, 50, 400),
                                rng.uniform(-4 * math.pi, 4 * math.pi, 400)]).tolist()
        got = [f.frame for f in frames(rows, 1.3, 0.5)]
        want = [OrientedRectangle(Pose2D(*row), 1.3, 0.5).frame for row in rows]
        assert [tuple(map(float.hex, f)) for f in got] == [
            tuple(map(float.hex, f)) for f in want]

    @pytest.mark.parametrize("row", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                     (0.0, 0.0, -math.inf), (0.0, 0.0, math.nan)])
    def test_non_finite_pose_raises(self, row):
        with pytest.raises(FloatingPointError):
            frames([(1.0, 2.0, 0.3), row], 1.3, 0.5)


class TestNormalizeAngle:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
        (3 * math.pi / 2, -math.pi / 2), (2 * math.pi, 0.0),
    ])
    def test_wraps(self, angle, expected):
        assert normalize_angle(angle) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_infinite_or_nan_is_nan(self, angle):
        # no direction: NaN, not the error math.fmod raises on ±inf
        assert math.isnan(normalize_angle(angle))
        assert math.isnan(Pose2D(0.0, 0.0, angle).heading)

    def test_in_range_angles_are_fixed_points(self):
        angles = np.random.default_rng(7).uniform(-math.pi, math.pi, size=1000)
        assert all(normalize_angle(t) == t for t in angles.tolist())
        assert normalize_angle(-math.pi) == math.pi
        assert Pose2D(0, 0, 0.1).heading == 0.1


class TestCorners:
    def test_axis_aligned(self):
        got = corners(rect(0, 0, 0, 1, 0.5))
        assert np.allclose(got, [(1, 0.5), (-1, 0.5), (-1, -0.5), (1, -0.5)])

    def test_rotated_quarter_turn(self):
        got = corners(rect(0, 0, math.pi / 2, 1, 0.5))
        assert np.allclose(got, [(-0.5, 1), (-0.5, -1), (0.5, -1), (0.5, 1)])

    def test_general_rotation_matches_rotation_matrix(self):
        hl, hw, th = 2.0, 1.0, math.pi / 6
        got = np.array(corners(rect(1, 2, th, hl, hw)))
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        local = np.array([(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)])
        expected = local @ rot.T + np.array([1, 2])
        assert np.allclose(got, expected, atol=1e-12)

    def test_counter_clockwise(self):
        cs = corners(rect(3, -1, 0.7, 1.2, 0.4))
        area = 0.0
        for i in range(4):
            x1, y1 = cs[i]
            x2, y2 = cs[(i + 1) % 4]
            area += x1 * y2 - x2 * y1
        assert area > 0.0


class TestClosestPair:
    def test_face_to_face(self):
        got = closest_pair(rect(0, 0, 0, 1, 0.5), rect(5, 0, 0, 1, 0.5))
        assert got.distance == pytest.approx(3.0)
        assert (got.gap_x, got.gap_y) == pytest.approx((3.0, 0.0))

    def test_identical_rectangles_overlap(self):
        # contact: the push is the least overlap, the full width 2·0.5, along
        # A's width axis, the first of the two tied ones
        r = rect(2, 3, 0.3, 1, 0.5)
        got = closest_pair(r, r)
        assert got.distance == 0.0
        assert (got.gap_x, got.gap_y) == pytest.approx((-math.sin(0.3), math.cos(0.3)),
                                                       abs=1e-15)

    def test_rotated_pair_matches_sampling_oracle(self):
        a, b = rect(0, 0, 0, 1, 0.5), rect(3, 3, math.pi / 4, 1, 0.5)
        assert closest_pair(a, b).distance == pytest.approx(
            oracle_distance(a, b), abs=1e-3)

    def test_distance_equals_witness_separation(self, rng):
        # a separation's gap is the witnesses' separation vector (a contact's
        # is the push out of the overlap, see TestPenetration)
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            got = closest_pair(a, b)
            if got.distance > 0.0:
                assert got.distance == pytest.approx(math.hypot(got.gap_x, got.gap_y),
                                                     abs=1e-12)

    def test_a_moved_by_the_gap_touches_b(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 300:
            a, b = random_rect(rng), random_rect(rng)
            if checked % 3 == 0:
                b = face_parallel(rng, a, b)
            if sat_intersect(a, b):
                continue
            _, gx, gy = closest_pair(a, b)
            moved = rect(a.center.x + gx, a.center.y + gy, a.center.heading,
                         a.half_length, a.half_width)
            assert closest_pair(moved, b).distance <= 1e-9
            checked += 1


class TestPenetration:
    """`closest_pair`'s contact row: distance 0.0, and as gap the push, the
    least separating-axis overlap along its axis, from A's center to B's."""

    def overlapping_pairs(self, count):
        rng = np.random.default_rng(2031)
        pairs = []
        while len(pairs) < count:
            a, b = random_rect(rng, span=1.5), random_rect(rng, span=1.5)
            if sat_intersect(a, b):
                pairs.append((a, b))
        return pairs

    def test_least_overlap_and_direction_match_brute_force(self):
        checked = 0
        for a, b in self.overlapping_pairs(2000):
            overlaps = sorted(axis_overlaps(a, b))
            if overlaps[1][0] - overlaps[0][0] < 1e-9:
                continue  # two axes all but tied: either direction is right
            depth, ux, uy = overlaps[0]
            got = closest_pair(a, b)
            assert (got.distance, math.copysign(1.0, got.distance)) == (0.0, 1.0)
            assert (got.gap_x, got.gap_y) == pytest.approx((depth * ux, depth * uy), abs=1e-12)
            checked += 1
        assert checked > 1900

    def test_moving_a_back_by_the_gap_parts_the_pair(self):
        # the gap is the least translation of A that parts it from B
        for a, b in self.overlapping_pairs(300):
            _, gx, gy = closest_pair(a, b)
            for factor, parted in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
                moved = rect(a.center.x - factor * gx, a.center.y - factor * gy,
                             a.center.heading, a.half_length, a.half_width)
                assert (closest_pair(moved, b).distance > 0.0) == parted

    def test_overlap_row_of_closest_pair_stays_zero(self):
        # the contact readers test `== 0.0`: cut or uncut, an overlap's
        # distance is +0.0, and its gap is the push, as long as the least
        # overlap
        for a, b in self.overlapping_pairs(200):
            row = closest_pair(a, b)
            for cut in (closest_pair(a, b, 8.0), closest_pair(a, b, 0.0)):
                assert_bit_identical(cut, row)
            assert (row.distance, math.copysign(1.0, row.distance)) == (0.0, 1.0)
            assert math.hypot(row.gap_x, row.gap_y) == pytest.approx(
                min(axis_overlaps(a, b))[0], abs=1e-12)


def quarter_turns(k, x, y):
    """(x, y) turned by k quarter turns, exactly."""
    for _ in range(k % 4):
        x, y = -y, x
    return x, y


class TestExactLayouts:
    """A is the box |x| <= 1, |y| <= 0.5 and B a square of half-side 0.5 given
    in A's frame; the pair is turned by k quarter turns and B by `turn` more.
    Only heading 0 is exact in floating point, so elsewhere the distance may
    be off by rounding."""

    @pytest.mark.parametrize("k", [0, 1, 2, -1])
    @pytest.mark.parametrize("turn", [0, 1])
    @pytest.mark.parametrize("x,y,expected", [
        (1.5, 0.0, 0.0),        # shares A's front edge
        (0.0, 1.0, 0.0),        # shares part of A's left side
        (1.5, 1.0, 0.0),        # shares only A's front-left corner
        (1.75, 0.0, 0.25),      # gap ahead
        (0.25, -1.125, 0.125),  # gap beside
        (1.875, 1.5, 0.625),    # corner to corner, 0.375 by 0.5
    ])
    def test_contact_and_gap(self, k, turn, x, y, expected):
        heading = k * math.pi / 2
        a = rect(0.0, 0.0, heading, 1.0, 0.5)
        b = rect(*quarter_turns(k, x, y), heading + turn * math.pi / 2, 0.5, 0.5)
        tol = 0.0 if k == turn == 0 else 1e-15
        for p, q in ((a, b), (b, a)):
            got = closest_pair(p, q)
            assert_bit_identical(got, relative_frame_closest_pair(p, q))
            assert abs(got.distance - expected) <= tol
            if expected == tol == 0.0:  # touching counts as contact, whose push is zero
                assert (got.gap_x, got.gap_y) == (0.0, 0.0)


class TestCornerTies:
    """Axis-aligned layouts, exact in floating point, where corners tie
    exactly: two of A's four, two of B's four, or A's nearest and B's. The
    first strict minimum wins and A's corners come first; in a tie across
    the two, that choice shows in the sign of the gap's zero component."""

    @pytest.mark.parametrize("a,b,distance", [
        # A's corners (1, ±0.5) both 1.75 from B's tall face; B's corners are
        # past A's vertices, farther
        (rect(0, 0, 0, 1.0, 0.5), rect(3, 0, 0, 0.25, 2.0), 1.75),
        # B's corners (2.5, ±0.5) both 1.5 from A's tall face; A's are farther
        (rect(0, 0, 0, 1.0, 2.0), rect(3, 0, 0, 0.5, 0.5), 1.5),
        # face to face: A's (1, ±0.5) and B's (2.5, ±0.5) all 1.5 apart
        (rect(0, 0, 0, 1.0, 0.5), rect(3, 0, 0, 0.5, 0.5), 1.5),
        # corner to corner: A's (1, 0.5) and B's (2.5, 2.5) are each other's
        # nearest, 1.5 by 2 from the other's box
        (rect(0, 0, 0, 1.0, 0.5), rect(3, 3, 0, 0.5, 0.5), 2.5),
    ])
    def test_ties_bit_exact_against_oracle(self, a, b, distance):
        for p, q in ((a, b), (b, a)):
            got = closest_pair(p, q)
            assert_bit_identical(got, relative_frame_closest_pair(p, q))
            assert got.distance == distance

    def test_tie_across_goes_to_a(self):
        # A's corner gives -(sin·e_x + cos·e_y) = -(-0.0 + 0.0) = -0.0; B's
        # corner would give sin·f_x + cos·f_y = 0.0 + 0.0 = +0.0
        got = closest_pair(rect(0, 0, 0, 1.0, 0.5), rect(3, 0, 0, 0.5, 0.5))
        assert got == (1.5, 1.5, 0.0)
        assert math.copysign(1.0, got.gap_y) == -1.0


class TestFrame:
    """A rectangle's frame is computed once, from its normalized heading."""

    @staticmethod
    def assert_frame(r):
        x, y, heading = r.center.x, r.center.y, r.center.heading
        assert r.frame == (x, y, math.cos(heading), math.sin(heading),
                           r.half_length, r.half_width)

    def test_frame_reads_the_normalized_heading(self):
        r = rect(1.5, -2.0, 2.5 + 2.0 * math.pi, 1.2, 0.4)
        assert r.center.heading == normalize_angle(2.5 + 2.0 * math.pi)
        self.assert_frame(r)
        assert corners(r) == corners(rect(1.5, -2.0, r.center.heading, 1.2, 0.4))

    def test_frame_follows_replace(self):
        r = rect(1.0, 2.0, 0.3, 1.0, 0.5)
        for moved in (dataclasses.replace(r, center=Pose2D(-4.0, 0.5, 4.0)),
                      dataclasses.replace(r, half_length=2.0, half_width=0.25)):
            self.assert_frame(moved)
            assert moved.frame != r.frame

    def test_frame_after_scenario_from_dict_and_advance(self):
        scenario = load_scenario(packaged_scenario_path("straight_corridor"))
        back = scenario_from_dict(scenario_to_dict(scenario))
        for r in [o.footprint for o in back.obstacles] + list(back.corridor):
            self.assert_frame(r)
        moving = Obstacle(rect(2.0, 1.0, 3.0, 0.5, 0.4), (0.7, -0.2), 0.9)
        for _ in range(5):  # the heading wraps past pi on the way
            moving = advance_obstacle(moving, 0.1)
            self.assert_frame(moving.footprint)

    def test_equality_hash_and_repr_see_the_fields_alone(self):
        r, twin = rect(1.0, 2.0, 0.3, 1.0, 0.5), rect(1.0, 2.0, 0.3, 1.0, 0.5)
        assert r == twin and hash(r) == hash(twin) and r is not twin
        assert r == dataclasses.replace(r) and hash(r) == hash(dataclasses.replace(r))
        assert [f.name for f in dataclasses.fields(r)] == ["center", "half_length",
                                                           "half_width"]
        assert "frame" not in repr(r)

    def test_pose_and_rectangle_stay_frozen(self):
        r = rect(1.0, 2.0, 0.3, 1.0, 0.5)
        for obj, name in ((r.center, "heading"), (r, "half_length"), (r, "frame")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0.0)
        assert OrientedRectangle(center=Pose2D(x=1.0, y=2.0, heading=0.3),
                                 half_length=1.0, half_width=0.5) == r


def exact_distance(a, b):
    """The distance between the rectangles the two frames describe, to 60
    digits: each frame's corners x ± c·hl ∓ s·hw, y ± s·hl ± c·hw taken
    exactly, then the least of the 32 vertex-to-edge distances. For
    disjoint rectangles only; the callers' pairs are metres apart."""
    def exact_corners(r):
        x, y, c, s, hl, hw = map(Decimal, r.frame)
        return [(x + c * hl * i - s * hw * j, y + s * hl * i + c * hw * j)
                for i, j in ((1, 1), (-1, 1), (-1, -1), (1, -1))]

    def to_segment(p, q1, q2):
        dx, dy = q2[0] - q1[0], q2[1] - q1[1]
        t = ((p[0] - q1[0]) * dx + (p[1] - q1[1]) * dy) / (dx * dx + dy * dy)
        t = min(max(t, Decimal(0)), Decimal(1))
        ex, ey = p[0] - q1[0] - t * dx, p[1] - q1[1] - t * dy
        return (ex * ex + ey * ey).sqrt()

    with localcontext() as ctx:
        ctx.prec = 60
        pa, pb = exact_corners(a), exact_corners(b)
        return min(to_segment(p, q, r) for ps, qs in ((pa, pb), (pb, pa)) for p in ps
                   for q, r in zip(qs, qs[1:] + qs[:1]))


def assert_cut_contract(a, b, within):
    """A row at or inside `within` is the uncut query's, bit for bit; a cut
    row is the shared (inf, 0.0, 0.0), and only for a pair whose exact
    distance, and whose uncut distance, exceed `within`. True if cut."""
    got, full = closest_pair(a, b, within), closest_pair(a, b)
    if got.distance != math.inf:
        assert_bit_identical(got, full)
        return False
    assert got == (math.inf, 0.0, 0.0)
    assert full.distance > within
    assert exact_distance(a, b) > Decimal(within)
    return True


class TestCutoff:
    """`closest_pair(a, b, within)` against the uncut query and against the
    exact distance. A pair is cut only by a separating-axis gap past within
    plus its rounding margin, so the rows near `within` are the ones at
    stake: the sweep puts `within` a few ulp to 1e-9 of the scale from the
    exact distance, with the pairs near the origin and about 1e3 m off."""

    def test_random_pairs_obey_the_contract(self):
        rng = np.random.default_rng(2027)
        cut = 0
        for k in range(3000):
            a, b = random_rect(rng, span=12.0), random_rect(rng, span=12.0)
            if k % 3 == 0:
                b = face_parallel(rng, a, b)
            for within in (0.0, 1.0, 8.0, rng.uniform(0.0, 20.0)):
                cut += assert_cut_contract(a, b, within)
        assert cut > 3000  # the cutoff did work

    def test_default_never_cuts_and_cut_rows_are_shared(self):
        a, far = rect(0, 0, 0, 1.0, 0.5), rect(1e6, -1e6, 0.3, 1.0, 0.5)
        got = closest_pair(a, far)
        assert_bit_identical(got, closest_pair(a, far, math.inf))
        assert 1e6 < got.distance < math.inf
        assert closest_pair(a, far, 8.0) is closest_pair(far, rect(9, 9, 1, 0.5, 0.5), 1.0)

    @pytest.mark.parametrize("offset", [0.0, 1e3, -1.3e3])
    @pytest.mark.parametrize("parallel", [True, False])
    def test_boundary_sweep(self, offset, parallel):
        rng = np.random.default_rng([int(abs(offset)), parallel])
        cut_past_margin = 0
        for _ in range(40):
            a = rect(offset + rng.uniform(-3, 3), offset + rng.uniform(-3, 3),
                     rng.uniform(-math.pi, math.pi), rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
            # B a few metres away, beside a face of A: a wall-length rectangle
            # parallel to A's side, or a small one turned at random
            heading = a.center.heading + (rng.integers(4) * math.pi / 2 if parallel
                                          else rng.uniform(-math.pi, math.pi))
            side = a.center.heading + rng.integers(4) * math.pi / 2
            reach = a.half_length + a.half_width + 12.0 + rng.uniform(0.5, 9.0)
            hl, hw = (rng.uniform(2.0, 12.0), 0.1) if parallel else (0.5, 0.4)
            b = rect(a.center.x + reach * math.cos(side), a.center.y + reach * math.sin(side),
                     heading, hl, hw)
            exact = exact_distance(a, b)
            scale = float(exact) + a.half_length + a.half_width + hl + hw
            near = float(exact)
            withins = [near, math.nextafter(near, math.inf), math.nextafter(near, -math.inf)]
            withins += [near + sign * step * scale for step in (1e-12, 1e-9) for sign in (1, -1)]
            for within in withins:
                assert_cut_contract(a, b, within)
                assert_cut_contract(b, a, within)
            cut_past_margin += closest_pair(a, b, near - 1e-9 * scale).distance == math.inf
        if parallel:  # facing sides: the gap is the distance, and 1e-9 is past the margin
            assert cut_past_margin == 40


class TestInvariants:
    def test_matches_loop_oracle(self):
        # same overlap decisions as a world-frame SAT, the same distance as
        # the 32 vertex-to-edge checks, and the gap is their witnesses'
        # on_b - on_a, face scan included: the vector the field read before
        rng = np.random.default_rng(2025)
        for k in range(20_000):
            a, b = random_rect(rng), random_rect(rng)
            if k % 3 == 0:
                b = face_parallel(rng, a, b)
            got = closest_pair(a, b)
            on_a, on_b, distance = loop_closest_pair(a, b)
            assert (got.distance == 0.0) == (distance == 0.0)
            assert abs(got.distance - distance) <= 1e-12
            if distance == 0.0:  # contact: the gap is the push (see TestPenetration)
                continue
            assert max(abs(got.gap_x - (on_b[0] - on_a[0])),
                       abs(got.gap_y - (on_b[1] - on_a[1]))) <= 1e-12 * (1.0 + distance)

    def test_bit_exact_against_relative_frame_oracle(self):
        # the straight-line 8-corner search is the corner loop written out:
        # same corner order, same tie rule, same arithmetic, bit for bit
        rng = np.random.default_rng(2026)
        for k in range(20_000):
            a, b = random_rect(rng), random_rect(rng)
            if k % 3 == 0:
                b = face_parallel(rng, a, b)
            assert_bit_identical(closest_pair(a, b), relative_frame_closest_pair(a, b))

    def test_symmetry_exact(self, rng):
        for _ in range(300):
            a, b = random_rect(rng), random_rect(rng)
            assert closest_pair(a, b).distance == closest_pair(b, a).distance

    def test_translation_invariance(self, rng):
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            tx, ty = rng.uniform(-50, 50, size=2)
            a2 = rect(a.center.x + tx, a.center.y + ty, a.center.heading,
                      a.half_length, a.half_width)
            b2 = rect(b.center.x + tx, b.center.y + ty, b.center.heading,
                      b.half_length, b.half_width)
            assert closest_pair(a2, b2).distance == pytest.approx(
                closest_pair(a, b).distance, abs=1e-12)

    def test_rotation_invariance(self, rng):
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def rot(r):
                x = c * r.center.x - s * r.center.y
                y = s * r.center.x + c * r.center.y
                return rect(x, y, r.center.heading + phi,
                            r.half_length, r.half_width)

            assert closest_pair(rot(a), rot(b)).distance == pytest.approx(
                closest_pair(a, b).distance, abs=1e-9)

    def test_zero_distance_iff_sat_intersection(self, rng):
        for _ in range(500):
            a, b = random_rect(rng, span=2.0), random_rect(rng, span=2.0)
            got = closest_pair(a, b)
            assert (got.distance == 0.0) == sat_intersect(a, b)
            if got.distance == 0.0:  # the push is as long as the least overlap
                assert math.hypot(got.gap_x, got.gap_y) == pytest.approx(
                    min(axis_overlaps(a, b))[0], abs=1e-12)

    def test_matches_sampling_oracle_on_random_pairs(self, rng):
        checked = 0
        while checked < 200:
            a, b = random_rect(rng), random_rect(rng)
            if sat_intersect(a, b):
                continue
            assert closest_pair(a, b).distance == pytest.approx(
                oracle_distance(a, b, n=4000), abs=1e-3)
            checked += 1


class TestValidation:
    def test_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError):
            OrientedRectangle(Pose2D(0, 0, 0), 0.0, 1.0)
        with pytest.raises(ValueError):
            OrientedRectangle(Pose2D(0, 0, 0), 1.0, -0.1)

    @pytest.mark.parametrize("hl,hw", [(math.nan, 1.0), (1.0, math.nan),
                                       (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_nan_and_infinite_extents(self, hl, hw):
        with pytest.raises(ValueError):
            OrientedRectangle(Pose2D(0, 0, 0), hl, hw)

    @pytest.mark.parametrize("x,y,heading", [
        (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan),
        (math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0)])
    def test_rejects_nonfinite_center(self, x, y, heading):
        # else the closest pair to a finite rectangle reads contact, or a NaN gap
        with pytest.raises(ValueError, match="finite"):
            OrientedRectangle(Pose2D(x, y, heading), 1.0, 0.5)

    def test_pose_heading_normalized(self):
        assert Pose2D(0, 0, 3 * math.pi).heading == pytest.approx(math.pi)
