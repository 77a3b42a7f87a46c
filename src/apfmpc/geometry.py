"""Oriented rectangle footprints and minimum-distance queries between them.

A closest-pair query runs in the relative frame: in its own frame each
rectangle is an axis-aligned box, and the other's corners there are its
center plus or minus two half-axes. Projected half-extents decide overlap
(the separating-axis test); for disjoint rectangles the distance is the
smallest of the 8 corner-to-box distances, each corner clamped to the box.
Facing parallel sides put the witnesses at the midpoint of their overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]; an angle already there is returned as is."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Pose2D:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "heading", normalize_angle(self.heading))


@dataclass(frozen=True)
class OrientedRectangle:
    center: Pose2D
    half_length: float  # along heading
    half_width: float   # perpendicular to heading

    def __post_init__(self):
        if self.half_length <= 0.0 or self.half_width <= 0.0:
            raise ValueError("rectangle half-extents must be positive")


class ClosestPair(NamedTuple):
    on_a: tuple[float, float]
    on_b: tuple[float, float]
    distance: float
    offset_a: tuple[float, float]  # displacement from rectangle A's center to on_a


def corners(rect: OrientedRectangle) -> list[tuple[float, float]]:
    """Four corners, counter-clockwise starting from front-left."""
    c, s = math.cos(rect.center.heading), math.sin(rect.center.heading)
    hl, hw = rect.half_length, rect.half_width
    cx, cy = rect.center.x, rect.center.y
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return [(cx + c * lx - s * ly, cy + s * lx + c * ly) for lx, ly in local]


def _nearest_corner(cx, cy, ux, uy, vx, vy, hl, hw):
    """(distance, index, corner, clamped corner) of the first of c + u + v,
    c - u + v, c - u - v, c + u - v nearest to the box |x| <= hl, |y| <= hw."""
    best = (math.inf,)
    for k, (x, y) in enumerate(((cx + ux + vx, cy + uy + vy), (cx - ux + vx, cy - uy + vy),
                                (cx - ux - vx, cy - uy - vy), (cx + ux - vx, cy + uy - vy))):
        qx = hl if x > hl else -hl if x < -hl else x
        qy = hw if y > hw else -hw if y < -hw else y
        d = math.hypot(x - qx, y - qy)
        if d < best[0]:
            best = (d, k, (x, y), (qx, qy))
    return best


def closest_pair(a: OrientedRectangle, b: OrientedRectangle) -> ClosestPair:
    """Globally minimal-distance point pair between two oriented rectangles.

    With one cos/sin per heading, (c, s) is B's heading in A's frame. Each
    center goes into the other's frame, where the other is the box
    |x| <= half_length, |y| <= half_width, and each rectangle's corners are
    its center ± u ± v: u = hl·(c, s), v = hw·(-s, c) for B, and for A the
    same with (c, -s). The rectangles overlap (touching included) unless in
    one frame |center_x| - (|u_x| + |v_x|) > half_length, or the same for y;
    overlapping ones get distance 0 and both witnesses at the centers'
    midpoint. Otherwise the distance is the smallest of the 8 corner-to-box
    distances, each corner clamped to the box, ties going to A's corners:
    the minimum between disjoint convex polygons is reached at a vertex of
    one of them, and the 8 are the same in either argument order. When B's
    edges are parallel to A's axes (u within 1e-12 relative) and their
    extents overlap along one of them, both witnesses sit at the midpoint of
    that overlap on the facing sides. Witnesses are rotated into the world once.
    """
    hla, hwa, hlb, hwb = a.half_length, a.half_width, b.half_length, b.half_width
    ca, sa = math.cos(a.center.heading), math.sin(a.center.heading)
    cb, sb = math.cos(b.center.heading), math.sin(b.center.heading)
    c, s = ca * cb + sa * sb, ca * sb - sa * cb
    dx, dy = b.center.x - a.center.x, b.center.y - a.center.y
    bx, by = ca * dx + sa * dy, ca * dy - sa * dx  # B's center in A's frame
    ax, ay = -(cb * dx + sb * dy), sb * dx - cb * dy  # A's center in B's frame
    ubx, uby, vbx, vby = hlb * c, hlb * s, -(hwb * s), hwb * c
    uax, uay, vax, vay = hla * c, -(hla * s), hwa * s, hwa * c
    ebx, eby = abs(ubx) + abs(vbx), abs(uby) + abs(vby)  # B's half-extents in A's frame
    if not (abs(bx) - ebx > hla or abs(by) - eby > hwa
            or abs(ax) - (abs(uax) + abs(vax)) > hlb or abs(ay) - (abs(uay) + abs(vay)) > hwb):
        mid = (0.5 * (a.center.x + b.center.x), 0.5 * (a.center.y + b.center.y))
        return ClosestPair(mid, mid, 0.0, (mid[0] - a.center.x, mid[1] - a.center.y))

    d, k, p, q = _nearest_corner(ax, ay, uax, uay, vax, vay, hlb, hwb)
    near_b = _nearest_corner(bx, by, ubx, uby, vbx, vby, hla, hwa)
    if near_b[0] < d:
        d, _, pb, pa = near_b
    else:  # A's corner, and the gap to B's box turned from B's frame into A's
        pa = ((hla, hwa), (-hla, hwa), (-hla, -hwa), (hla, -hwa))[k]
        gx, gy = q[0] - p[0], q[1] - p[1]
        pb = (pa[0] + c * gx - s * gy, pa[1] + s * gx + c * gy)

    if min(abs(ubx), abs(uby)) <= 1e-12 * math.hypot(ubx, uby):
        half, low, high = (hla, hwa), (bx - ebx, by - eby), (bx + ebx, by + eby)
        for k, j in ((0, 1), (1, 0)):
            lo, hi = max(low[k], -half[k]), min(high[k], half[k])
            side = 1.0 if low[j] > half[j] else -1.0 if high[j] < -half[j] else 0.0
            if lo < hi and side:
                m = 0.5 * (lo + hi)
                pa, pb = ((m, side * r) if k == 0 else (side * r, m)
                          for r in (half[j], half[j] + d))
    offset = (ca * pa[0] - sa * pa[1], sa * pa[0] + ca * pa[1])
    on_b = (a.center.x + ca * pb[0] - sa * pb[1], a.center.y + sa * pb[0] + ca * pb[1])
    return ClosestPair((a.center.x + offset[0], a.center.y + offset[1]), on_b, d, offset)
