"""Oriented rectangle footprints and minimum-distance queries between them.

A closest-pair query runs in the relative frame: in its own frame each
rectangle is an axis-aligned box, and the other's corners there are its
center plus or minus two half-axes. Projected half-extents decide overlap
(the separating-axis test); for disjoint rectangles the distance is the
smallest of the 8 corner-to-box distances, each corner clamped to the box.
The 8 are written out as straight-line code, A's four corners before B's
four, and the first strict minimum wins, so ties go to A's corners; the
oracle `relative_frame_closest_pair` in tests/test_geometry.py is the same
search as a loop over the corners and pins it bit for bit. Facing parallel
sides put the witnesses at the midpoint of their overlap.
"""

from __future__ import annotations

import math
from math import hypot
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
    distances, each corner clamped to the box: the minimum between disjoint
    convex polygons is reached at a vertex of one of them, and the 8 are the
    same in either argument order. They are written out with no loop or
    helper, A's corners c + u + v, c - u + v, c - u - v, c + u - v in B's
    frame, then B's in A's, and the first strict minimum wins, so ties go to
    A's corners. Only the winner is clamped again for its witnesses. When B's
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

    # corners c + u + v, c - u + v, c - u - v, c + u - v: A's in B's frame
    # (0-3), then B's in A's (4-7); d_k is corner k's distance to the other's
    # box, the length of the corner minus its clamp to the box
    px, py, mx, my = ax + uax, ay + uay, ax - uax, ay - uay
    x0, y0, x1, y1, x2, y2, x3, y3 = (px + vax, py + vay, mx + vax, my + vay,
                                      mx - vax, my - vay, px - vax, py - vay)
    px, py, mx, my = bx + ubx, by + uby, bx - ubx, by - uby
    x4, y4, x5, y5, x6, y6, x7, y7 = (px + vbx, py + vby, mx + vbx, my + vby,
                                      mx - vbx, my - vby, px - vbx, py - vby)
    nla, nwa, nlb, nwb = -hla, -hwa, -hlb, -hwb
    d0 = hypot(x0 - hlb if x0 > hlb else x0 - nlb if x0 < nlb else 0.0,
               y0 - hwb if y0 > hwb else y0 - nwb if y0 < nwb else 0.0)
    d1 = hypot(x1 - hlb if x1 > hlb else x1 - nlb if x1 < nlb else 0.0,
               y1 - hwb if y1 > hwb else y1 - nwb if y1 < nwb else 0.0)
    d2 = hypot(x2 - hlb if x2 > hlb else x2 - nlb if x2 < nlb else 0.0,
               y2 - hwb if y2 > hwb else y2 - nwb if y2 < nwb else 0.0)
    d3 = hypot(x3 - hlb if x3 > hlb else x3 - nlb if x3 < nlb else 0.0,
               y3 - hwb if y3 > hwb else y3 - nwb if y3 < nwb else 0.0)
    d4 = hypot(x4 - hla if x4 > hla else x4 - nla if x4 < nla else 0.0,
               y4 - hwa if y4 > hwa else y4 - nwa if y4 < nwa else 0.0)
    d5 = hypot(x5 - hla if x5 > hla else x5 - nla if x5 < nla else 0.0,
               y5 - hwa if y5 > hwa else y5 - nwa if y5 < nwa else 0.0)
    d6 = hypot(x6 - hla if x6 > hla else x6 - nla if x6 < nla else 0.0,
               y6 - hwa if y6 > hwa else y6 - nwa if y6 < nwa else 0.0)
    d7 = hypot(x7 - hla if x7 > hla else x7 - nla if x7 < nla else 0.0,
               y7 - hwa if y7 > hwa else y7 - nwa if y7 < nwa else 0.0)
    d, k = d0, 0  # the first strict minimum, so ties go to A's corners
    if d1 < d: d, k = d1, 1
    if d2 < d: d, k = d2, 2
    if d3 < d: d, k = d3, 3
    if d4 < d: d, k = d4, 4
    if d5 < d: d, k = d5, 5
    if d6 < d: d, k = d6, 6
    if d7 < d: d, k = d7, 7
    x, y = (x0, x1, x2, x3, x4, x5, x6, x7)[k], (y0, y1, y2, y3, y4, y5, y6, y7)[k]
    if k < 4:  # A's corner, and the gap to B's box turned from B's frame into A's
        pa = ((hla, hwa), (nla, hwa), (nla, nwa), (hla, nwa))[k]
        gx = (hlb if x > hlb else nlb if x < nlb else x) - x
        gy = (hwb if y > hwb else nwb if y < nwb else y) - y
        pb = (pa[0] + c * gx - s * gy, pa[1] + s * gx + c * gy)
    else:  # B's corner, clamped to A's box
        pa = (hla if x > hla else nla if x < nla else x, hwa if y > hwa else nwa if y < nwa else y)
        pb = (x, y)

    if min(abs(ubx), abs(uby)) <= 1e-12 * hypot(ubx, uby):
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
