"""Oriented rectangle footprints and minimum-distance queries between them.

A closest-pair query returns the distance and the gap, the world-frame
vector from A's closest point to B's (Ericson, Real-Time Collision
Detection, 2004, ch. 5); the field reads nothing else. It runs in the
relative frame: in its own frame each rectangle is an axis-aligned box, and
the other's corners there are its center plus or minus two half-axes.
Projected half-extents decide overlap (the separating-axis test); for
disjoint rectangles the distance is the smallest of the 8 corner-to-box
distances, each corner clamped to the box, and the gap is the winner's
corner-minus-clamp vector turned into the world. The 8 are written out as
straight-line code, A's four corners before B's four, and the first strict
minimum wins, so ties go to A's corners; the oracle
`relative_frame_closest_pair` in tests/test_geometry.py is the same search
as a loop over the corners and pins it bit for bit.
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
    distance: float
    gap: tuple[float, float]  # from A's closest point to B's; (0.0, 0.0) on overlap


def corners(rect: OrientedRectangle) -> list[tuple[float, float]]:
    """Four corners, counter-clockwise starting from front-left."""
    c, s = math.cos(rect.center.heading), math.sin(rect.center.heading)
    hl, hw = rect.half_length, rect.half_width
    cx, cy = rect.center.x, rect.center.y
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return [(cx + c * lx - s * ly, cy + s * lx + c * ly) for lx, ly in local]


def closest_pair(a: OrientedRectangle, b: OrientedRectangle) -> ClosestPair:
    """Minimum distance between two oriented rectangles, and the gap vector.

    With one cos/sin per heading, (c, s) is B's heading in A's frame. Each
    center goes into the other's frame, where the other is the box
    |x| <= half_length, |y| <= half_width, and each rectangle's corners are
    its center ± u ± v: u = hl·(c, s), v = hw·(-s, c) for B, and for A the
    same with (c, -s). The rectangles overlap (touching included) unless in
    one frame |center_x| - (|u_x| + |v_x|) > half_length, or the same for y;
    overlapping ones get distance 0 and a zero gap. Otherwise the distance is
    the smallest of the 8 corner-to-box distances, each corner clamped to the
    box: the minimum between disjoint convex polygons is reached at a vertex
    of one of them, and the 8 are the same in either argument order. They are
    written out with no loop or helper, A's corners c + u + v, c - u + v,
    c - u - v, c + u - v in B's frame, then B's in A's, and the first strict
    minimum wins, so ties go to A's corners. The winner's corner-minus-clamp
    vector, kept from its distance, is the gap in the other's frame: B's
    corner's is turned by A's heading, A's corner's by B's heading and
    negated. Facing parallel sides have many closest pairs but one gap, so
    any corner at the minimum gives it.
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
        return ClosestPair(0.0, (0.0, 0.0))

    # corners c + u + v, c - u + v, c - u - v, c + u - v: A's in B's frame
    # (0-3), then B's in A's (4-7); (ex_k, ey_k) is corner k minus its clamp
    # to the other's box, and d_k its length
    px, py, mx, my = ax + uax, ay + uay, ax - uax, ay - uay
    x0, y0, x1, y1, x2, y2, x3, y3 = (px + vax, py + vay, mx + vax, my + vay,
                                      mx - vax, my - vay, px - vax, py - vay)
    px, py, mx, my = bx + ubx, by + uby, bx - ubx, by - uby
    x4, y4, x5, y5, x6, y6, x7, y7 = (px + vbx, py + vby, mx + vbx, my + vby,
                                      mx - vbx, my - vby, px - vbx, py - vby)
    nla, nwa, nlb, nwb = -hla, -hwa, -hlb, -hwb
    d0 = hypot(ex0 := x0 - hlb if x0 > hlb else x0 - nlb if x0 < nlb else 0.0,
               ey0 := y0 - hwb if y0 > hwb else y0 - nwb if y0 < nwb else 0.0)
    d1 = hypot(ex1 := x1 - hlb if x1 > hlb else x1 - nlb if x1 < nlb else 0.0,
               ey1 := y1 - hwb if y1 > hwb else y1 - nwb if y1 < nwb else 0.0)
    d2 = hypot(ex2 := x2 - hlb if x2 > hlb else x2 - nlb if x2 < nlb else 0.0,
               ey2 := y2 - hwb if y2 > hwb else y2 - nwb if y2 < nwb else 0.0)
    d3 = hypot(ex3 := x3 - hlb if x3 > hlb else x3 - nlb if x3 < nlb else 0.0,
               ey3 := y3 - hwb if y3 > hwb else y3 - nwb if y3 < nwb else 0.0)
    d4 = hypot(ex4 := x4 - hla if x4 > hla else x4 - nla if x4 < nla else 0.0,
               ey4 := y4 - hwa if y4 > hwa else y4 - nwa if y4 < nwa else 0.0)
    d5 = hypot(ex5 := x5 - hla if x5 > hla else x5 - nla if x5 < nla else 0.0,
               ey5 := y5 - hwa if y5 > hwa else y5 - nwa if y5 < nwa else 0.0)
    d6 = hypot(ex6 := x6 - hla if x6 > hla else x6 - nla if x6 < nla else 0.0,
               ey6 := y6 - hwa if y6 > hwa else y6 - nwa if y6 < nwa else 0.0)
    d7 = hypot(ex7 := x7 - hla if x7 > hla else x7 - nla if x7 < nla else 0.0,
               ey7 := y7 - hwa if y7 > hwa else y7 - nwa if y7 < nwa else 0.0)
    # the first strict minimum: A's nearest corner, then B's if strictly nearer
    d, ex, ey = d0, ex0, ey0
    if d1 < d: d, ex, ey = d1, ex1, ey1
    if d2 < d: d, ex, ey = d2, ex2, ey2
    if d3 < d: d, ex, ey = d3, ex3, ey3
    db, fx, fy = d4, ex4, ey4
    if d5 < db: db, fx, fy = d5, ex5, ey5
    if d6 < db: db, fx, fy = d6, ex6, ey6
    if d7 < db: db, fx, fy = d7, ex7, ey7
    if db < d:  # B's corner minus its clamp to A's box, turned by A's heading
        return ClosestPair(db, (ca * fx - sa * fy, sa * fx + ca * fy))
    # A's corner minus its clamp to B's box points from B to A: turned by B's
    # heading and negated
    return ClosestPair(d, (-(cb * ex - sb * ey), -(sb * ex + cb * ey)))
