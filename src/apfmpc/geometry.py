"""Oriented rectangle footprints and minimum-distance queries between them.

A rectangle computes its frame once, when it is made: center, cos and sin
of its heading, and its half-extents. Queries and corners read that frame,
so a wall's trig is computed once per run and a predicted pose's once, not
once per query. Poses and rectangles are frozen dataclasses whose own
`__init__` writes each field once, straight into the instance dict.

A closest-pair query returns the distance and the gap, the world-frame
vector from A's closest point to B's (Ericson, Real-Time Collision
Detection, 2004, ch. 5); the field reads nothing else, and the query
returns them as one flat row (distance, gap_x, gap_y). It runs in the
relative frame: in its own frame each rectangle is an axis-aligned box, and
the other's corners there are its center plus or minus two half-axes.
Projected half-extents decide overlap (the separating-axis test); for
disjoint rectangles the distance is the smallest of the 8 corner-to-box
distances in box form: with e = |x| - half_length and f = |y| - half_width,
a corner is hypot of their positive parts from the box. Only the winner's
corner-minus-clamp vector is formed, and turned into the world as the gap.
The 8 are written out as straight-line code, A's four corners before B's
four, and the first strict minimum wins, so ties go to A's corners; the
oracle `relative_frame_closest_pair` in tests/test_geometry.py is the same
search as a loop that clamps each corner, and pins it bit for bit. A row
is built by `tuple.__new__`, in C, and every overlap returns one shared
zero row.
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


# Pose2D and OrientedRectangle are frozen dataclasses with their own
# __init__: the generated one sets each field through object.__setattr__
# and then calls __post_init__, two to three times the cost of writing the
# instance dict directly. A tick makes one of each per predicted step.
@dataclass(frozen=True, init=False)
class Pose2D:
    x: float
    y: float
    heading: float

    def __init__(self, x: float, y: float, heading: float):
        d = self.__dict__
        d["x"], d["y"], d["heading"] = x, y, normalize_angle(heading)


@dataclass(frozen=True, init=False)
class OrientedRectangle:
    center: Pose2D
    half_length: float  # along heading
    half_width: float   # perpendicular to heading

    def __init__(self, center: Pose2D, half_length: float, half_width: float):
        if half_length <= 0.0 or half_width <= 0.0:
            raise ValueError("rectangle half-extents must be positive")
        d = self.__dict__
        d["center"], d["half_length"], d["half_width"] = center, half_length, half_width
        # not a field: equality, hash and repr see the three fields alone
        d["frame"] = (center.x, center.y, math.cos(center.heading), math.sin(center.heading),
                      half_length, half_width)


class ClosestPair(NamedTuple):
    """One row of the pair table: the distance, then the gap from A's
    closest point to B's, (0.0, 0.0) on overlap."""
    distance: float
    gap_x: float
    gap_y: float

    @property
    def gap(self) -> tuple[float, float]:
        return self[1:]


def corners(rect: OrientedRectangle) -> list[tuple[float, float]]:
    """Four corners, counter-clockwise starting from front-left."""
    cx, cy, c, s, hl, hw = rect.frame
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return [(cx + c * lx - s * ly, cy + s * lx + c * ly) for lx, ly in local]


# a row is made by tuple's own constructor in C, not by the NamedTuple's
# Python-level __new__; the overlap row is one shared, immutable instance
_row = tuple.__new__
_OVERLAP = ClosestPair(0.0, 0.0, 0.0)

# the signs of u and v at corners c + u + v, c - u + v, c - u - v, c + u - v;
# ±1.0 times a float is exact, so a corner rebuilt from them is bit for bit
# the one that was measured
_CORNER_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def closest_pair(a: OrientedRectangle, b: OrientedRectangle) -> ClosestPair:
    """Minimum distance between two oriented rectangles, and the gap vector.

    From the two frames, (c, s) is B's heading in A's frame. Each center
    goes into the other's frame, where the other is the box
    |x| <= half_length, |y| <= half_width, and each rectangle's corners are
    its center ± u ± v: u = hl·(c, s), v = hw·(-s, c) for B, and for A the
    same with (c, -s). The rectangles overlap (touching included) unless in
    one frame |center_x| - (|u_x| + |v_x|) > half_length, or the same for y;
    overlapping ones get distance 0 and a zero gap. Otherwise the distance is
    the smallest of the 8 corner-to-box distances: the minimum between
    disjoint convex polygons is reached at a vertex of one of them, and the 8
    are the same in either argument order. A corner (x, y) has
    e = |x| - half_length and f = |y| - half_width. Beside a face only one is
    positive and is the distance; past a vertex both are, and the distance
    is hypot(e, f). That is bit for bit the length of the corner minus its
    clamp to the box: |x - clamp(x)| is |x| - half_length, and hypot(e, 0)
    is e. The 8 are written out with no loop or helper, A's corners
    c + u + v, c - u + v, c - u - v, c + u - v in B's frame, then B's in A's;
    the first strict minimum wins, so ties go to A's corners, and only its
    distance and index are kept. The winner's corner is rebuilt from its
    signs and its corner-minus-clamp vector is the gap in the other's frame:
    B's corner's is turned by A's heading, A's corner's by B's heading and
    negated. Facing parallel sides have many closest pairs but one gap, so
    any corner at the minimum gives it.
    """
    xa, ya, ca, sa, hla, hwa = a.frame
    xb, yb, cb, sb, hlb, hwb = b.frame
    c, s = ca * cb + sa * sb, ca * sb - sa * cb
    dx, dy = xb - xa, yb - ya
    bx, by = ca * dx + sa * dy, ca * dy - sa * dx  # B's center in A's frame
    ax, ay = -(cb * dx + sb * dy), sb * dx - cb * dy  # A's center in B's frame
    ubx, uby, vbx, vby = hlb * c, hlb * s, -(hwb * s), hwb * c
    uax, uay, vax, vay = hla * c, -(hla * s), hwa * s, hwa * c
    ebx, eby = abs(ubx) + abs(vbx), abs(uby) + abs(vby)  # B's half-extents in A's frame
    if not (abs(bx) - ebx > hla or abs(by) - eby > hwa
            or abs(ax) - (abs(uax) + abs(vax)) > hlb or abs(ay) - (abs(uay) + abs(vay)) > hwb):
        return _OVERLAP

    # corners c + u + v, c - u + v, c - u - v, c + u - v: A's in B's frame
    # (0-3), then B's in A's (4-7); (e, f) is |corner| minus the other's
    # half-extents, and d_k the corner's distance to the other's box
    px, py, mx, my = ax + uax, ay + uay, ax - uax, ay - uay
    e, f = abs(px + vax) - hlb, abs(py + vay) - hwb
    d0 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    e, f = abs(mx + vax) - hlb, abs(my + vay) - hwb
    d1 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    e, f = abs(mx - vax) - hlb, abs(my - vay) - hwb
    d2 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    e, f = abs(px - vax) - hlb, abs(py - vay) - hwb
    d3 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    px, py, mx, my = bx + ubx, by + uby, bx - ubx, by - uby
    e, f = abs(px + vbx) - hla, abs(py + vby) - hwa
    d4 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    e, f = abs(mx + vbx) - hla, abs(my + vby) - hwa
    d5 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    e, f = abs(mx - vbx) - hla, abs(my - vby) - hwa
    d6 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    e, f = abs(px - vbx) - hla, abs(py - vby) - hwa
    d7 = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    # the first strict minimum: A's nearest corner, then B's if strictly
    # nearer; k and kb index a corner within its rectangle's four
    d, k = d0, 0
    if d1 < d: d, k = d1, 1
    if d2 < d: d, k = d2, 2
    if d3 < d: d, k = d3, 3
    db, kb = d4, 0
    if d5 < db: db, kb = d5, 1
    if d6 < db: db, kb = d6, 2
    if d7 < db: db, kb = d7, 3
    if db < d:  # B's corner minus its clamp to A's box, turned by A's heading
        su, sv = _CORNER_SIGNS[kb]
        x, y = bx + su * ubx + sv * vbx, by + su * uby + sv * vby
        fx = x - hla if x > hla else x + hla if x < -hla else 0.0
        fy = y - hwa if y > hwa else y + hwa if y < -hwa else 0.0
        return _row(ClosestPair, (db, ca * fx - sa * fy, sa * fx + ca * fy))
    # A's corner minus its clamp to B's box points from B to A: turned by B's
    # heading and negated
    su, sv = _CORNER_SIGNS[k]
    x, y = ax + su * uax + sv * vax, ay + su * uay + sv * vay
    ex = x - hlb if x > hlb else x + hlb if x < -hlb else 0.0
    ey = y - hwb if y > hwb else y + hwb if y < -hwb else 0.0
    return _row(ClosestPair, (d, -(cb * ex - sb * ey), -(sb * ex + cb * ey)))

