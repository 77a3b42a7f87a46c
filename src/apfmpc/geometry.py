"""Oriented rectangle footprints and minimum-distance queries between them.

Rectangles are convex, so one pass answers a closest-pair query: each
rectangle's corners are computed once, a separating-axis test on them
decides overlap, and for disjoint rectangles the minimum of the 32
vertex-to-edge checks is the distance. A parallel edge pair that overlaps
at that distance puts the witness at the midpoint of its overlap. No
broad-phase or general polygon machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
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


@dataclass(frozen=True)
class ClosestPair:
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


def _project_extent(pts, ax, ay):
    vals = [px * ax + py * ay for px, py in pts]
    return min(vals), max(vals)


def _corners_overlap(pa, pb) -> bool:
    """Separating-axis test on two corner lists; the axes are two adjacent
    edge vectors of each rectangle, so no trigonometry is needed. Touching
    counts as overlapping."""
    for pts in (pa, pb):
        for (x1, y1), (x2, y2) in zip(pts[:2], pts[1:3]):
            lo_a, hi_a = _project_extent(pa, x2 - x1, y2 - y1)
            lo_b, hi_b = _project_extent(pb, x2 - x1, y2 - y1)
            if hi_a < lo_b or hi_b < lo_a:
                return False
    return True


def rectangles_intersect(a: OrientedRectangle, b: OrientedRectangle) -> bool:
    """Separating-axis test; touching counts as intersecting."""
    return _corners_overlap(corners(a), corners(b))


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


def closest_pair(a: OrientedRectangle, b: OrientedRectangle) -> ClosestPair:
    """Globally minimal-distance point pair between two oriented rectangles.

    Each rectangle's corners are computed once and serve both the overlap
    test and the distance. Overlapping rectangles return distance 0 with both
    witness points at the midpoint of the two centers. For disjoint ones the
    distance is the minimum of the 32 vertex-to-edge checks (every corner of
    one rectangle against every edge of the other), which is exact for
    disjoint convex polygons and the same set in either argument order. When
    a parallel edge pair overlaps at that distance (within 1e-12*(1+d)), the
    witness on A is the midpoint of the overlap, so face-to-face contacts get
    a deterministic, perturbation-stable witness.
    """
    pa, pb = corners(a), corners(b)
    if _corners_overlap(pa, pb):
        mid = (0.5 * (a.center.x + b.center.x), 0.5 * (a.center.y + b.center.y))
        return ClosestPair(mid, mid, 0.0,
                           (mid[0] - a.center.x, mid[1] - a.center.y))

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
    return ClosestPair(on_a, on_b, best_d,
                       (on_a[0] - a.center.x, on_a[1] - a.center.y))
