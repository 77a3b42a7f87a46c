"""Oriented rectangle footprints and minimum-distance queries between them.

In its own frame a rectangle is an axis-aligned box, so one pass answers a
closest-pair query: the other rectangle's four corners go into that frame,
interval comparisons of them decide overlap (the separating-axis test), and
for disjoint rectangles the distance is the smallest of the 8 corner-to-box
distances, each corner clamped to the box. Facing parallel sides put the
witnesses at the midpoint of their overlap. No broad-phase or general
polygon machinery is needed.
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


def _local(rect: OrientedRectangle, pts) -> list[tuple[float, float]]:
    """Points in the rectangle's frame: x along its heading, y to its left."""
    c, s = math.cos(rect.center.heading), math.sin(rect.center.heading)
    cx, cy = rect.center.x, rect.center.y
    return [(c * (x - cx) + s * (y - cy), c * (y - cy) - s * (x - cx)) for x, y in pts]


def _world(rect: OrientedRectangle, p) -> tuple[float, float]:
    """A point given in the rectangle's frame, in world coordinates."""
    c, s = math.cos(rect.center.heading), math.sin(rect.center.heading)
    return (rect.center.x + c * p[0] - s * p[1], rect.center.y + s * p[0] + c * p[1])


def _separated(rect: OrientedRectangle, pts) -> bool:
    """Whether points given in the rectangle's frame all lie beyond one side."""
    hl, hw = rect.half_length, rect.half_width
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    return max(xs) < -hl or min(xs) > hl or max(ys) < -hw or min(ys) > hw


def closest_pair(a: OrientedRectangle, b: OrientedRectangle) -> ClosestPair:
    """Globally minimal-distance point pair between two oriented rectangles.

    Each rectangle's corners go once into the other's frame, where the other
    is the box |x| <= half_length, |y| <= half_width. The rectangles overlap
    (touching included) unless, in one of the two frames, all four corners
    lie beyond one side of the box. Overlapping rectangles return distance 0
    with both witness points at the midpoint of the two centers. For
    disjoint ones the distance is the minimum over the 8 corners of the
    distance to the other box, whose closest point is the corner clamped to
    the box. That is exact, because the minimum between disjoint convex
    polygons is reached at a vertex of one of them, and it is the same set of
    8 in either argument order. When B's edges are parallel to A's axes
    (within 1e-12 relative) and their extents overlap along one of them,
    both witnesses sit at the midpoint of that overlap on the facing sides,
    so face-to-face contacts get a deterministic, perturbation-stable
    witness.
    """
    pa, pb = corners(a), corners(b)
    in_a, in_b = _local(a, pb), _local(b, pa)
    if not (_separated(a, in_a) or _separated(b, in_b)):
        mid = (0.5 * (a.center.x + b.center.x), 0.5 * (a.center.y + b.center.y))
        return ClosestPair(mid, mid, 0.0,
                           (mid[0] - a.center.x, mid[1] - a.center.y))

    best = (math.inf,)
    for box, pts, box_corners in ((b, in_b, pa), (a, in_a, pb)):
        hl, hw = box.half_length, box.half_width
        for (x, y), corner in zip(pts, box_corners):
            q = (min(max(x, -hl), hl), min(max(y, -hw), hw))
            d = math.hypot(x - q[0], y - q[1])
            if d < best[0]:
                best = (d, box, q, corner)
    d, box, q, corner = best
    on_a, on_b = (corner, _world(b, q)) if box is b else (_world(a, q), corner)

    ex, ey = in_a[1][0] - in_a[0][0], in_a[1][1] - in_a[0][1]
    if min(abs(ex), abs(ey)) <= 1e-12 * math.hypot(ex, ey):
        half = (a.half_length, a.half_width)
        low = [min(p[k] for p in in_a) for k in (0, 1)]
        high = [max(p[k] for p in in_a) for k in (0, 1)]
        for k, j in ((0, 1), (1, 0)):
            lo, hi = max(low[k], -half[k]), min(high[k], half[k])
            side = 1.0 if low[j] > half[j] else -1.0 if high[j] < -half[j] else 0.0
            if lo < hi and side:
                m = 0.5 * (lo + hi)
                on_a, on_b = (_world(a, (m, side * r) if k == 0 else (side * r, m))
                              for r in (half[j], half[j] + d))
    return ClosestPair(on_a, on_b, d, (on_a[0] - a.center.x, on_a[1] - a.center.y))
