"""Oriented rectangle footprints and minimum-distance queries between them.

A rectangle computes its frame once, when it is made: center, cos and sin
of its heading, and its half-extents. Queries and corners read that frame,
so a wall's trig is computed once per run and a predicted pose's once, not
once per query. `closest_pair` reads nothing else of its arguments, so a
`Frame`, the six numbers in a one-slot record, serves where no rectangle
is needed: the robot's footprint (`RobotGeometry.footprint`) and the
controller's predicted footprints are frames, which `frames` makes from
rows (x, y, heading). A rectangle rejects a center, heading or extent that
is not finite with ValueError, as input; `frames` raises
FloatingPointError on a row that is not finite, as a numerical failure.
Poses and rectangles are frozen dataclasses that store each number as a
Python float when they are made, with `store_floats`, as the robot's state,
input and geometry, an obstacle and a scenario do; a scenario converts its
path's coordinates by the same rule, `as_float`. Nothing else converts a
number. A string, bytes, a bool, a complex number or a `Decimal` is no
number there (TypeError), and an integer too large for a float is
ValueError, as input.

A closest-pair query returns the distance and the gap, the world-frame
vector from A's closest point to B's (Ericson, Real-Time Collision
Detection, 2004, ch. 5); the field reads nothing else, and the query
returns them as one flat row (distance, gap_x, gap_y). It runs in the
relative frame: in its own frame each rectangle is an axis-aligned box, and
the other's corners there are its center plus or minus two half-axes.
Projected half-extents give four separating-axis gaps, each a lower bound
on the distance: none positive is an overlap. The field reads only pairs
within its activation radius, so a query takes a cutoff `within`: a gap
past it by more than its rounding margin ends the query with the shared row
(inf, 0, 0), and every row at or inside `within` is bit for bit the uncut
query's. For other disjoint rectangles the distance is the smallest of the
8 corner-to-box distances in box form: with e = |x| - half_length and
f = |y| - half_width, a corner is hypot of their positive parts from the
box. Only the winner's corner-minus-clamp vector is formed, and turned into
the world as the gap. The 8 are written out as straight-line code, A's four
corners before B's four, against one running minimum; a corner whose e or f
already reaches it is skipped, and the first strict minimum wins, so ties
go to A's corners. The oracle `relative_frame_closest_pair` in
tests/test_geometry.py is the same search as a loop that clamps each
corner, and pins it bit for bit. A row is built by `tuple.__new__`, in C.

An overlap, touching included, is a contact row: distance 0.0, which the
simulator's and the benchmark's contact tests read as `== 0.0`, and as
gap the push, along the axis of the least of the four separating-axis
overlaps, pointing from A's center to B's, as long as that overlap. For
two convex polygons that is the minimum translation that parts them
(Ericson 2004, §5.2), so the field pushes out of contact along it (the
signed distance with a penetration direction of Schulman et al., IJRR
2014): moving A back by the gap parts the pair.
"""

from __future__ import annotations

import math
from math import cos, hypot, inf, sin
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]; an angle already there is returned as
    is. ±inf has no direction and gives NaN, as NaN gives NaN."""
    if -math.pi < angle <= math.pi:
        return angle
    if math.isinf(angle):  # math.fmod raises on it
        return math.nan
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def as_float(value) -> float:
    """A real number as a Python float: the one rule by which a value type,
    and a scenario's path, converts a number. A string, bytes or a bool,
    numpy's too, is not a number here, though `float()` reads it as one, nor
    is a complex number or a `Decimal` (no `numbers.Real`): TypeError. A
    number too large for a float, a long integer, is ValueError."""
    if isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError("number too large for a float") from None
    raise TypeError(f"expected a number, got {value!r}")


def store_floats(obj, **numbers) -> None:
    """Set fields of a frozen dataclass from its `__post_init__`, each as a
    Python float, or a tuple of them from a tuple: a value type converts its
    numbers here, once, when it is made, so a numpy number given to it (a
    float32 too) is computed on as a double. A Python float is stored as is."""
    for name, value in numbers.items():
        if type(value) is not float:
            value = tuple(map(as_float, value)) if type(value) is tuple else as_float(value)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Pose2D:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        store_floats(self, x=self.x, y=self.y, heading=self.heading)
        object.__setattr__(self, "heading", normalize_angle(self.heading))


@dataclass(frozen=True)
class OrientedRectangle:
    center: Pose2D
    half_length: float  # along heading
    half_width: float   # perpendicular to heading

    def __post_init__(self):
        store_floats(self, half_length=self.half_length, half_width=self.half_width)
        x, y, heading = self.center.x, self.center.y, self.center.heading
        hl, hw = self.half_length, self.half_width
        # NaN fails both comparisons; an infinite extent times |sin| = 0 is NaN
        if not (0.0 < hl < inf and 0.0 < hw < inf):
            raise ValueError("rectangle half-extents must be positive and finite")
        # one test for all three: v - v is 0.0 for a finite v, NaN otherwise
        if (x - x) + (y - y) + (heading - heading) != 0.0:
            raise ValueError("rectangle center and heading must be finite")
        # not a field: equality, hash and repr see the three fields alone
        object.__setattr__(self, "frame", (x, y, math.cos(heading), math.sin(heading), hl, hw))


class Frame(NamedTuple):
    """A rectangle as `closest_pair` reads it: its frame alone, (x, y, cos h,
    sin h, half_length, half_width). Unlike a rectangle it checks nothing;
    `frames` checks the poses it makes them from."""
    frame: tuple


# a frame or pair row is made by tuple's own constructor in C, not by the
# NamedTuple's Python-level __new__
_row = tuple.__new__


def frames(rows, half_length: float, half_width: float) -> list[Frame]:
    """The frames of rectangles of one size at rows (x, y, heading), each
    bit for bit the frame of the rectangle at `Pose2D(x, y, heading)`. The
    rows are computed poses, not input, and a frame skips the rectangle's
    finiteness check while `closest_pair` would read a NaN center as
    contact: a row that is not finite raises FloatingPointError."""
    out = []
    for x, y, heading in rows:
        if (x - x) + (y - y) + (heading - heading) != 0.0:  # as in OrientedRectangle
            raise FloatingPointError(f"non-finite pose ({x}, {y}, {heading})")
        heading = normalize_angle(heading)
        out.append(_row(Frame, ((x, y, cos(heading), sin(heading), half_length, half_width),)))
    return out


class ClosestPair(NamedTuple):
    """One row of the pair table: the distance, then the gap from A's
    closest point to B's; on contact 0.0, then the push that parts the
    pair. A query cut at `within` returns (inf, 0.0, 0.0) for a pair beyond
    it."""
    distance: float
    gap_x: float
    gap_y: float


def corners(rect: OrientedRectangle) -> list[tuple[float, float]]:
    """Four corners, counter-clockwise starting from front-left."""
    cx, cy, c, s, hl, hw = rect.frame
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return [(cx + c * lx - s * ly, cy + s * lx + c * ly) for lx, ly in local]


# the row beyond `within` is one shared, immutable instance
_BEYOND = ClosestPair(inf, 0.0, 0.0)

# a gap cuts a query only past within + _ROUNDING·(within + the four
# half-extents), far above the rounding error of a gap and of a distance
# near within (see `closest_pair`)
_ROUNDING = 2.0 ** -40

# the signs of u and v at corners c + u + v, c - u + v, c - u - v, c + u - v;
# ±1.0 times a float is exact, so a corner rebuilt from them is bit for bit
# the one that was measured
_CORNER_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def closest_pair(a: OrientedRectangle | Frame, b: OrientedRectangle | Frame,
                 within: float = inf) -> ClosestPair:
    """Minimum distance between two oriented rectangles, and the gap vector;
    the shared row (inf, 0.0, 0.0) when the rectangles are farther apart
    than `within`.

    From the two frames, (c, s) is B's heading in A's frame. Each center
    goes into the other's frame, where the other is the box
    |x| <= half_length, |y| <= half_width, and each rectangle's corners are
    its center ± u ± v: u = hl·(c, s), v = hw·(-s, c) for B, and for A the
    same with (c, -s). Along each of the four axes, a center's |coordinate|
    minus its own projected half-extent hl·|c| + hw·|s| (or hl·|s| + hw·|c|)
    and the other's half-extent is a separating-axis gap, a lower bound on
    the distance. The rectangles overlap (touching included) unless a gap is
    positive; overlapping ones get distance 0.0 and the push: the largest
    gap g, minus the least overlap, the first on ties in the order above,
    times that axis's world unit vector (A's (cos, sin) and (-sin, cos),
    then B's), with sign -g where the centers' offset along the axis, bx,
    by, -ax or -ay, is >= 0 and g elsewhere, so that it points from A's
    center to B's (+ where they are level).

    The cutoff: each gap and each corner distance below is within a few
    units in the last place of S = |dx| + |dy| + the four half-extents of
    its exact value. When the exact distance is at most `within`, so is
    every exact gap, and then S <= 4·(within + the half-extents). A query is
    cut only when a gap exceeds within by more than 2^-40·(within + the
    half-extents), far above that error, so a cut row's exact distance and
    the distance the full query would compute both exceed `within`, and
    every row at or inside it is bit for bit the uncut query's. The default
    `within` never cuts.

    Otherwise the distance is the smallest of the 8 corner-to-box
    distances: the minimum between disjoint convex polygons is reached at a
    vertex of one of them, and the 8 are the same in either argument order.
    A corner (x, y) has e = |x| - half_length and f = |y| - half_width.
    Beside a face only one is positive and is the distance; past a vertex
    both are, and the distance is hypot(e, f). That is bit for bit the
    length of the corner minus its clamp to the box: |x - clamp(x)| is
    |x| - half_length, and hypot(e, 0) is e. The 8 are written out with no
    loop or helper, A's corners c + u + v, c - u + v, c - u - v, c + u - v
    in B's frame, then B's in A's, against one running minimum; the first
    strict minimum wins, so ties go to A's corners. A corner whose e or f is
    already at or above the running minimum is at least that far, since
    hypot(e, f) >= max(e, f) holds in floating point too, so it can be no
    strict minimum: it gets no hypot, and past such an e no f. B's corners
    start from A's minimum and replace it only when strictly nearer, so the
    winner is the one the full search picks, and so is its distance. The winner's corner is rebuilt from its signs and its
    corner-minus-clamp vector is the gap in the other's frame: B's corner's
    is turned by A's heading, A's corner's by B's heading and negated.
    Facing parallel sides have many closest pairs but one gap, so any
    corner at the minimum gives it.
    """
    xa, ya, ca, sa, hla, hwa = a.frame
    xb, yb, cb, sb, hlb, hwb = b.frame
    c, s = ca * cb + sa * sb, ca * sb - sa * cb
    dx, dy = xb - xa, yb - ya
    bx, by = ca * dx + sa * dy, ca * dy - sa * dx  # B's center in A's frame
    ax, ay = -(cb * dx + sb * dy), sb * dx - cb * dy  # A's center in B's frame
    ac, as_ = abs(c), abs(s)
    # the separating-axis gaps along A's axes, then along B's
    gx, gy = abs(bx) - (hlb * ac + hwb * as_) - hla, abs(by) - (hlb * as_ + hwb * ac) - hwa
    hx, hy = abs(ax) - (hla * ac + hwa * as_) - hlb, abs(ay) - (hla * as_ + hwa * ac) - hwb
    if not (gx > 0.0 or gy > 0.0 or hx > 0.0 or hy > 0.0):
        # the axis of largest gap, the first on ties: keyed on the gap alone.
        # B's center on A's axes is +(bx, by), and on B's own axes B - A is -(ax, ay)
        g, ux, uy, side = max((gx, ca, sa, bx), (gy, -sa, ca, by), (hx, cb, sb, -ax),
                              (hy, -sb, cb, -ay), key=lambda row: row[0])
        depth = -g if side >= 0.0 else g
        return _row(ClosestPair, (0.0, depth * ux, depth * uy))
    if gx > within or gy > within or hx > within or hy > within:
        cut = within + (within + hla + hwa + hlb + hwb) * _ROUNDING
        if gx > cut or gy > cut or hx > cut or hy > cut:
            return _BEYOND

    # corners c + u + v, c - u + v, c - u - v, c + u - v: A's in B's frame
    # (k = 0-3), then B's in A's (k = 4-7); (e, f) is |corner| minus the
    # other's half-extents, and d the running minimum of the corners'
    # distances to the other's box
    ubx, uby, vbx, vby = hlb * c, hlb * s, -(hwb * s), hwb * c
    uax, uay, vax, vay = hla * c, -(hla * s), hwa * s, hwa * c
    px, py, mx, my = ax + uax, ay + uay, ax - uax, ay - uay
    e, f = abs(px + vax) - hlb, abs(py + vay) - hwb
    d = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
    k = 0
    e = abs(mx + vax) - hlb
    if e < d:
        f = abs(my + vay) - hwb
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 1
    e = abs(mx - vax) - hlb
    if e < d:
        f = abs(my - vay) - hwb
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 2
    e = abs(px - vax) - hlb
    if e < d:
        f = abs(py - vay) - hwb
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 3
    px, py, mx, my = bx + ubx, by + uby, bx - ubx, by - uby
    e = abs(px + vbx) - hla
    if e < d:
        f = abs(py + vby) - hwa
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 4
    e = abs(mx + vbx) - hla
    if e < d:
        f = abs(my + vby) - hwa
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 5
    e = abs(mx - vbx) - hla
    if e < d:
        f = abs(my - vby) - hwa
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 6
    e = abs(px - vbx) - hla
    if e < d:
        f = abs(py - vby) - hwa
        if f < d:
            dk = (hypot(e, f) if f > 0.0 else e) if e > 0.0 else f if f > 0.0 else 0.0
            if dk < d: d, k = dk, 7
    if k > 3:  # B's corner minus its clamp to A's box, turned by A's heading
        su, sv = _CORNER_SIGNS[k - 4]
        x, y = bx + su * ubx + sv * vbx, by + su * uby + sv * vby
        fx = x - hla if x > hla else x + hla if x < -hla else 0.0
        fy = y - hwa if y > hwa else y + hwa if y < -hwa else 0.0
        return _row(ClosestPair, (d, ca * fx - sa * fy, sa * fx + ca * fy))
    # A's corner minus its clamp to B's box points from B to A: turned by B's
    # heading and negated
    su, sv = _CORNER_SIGNS[k]
    x, y = ax + su * uax + sv * vax, ay + su * uay + sv * vay
    ex = x - hlb if x > hlb else x + hlb if x < -hlb else 0.0
    ey = y - hwb if y > hwb else y + hwb if y < -hwb else 0.0
    return _row(ClosestPair, (d, -(cb * ex - sb * ey), -(sb * ex + cb * ey)))

