"""Exact causal-structure predicates for axis-aligned box regions of
Minkowski spacetime.

Metric signature is (-,+,+,+) with c = 1 throughout.  Regions are finite
unions of closed boxes expressed in the adapted coordinates of one reference
frame, which makes separation, distance, and causal-completion membership
decidable in closed form.  Boundary (null) cases are resolved by a tolerance
band: "separated" requires strict spacelikeness beyond the band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

CONE_TOL = 1e-9


@dataclass(frozen=True)
class FourVector:
    t: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def interval(self) -> float:
        """g(v, v) = -t^2 + x^2 + y^2 + z^2."""
        return -self.t * self.t + self.x * self.x + self.y * self.y + self.z * self.z

    def inf_norm(self) -> float:
        return max(abs(self.t), abs(self.x), abs(self.y), abs(self.z))

    def spatial(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.t, -self.x, -self.y, -self.z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.t, self.x, self.y, self.z)

    def is_unit_future_timelike(self, tol: float = CONE_TOL) -> bool:
        return abs(self.interval() + 1.0) <= tol and self.t > 0.0


TIME_AXIS = FourVector(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SpacetimeBox:
    """Closed axis-aligned box [lo, hi] per coordinate; degenerate (zero
    width) intervals are allowed, e.g. spatial boxes on a rest plane have
    lo.t == hi.t."""

    lo: FourVector
    hi: FourVector

    def __post_init__(self) -> None:
        for a, b, name in zip(self.lo.components(), self.hi.components(), "txyz"):
            if a > b:
                raise ValueError(f"box has lo.{name} > hi.{name}: {a} > {b}")

    @property
    def is_spatial(self) -> bool:
        return self.lo.t == self.hi.t

    @property
    def time(self) -> float:
        if not self.is_spatial:
            raise ValueError("box is not a spatial box (lo.t != hi.t)")
        return self.lo.t

    def translate(self, v: FourVector) -> "SpacetimeBox":
        return SpacetimeBox(self.lo + v, self.hi + v)

    def contains_point(self, p: FourVector, tol: float = 0.0) -> bool:
        return all(
            lo - tol <= c <= hi + tol
            for lo, c, hi in zip(self.lo.components(), p.components(), self.hi.components())
        )

    def contains_box(self, other: "SpacetimeBox") -> bool:
        return self.contains_point(other.lo) and self.contains_point(other.hi)

    def spatial_intervals(self) -> list[tuple[float, float]]:
        los = self.lo.components()[1:]
        his = self.hi.components()[1:]
        return list(zip(los, his))


@dataclass(frozen=True)
class RegionUnion:
    """Finite union of boxes in the adapted coordinates of one frame."""

    boxes: tuple[SpacetimeBox, ...]
    frame: FourVector = TIME_AXIS

    def __init__(self, boxes, frame: FourVector = TIME_AXIS):
        boxes = tuple(boxes)
        if not boxes:
            raise ValueError("a region needs at least one box")
        if not frame.is_unit_future_timelike():
            raise ValueError("frame must be a unit future-directed timelike vector")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "frame", frame)


def _same_frame(a: RegionUnion, b: RegionUnion, tol: float = CONE_TOL) -> None:
    if (a.frame - b.frame).inf_norm() > tol:
        raise ValueError(f"frame mismatch: {a.frame} vs {b.frame}")


def _spatial_gap(a: SpacetimeBox, b: SpacetimeBox) -> float:
    """Euclidean distance between the spatial projections of two boxes, from
    the per-axis gaps between closed intervals (0 where they intersect)."""
    gap_sq = 0.0
    for (lo1, hi1), (lo2, hi2) in zip(a.spatial_intervals(), b.spatial_intervals()):
        g = max(0.0, lo2 - hi1, lo1 - hi2)
        gap_sq += g * g
    return math.sqrt(gap_sq)


def causally_separated(a: RegionUnion, b: RegionUnion, tol: float = CONE_TOL) -> bool:
    """True iff neither region meets the causal future or past of the other.

    For box unions this is decided exactly: every pair of boxes must have all
    difference vectors spacelike, strictly beyond the tolerance band.  The
    per-coordinate difference set {p - q} of two boxes is itself a box; every
    difference vector is spacelike iff the largest |dt| is beaten by the
    smallest Euclidean norm of the spatial projection.
    """
    _same_frame(a, b)
    return all(
        _spatial_gap(ba, bb) - max(abs(ba.lo.t - bb.hi.t), abs(ba.hi.t - bb.lo.t)) > tol
        for ba in a.boxes for bb in b.boxes
    )


def spatial_distance(a: SpacetimeBox, b: SpacetimeBox, tol: float = CONE_TOL) -> float:
    """Euclidean distance between spatial boxes on a common rest plane
    (0 when they intersect)."""
    if not (a.is_spatial and b.is_spatial):
        raise ValueError("both boxes must be spatial (lo.t == hi.t)")
    if abs(a.time - b.time) > tol:
        raise ValueError(f"boxes lie on different rest planes: t={a.time} vs t={b.time}")
    return _spatial_gap(a, b)


def translate_region(region: RegionUnion, v: FourVector) -> RegionUnion:
    return RegionUnion([box.translate(v) for box in region.boxes], region.frame)


def lab_contains(p: FourVector, delta0: SpacetimeBox, tol: float = 1e-12) -> bool:
    """Membership in the causal completion (laboratory) of a spatial box.

    p belongs to the causal completion of the convex spatial set delta0 iff
    every causal straight line through p meets delta0, i.e. iff the closed
    Euclidean ball of radius |p.t - t0| around p's spatial part fits inside
    the box.  Exact for a single convex box; for unions, apply per box (inner
    approximation).
    """
    if not delta0.is_spatial:
        raise ValueError("laboratory base must be a spatial box (lo.t == hi.t)")
    r = abs(p.t - delta0.time)
    for (lo, hi), c in zip(delta0.spatial_intervals(), p.spatial()):
        if c - r < lo - tol or c + r > hi + tol:
            return False
    return True


def region_contains_box(region: RegionUnion, box: SpacetimeBox) -> bool:
    """Sufficient single-box cover test: some box of the union contains
    ``box`` entirely."""
    return any(b.contains_box(box) for b in region.boxes)
