import math

import numpy as np
import pytest

from povmlab.generators import make_rng
from povmlab.geometry import (
    FourVector,
    RegionUnion,
    SpacetimeBox,
    causally_separated,
    lab_contains,
    spatial_distance,
    translate_region,
)


def box(lo, hi):
    return SpacetimeBox(FourVector(*lo), FourVector(*hi))


def region(*boxes):
    return RegionUnion(list(boxes))


UNIT_CUBE_T0 = box((0, 0, 0, 0), (0, 1, 1, 1))
FAR_SLAB_T0 = box((0, 3, 0, 0), (0, 4, 1, 1))


def random_box(rng, extent=3.0, dt=2.0):
    lo = np.array(
        [rng.uniform(-dt, dt), *rng.uniform(-extent, extent, 3)]
    )
    size = np.array([rng.uniform(0, 1.0), *rng.uniform(0, 2.0, 3)])
    return box(tuple(lo), tuple(lo + size))


def mc_separated_oracle(a: SpacetimeBox, b: SpacetimeBox, rng, samples=2000, band=1e-9):
    """Monte-Carlo point-pair oracle: all sampled difference vectors must be
    spacelike; pairs within the cone band are excluded.  Returns None when
    every sample landed in the band (no verdict)."""
    alo = np.array(a.lo.components())
    ahi = np.array(a.hi.components())
    blo = np.array(b.lo.components())
    bhi = np.array(b.hi.components())
    p = alo + rng.random((samples, 4)) * (ahi - alo)
    q = blo + rng.random((samples, 4)) * (bhi - blo)
    d = p - q
    interval = -d[:, 0] ** 2 + (d[:, 1:] ** 2).sum(axis=1)
    keep = np.abs(interval) > band
    if not keep.any():
        return None
    return bool((interval[keep] > 0).all())


def points_separated(v: FourVector, tol: float = 1e-9) -> bool:
    """causally_separated for the point regions {0} and {v}."""
    origin = FourVector()
    return causally_separated(region(SpacetimeBox(origin, origin)),
                              region(SpacetimeBox(v, v)), tol)


class TestPointSeparation:
    """Two points are separated iff their difference is spacelike beyond the
    cone band; each causal class of the difference is read on point regions."""

    def test_unit_time_displacement(self):
        assert not points_separated(FourVector(1, 0, 0, 0))

    def test_unit_space_displacement(self):
        assert points_separated(FourVector(0, 1, 0, 0))

    def test_null_ray_is_not_separated(self):
        assert not points_separated(FourVector(1, 1, 0, 0))

    def test_past_displacements(self):
        assert not points_separated(FourVector(-1, 0, 0, 0))
        assert not points_separated(FourVector(-1, 1, 0, 0))
        assert points_separated(FourVector(-1, 2, 0, 0))

    def test_coincident_points_are_not_separated(self):
        assert not points_separated(FourVector(0, 0, 0, 0))
        assert points_separated(FourVector(0, 2, 0, 0))

    def test_tolerance_band(self):
        v = FourVector(1.0, 1.0 + 1e-12, 0, 0)
        assert not points_separated(v, tol=1e-9)
        assert points_separated(v, tol=0.0)

    def test_agrees_with_the_sign_of_the_interval(self):
        rng = make_rng(41)
        checked = 0
        for _ in range(200):
            v = FourVector(*rng.normal(size=4))
            if abs(v.interval()) <= 1e-6:
                continue
            checked += 1
            assert points_separated(v) == (v.interval() > 0)
            assert points_separated(v) == points_separated(-v)
        assert checked >= 190


class TestSeparation:
    def test_self_intersection(self):
        r = region(UNIT_CUBE_T0)
        assert not causally_separated(r, r)

    def test_spacelike_gap_beats_time_shift(self):
        shifted = FAR_SLAB_T0.translate(FourVector(1.0, 0, 0, 0))
        assert causally_separated(region(UNIT_CUBE_T0), region(shifted))

    def test_causal_overlap_at_large_time_shift(self):
        shifted = FAR_SLAB_T0.translate(FourVector(2.5, 0, 0, 0))
        assert not causally_separated(region(UNIT_CUBE_T0), region(shifted))
        # spatial projections that overlap are never separated, at any time gap
        ring = box((0, 0, 0, 0), (0, 16, 0, 0))
        later = ring.translate(FourVector(3.0, 0, 0, 0))
        assert not causally_separated(region(ring), region(later))

    def test_frame_mismatch_rejected(self):
        # frames differ by a boost-like unit timelike vector
        boosted = RegionUnion([UNIT_CUBE_T0], FourVector(np.cosh(0.5), np.sinh(0.5), 0, 0))
        with pytest.raises(ValueError, match="frame"):
            causally_separated(region(UNIT_CUBE_T0), boosted)

    def test_symmetry(self):
        rng = make_rng(42)
        for _ in range(50):
            a, b = region(random_box(rng)), region(random_box(rng))
            assert causally_separated(a, b) == causally_separated(b, a)

    def test_monotone_under_shrinking(self):
        rng = make_rng(43)
        count = 0
        while count < 30:
            a_box, b = random_box(rng), region(random_box(rng))
            if not causally_separated(region(a_box), b):
                continue
            count += 1
            lo = np.array(a_box.lo.components())
            hi = np.array(a_box.hi.components())
            mid_lo = lo + 0.25 * (hi - lo)
            mid_hi = hi - 0.25 * (hi - lo)
            inner = box(tuple(mid_lo), tuple(mid_hi))
            assert causally_separated(region(inner), b)

    def test_monte_carlo_oracle_agreement(self):
        rng = make_rng(44)
        checked = 0
        for _ in range(120):
            a, b = random_box(rng), random_box(rng)
            verdict = causally_separated(region(a), region(b))
            oracle = mc_separated_oracle(a, b, rng)
            if oracle is None:
                continue
            checked += 1
            if verdict:
                assert oracle, "closed form separated but oracle found a causal pair"
            # oracle=True with verdict=False can happen only near the cone;
            # confirm by checking the closed-form margin is tiny
        assert checked >= 100

    def test_union_separation_requires_all_pairs(self):
        far = FAR_SLAB_T0.translate(FourVector(1.0, 0, 0, 0))  # gap 2 > dt 1
        near = box((1.0, 1.5, 0, 0), (1.0, 2.0, 1, 1))  # gap 0.5 < dt 1
        assert causally_separated(region(UNIT_CUBE_T0), region(far))
        assert not causally_separated(region(UNIT_CUBE_T0), region(near))
        assert not causally_separated(region(UNIT_CUBE_T0), RegionUnion([far, near]))


class TestLabContains:
    DELTA0 = box((0, -1, -1, -1), (0, 1, 1, 1))

    def test_ball_fits(self):
        assert lab_contains(FourVector(0.5, 0, 0, 0), self.DELTA0)

    def test_ball_exceeds(self):
        assert not lab_contains(FourVector(1.5, 0, 0, 0), self.DELTA0)

    def test_plane_membership_is_spatial_membership(self):
        rng = make_rng(45)
        for _ in range(100):
            p = FourVector(0.0, *rng.uniform(-1.5, 1.5, 3))
            assert lab_contains(p, self.DELTA0) == self.DELTA0.contains_point(p)

    def test_non_spatial_base_rejected(self):
        thick = box((0, 0, 0, 0), (1, 1, 1, 1))
        with pytest.raises(ValueError, match="spatial"):
            lab_contains(FourVector(0, 0, 0, 0), thick)

    def test_causal_line_sampling_oracle(self):
        # p is in the causal completion iff every causal line through p meets
        # the base; sample unit-speed-or-slower directions as the oracle
        rng = make_rng(46)
        for _ in range(200):
            p = FourVector(rng.uniform(-1.5, 1.5), *rng.uniform(-1.5, 1.5, 3))
            verdict = lab_contains(p, self.DELTA0)
            hits = []
            for _ in range(64):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                speed = rng.uniform(0, 1.0)
                landing = np.array(p.spatial()) - p.t * speed * u
                hits.append(self.DELTA0.contains_point(FourVector(0.0, *landing), tol=1e-12))
            if verdict:
                assert all(hits)
            # sampling may miss the single escaping line, so only the
            # containment direction is asserted strictly


class TestSpatialDistance:
    def test_single_axis_gap(self):
        assert spatial_distance(UNIT_CUBE_T0, FAR_SLAB_T0) == pytest.approx(2.0, abs=1e-15)

    def test_overlap_is_zero(self):
        other = box((0, 0.5, 0, 0), (0, 2, 1, 1))
        assert spatial_distance(UNIT_CUBE_T0, other) == 0.0

    def test_diagonal_gap(self):
        a = box((0, 0, 0, 0), (0, 1, 1, 1))
        b = box((0, 2, 2, 0), (0, 3, 3, 1))
        assert spatial_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_clamp_formula_matches_dense_sampling(self):
        rng = make_rng(47)
        for _ in range(20):
            a = random_box(rng)
            b = random_box(rng)
            a = box((0, *a.lo.components()[1:]), (0, *a.hi.components()[1:]))
            b = box((0, *b.lo.components()[1:]), (0, *b.hi.components()[1:]))
            d = spatial_distance(a, b)
            alo, ahi = np.array(a.lo.components()[1:]), np.array(a.hi.components()[1:])
            blo, bhi = np.array(b.lo.components()[1:]), np.array(b.hi.components()[1:])
            ps = alo + rng.random((400, 3)) * (ahi - alo)
            qs = blo + rng.random((400, 3)) * (bhi - blo)
            sampled = np.linalg.norm(ps - qs, axis=1).min()
            assert d <= sampled + 1e-12

    def test_different_planes_rejected(self):
        with pytest.raises(ValueError, match="rest planes"):
            spatial_distance(UNIT_CUBE_T0, FAR_SLAB_T0.translate(FourVector(1, 0, 0, 0)))


class TestTranslate:
    def test_zero_shift(self):
        r = region(UNIT_CUBE_T0, FAR_SLAB_T0)
        out = translate_region(r, FourVector(0, 0, 0, 0))
        assert out.boxes == r.boxes

    def test_round_trip_bit_exact_on_dyadic_shift(self):
        r = region(UNIT_CUBE_T0, FAR_SLAB_T0)
        v = FourVector(0.5, -0.25, 2.0, -8.0)
        out = translate_region(translate_region(r, v), -v)
        assert out.boxes == r.boxes

    def test_time_axis_shift(self):
        r = region(UNIT_CUBE_T0)
        out = translate_region(r, FourVector(0.5, 0, 0, 0))
        assert out.boxes[0].lo.t == 0.5
        assert out.boxes[0].hi.t == 0.5
        assert out.boxes[0].lo.x == UNIT_CUBE_T0.lo.x


class TestMicrocausalityGeometry:
    def test_separation_persists_below_spatial_distance(self):
        # for disjoint spatial boxes at distance d, the time-translated pair
        # stays causally separated for every |t| < d
        rng = make_rng(48)
        tested = 0
        while tested < 100:
            a = random_box(rng)
            b = random_box(rng)
            a = box((0, *a.lo.components()[1:]), (0, *a.hi.components()[1:]))
            b = box((0, *b.lo.components()[1:]), (0, *b.hi.components()[1:]))
            d = spatial_distance(a, b)
            if d <= 1e-6:
                continue
            tested += 1
            for frac in (-0.95, -0.5, 0.25, 0.5, 0.95):
                t = frac * d
                shifted = translate_region(region(b), FourVector(t, 0, 0, 0))
                assert causally_separated(region(a), shifted)
            beyond = translate_region(region(b), FourVector(1.5 * d, 0, 0, 0))
            assert not causally_separated(region(a), beyond)


# the constructions causally_separated and spatial_distance used before they
# shared one spatial gap, kept as their oracles
def _old_interval_gap(lo1, hi1, lo2, hi2):
    return max(0.0, lo2 - hi1, lo1 - hi2)


def _old_gap_sq(a, b):
    gap_sq = 0.0
    for (lo1, hi1), (lo2, hi2) in zip(a.spatial_intervals(), b.spatial_intervals()):
        g = _old_interval_gap(lo1, hi1, lo2, hi2)
        gap_sq += g * g
    return gap_sq


def _old_separated(a, b, tol=1e-9):
    def pair(p, q):
        dt_max = max(abs(p.lo.t - q.hi.t), abs(p.hi.t - q.lo.t))
        return math.sqrt(_old_gap_sq(p, q)) - dt_max > tol
    return all(pair(p, q) for p in a.boxes for q in b.boxes)


class TestOneSpatialGap:
    """Both predicates read one spatial gap, bit-equal to their old
    constructions on seeded boxes."""

    def test_spatial_distance_equals_the_old_construction(self):
        rng = make_rng(71)
        for _ in range(300):
            t = float(rng.uniform(-2.0, 2.0))
            a, b = random_box(rng), random_box(rng)
            a = box((t, *a.lo.components()[1:]), (t, *a.hi.components()[1:]))
            b = box((t, *b.lo.components()[1:]), (t, *b.hi.components()[1:]))
            assert spatial_distance(a, b) == math.sqrt(_old_gap_sq(a, b))

    def test_causally_separated_equals_the_old_construction(self):
        rng = make_rng(72)
        verdicts = set()
        for _ in range(300):
            a = region(*(random_box(rng, extent=4.0) for _ in range(int(rng.integers(1, 3)))))
            b = region(*(random_box(rng, extent=4.0) for _ in range(int(rng.integers(1, 3)))))
            verdict = causally_separated(a, b)
            assert verdict == _old_separated(a, b)
            verdicts.add(verdict)
        assert verdicts == {True, False}
