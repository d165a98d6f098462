"""Acceptance suite: one test per criterion, each ending in a PASS line.

Every tolerance is pinned here; calibrated floors carry a comment naming the
calibration run that fixed them.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines as they print).
"""
import json
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from povmlab.conditional import (
    build_conditional,
    composition_identity_check,
    conditional_prob_bound,
    gentle_sides,
)
from povmlab.generators import (
    commuting_povm_pair,
    haar_unitary,
    make_rng,
    random_effect,
    random_povm,
    random_state,
)
from povmlab.geometry import (
    FourVector,
    RegionUnion,
    SpacetimeBox,
    causally_separated,
    lab_contains,
    spatial_distance,
    translate_region,
)
from povmlab.lattice import (
    build_alternating_system,
    build_diagonal_smeared_system,
    build_frame_smeared_system,
    build_sharp_system,
    cc_residual,
    effect_of,
    hc_audit,
    projector_screening_identity,
)
from povmlab.linalg import commutator, dag, op_norm, psd_sqrt
from povmlab.measurement import DiscretePOVM, luders_instrument
from povmlab.scenarios import parse_scenarios, run_scenarios
from povmlab.signaling import (
    SearchWitness,
    beck_check,
    commutator_residual,
    heinosaari_wolf_search,
    luders_equivalence_check,
    nsc_deviation,
)

MASTER_SEED = 20260808

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * np.ones((2, 2), dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def report(n, text):
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {text}")


@pytest.fixture(scope="module")
def smeared16():
    return build_frame_smeared_system(16, 1.0, 1.0, 1.5)


def test_criterion_1_gentle_measurement_bound():
    """10^4 random (effect, state) pairs in dims 2-8: margin >= -1e-9, zero
    violations; qubit closed form reproduced to 1e-12; under 60 s."""
    start = time.time()
    rng = make_rng(MASTER_SEED, 1)
    violations = 0
    checked = 0
    worst = np.inf
    while checked < 10_000:
        dim = 2 + checked % 7  # cycles dims 2..8
        T = random_effect(dim, rng)
        rho = random_state(dim, rng)
        if float(np.trace(rho @ T).real) <= 1e-9:
            continue
        _, distance, bound = gentle_sides(T, rho)
        margin = bound - distance
        worst = min(worst, margin)
        if margin < -1e-9:
            violations += 1
        checked += 1
    assert violations == 0, f"{violations} gentle-bound violations, worst margin {worst:.3e}"

    _, distance, bound = gentle_sides(np.diag([1.0, 0.5]), np.eye(2) / 2)
    assert abs(distance - 1.0 / 3.0) <= 1e-12
    assert abs(bound - 1.25) <= 1e-12

    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"10^4 pairs, zero violations (worst margin {worst:.3e}), "
              f"qubit pin exact, {elapsed:.1f}s")


def test_criterion_2_luders_equivalence():
    """Commuting pairs: both deviations <= 1e-10.  Noncommuting pairs with
    commutator >= 0.1: nsc above the calibrated floor 1e-8 (observed minimum
    2.3e-2 at calibration).  Qubit witness values exact to 1e-12.  < 120 s."""
    start = time.time()
    rng = make_rng(MASTER_SEED, 2)

    for i in range(1000):
        dim = 2 + i % 4
        T, S = commuting_povm_pair(dim, rng)
        rep = luders_equivalence_check(T, S)
        nsc, rcc = rep.residual("nsc_deviation"), rep.residual("rcc_deviation")
        assert nsc <= 1e-10, f"commuting pair {i}: nsc {nsc:.3e}"
        assert rcc <= 1e-10, f"commuting pair {i}: rcc {rcc:.3e}"

    floor = 1e-8
    kept = 0
    below_floor = []
    while kept < 1000:
        dim = int(rng.integers(2, 6))
        T = random_povm(dim, 2, rng)
        S = random_povm(dim, 2, rng)
        comm = commutator_residual(T, S)
        if comm < 0.1:
            continue
        kept += 1
        instr = luders_instrument(T)
        nsc = max(nsc_deviation(instr, Si) for Si in S.effects)
        if nsc < floor:
            # automatic recheck: recompute the commutator exactly and record
            recheck = commutator_residual(T, S)
            below_floor.append((kept, nsc, recheck))
    assert not below_floor, f"below-floor samples (idx, nsc, commutator): {below_floor}"

    witness = luders_equivalence_check(DiscretePOVM([P0, P1]), DiscretePOVM([PLUS, MINUS]))
    assert abs(witness.residual("nsc_deviation") - 0.5) <= 1e-12
    assert abs(witness.residual("rcc_deviation") - 0.25) <= 1e-12
    assert abs(witness.residual("commutator_residual") - 0.5) <= 1e-12

    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
    report(2, f"10^3 commuting + 10^3 noncommuting pairs, qubit witness "
              f"(0.5, 0.25, 0.5) exact, {elapsed:.1f}s")


def test_criterion_3_beck_direction_and_search():
    """kappa <= 1e-12 forces d1, d2 <= 1e-10 on 10^3 constructed instances;
    one counterexample draw per seed is a witness at dims 3-4, all 8 seeds."""
    rng = make_rng(MASTER_SEED, 3)
    checked = 0
    for i in range(1000):
        dim = 2 + i % 3
        T, S_povm = commuting_povm_pair(dim, rng)
        S = S_povm[0]
        rep = beck_check(luders_instrument(T), S, tol=1e-12)
        if rep.residual("kraus_commutator") <= 1e-12:
            checked += 1
            assert rep.residual("nsc_deviation") <= 1e-10
            assert rep.residual("nsc_deviation_squared") <= 1e-10
    assert checked >= 900, f"only {checked} instances reached kappa <= 1e-12"

    for seed in range(8):
        dim = 3 + seed % 2
        result = heinosaari_wolf_search(dim, seed=seed)
        assert isinstance(result, SearchWitness)
        d1 = nsc_deviation(result.instrument, result.effect)
        d2 = nsc_deviation(result.instrument, result.effect @ result.effect)
        assert d1 <= 1e-9, f"seed {seed}: witness fails reverification d1={d1:.3e}"
        assert d2 >= 1e-3, f"seed {seed}: witness fails reverification d2={d2:.3e}"
    report(3, f"forward direction on {checked} commuting instances; one draw "
              "per seed is a witness at 8/8 seeds")


def test_criterion_4_conditional_povm(smeared16):
    """Every laboratory of size 4, 6, 8 on the n=16, width=1.5 lattice:
    normalization, in-lab additivity, and effect bounds within 1e-10; exact
    conditional identity on 100 random states; gentle bound on a delta <=
    0.01 state; under 60 s."""
    start = time.time()
    eye = np.eye(16)
    count = 0
    for size in (4, 6, 8):
        for combo in combinations(range(16), size):
            lab = frozenset(combo)
            cond = build_conditional(smeared16, lab)
            cells = sorted(lab)
            left = frozenset(cells[: size // 2])
            B_lab = cond.effect(lab)
            B_left = cond.effect(left)
            B_right = cond.effect(lab - left)
            assert op_norm(B_lab - eye) <= 1e-10, f"normalization fails at {cells}"
            assert op_norm(B_left + B_right - B_lab) <= 1e-10, f"additivity fails at {cells}"
            w = np.linalg.eigvalsh(B_left)
            assert w[0] >= -1e-10 and w[-1] <= 1 + 1e-10, f"bounds fail at {cells}"
            count += 1

    # exhaustive 2-partition additivity on one representative lab per size
    for size in (4, 6, 8):
        lab = frozenset(range(4, 4 + size))
        rep = build_conditional(smeared16, lab).validate()
        assert rep.passed
        assert rep.residual("in_lab_additivity") <= 1e-10

    # exact conditional identity: tr(rho' B(cells)) = tr(rho A)/tr(rho A0)
    rng = make_rng(MASTER_SEED, 4)
    lab = frozenset(range(5, 11))
    cond = build_conditional(smeared16, lab)
    A_lab = effect_of(smeared16, lab)
    root = psd_sqrt(A_lab)
    for _ in range(100):
        rho = random_state(16, rng)
        p_lab = float(np.trace(rho @ A_lab).real)
        rho_cond = root @ rho @ root / p_lab
        for cells in ({5, 6}, {7, 8, 9}):
            fraction = float(np.trace(rho @ effect_of(smeared16, cells)).real) / p_lab
            lhs = float(np.trace(rho_cond @ cond.effect(cells)).real)
            assert abs(lhs - fraction) <= 1e-10

    # delta <= 0.01 needs nearly the whole ring as the laboratory at this
    # smearing width (calibrated: delta = 0.0094 at sharpness 0.95, |lab|=15)
    tight_sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5, sharpness=0.95)
    tight_lab = frozenset(range(15))
    A0 = effect_of(tight_sys, tight_lab)
    w, V = np.linalg.eigh(A0)
    rho = np.outer(V[:, -1], V[:, -1].conj())
    delta = 1.0 - float(np.trace(rho @ A0).real)
    assert delta <= 0.01, f"constructed state has delta {delta:.4f} > 0.01"
    for cells in ({3, 4, 5}, {7}, frozenset(range(8))):
        rep = conditional_prob_bound(tight_sys, cells, tight_lab, rho)
        assert rep.passed
        assert rep.residual("fraction_vs_B_difference") <= 2 * np.sqrt(delta) + delta + 1e-9

    elapsed = time.time() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(4, f"{count} laboratories of sizes 4/6/8 within 1e-10; exact identity "
              f"on 100 states; delta={delta:.4f} bound holds, {elapsed:.1f}s")


def test_criterion_5_composition_identity(smeared16):
    """Displayed cross-laboratory identity within 1e-10 on adjacent disjoint
    labs; plain additivity failure > 0 for the frame-smeared system; the
    weighted (law-of-total-probability) gap vanishes to 1e-12 for the
    diagonal-smeared system."""
    lab1, lab2 = frozenset({2, 3, 4, 5}), frozenset({6, 7, 8, 9})

    rep = composition_identity_check(smeared16, lab1, lab2)
    assert rep.residual("identity_residual") <= 1e-10
    plain_gap = rep.residual("plain_additivity_gap")
    weighted_gap = rep.residual("weighted_additivity_gap")
    assert plain_gap > 0.0
    assert weighted_gap > 1e-6  # genuinely noncommutative obstruction

    diag = build_diagonal_smeared_system(16, 1.0, 1.0, 1.5)
    rep_d = composition_identity_check(diag, lab1, lab2)
    assert rep_d.residual("identity_residual") <= 1e-10
    assert rep_d.residual("weighted_additivity_gap") <= 1e-12
    # the unweighted sum fails even for the commuting model: conditional
    # probabilities with different conditioning events never add
    assert rep_d.residual("plain_additivity_gap") > 0.0

    report(5, f"identity <= 1e-10; frame-smeared gaps (plain {plain_gap:.3f}, "
              f"weighted {weighted_gap:.3e}); diagonal weighted gap "
              f"{rep_d.residual('weighted_additivity_gap'):.1e}")


def _random_spatial_box(rng, extent=3.0):
    lo = np.array([0.0, *rng.uniform(-extent, extent, 3)])
    size = np.array([0.0, *rng.uniform(0.1, 2.0, 3)])
    return SpacetimeBox(FourVector(*lo), FourVector(*(lo + size)))


def _random_box(rng, extent=3.0, dt=2.0):
    lo = np.array([rng.uniform(-dt, dt), *rng.uniform(-extent, extent, 3)])
    size = np.array([rng.uniform(0.0, 1.0), *rng.uniform(0.0, 2.0, 3)])
    return SpacetimeBox(FourVector(*lo), FourVector(*(lo + size)))


def test_criterion_6_causal_geometry():
    """Closed-form separation agrees with the 10^4-sample Monte-Carlo oracle
    on 100 random box pairs outside the 1e-9 cone band; causal-completion
    membership agrees with the causal-line oracle on 10^3 points per box;
    separation persists under time translation below the spatial distance."""
    rng = make_rng(MASTER_SEED, 6)

    # (a) separation vs Monte-Carlo point-pair oracle
    agreed = 0
    pair = 0
    while agreed < 100 and pair < 400:
        pair += 1
        a, b = _random_box(rng), _random_box(rng)
        verdict = causally_separated(RegionUnion([a]), RegionUnion([b]))
        alo, ahi = np.array(a.lo.components()), np.array(a.hi.components())
        blo, bhi = np.array(b.lo.components()), np.array(b.hi.components())
        p = alo + rng.random((10_000, 4)) * (ahi - alo)
        q = blo + rng.random((10_000, 4)) * (bhi - blo)
        d = p - q
        interval = -d[:, 0] ** 2 + (d[:, 1:] ** 2).sum(axis=1)
        keep = np.abs(interval) > 1e-9
        if not keep.any():
            continue
        oracle_all_spacelike = bool((interval[keep] > 0).all())
        if verdict:
            assert oracle_all_spacelike, "closed form claims separation, oracle found a causal pair"
        else:
            # non-separation must be witnessed by some sampled causal pair
            # unless the causal overlap is thinner than the sampler (skip)
            if oracle_all_spacelike:
                continue
        agreed += 1
    assert agreed >= 100

    # (b) laboratory membership vs causal-line oracle
    for _ in range(5):
        base = _random_spatial_box(rng)
        lob = np.array(base.lo.components())[1:]
        hib = np.array(base.hi.components())[1:, ]
        for _ in range(1000):
            p = FourVector(rng.uniform(-2, 2), *rng.uniform(-4, 4, 3))
            verdict = lab_contains(p, base)
            r = abs(p.t - base.time)
            x = np.array(p.spatial())
            if verdict:
                # every sampled causal line must land inside the base
                u = rng.normal(size=(64, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                speeds = rng.uniform(0.0, 1.0, size=(64, 1))
                landings = x - (p.t - base.time) * speeds * u
                assert (landings >= lob - 1e-9).all() and (landings <= hib + 1e-9).all()
            else:
                # deterministic escaping light ray through the violated face
                escaped = False
                for c in range(3):
                    for sign in (-1.0, 1.0):
                        landing = x.copy()
                        landing[c] += sign * r
                        if landing[c] < lob[c] - 1e-12 or landing[c] > hib[c] + 1e-12:
                            escaped = True
                if r == 0.0 and not escaped:
                    escaped = (x < lob - 1e-12).any() or (x > hib + 1e-12).any()
                assert escaped, f"no escaping causal line found at {p}"

    # (c) separation persists for |t| < spatial distance
    tested = 0
    while tested < 100:
        a, b = _random_spatial_box(rng), _random_spatial_box(rng)
        d = spatial_distance(a, b)
        if d <= 1e-6:
            continue
        tested += 1
        for frac in (-0.9, -0.4, 0.3, 0.7, 0.99):
            t = frac * d * (1 - 1e-9)
            shifted = translate_region(RegionUnion([b]), FourVector(t, 0, 0, 0))
            assert causally_separated(RegionUnion([a]), shifted)
    report(6, "separation oracle on 100 pairs, line oracle on 5x1000 points, "
              "100 translation sweeps")


def test_criterion_7_audit_and_causality_pattern():
    """Sharp positive-energy lattice: additivity and covariance to 1e-12,
    energy floor at the mass, macroscopic microcausality residual (calibrated
    floor 1e-3), and a causal-condition violation below -0.01 at the recorded
    witness.  Sign-alternating variant fails the energy hypothesis while its
    projector effects commute to 1e-12."""
    sharp = build_sharp_system(16, 1.0, 1.0)
    audit = hc_audit(sharp, [[0, 1, 2, 3], [5, 6, 7, 8], [12, 13]],
                     [0.5, 1.0, 3.0], tol=1e-9)
    assert audit.residual("additivity_residual") <= 1e-12
    assert audit.residual("covariance_residual") <= 1e-12
    assert audit.residual("energy_min_eig") >= 1.0 - 1e-9
    # calibrated floor: residual 0.0187 at (delta={0..3}, delta'={5..8}, t=0.5, gap 1.0),
    # over the pairs separated at each t
    assert audit.residual("microcausality_residual") > 1e-3
    assert audit.residual("max_effect_norm") > 0.9
    assert audit.notes[0].startswith("hypothesis 4")

    # recorded causal-condition witness: single cell, one time unit
    witness_value = cc_residual(sharp, {0}, 1.0)
    assert witness_value < -0.01, f"cc witness value {witness_value:.4f}"

    alternating = build_alternating_system(16, 1.0, 1.0)
    audit_alt = hc_audit(alternating, [[0, 1, 2, 3], [5, 6, 7, 8]], [0.5, 1.0], tol=1e-9)
    assert audit_alt.residual("energy_min_eig") < 0
    assert audit_alt.notes[0].startswith("hypothesis 3")
    for j in range(16):
        for k in range(j + 1, 16):
            assert op_norm(commutator(alternating.cell_effects[j],
                                      alternating.cell_effects[k])) <= 1e-12
    micro = audit.residual("microcausality_residual")
    energy_min = audit_alt.residual("energy_min_eig")
    report(7, f"sharp: micro residual {micro:.3f}, "
              f"cc witness {witness_value:.4f} at (cells={{0}}, t=1); "
              f"alternating: energy min {energy_min:.3f}, commuting projectors")


def test_criterion_8_projector_screening():
    """10^3 random projector triples with P <= Q and QR = 0: ||PR|| <= 1e-12."""
    rng = make_rng(MASTER_SEED, 8)
    worst = 0.0
    for i in range(1000):
        dim = int(rng.integers(4, 10))
        p_rank = int(rng.integers(1, dim - 2))
        q_extra = int(rng.integers(0, dim - p_rank - 1))
        r_max = dim - p_rank - q_extra
        r_rank = int(rng.integers(1, r_max + 1))
        U = haar_unitary(dim, rng)
        diag_p = np.r_[np.ones(p_rank), np.zeros(dim - p_rank)]
        diag_q = np.r_[np.ones(p_rank + q_extra), np.zeros(dim - p_rank - q_extra)]
        diag_r = np.zeros(dim)
        diag_r[p_rank + q_extra : p_rank + q_extra + r_rank] = 1.0
        P = U @ np.diag(diag_p) @ dag(U)
        Q = U @ np.diag(diag_q) @ dag(U)
        R = U @ np.diag(diag_r) @ dag(U)
        rep = projector_screening_identity(P, Q, R)
        assert rep.passed, f"triple {i} failed: {[it.name for it in rep.failed_items]}"
        worst = max(worst, rep.residual("PR_zero"))
    assert worst <= 1e-12
    report(8, f"10^3 triples, worst ||PR|| = {worst:.2e}")


def test_criterion_9_determinism():
    """The scenario batch reruns bit-identically (modulo timing) under the
    same master seed, at any worker count."""
    batch = {
        "scenarios": [
            {"type": "gentle_sweep", "seed": MASTER_SEED, "params": {"instances": 200}},
            {"type": "luders_equivalence", "seed": MASTER_SEED, "params": {"dim": 4}},
            {"type": "beck", "seed": MASTER_SEED, "params": {"dim": 3}},
            {"type": "hw_search", "seed": MASTER_SEED, "params": {"dim": 3, "budget": 500}},
            {"type": "hc_audit", "seed": MASTER_SEED,
             "params": {"n": 16, "mass": 1.0, "kind": "sharp", "t_grid": [0.5, 1.0],
                        "delta_samples": [[0, 1, 2, 3], [5, 6, 7, 8]]}},
            {"type": "composition", "seed": MASTER_SEED,
             "params": {"n": 16, "kind": "frame_smeared",
                        "lab1": [2, 3, 4, 5], "lab2": [6, 7, 8, 9]}},
            {"type": "conditional_bound", "seed": MASTER_SEED,
             "params": {"n": 16, "kind": "frame_smeared",
                        "lab": [4, 5, 6, 7, 8, 9], "delta": [5, 6]}},
        ]
    }

    def strip(reports):
        out = []
        for r in reports:
            d = r.to_dict()
            d.pop("wall_time")
            out.append(d)
        return json.dumps(out, sort_keys=True)

    first = strip(run_scenarios(parse_scenarios(batch), workers=1))
    second = strip(run_scenarios(parse_scenarios(batch), workers=1))
    parallel = strip(run_scenarios(parse_scenarios(batch), workers=4))
    assert first == second, "rerun with the same master seed changed the reports"
    assert first == parallel, "worker count changed the reports"
    report(9, "reruns and worker counts reproduce reports bit-identically")


@pytest.mark.parametrize("name", ["demo", "lattice64"])
def test_criterion_9_order(name):
    """No report depends on what ran before it in the process, where the
    lattice builders keep their fixed parts: the committed scenario file run
    forward, reversed and one scenario at a time gives the same reports and
    summary rows, without wall_time.  The scenarios are read once, so each
    keeps the index that seeds its draws wherever it runs."""
    with open(Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json") as fh:
        scenarios = parse_scenarios(json.load(fh))

    def strip(reports):
        out = [(r.to_dict(), r.summary_row()) for r in reports]
        for report_dict, row in out:
            report_dict.pop("wall_time")
            row.pop("wall_time")
        return json.dumps(out)

    forward = strip(run_scenarios(scenarios))
    assert strip(run_scenarios(scenarios[::-1])[::-1]) == forward, "reversing changed a report"
    assert strip([run_scenarios([sc])[0] for sc in scenarios]) == forward, (
        "running a scenario alone changed its report")
    report(9, f"{name}.json forward, reversed and one at a time: identical reports")
