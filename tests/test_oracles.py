"""Independent oracles for asserted report items.  Each oracle recomputes a
residual a check reports by another route (dense formulas through
``np.linalg.eigh``, norms through ``np.linalg.svd``), on seeded inputs, and
the two must agree within max(1e-13, 1e-12 |r|)."""
import ast
import functools
import json
import pkgutil
import re
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import povmlab
from povmlab.conditional import (
    MAX_PARTITIONS,
    _sample_subsets,
    build_conditional,
    composition_identity_check,
    conditional_prob_bound,
    cross_lab_commutator,
    gentle_sides,
)
from povmlab.generators import (
    commuting_povm_pair,
    make_rng,
    random_effect,
    random_state,
)
from povmlab.lattice import (
    build_alternating_system,
    build_diagonal_smeared_system,
    build_frame_smeared_system,
    build_sharp_system,
    hc_audit,
    lattice_dispersion,
    validate_system,
)
from povmlab.linalg import DEFAULT_TOL
from povmlab.measurement import DiscretePOVM, luders_instrument
from povmlab.scenarios import CHECKS, parse_scenarios, run_scenarios
from povmlab.signaling import beck_check, luders_equivalence_check


def svd_norm(M: np.ndarray) -> float:
    return float(np.linalg.svd(M, compute_uv=False)[0])


def power(A: np.ndarray, p: float) -> np.ndarray:
    """A^p of a positive definite matrix, from a plain eigendecomposition."""
    w, V = np.linalg.eigh(A)
    return (V * w**p) @ V.conj().T


def psd_root(A: np.ndarray) -> np.ndarray:
    """A^1/2 of a positive semidefinite matrix, from a plain
    eigendecomposition, its eigenvalues clipped at 0."""
    w, V = np.linalg.eigh(A)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def effect(sys, cells) -> np.ndarray:
    return sum((sys.cell_effects[k] for k in sorted(cells)), np.zeros((sys.n, sys.n)))


def translation_oracle(sys) -> float:
    """||HU - UH||."""
    H, U = sys.hamiltonian, sys.shift
    return svd_norm(H @ U - U @ H)


def normalization_oracle(sys, lab) -> float:
    """||A^-1/2 A A^-1/2 - 1|| for A = A(lab)."""
    A = effect(sys, lab)
    R = power(A, -0.5)
    return svd_norm(R @ A @ R - np.eye(sys.n))


def partitions(lab) -> list[frozenset]:
    """The left sides of the 2-partitions ``validate`` reads, and the empty
    one, which it skips: every one when there are at most MAX_PARTITIONS,
    else the sampled subsets."""
    cells = sorted(lab)
    if 1 << (len(cells) - 1) > MAX_PARTITIONS:
        return [frozenset(), *_sample_subsets(frozenset(lab))]
    return [frozenset(c for i, c in enumerate(cells) if r >> i & 1)
            for r in range(1 << (len(cells) - 1))]


def additivity_oracle(sys, lab) -> float:
    """max over 2-partitions L of ||B(L) + B(lab - L) - B(lab)||, with
    B(cells) = A(lab)^-1/2 A(cells) A(lab)^-1/2."""
    R = power(effect(sys, lab), -0.5)

    def B(cells):
        return R @ effect(sys, cells) @ R

    return max(svd_norm(B(left) + B(set(lab) - left) - B(lab)) for left in partitions(lab))


def composition_oracle(sys, lab1, lab2) -> float:
    """max over the sampled subsets D of the union of ||B_u(D) - A_u^-1/2
    (A_1^1/2 B_1(D & lab1) A_1^1/2 + A_2^1/2 B_2(D & lab2) A_2^1/2) A_u^-1/2||,
    with B_i(cells) = A_i^-1/2 A(cells) A_i^-1/2 for A_i = A(lab_i)."""
    union = frozenset(lab1) | frozenset(lab2)
    Ru = power(effect(sys, union), -0.5)
    sides = [(frozenset(lab), power(effect(sys, lab), -0.5), power(effect(sys, lab), 0.5))
             for lab in (lab1, lab2)]
    worst = 0.0
    for D in _sample_subsets(union):
        rhs = sum(S @ R @ effect(sys, D & lab) @ R @ S for lab, R, S in sides)
        worst = max(worst, svd_norm(Ru @ effect(sys, D) @ Ru - Ru @ rhs @ Ru))
    return worst


def operator_form_oracle(sys, cells, lab, rho) -> float:
    """|tr(rho' B) - tr(rho B)| for B = A(lab)^-1/2 A(cells) A(lab)^-1/2 and
    rho' = A(lab)^1/2 rho A(lab)^1/2 / tr(rho A(lab))."""
    A_lab = effect(sys, lab)
    R, S = power(A_lab, -0.5), power(A_lab, 0.5)
    B = R @ effect(sys, cells) @ R
    conditioned = S @ rho @ S / np.trace(rho @ A_lab).real
    return abs(np.trace(conditioned @ B).real - np.trace(rho @ B).real)


def nsc_oracle(instr, S) -> float:
    """||sum_k K_k† S K_k - S|| over the instrument's Kraus operators, as
    summed, not hermitized."""
    return svd_norm(sum(K.conj().T @ S @ K for K in instr.kraus) - S)


def nsc_squared_oracle(instr, S) -> float:
    """``nsc_oracle`` of S @ S."""
    return nsc_oracle(instr, S @ S)


def luders_nsc_oracle(T, S) -> float:
    """max over the effects S_i of ||sum_j K_j S_i K_j - S_i||, with the
    Lüders operators K_j = T_j^1/2 of ``psd_root``."""
    K = [psd_root(Tj) for Tj in T.effects]
    return max(svd_norm(sum(Kj @ Si @ Kj for Kj in K) - Si) for Si in S.effects)


def trace_distance_oracle(T, rho) -> float:
    """||rho - T^1/2 rho T^1/2 / tr(rho T)||_1, the sum of the singular
    values, with T^1/2 from ``psd_root``."""
    R = psd_root(T)
    conditioned = R @ rho @ R / np.trace(rho @ T).real
    return float(np.linalg.svd(rho - conditioned, compute_uv=False).sum())


def propagator(n: int, omega: np.ndarray, d: np.ndarray, t: float) -> np.ndarray:
    """K(d, t) = (1/n) sum_j exp(2 pi i j d / n) exp(-i t omega_j) for each
    entry of d: the entry <x| exp(-itH) |y> at x - y = d of an H diagonal in
    the Fourier basis with spectrum omega."""
    phases = np.exp(2j * np.pi * np.multiply.outer(d, np.arange(n)) / n)
    return phases @ np.exp(-1j * t * omega) / n


def microcausality_oracle(n, mass, a, kind, samples, t_grid) -> float:
    """max over the ordered pairs of samples and the times t with ring gap
    > |t| of max_i s_i sqrt(1 - s_i^2), the s_i the singular values of
    K(x - y, t) over x in the first sample and y in the second.  For
    projectors P and Q, ||[P, Q]|| is the largest cos(theta) sin(theta) over
    their principal angles, whose cosines are the singular values of PQ; here
    P Q = P exp(-itH) P' exp(itH), whose singular values are those of the
    block of exp(-itH).  omega is ``lattice_dispersion`` with the sign
    pattern of the kind, not read from H."""
    omega = lattice_dispersion(n, mass, a)
    if kind == "alternating":
        omega = omega * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    worst = 0.0
    for left in samples:
        for right in samples:
            gap = a * (min(min((x - y) % n, (y - x) % n) for x in left for y in right) - 1)
            for t in t_grid:
                if gap > abs(t):
                    K = propagator(n, omega, np.subtract.outer(left, right), t)
                    s = np.linalg.svd(K, compute_uv=False)
                    worst = max(worst, float((s * np.sqrt(np.clip(1 - s * s, 0.0, None))).max()))
    return worst


# (report name, item name) -> the oracle of that item.  Three entries are
# identities on every input the kernel floor admits, so only rounding moves
# them, no input makes them large, and no ledger input can fail them; a
# same-path test, the check against a per-effect loop bit for bit, guards
# each of them instead
ORACLES = {
    ("lattice_system", "dynamics_translation_invariant"): translation_oracle,
    # R A(lab) R = 1: guarded by TestStackedEffects (test_conditional.py)
    ("conditional_povm", "lab_normalization"): normalization_oracle,
    # A(L) + A(lab - L) = A(lab): guarded by TestStackedEffects
    ("conditional_povm", "in_lab_additivity"): additivity_oracle,
    # sqrt(A_i) B_i(D & lab_i) sqrt(A_i) = A(D & lab_i): guarded by
    # TestComposition.test_stacked_check_matches_the_per_effect_loop
    ("composition_identity", "identity_residual"): composition_oracle,
    ("conditional_prob_bound", "operator_form_bound"): operator_form_oracle,
    ("hc_audit", "microcausality_residual"): microcausality_oracle,
    ("beck", "nsc_deviation"): nsc_oracle,
    ("beck", "nsc_deviation_squared"): nsc_squared_oracle,
    ("luders_equivalence", "nsc_deviation"): luders_nsc_oracle,
}

SYSTEMS = {
    "sharp": lambda: build_sharp_system(12, 1.0, 0.7),
    "alternating": lambda: build_alternating_system(12, 0.5),
    "diagonal_smeared": lambda: build_diagonal_smeared_system(16, 1.0, 1.0, 1.5),
    "frame_smeared": lambda: build_frame_smeared_system(16, 1.0, 1.0, 1.5),
}
LAB, CELLS = frozenset(range(5, 11)), frozenset({6, 7})
SIGNALING = {"commuting": 0.0, "signaling": 0.5}  # the rotation angles of ``turned_pair``


def validated_system(kind):
    sys = SYSTEMS[kind]()
    return validate_system(sys), (sys,)


def perturbed_dynamics(seed):
    """The n = 16 frame-smeared system with its H rebound to H + diag(u), u
    seeded uniform in [0, 0.3): H no longer commutes with the shift, and
    ``dynamics_translation_invariant`` reads about 0.25, far above its
    bound."""
    sys = SYSTEMS["frame_smeared"]()
    sys.hamiltonian = sys.hamiltonian + np.diag(make_rng(seed).uniform(0.0, 0.3, sys.n))
    return validate_system(sys), (sys,)


def validated_conditional(kind, lab):
    sys = SYSTEMS[kind]()
    return build_conditional(sys, lab).validate(), (sys, lab)


def composed(kind, lab1, lab2):
    sys = SYSTEMS[kind]()
    return composition_identity_check(sys, lab1, lab2), (sys, lab1, lab2)


def bounded_probability(kind, cells, seed):
    sys = SYSTEMS[kind]()
    rho = random_state(sys.n, make_rng(seed))
    return conditional_prob_bound(sys, cells, LAB, rho), (sys, cells, LAB, rho)


# n, mass and a of the audited projector kinds
AUDITED = {"sharp": (16, 1.0, 0.7), "alternating": (16, 0.5, 1.0)}


def audited(kind, seed):
    """hc_audit of three seeded disjoint samples of 1 to 3 cells at three
    seeded times in [-3, 3]; of the seeds 61 to 69, 62, 66 and 67 give no
    pair separated at a sampled time, so nothing to compare."""
    n, mass, a = AUDITED[kind]
    build = build_sharp_system if kind == "sharp" else build_alternating_system
    rng = make_rng(seed)
    cells = [int(k) for k in rng.choice(n, 6, replace=False)]
    samples = [sorted(cells[:1]), sorted(cells[1:3]), sorted(cells[3:])]
    t_grid = [float(t) for t in rng.uniform(-3.0, 3.0, 3)]
    return hc_audit(build(n, mass, a), samples, t_grid), (n, mass, a, kind, samples, t_grid)


def rotation(dim: int, seed: int, angle: float) -> np.ndarray:
    """exp(i angle G) for a seeded Hermitian G of norm 1."""
    rng = make_rng(seed)
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, V = np.linalg.eigh(G + G.conj().T)
    return (V * np.exp(1j * angle * w / np.abs(w).max())) @ V.conj().T


def rotated(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W M W†, made bit-Hermitian."""
    X = W @ M @ W.conj().T
    return 0.5 * (X + X.conj().T)


def turned_pair(dim, seed, angle):
    """A commuting POVM pair whose second POVM is turned by ``rotation``: at
    angle 0 it commutes, and no-signaling holds; at 0.5 its nsc deviations
    lie between 1e-4 and 1e-1."""
    T, S = commuting_povm_pair(dim, make_rng(seed))
    W = rotation(dim, seed + 1, angle)
    return T, DiscretePOVM([rotated(E, W) for E in S.effects])


def becked(dim, seed, angle):
    T, S = turned_pair(dim, seed, angle)
    instr = luders_instrument(T)
    return beck_check(instr, S[0]), (instr, S[0])


def luders_compared(dim, seed, angle):
    T, S = turned_pair(dim, seed, angle)
    return luders_equivalence_check(T, S), (T, S)


# seeded inputs: a library call and its arguments, returning the report and
# the arguments its oracles take
CASES = {
    **{f"validate_system-{kind}": (validated_system, (kind,)) for kind in SYSTEMS},
    "validate_system-frame_smeared-perturbed": (perturbed_dynamics, (74,)),
    "validate-frame_smeared-lab6": (validated_conditional, ("frame_smeared", LAB)),
    "validate-frame_smeared-lab1": (validated_conditional, ("frame_smeared", {3})),
    "validate-diagonal_smeared-lab3": (validated_conditional, ("diagonal_smeared", {0, 1, 2})),
    "bound-frame_smeared-2cells": (bounded_probability, ("frame_smeared", CELLS, 71)),
    "bound-frame_smeared-lab": (bounded_probability, ("frame_smeared", LAB, 72)),
    "bound-diagonal_smeared-1cell": (bounded_probability, ("diagonal_smeared", {8}, 73)),
    "composition-frame_smeared": (composed, ("frame_smeared", {2, 3, 4, 5}, {8, 9, 10})),
    "composition-diagonal_smeared": (composed, ("diagonal_smeared", {1, 2}, {6, 7, 8, 9})),
    **{f"audit-{kind}-{seed}": (audited, (kind, seed))
       for kind in AUDITED for seed in (61, 63, 64)},
    **{f"beck-dim{dim}-{name}": (becked, (dim, 80 + dim, angle))
       for dim in (2, 4, 7) for name, angle in SIGNALING.items()},
    **{f"luders-dim{dim}-{name}": (luders_compared, (dim, 90 + dim, angle))
       for dim in (2, 3, 6) for name, angle in SIGNALING.items()},
}


@pytest.mark.parametrize("case", list(CASES))
def test_reported_residuals_match_their_oracles(case):
    run, args = CASES[case]
    report, inputs = run(*args)
    checked = 0
    for item in report.items:
        oracle = ORACLES.get((report.name, item.name))
        if oracle is not None:
            expected = oracle(*inputs)
            assert abs(item.residual - expected) <= max(1e-13, 1e-12 * abs(expected)), (
                item.name, item.residual, expected)
            checked += 1
    assert checked, f"{report.name} reports no item with an oracle"


def test_every_oracle_is_exercised():
    seen = set()
    for run, args in CASES.values():
        report, _ = run(*args)
        seen |= {(report.name, item.name) for item in report.items}
    assert set(ORACLES) <= seen


@pytest.mark.parametrize("case", [case for case in CASES if case.endswith("-signaling")])
def test_signaling_inputs_are_compared_relatively(case):
    """Each nsc entry has inputs whose residual is far above the absolute
    floor 1e-13 of the comparison, so a check reporting half or 0 fails."""
    run, args = CASES[case]
    report, inputs = run(*args)
    for item in report.items:
        oracle = ORACLES.get((report.name, item.name))
        if oracle is not None:
            assert oracle(*inputs) > 1e-4, item.name


def test_operator_form_inputs_are_compared_relatively():
    """At least one ``operator_form_bound`` input has a residual far above the
    absolute floor 1e-13 of the comparison, so a check reporting half or 0
    fails the ledger."""
    residuals = [operator_form_oracle(*run(*args)[1])
                 for run, args in CASES.values() if run is bounded_probability]
    assert len(residuals) == 3
    assert max(residuals) > 1e-4


def test_audit_inputs_are_compared_relatively():
    """Each audit input holds a pair separated at a sampled time, with a
    residual far above the absolute floor 1e-13 of the comparison."""
    for case in CASES:
        if case.startswith("audit-"):
            run, args = CASES[case]
            assert microcausality_oracle(*run(*args)[1]) > 1e-4, case


def test_perturbed_dynamics_fails_far_above_its_bound():
    """The translation entry has an input whose residual is far above its
    bound, compared relatively there, so a check reporting half or 0 fails
    the ledger; the check's verdict on that input is FAIL."""
    report, inputs = perturbed_dynamics(74)
    assert translation_oracle(*inputs) > 0.1
    assert report.verdict == "FAIL"
    assert [item.name for item in report.failed_items] == ["dynamics_translation_invariant"]


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_gentle_trace_distance_matches_its_oracle(dim):
    """``gentle_sides``' trace distance, on a seeded stack, against the SVD
    trace norm of rho - T^1/2 rho T^1/2 / p per instance."""
    rng = make_rng(60, dim)
    T = np.stack([random_effect(dim, rng) for _ in range(12)])
    rho = np.stack([random_state(dim, rng) for _ in range(12)])
    _, distance, _ = gentle_sides(T, rho)
    for k in range(len(T)):
        expected = trace_distance_oracle(T[k], rho[k])
        assert abs(distance[k] - expected) <= max(1e-13, 1e-12 * expected), (k, expected)
    assert distance.max() > 1e-2


def periodized_gaussian(n: int, width: float) -> np.ndarray:
    """w(x) = sum over m in -2..2 of exp(-(x + m n)^2 / (2 width^2)), the
    diagonal-smeared kernel before its normalization, which any ratio of
    its sums cancels."""
    x = np.arange(n)[:, None] + n * np.arange(-2, 3)
    return np.exp(-x**2 / (2.0 * width * width)).sum(axis=1)


def diagonal_closed_form(n: int, width: float, cells, lab) -> np.ndarray:
    """The diagonal of B_lab(cells) on the diagonal-smeared ring, entry by
    entry: E_j = diag(w(x - j)), so B_lab(cells) is the diagonal of
    sum_{j in cells} w(x - j) / sum_{j in lab} w(x - j)."""
    w = periodized_gaussian(n, width)
    x = np.arange(n)
    return sum(w[(x - j) % n] for j in cells) / sum(w[(x - j) % n] for j in lab)


def seeded_labs(n: int, seed: int) -> list[frozenset[int]]:
    """Seeded laboratories of 1, 3 and 5 cells."""
    rng = make_rng(seed, n)
    return [frozenset(int(k) for k in rng.choice(n, size, replace=False)) for size in (1, 3, 5)]


class TestDiagonalClosedForm:
    """On the diagonal-smeared kind every cell effect is diagonal, so the
    conditional effects have a closed form and any two laboratories'
    effects commute."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_effects_equal_the_closed_form(self, n):
        sys = build_diagonal_smeared_system(n, 1.0, 1.0, 1.5)
        for lab in seeded_labs(n, 61):
            cells = sorted(lab)
            subsets = [frozenset(c for i, c in enumerate(cells) if r >> i & 1)
                       for r in range(1 << len(cells))]
            stack = build_conditional(sys, lab).effects(subsets)
            for B, D in zip(stack, subsets, strict=True):
                expected = diagonal_closed_form(n, 1.5, D, lab)
                diagonal = np.diagonal(B)
                assert np.all(np.abs(diagonal - expected)
                              <= np.maximum(1e-13, 1e-12 * np.abs(expected))), (lab, D)
                assert not (B - np.diag(diagonal)).any(), (lab, D)

    @pytest.mark.parametrize("n", [8, 16])
    def test_any_two_laboratories_commute_exactly(self, n):
        sys = build_diagonal_smeared_system(n, 1.0, 1.0, 1.5)
        rng = make_rng(62, n)
        for _ in range(9):
            # drawn independently, so the two may overlap or coincide
            lab_a, lab_b = (sorted(int(k) for k in rng.choice(n, int(rng.integers(1, 6)),
                                                              replace=False))
                            for _ in range(2))
            cells_a, cells_b = lab_a[: len(lab_a) // 2 + 1], lab_b[len(lab_b) // 2:]
            assert cross_lab_commutator(sys, lab_a, cells_a, lab_b, cells_b) == 0.0, (
                lab_a, lab_b)


ROOT = Path(__file__).resolve().parent.parent
# `check/item`, then for an asserted item its tolerance rule in parentheses
# (which may nest one level), and " → " with its oracle's `report/item` or
# "no oracle yet"
NAMED_ITEM = re.compile(r"`(\w+)/(\w+)`(?: \(((?:[^()]|\([^()]*\))*)\))?"
                        r"(?: → (?:`(\w+)/(\w+)`|(no oracle yet)))?")
# the tolerances a larger tol is compared with, and the rules that are pure
# multiples of tol: the tol they record at ``tol`` on a ring of ``n`` cells
TOLS = (DEFAULT_TOL, 1e-6)
MULTIPLES = {"tol": lambda tol, n: tol, "10·tol": lambda tol, n: 10 * tol,
             "tol·n": lambda tol, n: tol * n}


def claims_map() -> list[list[str]]:
    """The rows of the README's claims map: claim, asserted items and
    measurement-only items."""
    section = (ROOT / "README.md").read_text().split("## Claims map", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["claim", "asserted items (tolerance rule) → oracle",
                       "measurement only, and why"]
    assert set(rows[1]) == {"---"}
    return rows[2:]


def declared_items() -> list[tuple[str, re.Match, bool]]:
    """(claim, match, asserted) for every item the claims map names."""
    return [(claim, match, is_asserted) for claim, asserted, measured in claims_map()
            for column, is_asserted in ((asserted, True), (measured, False))
            for match in NAMED_ITEM.finditer(column)]


@functools.cache
def emitted_items(tol: float = DEFAULT_TOL) -> dict[tuple[str, str], tuple[float | None, int]]:
    """(check type, item) -> (tol, the scenario's ring size n or 0) over every
    check type, from ``demo.json`` with an ``nsc`` and an ``rcc`` scenario
    added, run at ``tol``."""
    payload = json.loads((ROOT / "scenarios" / "demo.json").read_text())
    payload["scenarios"] += [{"type": "nsc", "seed": 7}, {"type": "rcc", "seed": 7}]
    scenarios = parse_scenarios(payload, tol=tol)
    return {(sc.type, item.name): (item.tol, sc.params.get("n", 0))
            for sc, report in zip(scenarios, run_scenarios(scenarios)) for item in report.items}


def test_emitted_items_reach_every_check_type():
    assert {check for check, _ in emitted_items()} == set(CHECKS)


def test_the_claims_map_names_emitted_items_and_ledger_oracles():
    assert len(claims_map()) == 5  # one per claim of the abstract
    emitted = emitted_items()
    for claim, match, is_asserted in declared_items():
        item = (match[1], match[2])
        assert item in emitted, (claim, match[0])
        assert (emitted[item][0] is not None) == is_asserted, (claim, match[0])
        assert bool(match[3]) == is_asserted, (claim, match[0])  # a rule iff asserted
        assert match[4] or match[6] or not is_asserted, (claim, match[0])
        assert not match[4] or (match[4], match[5]) in ORACLES, (claim, match[0])


def test_the_claims_map_declares_every_emitted_item_once():
    declared = Counter((match[1], match[2]) for _, match, _ in declared_items())
    assert declared == Counter(emitted_items().keys())


def test_asserted_items_follow_their_declared_tolerance_rule():
    small, large = TOLS
    for claim, match, is_asserted in declared_items():
        if not is_asserted:
            continue
        item, rule = (match[1], match[2]), match[3]
        (at_small, n), (at_large, _) = emitted_items(small)[item], emitted_items(large)[item]
        if rule.startswith("fixed: "):
            assert at_large == at_small, (claim, match[0], at_small, at_large)
            continue
        assert at_large > at_small, (claim, match[0], at_small, at_large)
        if rule in MULTIPLES:
            assert [at_small, at_large] == [MULTIPLES[rule](tol, n) for tol in TOLS], (
                claim, match[0])


# a test class cited as "TestX in tests/<file>.py", and a bare backticked name
# (a `check/item` holds a slash, so it is neither)
CITED_CLASS = re.compile(r"\b(Test\w+) in (tests/\w+\.py)")
CITED_NAME = re.compile(r"`(\w+)`")


def dangling_citations(text: str) -> list[str]:
    """The test classes and library names ``text`` cites that do not exist:
    a class must be defined in the file named, and a name must be an attribute
    of some ``povmlab`` module."""
    modules = [import_module(f"povmlab.{m.name}") for m in pkgutil.iter_modules(povmlab.__path__)]
    missing = []
    for cls, path in CITED_CLASS.findall(text):
        tree = ast.parse((ROOT / path).read_text())
        if cls not in {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}:
            missing.append(f"{cls} in {path}")
    missing += [name for name in CITED_NAME.findall(text)
                if not any(hasattr(module, name) for module in modules)]
    return missing


def test_the_claims_map_cites_only_what_exists():
    rows = claims_map()
    assert [dangling_citations(" | ".join(row)) for row in rows] == [[]] * len(rows)


def test_a_citation_of_missing_code_is_caught():
    cited = ("`no_such_function` and `effect_of`, tested by TestNoSuchClass in "
             "tests/test_lattice.py and TestDiagonalClosedForm in tests/test_oracles.py")
    assert dangling_citations(cited) == ["TestNoSuchClass in tests/test_lattice.py",
                                         "no_such_function"]
