"""Independent oracles for asserted report items.  Each oracle recomputes a
residual a check reports by another route (dense formulas through
``np.linalg.eigh``, norms through ``np.linalg.svd``), on seeded inputs, and
the two must agree within max(1e-13, 1e-12 |r|)."""
import numpy as np
import pytest

from povmlab.conditional import build_conditional, conditional_prob_bound
from povmlab.generators import make_rng, random_state
from povmlab.lattice import (
    build_alternating_system,
    build_diagonal_smeared_system,
    build_frame_smeared_system,
    build_sharp_system,
    validate_system,
)


def svd_norm(M: np.ndarray) -> float:
    return float(np.linalg.svd(M, compute_uv=False)[0])


def power(A: np.ndarray, p: float) -> np.ndarray:
    """A^p of a positive definite matrix, from a plain eigendecomposition."""
    w, V = np.linalg.eigh(A)
    return (V * w**p) @ V.conj().T


def effect(sys, cells) -> np.ndarray:
    return sum(sys.cell_effects[k] for k in sorted(cells))


def translation_oracle(sys) -> float:
    """||HU - UH||."""
    H, U = sys.hamiltonian, sys.shift
    return svd_norm(H @ U - U @ H)


def normalization_oracle(sys, lab) -> float:
    """||A^-1/2 A A^-1/2 - 1|| for A = A(lab)."""
    A = effect(sys, lab)
    R = power(A, -0.5)
    return svd_norm(R @ A @ R - np.eye(sys.n))


def operator_form_oracle(sys, cells, lab, rho) -> float:
    """|tr(rho' B) - tr(rho B)| for B = A(lab)^-1/2 A(cells) A(lab)^-1/2 and
    rho' = A(lab)^1/2 rho A(lab)^1/2 / tr(rho A(lab))."""
    A_lab = effect(sys, lab)
    R, S = power(A_lab, -0.5), power(A_lab, 0.5)
    B = R @ effect(sys, cells) @ R
    conditioned = S @ rho @ S / np.trace(rho @ A_lab).real
    return abs(np.trace(conditioned @ B).real - np.trace(rho @ B).real)


# (report name, item name) -> the oracle of that item
ORACLES = {
    ("lattice_system", "dynamics_translation_invariant"): translation_oracle,
    ("conditional_povm", "lab_normalization"): normalization_oracle,
    ("conditional_prob_bound", "operator_form_bound"): operator_form_oracle,
}

SYSTEMS = {
    "sharp": lambda: build_sharp_system(12, 1.0, 0.7),
    "alternating": lambda: build_alternating_system(12, 0.5),
    "diagonal_smeared": lambda: build_diagonal_smeared_system(16, 1.0, 1.0, 1.5),
    "frame_smeared": lambda: build_frame_smeared_system(16, 1.0, 1.0, 1.5),
}
LAB, CELLS = frozenset(range(5, 11)), frozenset({6, 7})


def validated_system(kind):
    sys = SYSTEMS[kind]()
    return validate_system(sys), (sys,)


def validated_conditional(kind, lab):
    sys = SYSTEMS[kind]()
    return build_conditional(sys, lab).validate(), (sys, lab)


def bounded_probability(kind, cells, seed):
    sys = SYSTEMS[kind]()
    rho = random_state(sys.n, make_rng(seed))
    return conditional_prob_bound(sys, cells, LAB, rho), (sys, cells, LAB, rho)


# seeded inputs: a library call and its arguments, returning the report and
# the arguments its oracles take
CASES = {
    **{f"validate_system-{kind}": (validated_system, (kind,)) for kind in SYSTEMS},
    "validate-frame_smeared-lab6": (validated_conditional, ("frame_smeared", LAB)),
    "validate-frame_smeared-lab1": (validated_conditional, ("frame_smeared", {3})),
    "validate-diagonal_smeared-lab3": (validated_conditional, ("diagonal_smeared", {0, 1, 2})),
    "bound-frame_smeared-2cells": (bounded_probability, ("frame_smeared", CELLS, 71)),
    "bound-frame_smeared-lab": (bounded_probability, ("frame_smeared", LAB, 72)),
    "bound-diagonal_smeared-1cell": (bounded_probability, ("diagonal_smeared", {8}, 73)),
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
