"""Laboratory-restricted conditional localization POVMs.

Given effects A(cells) normalized on a full lattice and a laboratory base
region with A(lab) of trivial kernel, the family

    B(cells) = A(lab)^{-1/2} A(cells) A(lab)^{-1/2},   cells inside lab,

is a POVM normalized on the laboratory.  tr(rho B(cells)) reads as the
probability of detecting the system in ``cells`` given that it is detected in
the laboratory; the gentle-measurement bound quantifies how well that reading
approximates the plain detection fraction.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Iterable

import numpy as np

from .lattice import LatticeLocalizationSystem, as_cells, cell_sum, cell_sums
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    at_index,
    commutator_norm,
    dag,
    eigh_checked,
    hermitize,
    is_unitary,
    op_norm,
    psd_sqrt,
    stack_size,
    trace_norm,
)
from .reporting import CheckReport

MAX_PARTITIONS = 256  # validate enumerates every 2-partition up to this many
SAMPLE_STEPS = 16  # sampled subsets take every step-th cell, 2 <= step < SAMPLE_STEPS


class ConditionalPOVM:
    """Conditional localization effects on a laboratory cell set.

    A(cells) is ``cell_sum(cell_effects, cells, dim)``, the rule of
    ``lattice.effect_of``.  The laboratory effect A(lab) is summed and
    decomposed once, at construction: ``lab_spectrum`` keeps that
    decomposition, ``inv_sqrt`` comes from it, and the effect of the whole
    laboratory reuses the sum.  Construction is refused when A(lab) has a
    (numerical) kernel, by the floor of ``linalg.Eig.inv_sqrt``.  Nothing
    changes after construction.
    """

    def __init__(
        self,
        lab_cells: frozenset[int],
        cell_effects: Sequence[np.ndarray],
        dim: int,
        tol: float = DEFAULT_TOL,
    ):
        self.lab_cells = frozenset(lab_cells)
        self.cell_effects = cell_effects
        self.dim = dim
        self._lab_sum = cell_sum(cell_effects, self.lab_cells, dim)
        self.lab_spectrum = eigh_checked(self._lab_sum, tol)
        self.inv_sqrt = self.lab_spectrum.inv_sqrt()

    def _inside(self, cells: Iterable[int]) -> frozenset[int]:
        """The cells as a set, refused unless inside the laboratory."""
        key = frozenset(map(int, cells))
        if not key <= self.lab_cells:
            raise ValueError("cells must lie inside the laboratory region")
        return key

    def _raw(self, cells: Iterable[int]) -> np.ndarray:
        """A(cells), for cells inside the laboratory."""
        key = self._inside(cells)
        if key == self.lab_cells:
            return self._lab_sum
        return cell_sum(self.cell_effects, key, self.dim)

    def effect(self, cells: Iterable[int]) -> np.ndarray:
        return self._sandwich(self._raw(cells))

    def effects(self, cell_sets: Iterable[Iterable[int]]) -> np.ndarray:
        """The effects of several cell sets as one (B, d, d) stack: the raw
        sums from one ``cell_sums`` call, then one stacked sandwich; each
        effect bit-equal to what ``effect`` computes."""
        keys = [self._inside(cells) for cells in cell_sets]
        return self._sandwich(cell_sums(self.cell_effects, keys, self.dim))

    def _sandwich(self, A: np.ndarray) -> np.ndarray:
        """hermitize(R A R) for one raw effect or a stack of them."""
        return hermitize(self.inv_sqrt @ A @ self.inv_sqrt)

    def validate(self, tol: float = DEFAULT_TOL) -> CheckReport:
        """Normalization on the lab, in-lab additivity over 2-partitions, and
        effect bounds.

        All 2-partitions are enumerated when there are at most MAX_PARTITIONS
        of them; larger laboratories fall back to stride-sampled subsets.  The
        left side is never empty: there both residuals are exactly 0.  The
        two sides of the partitions come from ``effects`` in stacks of at most
        ``stack_size(d)`` effects.
        """
        report = CheckReport(name="conditional_povm")
        B_lab = self.effect(self.lab_cells)
        report.add("lab_normalization", op_norm(B_lab - np.eye(self.dim)), tol)
        cells = sorted(self.lab_cells)
        if 1 << max(0, len(cells) - 1) <= MAX_PARTITIONS:
            partitions = [
                frozenset(c for i, c in enumerate(cells) if (r >> i) & 1)
                for r in range(1, 1 << max(0, len(cells) - 1))
            ]
        else:
            partitions = _sample_subsets(self.lab_cells)
        additivity = 0.0
        bound = 0.0
        step = stack_size(self.dim)
        for start in range(0, len(partitions), step):
            lefts = partitions[start:start + step]
            B_left = self.effects(lefts)
            B_right = self.effects([self.lab_cells - left for left in lefts])
            additivity = max(additivity, float(op_norm(B_left + B_right - B_lab).max()))
            w = np.linalg.eigvalsh(B_left)
            bound = max(bound, float((-w[:, 0]).max()), float((w[:, -1] - 1.0).max()))
        report.add("in_lab_additivity", additivity, tol)
        report.add("effect_bounds", bound, tol)
        return report


def build_conditional(
    sys: LatticeLocalizationSystem,
    lab_cells: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> ConditionalPOVM:
    """Conditional POVM of a normalized lattice system on a laboratory.

    Refuses when A(lab) has a (numerical) kernel: the inverse square root is
    then meaningless, which is exactly the obstruction that rules out sharp
    systems with a proper laboratory.
    """
    return ConditionalPOVM(as_cells(lab_cells, sys.n), sys.cell_effects, sys.n, tol)


# ---------------------------------------------------------------------------
# gentle measurement bound
# ---------------------------------------------------------------------------

def gentle_sides(T, rho, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the gentle-measurement inequality, for one effect T and
    state rho or for each pair of two (..., d, d) stacks.

    Returns delta = 1 - tr(rho T)/||T||, the trace distance between rho and
    the conditioned state sqrt(T) rho sqrt(T) / tr(T rho), and the bound
    2 sqrt(delta) + delta, each with the stack's shape.  The conditioned
    state is hermitized, so the trace distance of a bit-Hermitian rho is
    taken by ``eigvalsh``.
    """
    T = as_matrix(T, stack=True)
    rho = as_matrix(rho, stack=True)
    p = np.trace(rho @ T, axis1=-2, axis2=-1).real
    low = p <= tol
    if np.any(low):
        raise ValueError(f"tr(rho T) = {p[low][0]:.3e}{at_index(low)} is not positive; "
                         "bound undefined")
    eig = eigh_checked(T, tol)
    delta = np.maximum(0.0, 1.0 - p / eig.norm)
    root = eig.sqrt()
    conditioned = hermitize(root @ rho @ root) / p[..., None, None]
    return delta, trace_norm(rho - conditioned), 2.0 * np.sqrt(delta) + delta


def conditional_prob_bound(
    sys: LatticeLocalizationSystem,
    cells: Iterable[int],
    lab_cells: Iterable[int],
    rho,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Compare tr(rho B(cells)) with the detection fraction
    tr(rho A(cells)) / tr(rho A(lab)) at the gentle bound plus 10 tol.

    Also checks the exact identity tr(rho' B) = fraction for the conditioned
    state rho' at tol, and the operator-norm form |tr(rho' B) - tr(rho B)|
    <= (2 sqrt(delta) + delta) ||B|| at its bound plus 10 tol.
    """
    lab = as_cells(lab_cells, sys.n)
    cells = as_cells(cells, sys.n)
    if not cells <= lab:
        raise ValueError("cells must lie inside the laboratory")
    rho = as_matrix(rho)
    cond = build_conditional(sys, lab, tol=tol)
    A_lab, A_cells = cond._raw(lab), cond._raw(cells)
    p_lab = float(np.trace(rho @ A_lab).real)
    delta = 1.0 - p_lab
    report = CheckReport(name="conditional_prob_bound")
    report.add("delta", delta, tol=None, note="1 - tr(rho A(lab))")
    if delta >= 1.0 - tol:
        report.notes.append("vacuous: tr(rho A(lab)) ~ 0, bound carries no information")
        return report
    fraction = float(np.trace(rho @ A_cells).real) / p_lab
    B = cond._sandwich(A_cells)
    prob_B = float(np.trace(rho @ B).real)
    bound = 2.0 * math.sqrt(max(0.0, delta)) + max(0.0, delta)
    report.add("conditional_fraction", fraction, tol=None)
    report.add("tr_rho_B", prob_B, tol=None)
    report.add("fraction_vs_B_difference", abs(prob_B - fraction), bound + 10 * tol,
               note="gentle bound 2*sqrt(delta)+delta")
    if bound >= 1.0:
        report.notes.append(
            f"vacuous bound: 2*sqrt(delta)+delta = {bound:.3f} >= 1 exceeds any "
            "probability difference"
        )
    # conditioned state: sqrt(A_lab) rho sqrt(A_lab) / tr(A_lab rho)
    root = cond.lab_spectrum.sqrt()
    rho_cond = root @ rho @ root / p_lab
    exact = float(np.trace(rho_cond @ B).real)
    report.add("exact_conditional_identity", abs(exact - fraction), tol,
               note="tr(rho' B) equals the fraction exactly, independent of delta")
    report.add(
        "operator_form_bound",
        abs(exact - prob_B),
        bound * max(op_norm(B), 1e-300) + 10 * tol,
        note="|tr(rho' B) - tr(rho B)| <= (2*sqrt(delta)+delta) * ||B||",
    )
    return report


# ---------------------------------------------------------------------------
# conjugation reduction, cross-laboratory composition
# ---------------------------------------------------------------------------

def _sample_subsets(lab: frozenset[int]) -> list[frozenset[int]]:
    """Nonempty cell sets of ``lab``, each once: all of it, its first cell,
    its first half, and every step-th cell for 2 <= step < SAMPLE_STEPS."""
    cells = sorted(lab)
    out = [frozenset(cells), frozenset(cells[:1]), frozenset(cells[: len(cells) // 2])]
    for step in range(2, min(len(cells), SAMPLE_STEPS)):
        out.append(frozenset(cells[::step]))
    return [subset for subset in dict.fromkeys(out) if subset]


def v_conjugation_reduction(
    sys: LatticeLocalizationSystem,
    lab_cells: Iterable[int],
    V: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Conjugating the conditional POVM by a unitary V equals building it
    from the V-transformed system; the energy spectrum is unchanged."""
    lab = as_cells(lab_cells, sys.n)
    V = as_matrix(V)
    if not is_unitary(V, max(tol, 1e-9)):
        raise ValueError("V must be unitary")
    cond = build_conditional(sys, lab, tol=tol)
    transformed = LatticeLocalizationSystem(
        n=sys.n,
        a=sys.a,
        cell_effects=[hermitize(V @ E @ dag(V)) for E in sys.cell_effects],
        shift=V @ sys.shift @ dag(V),
        hamiltonian=hermitize(V @ sys.hamiltonian @ dag(V)),
    )
    cond_T = build_conditional(transformed, lab, tol=tol)
    report = CheckReport(name="v_conjugation_reduction")
    worst = max(
        op_norm(V @ cond.effect(cells) @ dag(V) - cond_T.effect(cells))
        for cells in _sample_subsets(lab)
    )
    report.add("conjugation_vs_transformed_system", worst, tol)
    w_orig = sys.energy_eigensystem().w
    w_tran = transformed.energy_eigensystem().w
    report.add("energy_spectrum_preserved", float(np.max(np.abs(w_orig - w_tran))),
               tol * max(1.0, float(np.max(np.abs(w_orig)))))
    return report


def composition_identity_check(
    sys: LatticeLocalizationSystem,
    lab1_cells: Iterable[int],
    lab2_cells: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Cross-laboratory composition of conditional POVMs.

    Verifies, at tol, the exact relation expressing the union laboratory's
    conditional effects through the per-laboratory ones,

        B_union(D) = A(union)^{-1/2} ( sqrt(A(lab1)) B_lab1(D∩lab1) sqrt(A(lab1))
                     + sqrt(A(lab2)) B_lab2(D∩lab2) sqrt(A(lab2)) ) A(union)^{-1/2},

    and reports two additivity-failure magnitudes:

    * ``plain_additivity_gap``: ||B_union(D) - B_lab1(D∩lab1) - B_lab2(D∩lab2)||,
      the naive unweighted sum.  Positive generically — conditional
      probabilities given different conditioning events do not add, even
      classically.
    * ``weighted_additivity_gap``: the gap after weighting each laboratory
      term by the square root of its conditional weight B_union(lab_i).  This
      is the operator law of total probability; it vanishes identically for
      commuting (diagonal) models, so a nonzero value isolates the genuinely
      noncommutative part of the cross-laboratory obstruction.
    """
    lab1 = as_cells(lab1_cells, sys.n)
    lab2 = as_cells(lab2_cells, sys.n)
    if lab1 & lab2:
        raise ValueError("laboratories must be disjoint")
    union = lab1 | lab2
    cond1 = build_conditional(sys, lab1, tol=tol)
    cond2 = build_conditional(sys, lab2, tol=tol)
    cond_u = build_conditional(sys, union, tol=tol)

    s1, s2 = cond1.lab_spectrum.sqrt(), cond2.lab_spectrum.sqrt()
    w1 = psd_sqrt(cond_u.effect(lab1), tol)
    w2 = psd_sqrt(cond_u.effect(lab2), tol)

    subsets = _sample_subsets(union)
    lhs = cond_u.effects(subsets)
    b1 = cond1.effects([cells & lab1 for cells in subsets])
    b2 = cond2.effects([cells & lab2 for cells in subsets])
    # both sides hermitized, as the effects are, so every difference is
    # bit-Hermitian and normed by eigvalsh
    rhs = cond_u._sandwich(s1 @ b1 @ s1 + s2 @ b2 @ s2)
    plain = op_norm(lhs - b1 - b2).max()
    weighted = op_norm(lhs - hermitize(w1 @ b1 @ w1 + w2 @ b2 @ w2)).max()
    report = CheckReport(name="composition_identity")
    report.add("identity_residual", op_norm(lhs - rhs).max(), tol)
    report.add("plain_additivity_gap", plain, tol=None,
               note="expected > 0: additivity fails across laboratories")
    report.add("weighted_additivity_gap", weighted, tol=None,
               note="0 for commuting models; > 0 flags the noncommutative obstruction")
    return report


def cross_lab_commutator(
    sys: LatticeLocalizationSystem,
    lab_a: Iterable[int],
    cells_a: Iterable[int],
    lab_b: Iterable[int],
    cells_b: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> float:
    """||[B_labA(cellsA), B_labB(cellsB)]||, measurement only.

    No verdict is attached: whether causally separated laboratories' effects
    commute is left open, so the toolkit reports the magnitude and lets the
    caller correlate it with the laboratories' geometry.
    """
    B_a = build_conditional(sys, as_cells(lab_a, sys.n), tol=tol).effect(cells_a)
    B_b = build_conditional(sys, as_cells(lab_b, sys.n), tol=tol).effect(cells_b)
    return commutator_norm(B_a, B_b)
