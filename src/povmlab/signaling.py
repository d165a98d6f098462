"""No-signaling and relativistic-consistency deviation functionals.

The "for every state rho" quantifiers are discharged exactly: a functional
linear in rho attains its extreme over the state body at a spectral projector,
so each deviation reduces to a single matrix residual instead of state
sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import haar_unitary
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    commutator,
    commutator_norm,
    dag,
    hermitize,
    max_abs,
    op_norm,
)
from .measurement import DiscretePOVM, KrausInstrument, luders_instrument
from .reporting import CheckReport

RCC_CONVENTION_NOTE = (
    "sequential statistics use the unnormalized sub-state convention: the "
    "joint probability of (j then i) is tr(rho K†_j S_i K_j); the literal "
    "product form with a normalized conditional state carries a second "
    "factor equal to 1"
)


def nsc_deviation(instr: KrausInstrument, S) -> float:
    """Operator norm of sum_{jk} K†_{jk} S K_{jk} - S.

    This equals sup over states rho of |tr(rho' S) - tr(rho S)| for the
    non-selective post-state rho', because the expression is linear in rho and
    the supremum of |tr(rho X)| over states is the spectral radius of the
    Hermitian X.  The dual image is Hermitian for Hermitian S, so it is
    hermitized; the difference is then bit-Hermitian, and normed by
    ``eigvalsh``, exactly when S is.
    """
    S = as_matrix(S)
    if S.shape[0] != instr.dim:
        raise ValueError(f"dimension mismatch: effect {S.shape[0]}, instrument {instr.dim}")
    return op_norm(hermitize(instr.dual_apply(S)) - S)


def rcc_deviation(first: KrausInstrument, second: KrausInstrument) -> float:
    """Largest entrywise discrepancy between the Heisenberg-picture joint
    operators of the two measurement orders.

    For each outcome pair (j, i) the operator
    D = K†_j S_i K_j - L†_i T_j L_i governs the order dependence of the
    sequential statistics: D = 0 for all pairs iff the joint probabilities
    agree for every state.  Defined for efficient instruments only.
    """
    if not first.efficient or not second.efficient:
        raise ValueError("rcc deviation is defined for efficient instruments only")
    if first.dim != second.dim:
        raise ValueError("dimension mismatch between instruments")
    K, L = first.kraus[:, None], second.kraus
    T, S = dag(K) @ K, dag(L) @ L
    return max_abs(dag(K) @ S @ K - dag(L) @ T @ L)


def commutator_residual(T: DiscretePOVM, S: DiscretePOVM) -> float:
    """max over (j, i) of the operator norm of [T_j, S_i], by
    ``commutator_norm`` over all pairs at once."""
    if T.dim != S.dim:
        raise ValueError("dimension mismatch between POVMs")
    return float(commutator_norm(np.stack(T.effects)[:, None], np.stack(S.effects)).max())


def kraus_commutator_residual(instr: KrausInstrument, S) -> float:
    """max over Kraus operators of max(||[K, S]||, ||[K†, S]||), through
    the SVD: a Kraus operator is not Hermitian."""
    S, K = as_matrix(S), instr.kraus
    return float(np.maximum(op_norm(commutator(K, S)).max(),
                            op_norm(commutator(dag(K), S)).max()))


def _biconditional(left: bool, right: bool, *sides: float) -> float:
    """The 0/1 flag of two sides judged at tolerance: 0.0 when they agree,
    1.0 when they disagree, NaN when a side's residual is NaN, as no
    comparison decides it."""
    return np.nan if np.isnan(sides).any() else float(left != right)


def luders_equivalence_check(
    T: DiscretePOVM, S: DiscretePOVM, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Test the commutativity <-> no-signaling/consistency equivalence for the
    Lüders measurements of two POVMs.

    In finite dimension every effect has discrete spectrum, so the equivalence
    applies unconditionally; a disagreement between the two sides at tolerance
    fails the ``biconditional`` item, never silently passed.  The deviations
    and the commutator residual are recorded, not asserted.
    """
    instr_T = luders_instrument(T, tol)
    instr_S = luders_instrument(S, tol)
    nsc = max(nsc_deviation(instr_T, Si) for Si in S.effects)
    rcc = rcc_deviation(instr_T, instr_S)
    comm = commutator_residual(T, S)
    scale = max(op_norm(Si) for Si in S.effects)
    commuting = comm <= tol
    deviations_small = nsc <= tol * scale and rcc <= tol * scale
    report = CheckReport(name="luders_equivalence")
    report.add("nsc_deviation", nsc)
    report.add("rcc_deviation", rcc)
    report.add("commutator_residual", comm)
    report.add("biconditional", _biconditional(commuting, deviations_small, nsc, rcc, comm),
               0.5, note="commutators ~ 0 iff deviations ~ 0")
    report.notes.append(RCC_CONVENTION_NOTE)
    return report


def beck_check(instr: KrausInstrument, S, tol: float = DEFAULT_TOL) -> CheckReport:
    """Kraus-commutation test for general (possibly non-efficient)
    non-selective measurements.

    kappa = max_{jk} max(||[K_{jk}, S]||, ||[K†_{jk}, S]||) vanishing must
    force both d1 = nsc(S) and d2 = nsc(S^2) to vanish; the ``biconditional``
    item fails when the two sides disagree at tolerance.  kappa small also
    forces the induced effects to commute with S, by
    [K†K, S] = K†[K, S] + [K†, S]K, so that claim needs no check of its own.
    """
    S = as_matrix(S)
    d1 = nsc_deviation(instr, S)
    S2 = hermitize(S @ S)
    d2 = nsc_deviation(instr, S2) if np.isfinite(S2).all() else np.nan  # S^2 overflowed
    kappa = kraus_commutator_residual(instr, S)
    scale = max(op_norm(S), 1e-300)
    kraus_commuting = kappa <= tol
    deviations_small = d1 <= tol * scale and d2 <= tol * scale
    report = CheckReport(name="beck")
    report.add("nsc_deviation", d1)
    report.add("nsc_deviation_squared", d2)
    report.add("kraus_commutator", kappa)
    report.add("biconditional", _biconditional(kraus_commuting, deviations_small, d1, d2, kappa),
               0.5)
    return report


# ---------------------------------------------------------------------------
# counterexample: no-signaling for S but not for S^2
# ---------------------------------------------------------------------------

# a witness has nsc(S) <= D1_MAX and nsc(S^2) >= D2_MIN
D1_MAX = 1e-9
D2_MIN = 1e-3


@dataclass
class SearchWitness:
    """Instrument/effect pair with nsc(S) ~ 0 but nsc(S^2) large."""

    instrument: KrausInstrument
    effect: np.ndarray
    d1: float
    d2: float


def _level_fixing_instance(
    dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random instrument/effect pair whose dual map fixes S exactly but mixes
    the squared levels.

    S is diagonal with levels s_1 > ... in a Haar-random basis.  One middle
    level is split between the extreme levels with the unique weight that
    preserves the S-expectation; strict convexity then shifts the S^2
    expectation.
    """
    levels = np.sort(rng.uniform(0.0, 1.0, size=dim))[::-1]
    levels[0] = max(levels[0], 0.9)
    levels[-1] = min(levels[-1], 0.1)
    hi, lo = 0, dim - 1
    mid = int(rng.integers(1, dim - 1))
    # keep the split well inside (0, 1) so d2 stays macroscopic
    levels[mid] = rng.uniform(0.35, 0.65) * (levels[hi] - levels[lo]) + levels[lo]
    alpha = (levels[mid] - levels[lo]) / (levels[hi] - levels[lo])

    ops = np.zeros((3, dim, dim), dtype=complex)  # keep, up, down
    ops[0] = np.diag(np.arange(dim) != mid)
    ops[1, hi, mid], ops[2, lo, mid] = np.sqrt(alpha), np.sqrt(1.0 - alpha)

    Q = haar_unitary(dim, rng)
    S = Q @ np.diag(levels).astype(complex) @ dag(Q)
    return (Q @ ops @ dag(Q))[:, None], S


def heinosaari_wolf_search(dim: int, seed: int) -> SearchWitness:
    """Seeded draw of an instrument and effect with nsc(S) <= D1_MAX while
    nsc(S^2) >= D2_MIN.

    One level-fixing instance is drawn, and it qualifies: its dual map fixes
    S, so d1 is rounding, and it moves the split level's S^2 expectation by
    alpha(1 - alpha)(s_hi - s_lo)^2 >= 0.35 * 0.65 * 0.8^2 > 0.145.  The
    caller asserts both bounds on the returned d1 and d2.
    """
    if dim < 3:
        raise ValueError(f"need dim >= 3 for three distinct levels, got {dim}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    families, S = _level_fixing_instance(dim, rng)
    instr = KrausInstrument(families)
    return SearchWitness(instr, S, nsc_deviation(instr, S), nsc_deviation(instr, S @ S))
