"""Effects, finite discrete POVMs, Kraus instruments, and post-measurement
states.

Effects and density states are plain real or complex ndarrays; their
contracts (Hermiticity, positivity, trace) live in the ``validate_*``
functions.
:class:`DiscretePOVM` and :class:`KrausInstrument` wrap the structured
families.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PROB_FLOOR,
    Eig,
    as_matrix,
    dag,
    eigh_checked,
    herm_residual,
    op_norm,
)
from .reporting import CheckReport


def _outcome_labels(labels: Sequence[str] | None, count: int) -> list[str]:
    """One label per outcome, from a list or tuple; "0", "1", ... by default."""
    if labels is None:
        return [str(j) for j in range(count)]
    if not isinstance(labels, (list, tuple)) or len(labels) != count:
        raise ValueError(f"labels must be a list or tuple of one label per outcome ({count})")
    return list(labels)


class DiscretePOVM:
    """Finite family of effects T_1..T_N summing to the identity."""

    def __init__(self, effects: Sequence[np.ndarray], labels: Sequence[str] | None = None):
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        self.effects = [as_matrix(E) for E in effects]
        dim = self.effects[0].shape[0]
        if any(E.shape[0] != dim for E in self.effects):
            raise ValueError("all effects must share one dimension")
        self.labels = _outcome_labels(labels, len(self.effects))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)

    def __getitem__(self, j: int) -> np.ndarray:
        return self.effects[j]

    def normalization_residual(self) -> float:
        return op_norm(sum(self.effects) - np.eye(self.dim))


class KrausInstrument:
    """Kraus families realizing each outcome of a POVM.

    Outcome j is implemented by the finite family K_{j0}, K_{j1}, ... with
    sum_k K†_{jk} K_{jk} equal to the induced effect T_j.  ``kraus`` stacks
    every Kraus operator, (m, d, d), and ``families[j]`` is outcome j's piece.
    """

    def __init__(
        self,
        outcome_families: Sequence[Sequence[np.ndarray]],
        labels: Sequence[str] | None = None,
    ):
        sizes = [len(fam) for fam in outcome_families]
        if not sizes:
            raise ValueError("an instrument needs at least one outcome")
        if not all(sizes):
            raise ValueError("every outcome needs at least one Kraus operator")
        kraus = [as_matrix(K) for fam in outcome_families for K in fam]
        if any(K.shape != kraus[0].shape for K in kraus):
            raise ValueError("all Kraus operators must share one dimension")
        self.kraus = np.stack(kraus)
        self.families = np.split(self.kraus, np.cumsum(sizes)[:-1])
        self.labels = _outcome_labels(labels, len(sizes))

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    def __len__(self) -> int:
        return len(self.families)

    @property
    def efficient(self) -> bool:
        return len(self.kraus) == len(self.families)

    def effect(self, j: int) -> np.ndarray:
        fam = self.families[j]
        return (dag(fam) @ fam).sum(axis=0)

    @property
    def povm(self) -> DiscretePOVM:
        return DiscretePOVM([self.effect(j) for j in range(len(self))], self.labels)

    def dual_apply(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action of the non-selective measurement:
        X -> sum_{jk} K†_{jk} X K_{jk}."""
        return (dag(self.kraus) @ as_matrix(X) @ self.kraus).sum(axis=0)


def identity_instrument(dim: int) -> KrausInstrument:
    return KrausInstrument([[np.eye(dim, dtype=complex)]], labels=["0"])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _add_contract(report: CheckReport, M: np.ndarray, tol: float, effect: bool) -> Eig:
    """Add Hermiticity, min eigenvalue >= -tol and, for an effect, max
    eigenvalue <= 1+tol to ``report`` at tol * max(1, ||H||), H the Hermitian
    part of M; return the one decomposition they read, that of H.  The
    Hermiticity item is ``eigh_checked``'s guard: it passes exactly when
    ``eigh_checked(M, tol)`` accepts M."""
    eig = Eig.of(M)
    scale = tol * max(1.0, eig.norm)
    report.add("hermiticity", herm_residual(M), scale)
    report.add("min_eigenvalue >= -tol", max(0.0, -float(eig.w[0])), scale,
               note=f"min eigenvalue {eig.w[0]:.3e}")
    if effect:
        report.add("max_eigenvalue <= 1+tol", max(0.0, float(eig.w[-1]) - 1.0), scale,
                   note=f"max eigenvalue {eig.w[-1]:.3e}")
    return eig


def validate_effect(M, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check 0 <= M <= I and Hermiticity, reporting each residual."""
    report = CheckReport(name="effect")
    _add_contract(report, as_matrix(M), tol, effect=True)
    return report


def validate_state(M, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check M >= 0, Hermiticity and tr M = 1."""
    M = as_matrix(M)
    report = CheckReport(name="state")
    _add_contract(report, M, tol, effect=False)
    report.add("unit_trace", abs(float(np.trace(M).real) - 1.0), tol)
    return report


def _povm_contract(povm: DiscretePOVM, tol: float) -> tuple[CheckReport, list[Eig]]:
    """``validate_povm``'s report and the decomposition of each effect."""
    report = CheckReport(name="povm")
    eigs = [_add_contract(report, E, tol, effect=True) for E in povm.effects]
    report.add("normalization", povm.normalization_residual(), tol * max(1.0, len(povm)))
    return report, eigs


def validate_povm(povm: DiscretePOVM, tol: float = DEFAULT_TOL) -> CheckReport:
    """Check every effect contract plus the normalization sum_j T_j = I.

    Zero effects are permitted (outcome relabeling should not invalidate
    data).
    """
    return _povm_contract(povm, tol)[0]


# ---------------------------------------------------------------------------
# instruments and post-measurement states
# ---------------------------------------------------------------------------

def luders_instrument(povm: DiscretePOVM, tol: float = DEFAULT_TOL) -> KrausInstrument:
    """Efficient instrument with K_j the PSD square root of T_j, taken from
    the decomposition that validated T_j."""
    report, eigs = _povm_contract(povm, tol)
    if not report.passed:
        bad = ", ".join(it.name for it in report.failed_items)
        raise ValueError(f"invalid POVM for a Lüders instrument: {bad}")
    return KrausInstrument([[eig.sqrt()] for eig in eigs], povm.labels)


def polar_kraus(T, V, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Kraus operator K = V sqrt(T) for a partial isometry V.

    V must act isometrically on the range of sqrt(T); then K†K = T.
    """
    T = as_matrix(T)
    V = as_matrix(V)
    eig = eigh_checked(T, tol)
    support = eig.V[:, eig.w > tol * max(1.0, float(eig.w[-1]))]
    if support.size:
        gram = dag(support) @ dag(V) @ V @ support
        residual = op_norm(gram - np.eye(support.shape[1]))
        if residual > max(tol, 1e-8):
            raise ValueError(
                f"V is not isometric on the range of sqrt(T): residual {residual:.3e}"
            )
    return V @ eig.sqrt()


def selective_post_state(rho, instr: KrausInstrument, j: int) -> tuple[float, np.ndarray]:
    """Outcome probability and the normalized conditional state for outcome j.

    Raises if the outcome probability is at most ``PROB_FLOOR``: the
    conditional state is undefined there.
    """
    rho = as_matrix(rho)
    prob = float(np.trace(rho @ instr.effect(j)).real)
    if prob <= PROB_FLOOR:
        raise ValueError(
            f"outcome {j} has probability {prob:.3e} <= floor {PROB_FLOOR:.3e}; "
            "conditional state undefined"
        )
    fam = instr.families[j]
    return prob, (fam @ rho @ dag(fam)).sum(axis=0) / prob


def nonselective_post_state(rho, instr: KrausInstrument) -> np.ndarray:
    """Post-measurement state when all outcomes are collected together:
    rho -> sum_{jk} K_{jk} rho K†_{jk}."""
    K = instr.kraus
    return (K @ as_matrix(rho) @ dag(K)).sum(axis=0)

