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
    as_matrix,
    dag,
    eigh_checked,
    herm_residual,
    op_norm,
    psd_sqrt,
)
from .reporting import CheckReport


class DiscretePOVM:
    """Finite family of effects T_1..T_N summing to the identity."""

    def __init__(self, effects: Sequence[np.ndarray], labels: Sequence[str] | None = None):
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        self.effects = [as_matrix(E) for E in effects]
        dim = self.effects[0].shape[0]
        if any(E.shape[0] != dim for E in self.effects):
            raise ValueError("all effects must share one dimension")
        if labels is None:
            labels = [str(j) for j in range(len(self.effects))]
        if len(labels) != len(self.effects):
            raise ValueError("one label per effect required")
        self.labels = list(labels)

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
    sum_k K†_{jk} K_{jk} equal to the induced effect T_j.
    """

    def __init__(
        self,
        outcome_families: Sequence[Sequence[np.ndarray]],
        labels: Sequence[str] | None = None,
    ):
        if not outcome_families:
            raise ValueError("an instrument needs at least one outcome")
        self.families = [[as_matrix(K) for K in fam] for fam in outcome_families]
        if any(not fam for fam in self.families):
            raise ValueError("every outcome needs at least one Kraus operator")
        dim = self.families[0][0].shape[0]
        if any(K.shape[0] != dim for fam in self.families for K in fam):
            raise ValueError("all Kraus operators must share one dimension")
        if labels is None:
            labels = [str(j) for j in range(len(self.families))]
        self.labels = list(labels)

    @property
    def dim(self) -> int:
        return self.families[0][0].shape[0]

    def __len__(self) -> int:
        return len(self.families)

    @property
    def efficient(self) -> bool:
        return all(len(fam) == 1 for fam in self.families)

    def effect(self, j: int) -> np.ndarray:
        return sum(dag(K) @ K for K in self.families[j])

    @property
    def povm(self) -> DiscretePOVM:
        return DiscretePOVM([self.effect(j) for j in range(len(self))], self.labels)

    def all_kraus(self) -> list[np.ndarray]:
        return [K for fam in self.families for K in fam]

    def dual_apply(self, X: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action of the non-selective measurement:
        X -> sum_{jk} K†_{jk} X K_{jk}."""
        X = as_matrix(X)
        return sum(dag(K) @ X @ K for K in self.all_kraus())


def identity_instrument(dim: int) -> KrausInstrument:
    return KrausInstrument([[np.eye(dim, dtype=complex)]], labels=["0"])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_effect(M, tol: float = DEFAULT_TOL, name: str = "effect") -> CheckReport:
    """Check 0 <= M <= I and Hermiticity, reporting each residual."""
    M = as_matrix(M)
    report = CheckReport(name=name)
    scale = max(1.0, op_norm(M))
    report.add("hermiticity", herm_residual(M), tol * scale)
    w = np.linalg.eigvalsh(0.5 * (M + dag(M)))
    report.add("min_eigenvalue >= -tol", max(0.0, -float(w[0])), tol * scale,
               note=f"min eigenvalue {w[0]:.3e}")
    report.add("max_eigenvalue <= 1+tol", max(0.0, float(w[-1]) - 1.0), tol * scale,
               note=f"max eigenvalue {w[-1]:.3e}")
    return report


def validate_state(M, tol: float = DEFAULT_TOL, name: str = "state") -> CheckReport:
    M = as_matrix(M)
    report = CheckReport(name=name)
    scale = max(1.0, op_norm(M))
    report.add("hermiticity", herm_residual(M), tol * scale)
    w = np.linalg.eigvalsh(0.5 * (M + dag(M)))
    report.add("positivity", max(0.0, -float(w[0])), tol * scale)
    report.add("unit_trace", abs(float(np.trace(M).real) - 1.0), tol)
    return report


def validate_povm(
    povm: DiscretePOVM,
    tol: float = DEFAULT_TOL,
    require_strict_positive: bool = False,
    name: str = "povm",
) -> CheckReport:
    """Check every effect contract plus the normalization sum_j T_j = I.

    Zero effects are permitted by default (outcome relabeling should not
    invalidate data); ``require_strict_positive`` enforces T_j != 0.
    """
    report = CheckReport(name=name)
    for j, E in enumerate(povm.effects):
        sub = validate_effect(E, tol, name=f"effect[{j}]")
        report.items.extend(sub.items)
        if require_strict_positive:
            report.add(f"effect[{j}] nonzero", 0.0 if op_norm(E) > tol else 1.0, 0.5,
                       note="strict positivity toggle")
    report.add("normalization", povm.normalization_residual(), tol * max(1.0, len(povm)))
    return report


def validate_instrument(
    instr: KrausInstrument, tol: float = DEFAULT_TOL, name: str = "instrument"
) -> CheckReport:
    """Check sum_k K†_{jk}K_{jk} = T_j for each j and the induced POVM."""
    report = CheckReport(name=name)
    povm = instr.povm
    for j in range(len(instr)):
        # the induced effect is Hermitian PSD by construction; check its range
        sub = validate_effect(povm[j], tol, name=f"induced_effect[{j}]")
        report.items.extend(sub.items)
    report.add("normalization", povm.normalization_residual(), tol * max(1.0, len(instr)))
    report.notes.append(f"efficient={instr.efficient}")
    return report


def validate(obj, tol: float = DEFAULT_TOL) -> CheckReport:
    """Dispatching validator for POVMs, instruments, and raw matrices.

    A raw ndarray is validated as an effect; wrap states explicitly with
    :func:`validate_state`.
    """
    if isinstance(obj, KrausInstrument):
        return validate_instrument(obj, tol)
    if isinstance(obj, DiscretePOVM):
        return validate_povm(obj, tol)
    return validate_effect(obj, tol)


# ---------------------------------------------------------------------------
# instruments and post-measurement states
# ---------------------------------------------------------------------------

def luders_instrument(povm: DiscretePOVM, tol: float = DEFAULT_TOL) -> KrausInstrument:
    """Efficient instrument with K_j the PSD square root of T_j."""
    rep = validate_povm(povm, tol)
    if not rep.passed:
        bad = ", ".join(it.name for it in rep.failed_items)
        raise ValueError(f"invalid POVM for a Lüders instrument: {bad}")
    return KrausInstrument([[psd_sqrt(E, tol)] for E in povm.effects], povm.labels)


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


def outcome_probability(rho, instr: KrausInstrument, j: int) -> float:
    rho = as_matrix(rho)
    return float(np.trace(rho @ instr.effect(j)).real)


def selective_post_state(
    rho,
    instr: KrausInstrument,
    j: int,
    prob_floor: float = PROB_FLOOR,
) -> tuple[float, np.ndarray]:
    """Outcome probability and the normalized conditional state for outcome j.

    Raises if the outcome probability is below ``prob_floor``: the conditional
    state is undefined there.
    """
    rho = as_matrix(rho)
    prob = outcome_probability(rho, instr, j)
    if prob <= prob_floor:
        raise ValueError(
            f"outcome {j} has probability {prob:.3e} <= floor {prob_floor:.3e}; "
            "conditional state undefined"
        )
    out = sum(K @ rho @ dag(K) for K in instr.families[j]) / prob
    return prob, out


def nonselective_post_state(rho, instr: KrausInstrument) -> np.ndarray:
    """Post-measurement state when all outcomes are collected together:
    rho -> sum_{jk} K_{jk} rho K†_{jk}."""
    rho = as_matrix(rho)
    return sum(K @ rho @ dag(K) for K in instr.all_kraus())


def sequential_joint_prob(rho, first: KrausInstrument, j: int, second_effect) -> float:
    """Probability of outcome j for ``first`` followed by a click of
    ``second_effect``, using the unnormalized sub-state convention:
    sum_k tr(S K_{jk} rho K†_{jk}).

    Equals prob(j) * tr(rho_j S) when prob(j) > 0 and 0 when the outcome
    family annihilates rho.
    """
    rho = as_matrix(rho)
    S = as_matrix(second_effect)
    sub = sum(K @ rho @ dag(K) for K in first.families[j])
    return float(np.trace(S @ sub).real)
