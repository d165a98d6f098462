"""Finite cyclic-lattice models of spatial localization observables.

One spatial dimension with cyclic boundary: translations form Z_n, standing
in for the continuum translation group, which buys exact covariance with
finite matrices.  Cell effects sum to the identity (the discrete analogue of
POVM normalization on a rest space), the one-cell shift is unitary, and the
dynamics commutes with translations.  The cell effects are real symmetric
float64 matrices and the shift is complex; the Hamiltonian is real exactly
when its spectrum is mirror-symmetric (time reversal).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import FourVector, RegionUnion, SpacetimeBox, TIME_AXIS
from .linalg import (
    DEFAULT_TOL,
    Eig,
    as_matrix,
    commutator,
    commutator_norm,
    dag,
    hermitize,
    op_norm,
)
from .reporting import CheckReport


def as_cells(cells: Iterable[int], n: int) -> frozenset[int]:
    out = frozenset(map(int, cells))
    if out and (min(out) < 0 or max(out) >= n):
        raise ValueError(f"cell indices must lie in 0..{n - 1}")
    return out


class CellEffects(Sequence):
    """The cell effects E_0, ..., E_{n-1} of a system, each built by
    ``build(k)`` on first read and kept.

    A laboratory reads only its own cells, so no E_k is built before it is
    read.  ``build`` is deterministic, so two threads racing on one cell
    build the same bits and either copy is kept.  Slices are lists.
    """

    def __init__(self, n: int, build: Callable[[int], np.ndarray]):
        self._build = build
        self._built: list[np.ndarray | None] = [None] * n

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, key):
        cells = range(len(self._built))[key]
        return self.take(cells) if isinstance(key, slice) else self.take((cells,))[0]

    def take(self, cells: Sequence[int]) -> list[np.ndarray]:
        """E_k for each k of ``cells``, in one call; each k in 0..n-1."""
        built = self._built
        for k in cells:
            if built[k] is None:
                built[k] = self._build(k)
        return [built[k] for k in cells]


@dataclass
class LatticeLocalizationSystem:
    """Cell effects, shift unitary, and Hamiltonian on an n-cell ring.

    The builders give ``cell_effects`` as ``CellEffects``; any sequence of
    n matrices, a plain list included, works as well.
    """

    n: int
    a: float
    cell_effects: Sequence[np.ndarray]
    shift: np.ndarray
    hamiltonian: np.ndarray

    _eig: Eig | None = field(default=None, repr=False)

    def energy_eigensystem(self) -> Eig:
        if self._eig is None:
            self._eig = Eig(*np.linalg.eigh(hermitize(self.hamiltonian)))
        return self._eig

    def complement(self, cells: Iterable[int]) -> frozenset[int]:
        cells = as_cells(cells, self.n)
        return frozenset(range(self.n)) - cells


def cell_sum(effects, cells: Iterable[int], dim: int) -> np.ndarray:
    """The sum of ``effects[k]`` over the cells, a dim x dim matrix; exactly
    additive over disjoint unions by construction.  Summed in sorted cell
    order, so the bits do not depend on how the cells were listed.
    ``CellEffects`` are fetched in one ``take`` call; any other sequence or
    mapping is indexed by cell."""
    order = sorted(cells)
    if isinstance(effects, CellEffects):
        members = effects.take(order)
    else:
        members = [effects[k] for k in order]
    out = np.zeros((dim, dim), dtype=np.result_type(float, *members))
    for E in members:
        out += E
    return out


def effect_of(sys: LatticeLocalizationSystem, cells: Iterable[int]) -> np.ndarray:
    """A(cells), the sum of the member cell effects (``cell_sum``)."""
    return cell_sum(sys.cell_effects, as_cells(cells, sys.n), sys.n)


def heisenberg_evolve(sys: LatticeLocalizationSystem, M, t: float) -> np.ndarray:
    """exp(-itH) M exp(itH) for one matrix or each of an (..., n, n) stack,
    through the eigendecomposition of H.

    The plain formula, the oracle for ``hc_audit``'s eigenbasis evolution.
    At t = 0 the coerced ``M`` comes back itself, same bits and dtype, and H
    is not decomposed; otherwise the result is complex.
    """
    M = as_matrix(M, stack=True)
    if t == 0:
        return M
    energy = sys.energy_eigensystem()
    U = energy.apply(np.exp(-1j * t * energy.w))
    return U @ M @ dag(U)


def _dft(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def _shift_matrix(n: int) -> np.ndarray:
    U = np.zeros((n, n), dtype=complex)
    for k in range(n):
        U[(k + 1) % n, k] = 1.0
    return U


def lattice_dispersion(n: int, mass: float, a: float) -> np.ndarray:
    """Positive branch omega_j = sqrt(mass^2 + p_j^2) with the lattice
    momentum p_j = (2/a) sin(pi j / n).  p_j is taken at min(j, n - j), so
    omega_j = omega_{n-j} bit for bit.  A mass or momentum whose square
    overflows is refused with a ValueError."""
    j = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * sin(0) is nan
        p = (2.0 / a) * np.sin(np.pi * np.minimum(j, n - j) / n)
        omega = np.sqrt(mass * mass + p * p)
    if not np.isfinite(omega).all():
        raise ValueError(f"mass {mass!r} and a {a!r} give a non-finite dispersion")
    return omega


def _hamiltonian_from_spectrum(F: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """F† diag(omega) F for the DFT matrix F of ``_dft``; its real part when
    omega_j = omega_{n-j} bit for bit, where the imaginary parts are rounding."""
    H = hermitize((dag(F) * omega) @ F)
    if np.array_equal(omega, omega[-np.arange(len(omega)) % len(omega)]):
        return H.real.copy()
    return H


def _position_basis_system(
    n: int, mass: float, a: float, alternating: bool
) -> LatticeLocalizationSystem:
    """Position projectors and the shift, with H from the lattice dispersion,
    its signs alternating when asked."""
    if n < 2 or mass <= 0 or a <= 0:
        raise ValueError("need n >= 2, mass > 0, a > 0")
    eye = np.eye(n)
    effects = CellEffects(n, lambda k: np.outer(eye[:, k], eye[:, k]))
    omega = lattice_dispersion(n, mass, a)
    if alternating:
        omega = omega * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    H = _hamiltonian_from_spectrum(_dft(n), omega)
    return LatticeLocalizationSystem(n, a, effects, _shift_matrix(n), H)


def build_sharp_system(n: int, mass: float, a: float = 1.0) -> LatticeLocalizationSystem:
    """Sharp (projector-valued) localization with positive dispersion.

    E_k are the position-basis projectors, the shift permutes them cyclically,
    and H shares the Fourier eigenbasis with the shift, so [H, U] = 0 and the
    energy is bounded below by the mass.
    """
    return _position_basis_system(n, mass, a, alternating=False)


def build_alternating_system(n: int, mass: float, a: float = 1.0) -> LatticeLocalizationSystem:
    """Sharp system with a sign-alternating energy spectrum.

    The dispersion carries alternating signs, so the generator is unbounded
    below on purpose: the escape route where localization projectors may
    commute without forcing trivial effects.
    """
    return _position_basis_system(n, mass, a, alternating=True)


def gaussian_frame_vector(n: int, center: int, width: float) -> np.ndarray:
    """Periodized Gaussian profile centered at a cell, width in cells."""
    x = np.arange(n, dtype=float)
    g = np.zeros(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m in (-2, -1, 0, 1, 2):
            g += np.exp(-((x - center + m * n) ** 2) / (2.0 * width * width))
    if not np.isfinite(g).all():
        raise ValueError(f"width {width!r} gives a non-finite Gaussian profile")
    return g


def build_frame_smeared_system(
    n: int, mass: float, a: float = 1.0, width: float = 1.5, sharpness: float = 0.9
) -> LatticeLocalizationSystem:
    """Unsharp localization built on translates of a Gaussian frame vector.

    Each cell effect is a rank-one Gaussian component plus the unique
    translation-invariant completion restoring exact normalization:

        E_k = alpha |g_k><g_k| + D,

    with g_k the normalized periodized Gaussian at cell k, D diagonal in the
    shift eigenbasis with weights 1/n - alpha |g-hat_j|^2, and alpha capped at
    ``sharpness`` of the largest admissible transition weight so that D stays
    strictly positive.  Consequences, all exact by construction: sum_k E_k = I,
    shift covariance (g_{k+1} = U g_k and [D, U] = 0), every E_k > 0, and
    effects of distinct cells do not commute (overlapping non-orthogonal
    Gaussians).  A(cells) therefore has trivial kernel for every nonempty cell
    set, which is what laboratory conditioning downstream needs.

    Large width drives all effects toward one another (proportional,
    commutator-rich); small width approaches the sharp projectors plus a thin
    invariant floor.
    """
    if n < 2 or mass <= 0 or a <= 0 or width <= 0:
        raise ValueError("need n >= 2, mass > 0, a > 0, width > 0")
    if not 0.0 < sharpness < 1.0:
        raise ValueError("sharpness must lie strictly between 0 and 1")
    g = gaussian_frame_vector(n, 0, width)
    g = g / np.linalg.norm(g)
    F = _dft(n)
    power = np.abs(F @ g) ** 2  # sums to 1
    if power.max() <= 0:
        raise ValueError("degenerate frame vector")
    alpha = sharpness / (n * float(power.max()))
    dvals = 1.0 / n - alpha * power  # >= (1 - sharpness)/n > 0
    # D is real (d_j = d_{n-j}); its computed imaginary parts are rounding
    D = hermitize((dag(F) * dvals) @ F).real
    # alpha |g_k><g_k| is alpha |g><g| rolled by k along both axes; it and D
    # are exactly symmetric, so each effect is too, with no hermitize
    P = alpha * np.outer(g, g)
    effects = CellEffects(n, lambda k: np.roll(P, (k, k), axis=(0, 1)) + D)
    H = _hamiltonian_from_spectrum(F, lattice_dispersion(n, mass, a))
    return LatticeLocalizationSystem(n, a, effects, _shift_matrix(n), H)


def build_diagonal_smeared_system(
    n: int, mass: float, a: float = 1.0, width: float = 1.5
) -> LatticeLocalizationSystem:
    """Commuting unsharp localization: position projectors smeared by a
    strictly positive Gaussian kernel.

    E_k = sum_x w(x - k) |x><x| with the periodized kernel w normalized to
    sum 1, so all effects are diagonal (pairwise commuting), sum to the
    identity exactly, and every A(cells) has trivial kernel.  The commuting
    benchmark against which the frame-smeared system's noncommutative
    obstructions are measured.
    """
    if n < 2 or mass <= 0 or a <= 0 or width <= 0:
        raise ValueError("need n >= 2, mass > 0, a > 0, width > 0")
    w = gaussian_frame_vector(n, 0, width)
    w = w / w.sum()
    effects = CellEffects(n, lambda k: np.diag(np.roll(w, k)))
    H = _hamiltonian_from_spectrum(_dft(n), lattice_dispersion(n, mass, a))
    return LatticeLocalizationSystem(n, a, effects, _shift_matrix(n), H)


def validate_system(sys: LatticeLocalizationSystem, tol: float = DEFAULT_TOL) -> CheckReport:
    """Normalization, shift unitarity, translation covariance, [H, U] = 0."""
    report = CheckReport(name="lattice_system")
    eye = np.eye(sys.n)
    report.add("normalization", op_norm(sum(sys.cell_effects) - eye), tol * sys.n)
    report.add("shift_unitary", op_norm(dag(sys.shift) @ sys.shift - eye), tol * sys.n)
    cov = max(
        op_norm(
            sys.shift @ sys.cell_effects[k] @ dag(sys.shift)
            - sys.cell_effects[(k + 1) % sys.n]
        )
        for k in range(sys.n)
    )
    report.add("translation_covariance", cov, tol * sys.n)
    report.add("dynamics_translation_invariant",
               op_norm(commutator(sys.hamiltonian, sys.shift)),
               tol * max(1.0, op_norm(sys.hamiltonian)) * sys.n)
    return report


# ---------------------------------------------------------------------------
# causality residuals
# ---------------------------------------------------------------------------

def microcausality_residual(
    sys: LatticeLocalizationSystem,
    delta: Iterable[int],
    delta_prime: Iterable[int],
    times: Sequence[float],
) -> float:
    """max over t of ||[A(delta), e^{-itH} A(delta') e^{itH}]||."""
    delta = as_cells(delta, sys.n)
    delta_prime = as_cells(delta_prime, sys.n)
    if delta & delta_prime:
        raise ValueError("regions must be disjoint")
    A = effect_of(sys, delta)
    B0 = effect_of(sys, delta_prime)
    worst = 0.0
    for t in times:
        worst = max(worst, op_norm(commutator(A, heisenberg_evolve(sys, B0, float(t)))))
    return worst


def causal_shadow(
    sys: LatticeLocalizationSystem, cells: Iterable[int], t: float
) -> tuple[frozenset[int], bool]:
    """Cells reachable from ``cells`` at speed 1 within time |t|: the set
    expanded by ceil(|t|/a) on each side.  Second value flags saturation
    (shadow wraps the whole ring).  A reach of n already saturates, so the
    reach is clamped to n before it becomes an integer."""
    cells = as_cells(cells, sys.n)
    reach = int(np.ceil(min(abs(t) / sys.a - 1e-12, sys.n)))
    shadow = set()
    for k in cells:
        for d in range(-reach, reach + 1):
            shadow.add((k + d) % sys.n)
    shadow = frozenset(shadow)
    return shadow, len(shadow) == sys.n


def cc_residual(
    sys: LatticeLocalizationSystem, cells: Iterable[int], t: float
) -> float:
    """Causal-condition residual: min eigenvalue of
    e^{-itH} A(shadow) e^{itH} - A(cells).

    Non-negative (within tolerance) means the causal shadow dominates the
    original effect at time t; a clearly negative value witnesses
    superluminal probability leakage.  When the shadow saturates the ring the
    comparison is against the identity and the residual is >= 0 exactly.
    """
    cells = as_cells(cells, sys.n)
    shadow, _ = causal_shadow(sys, cells, t)
    A = effect_of(sys, cells)
    dominating = effect_of(sys, shadow)
    w = np.linalg.eigvalsh(hermitize(heisenberg_evolve(sys, dominating, t) - A))
    return float(w[0])


# ---------------------------------------------------------------------------
# no-go hypothesis audit
# ---------------------------------------------------------------------------

def _evolved_in_eigenbasis(B: np.ndarray, w: np.ndarray, t: float) -> np.ndarray:
    """B ∘ Φ_t, Φ_t = p p̄ᵀ with p = exp(-itw): B, written in the eigenbasis
    of H (eigenvalues w), evolved to time t.  Built from real products, so it
    is bit-Hermitian when B is; numpy's complex multiply may fuse a
    multiply-add and break that in the last bit."""
    c, s = np.cos(t * w), np.sin(t * w)
    re = np.multiply.outer(c, c) + np.multiply.outer(s, s)  # symmetric
    im = np.multiply.outer(c, s) - np.multiply.outer(s, c)  # antisymmetric
    out = np.empty(B.shape, dtype=complex)
    out.real = B.real * re - B.imag * im
    out.imag = B.real * im + B.imag * re
    return out


def hc_audit(
    sys: LatticeLocalizationSystem,
    delta_samples: Sequence[Iterable[int]],
    t_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Audit additivity, covariance, energy positivity, and microcausality
    on sampled regions, and reconcile the pattern with nontrivial effects.

    Additivity and covariance are asserted at tol * n; the energy minimum,
    the microcausality residual and the largest effect norm are recorded.
    The audit never claims the continuum theorem holds on the lattice: its
    one note names the hypothesis that fails whenever the effects are
    nontrivial, and the ``microcausality_witness`` records the worst pair.

    Microcausality is ``microcausality_residual`` over the disjoint pairs,
    taken in H's eigenbasis: Â = V† A V evolves by ``_evolved_in_eigenbasis``
    (norms are unitarily invariant), with one stacked ``commutator_norm`` per
    time; H is decomposed once, by ``eigh`` when some t != 0, else by
    ``eigvalsh``.  When H and the effects are real, time reversal makes
    (j, i) equal (i, j) at each t, so only i < j is audited and the witness
    lists the earlier-listed sample first.
    """
    samples = [as_cells(c, sys.n) for c in delta_samples]
    if not samples or not all(samples):
        raise ValueError("need at least one sampled region, and no empty one")
    eye = np.eye(sys.n)
    # the one-cell shift permutes rows and columns, so U A U† is a roll
    shift_is_roll = np.array_equal(sys.shift, np.roll(eye, 1, axis=0))

    effects = [effect_of(sys, cells) for cells in samples]
    additivity = 0.0
    covariance = 0.0
    max_norm = 0.0
    for cells, A in zip(samples, effects):
        comp = effect_of(sys, sys.complement(cells))
        additivity = max(additivity, op_norm(A + comp - eye))
        shifted = frozenset((k + 1) % sys.n for k in cells)
        moved = np.roll(A, (1, 1), (0, 1)) if shift_is_roll else sys.shift @ A @ dag(sys.shift)
        covariance = max(covariance, op_norm(moved - effect_of(sys, shifted)))
        max_norm = max(max_norm, op_norm(A))
    # additivity over sampled disjoint unions
    for k, (left, right) in enumerate(zip(samples, samples[1:])):
        if left & right:
            continue
        additivity = max(
            additivity, op_norm(effects[k] + effects[k + 1] - effect_of(sys, left | right))
        )

    # microcausality_residual over the disjoint pairs, in H's eigenbasis
    stack = np.stack(effects)
    if any(t != 0 for t in t_grid):
        energy = sys.energy_eigensystem()
        energy_min = float(energy.w[0])
        stack = hermitize(dag(energy.V) @ stack @ energy.V)
    else:
        energy_min = float(np.linalg.eigvalsh(hermitize(sys.hamiltonian))[0])
    time_reversal = np.isrealobj(sys.hamiltonian) and np.isrealobj(stack)
    pairs = [(i, j) for i, left in enumerate(samples) for j, right in enumerate(samples)
             if not left & right and (i < j or not time_reversal)]
    norms = np.zeros((len(pairs), len(t_grid)))
    left = stack[[i for i, _ in pairs]]
    right = [j for _, j in pairs]
    for k, t in enumerate(t_grid):
        at_t = _evolved_in_eigenbasis(stack, energy.w, t) if t != 0 else stack
        norms[:, k] = commutator_norm(left, at_t[right])
    by_abs_t = sorted(range(len(t_grid)), key=lambda k: abs(t_grid[k]))

    micro = 0.0
    witness: dict = {}
    for (i, j), row in zip(pairs, norms):
        r = max([0.0, *row])
        if r > micro:
            micro = r
            # smallest sampled time already above tolerance, for the record
            t_first = next((t_grid[k] for k in by_abs_t if row[k] > tol), None)
            witness = {
                "delta": sorted(samples[i]),
                "delta_prime": sorted(samples[j]),
                "first_violating_t": t_first,
            }

    if max_norm <= tol:
        verdict = "effects trivial: the no-go conclusion itself"
    elif additivity > tol:
        verdict = "hypothesis 1 (additivity) fails"
    elif covariance > tol:
        verdict = "hypothesis 2 (translation covariance) fails"
    elif energy_min < -tol:
        verdict = "hypothesis 3 (energy bounded below) fails"
    elif micro > tol:
        verdict = "hypothesis 4 (microcausality) fails; nontrivial effects consistent with the no-go theorem"
    else:
        verdict = (
            "all four hypotheses hold at tolerance with nontrivial effects: "
            "counterexample candidate, audit inputs deserve scrutiny"
        )
    report = CheckReport(name="hc_audit")
    report.add("additivity_residual", additivity, tol * sys.n)
    report.add("covariance_residual", covariance, tol * sys.n)
    report.add("energy_min_eig", energy_min)
    report.add("microcausality_residual", micro)
    report.add("max_effect_norm", max_norm)
    report.notes.append(verdict)
    report.witnesses["microcausality_witness"] = witness
    return report


# ---------------------------------------------------------------------------
# localization-region bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationClaim:
    """A claim that the elementary observable {A(cells), I - A(cells)} is
    measurable inside ``claimed_region``."""

    cells: frozenset[int]
    claimed_region: RegionUnion


def ldp_minimal_region(
    sys: LatticeLocalizationSystem,
    cells: Iterable[int],
    sigma_box: SpacetimeBox,
    tol: float = DEFAULT_TOL,
) -> RegionUnion:
    """Minimal region any localization claim for {A(cells), I - A(cells)}
    must contain: the whole rest-space box.

    Detecting inside ``cells`` decides the complement too, so local
    detectability applied to both the set and its complement forces the
    region to cover their union, i.e. the full rest space of the measurement.
    """
    cells = as_cells(cells, sys.n)
    norm_residual = op_norm(sum(sys.cell_effects) - np.eye(sys.n))
    if norm_residual > tol * sys.n:
        raise ValueError(
            f"system is not normalized on the full lattice (residual {norm_residual:.3e})"
        )
    return RegionUnion([sigma_box], TIME_AXIS)


def claim_consistent_with_ldp(claim: LocalizationClaim, minimal: RegionUnion) -> bool:
    """Sufficient check that the claimed region covers the forced minimal
    region (single-box cover test)."""
    from .geometry import region_contains_box

    return all(region_contains_box(claim.claimed_region, box) for box in minimal.boxes)


def lattice_rest_box(sys: LatticeLocalizationSystem, t: float = 0.0) -> SpacetimeBox:
    """Rest-space box of the full ring embedded on the x-axis at time t."""
    return SpacetimeBox(FourVector(t, 0.0, 0.0, 0.0), FourVector(t, sys.n * sys.a, 0.0, 0.0))


def cells_bounding_box(
    sys: LatticeLocalizationSystem, cells: Iterable[int], t: float = 0.0
) -> SpacetimeBox:
    """Bounding spatial box of a cell set on the x-axis at time t."""
    cells = as_cells(cells, sys.n)
    if not cells:
        raise ValueError("empty cell set has no bounding box")
    lo = min(cells) * sys.a
    hi = (max(cells) + 1) * sys.a
    return SpacetimeBox(FourVector(t, lo, 0.0, 0.0), FourVector(t, hi, 0.0, 0.0))


# ---------------------------------------------------------------------------
# projector-algebra identity behind sharp-case commutativity
# ---------------------------------------------------------------------------

def projector_screening_identity(P, Q, R, tol: float = DEFAULT_TOL) -> CheckReport:
    """For projectors with P <= Q and QR = 0, verify PR = 0.

    The chain PR = (PQ)R = P(QR) = 0 is pure projector algebra; the report
    checks the preconditions first and skips the conclusion when they fail
    (reported, not thrown).
    """
    P, Q, R = as_matrix(P), as_matrix(Q), as_matrix(R)
    dim = P.shape[0]
    report = CheckReport(name="projector_screening")
    pre = [
        report.add("P_projector", op_norm(P @ P - P), tol * dim),
        report.add("Q_projector", op_norm(Q @ Q - Q), tol * dim),
        report.add("R_projector", op_norm(R @ R - R), tol * dim),
        report.add("P_below_Q", op_norm(Q @ P - P), tol * dim),
        report.add("QR_zero", op_norm(Q @ R), tol * dim),
    ]
    if any(not item.passed for item in pre):
        report.notes.append("preconditions violated; conclusion skipped")
        return report
    PR = P @ R
    report.add("PR_zero", op_norm(PR), dim * tol)
    report.add("commutator_residual", op_norm(PR - dag(PR)), dim * tol,
               note="[P, R] = PR - (PR)† when PR = 0")
    return report
