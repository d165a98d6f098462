"""Finite cyclic-lattice models of spatial localization observables.

One spatial dimension with cyclic boundary: translations form Z_n, standing
in for the continuum translation group, which buys exact covariance with
finite matrices.  Cell effects sum to the identity (the discrete analogue of
POVM normalization on a rest space), the one-cell shift is unitary, and the
dynamics commutes with translations.  The cell effects are real symmetric
float64 matrices and the shift is complex; the Hamiltonian is real exactly
when its spectrum is mirror-symmetric (time reversal).  What a builder's
arguments decide (H, the shift and the ingredients of the cell effects) is
made once per process and shared read-only, and so is H's energy
decomposition, made on first use; every system builds its own cell effects,
and a system whose H was rebound decomposes that H itself.
"""
from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import FourVector, SpacetimeBox
from .linalg import (
    DEFAULT_TOL,
    Eig,
    as_matrix,
    commutator,
    commutator_norm,
    dag,
    hermitize,
    op_norm,
    stack_size,
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


class _Energy:
    """A Hamiltonian ``H`` and its energy ``eig``, made on first read and
    kept, its w and V read-only.  ``Eig.of`` is deterministic, so two threads
    racing on the first read compute the same bits and either copy is kept,
    as in ``CellEffects``."""

    def __init__(self, H: np.ndarray):
        self.H = H

    @functools.cached_property
    def eig(self) -> Eig:
        eig = Eig.of(self.H)
        eig.w.flags.writeable = eig.V.flags.writeable = False
        return eig


@dataclass
class LatticeLocalizationSystem:
    """Cell effects, shift unitary, and Hamiltonian on an n-cell ring.

    The builders give ``cell_effects`` as ``CellEffects``; any sequence of
    n matrices, a plain list included, works as well.  Their ``hamiltonian``
    and ``shift`` are read-only, shared with every system built from the same
    arguments, and so is H's decomposition; rebinding a field changes this
    system only.
    """

    n: int
    a: float
    cell_effects: Sequence[np.ndarray]
    shift: np.ndarray
    hamiltonian: np.ndarray

    _energy: _Energy | None = field(default=None, init=False, repr=False)

    def energy_eigensystem(self) -> Eig:
        """The decomposition of the H this system holds now, made on first
        use and kept with that H, read-only: a builder's H shares it with
        every system built from the same arguments, and a rebound H is
        decomposed for this system alone."""
        if self._energy is None or self._energy.H is not self.hamiltonian:
            self._energy = _Energy(self.hamiltonian)
        return self._energy.eig

    def complement(self, cells: Iterable[int]) -> frozenset[int]:
        cells = as_cells(cells, self.n)
        return frozenset(range(self.n)) - cells


def _members(effects, order: list[int]) -> list[np.ndarray]:
    """``effects[k]`` for each k of ``order``: ``CellEffects`` in one ``take``
    call, any other sequence indexed by cell."""
    if isinstance(effects, CellEffects):
        return effects.take(order)
    return [effects[k] for k in order]


def _sum_into(out: np.ndarray, members: Iterable[np.ndarray]) -> np.ndarray:
    """The summation rule of ``cell_sum`` and ``cell_sums``: the members added
    to the zero matrix ``out`` one by one, in the order given."""
    for E in members:
        out += E
    return out


def cell_sum(effects, cells: Iterable[int], dim: int) -> np.ndarray:
    """The sum of ``effects[k]`` over the cells, a dim x dim matrix; exactly
    additive over disjoint unions by construction.  Summed in sorted cell
    order from zero, so the bits do not depend on how the cells were listed."""
    members = _members(effects, sorted(cells))
    return _sum_into(np.zeros((dim, dim), dtype=np.result_type(float, *members)), members)


def cell_sums(effects, cell_sets: Iterable[Iterable[int]], dim: int) -> np.ndarray:
    """``cell_sum`` of each cell set, as one (B, dim, dim) stack of the
    members' common dtype: the members of all sets are fetched once, and each
    set is summed by the same rule into its own slot."""
    orders = [sorted(cells) for cells in cell_sets]
    union = sorted(set().union(*orders))
    member = dict(zip(union, _members(effects, union)))
    out = np.zeros((len(orders), dim, dim), dtype=np.result_type(float, *member.values()))
    for total, order in zip(out, orders):
        _sum_into(total, map(member.__getitem__, order))
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


# the most lattice systems whose fixed parts one process keeps (``_fixed_parts``):
# a scenario file in use asks for at most 4 distinct systems, and one kept
# frame-smeared system holds 0.25 MB at n = 64 and 1 MB at n = 128, the largest
# n a scenario may ask for (``scenarios.N_MAX``), plus H's decomposition once
# made, 0.03 MB at n = 64 and 0.13 MB at n = 128 for a real H
SYSTEMS_KEPT = 8


def _ring_parts(
    n: int, omega: np.ndarray, effect: Callable[[int], np.ndarray], F: np.ndarray | None = None,
) -> tuple[_Energy, np.ndarray, Callable[[int], np.ndarray]]:
    """H = F† diag(omega) F for the DFT matrix F of ``_dft`` (made here unless
    given), held with its decomposition to come, the one-cell shift, and the
    cell rule ``effect``.  H is its real part when omega_j = omega_{n-j} bit
    for bit, where the imaginary parts are rounding.  H and the shift are
    read-only: ``_fixed_parts`` hands them, and H's decomposition once made,
    to every system built from the same arguments."""
    F = _dft(n) if F is None else F
    H = hermitize((dag(F) * omega) @ F)
    if np.array_equal(omega, omega[-np.arange(n) % n]):
        H = H.real.copy()
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    H.flags.writeable = shift.flags.writeable = False
    return _Energy(H), shift, effect


@functools.lru_cache(maxsize=SYSTEMS_KEPT, typed=True)
def _fixed_parts(parts: Callable, *args) -> tuple[_Energy, np.ndarray, Callable]:
    """``parts(*args)``, made once per process for each of the last
    ``SYSTEMS_KEPT`` distinct calls: what a builder's arguments decide.  A
    refusal is not kept, so it is raised again on every call."""
    return parts(*args)


def _ring_system(parts: Callable, n: int, mass: float, a: float,
                 *smearing: float) -> LatticeLocalizationSystem:
    """The system every builder assembles from its fixed parts
    ``parts(n, mass, a, *smearing)`` (H with its decomposition, the shift and
    the cell rule, shared through ``_fixed_parts``), with cell effects of its
    own, each built on first read.  The arguments, ``smearing`` =
    (width[, sharpness]), are checked first."""
    if n < 2 or mass <= 0 or a <= 0 or (smearing and smearing[0] <= 0):
        raise ValueError("need n >= 2, mass > 0, a > 0" + (", width > 0" if smearing else ""))
    if len(smearing) == 2 and not 0.0 < smearing[1] < 1.0:
        raise ValueError("sharpness must lie strictly between 0 and 1")
    energy, shift, effect = _fixed_parts(parts, n, mass, a, *smearing)
    system = LatticeLocalizationSystem(n, a, CellEffects(n, effect), shift, energy.H)
    system._energy = energy
    return system


def _position_projector(n: int, k: int) -> np.ndarray:
    """|k><k|, the float64 projector on cell k."""
    E = np.zeros((n, n))
    E[k, k] = 1.0
    return E


def _sharp_parts(n: int, mass: float, a: float):
    return _ring_parts(n, lattice_dispersion(n, mass, a),
                       functools.partial(_position_projector, n))


def build_sharp_system(n: int, mass: float, a: float = 1.0) -> LatticeLocalizationSystem:
    """Sharp (projector-valued) localization with positive dispersion.

    E_k are the position-basis projectors, the shift permutes them cyclically,
    and H shares the Fourier eigenbasis with the shift, so [H, U] = 0 and the
    energy is bounded below by the mass.
    """
    return _ring_system(_sharp_parts, n, mass, a)


def _alternating_parts(n: int, mass: float, a: float):
    omega = lattice_dispersion(n, mass, a) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return _ring_parts(n, omega, functools.partial(_position_projector, n))


def build_alternating_system(n: int, mass: float, a: float = 1.0) -> LatticeLocalizationSystem:
    """Sharp system with a sign-alternating energy spectrum.

    The dispersion carries alternating signs, so the generator is unbounded
    below on purpose: the escape route where localization projectors may
    commute without forcing trivial effects.
    """
    return _ring_system(_alternating_parts, n, mass, a)


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


def _frame_smeared_parts(n: int, mass: float, a: float, width: float, sharpness: float):
    g = gaussian_frame_vector(n, 0, width)
    g = g / np.linalg.norm(g)
    F = _dft(n)
    power = np.abs(F @ g) ** 2  # sums to 1: g is finite with g[0] >= 1
    alpha = sharpness / (n * float(power.max()))
    dvals = 1.0 / n - alpha * power  # >= (1 - sharpness)/n > 0
    # D is real (d_j = d_{n-j}); its computed imaginary parts are rounding
    D = hermitize((dag(F) * dvals) @ F).real
    # alpha |g_k><g_k| is P = alpha |g><g| rolled by k along both axes, which
    # is the n x n window of P tiled 2 x 2 at (n - k, n - k); it and D are
    # exactly symmetric, so each effect is too, with no hermitize
    tiled = np.tile(alpha * np.outer(g, g), (2, 2))
    tiled.flags.writeable = D.flags.writeable = False
    return _ring_parts(n, lattice_dispersion(n, mass, a),
                       lambda k: tiled[n - k:2 * n - k, n - k:2 * n - k] + D, F)


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
    return _ring_system(_frame_smeared_parts, n, mass, a, width, sharpness)


def _diagonal_smeared_parts(n: int, mass: float, a: float, width: float):
    w = gaussian_frame_vector(n, 0, width)
    w = w / w.sum()
    w.flags.writeable = False
    return _ring_parts(n, lattice_dispersion(n, mass, a), lambda k: np.diag(np.roll(w, k)))


def build_diagonal_smeared_system(
    n: int, mass: float, a: float = 1.0, width: float = 1.5
) -> LatticeLocalizationSystem:
    """Commuting unsharp localization: position projectors smeared by a
    strictly positive Gaussian kernel.

    E_k = sum_x w(x - k) |x><x| with the periodized kernel w normalized to sum 1:
    diagonal (pairwise commuting) effects that sum to the identity exactly.
    A(cells) has a trivial kernel in exact arithmetic only (at n = 32, width 1.5,
    cells [0, 1, 2] its smallest eigenvalue is 1.0e-22, below the kernel floor).
    The commuting benchmark for the frame-smeared system's noncommutative obstructions.
    """
    return _ring_system(_diagonal_smeared_parts, n, mass, a, width)


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


# LAPACK's eigvalsh rescales a matrix whose largest |entry| lies below
# sqrt(tiny / eps) = 2**-485 or above its reciprocal; inside this range, kept
# with a margin, it returns an exactly diagonal matrix's diagonal itself
_UNSCALED = (2.0**-480, 2.0**480)


def _largest_norms(*groups: list[np.ndarray]) -> list[float]:
    """The largest ``op_norm`` of each group of matrices.  The matrices of all
    groups are normed in one call per dtype, since stacking a real matrix
    with a complex one would change its LAPACK routine; numpy runs one LAPACK
    call per matrix of a stack, so each norm has the bits of its own call.

    An exactly diagonal matrix (every off-diagonal entry zero, and every
    diagonal imaginary part zero) whose largest |entry| is 0 or lies in
    ``_UNSCALED`` takes that entry as its norm, with no LAPACK call: it is
    the largest |eigenvalue| ``op_norm`` would take, bit for bit.  The
    position-diagonal kinds' effects and residuals are such matrices."""
    matrices = [M for group in groups for M in group]
    norms = np.empty(len(matrices))
    low, high = _UNSCALED
    for dtype in {M.dtype for M in matrices}:
        at = np.array([i for i, M in enumerate(matrices) if M.dtype == dtype])
        stack = np.stack([matrices[i] for i in at])
        diagonal = np.diagonal(stack, axis1=-2, axis2=-1)
        largest = np.abs(diagonal.real).max(axis=-1)
        exact = ((np.count_nonzero(stack, axis=(-2, -1)) == np.count_nonzero(diagonal, axis=-1))
                 & ~diagonal.imag.any(axis=-1)
                 & ((largest == 0) | ((low <= largest) & (largest <= high))))
        norms[at[exact]] = largest[exact]
        if not exact.all():
            norms[at[~exact]] = op_norm(stack[~exact])
    parts = np.split(norms, np.cumsum([len(group) for group in groups])[:-1])
    return [float(part.max()) for part in parts]


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
    The additivity and covariance residuals and the effects are normed
    together, by ``_largest_norms``.
    The audit never claims the continuum theorem holds on the lattice: its
    one note names the hypothesis that fails whenever the effects are
    nontrivial, and the ``microcausality_witness`` records the worst pair.

    Microcausality is ``microcausality_residual`` over the disjoint pairs,
    taken in H's eigenbasis: Â = V† A V evolves by ``_evolved_in_eigenbasis``
    (norms are unitarily invariant), with stacked ``commutator_norm`` calls
    of at most ``stack_size(n)`` pairs per time.  When some t != 0, H's
    decomposition is ``energy_eigensystem()``, one ``eigh`` per process for a
    builder's H; else H's spectrum is one ``eigvalsh``.  When H and the effects
    are real, time reversal makes (j, i) equal (i, j) at each t, so only
    i < j is audited and the witness lists the earlier-listed sample first.
    """
    samples = [as_cells(c, sys.n) for c in delta_samples]
    if not samples or not all(samples):
        raise ValueError("need at least one sampled region, and no empty one")
    eye = np.eye(sys.n)
    # the one-cell shift permutes rows and columns, so U A U† is a roll
    shift_is_roll = np.array_equal(sys.shift, np.roll(eye, 1, axis=0))

    effects = [effect_of(sys, cells) for cells in samples]
    additivity, covariance, max_norm = _largest_norms(
        # additivity per sample, then over sampled disjoint unions
        [A + effect_of(sys, sys.complement(cells)) - eye for cells, A in zip(samples, effects)]
        + [effects[k] + effects[k + 1] - effect_of(sys, left | right)
           for k, (left, right) in enumerate(zip(samples, samples[1:])) if not left & right],
        [(np.roll(A, (1, 1), (0, 1)) if shift_is_roll else sys.shift @ A @ dag(sys.shift))
         - effect_of(sys, frozenset((k + 1) % sys.n for k in cells))
         for cells, A in zip(samples, effects)],
        effects,
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
    step = stack_size(sys.n)  # so memory grows linearly, not quadratically, in the samples
    for k, t in enumerate(t_grid):
        at_t = _evolved_in_eigenbasis(stack, energy.w, t) if t != 0 else stack
        for start in range(0, len(pairs), step):
            left, right = zip(*pairs[start:start + step])
            norms[start:start + step, k] = commutator_norm(stack[list(left)],
                                                           at_t[list(right)])
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
