import numpy as np
import pytest

from povmlab.generators import haar_unitary, make_rng
from povmlab.geometry import FourVector, SpacetimeBox
from povmlab.lattice import (
    LatticeLocalizationSystem,
    build_alternating_system,
    build_diagonal_smeared_system,
    build_frame_smeared_system,
    build_sharp_system,
    causal_shadow,
    cc_residual,
    cell_sum,
    cell_sums,
    cells_bounding_box,
    effect_of,
    gaussian_frame_vector,
    hc_audit,
    heisenberg_evolve,
    lattice_dispersion,
    microcausality_residual,
    projector_screening_identity,
    validate_system,
)
from povmlab.linalg import Eig, commutator, dag, hermitize, op_norm


@pytest.fixture(scope="module")
def sharp16():
    return build_sharp_system(16, 1.0, 1.0)


@pytest.fixture(scope="module")
def smeared16():
    return build_frame_smeared_system(16, 1.0, 1.0, 1.5)


class TestSharpSystem:
    def test_n2_structure(self):
        sys = build_sharp_system(2, 1.0, 1.0)
        assert np.allclose(sys.cell_effects[0], np.diag([1.0, 0.0]))
        assert np.allclose(sys.cell_effects[1], np.diag([0.0, 1.0]))
        assert np.allclose(sys.shift, np.array([[0, 1], [1, 0]]))

    def test_min_energy_is_mass(self, sharp16):
        w = np.linalg.eigvalsh(sharp16.hamiltonian)
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_invariants(self, sharp16):
        rep = validate_system(sharp16)
        assert rep.passed
        assert rep.residual("translation_covariance") <= 1e-12

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_sharp_system(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_sharp_system(4, -1.0, 1.0)


class TestFrameSmearedSystem:
    def test_normalization_exact(self, smeared16):
        assert op_norm(sum(smeared16.cell_effects) - np.eye(16)) <= 1e-12

    def test_effects_positive(self, smeared16):
        for E in smeared16.cell_effects:
            assert np.linalg.eigvalsh(E)[0] >= -1e-12

    def test_invariants(self, smeared16):
        assert validate_system(smeared16).passed

    def test_genuinely_noncommuting(self, smeared16):
        A = effect_of(smeared16, {0, 1})
        B = effect_of(smeared16, {2, 3})
        assert op_norm(commutator(A, B)) > 1e-3

    def test_wide_limit_effects_become_proportional(self):
        sys = build_frame_smeared_system(8, 1.0, 1.0, width=40.0)
        E0, E1 = sys.cell_effects[0], sys.cell_effects[1]
        # all effects converge to one another (proportional), still summing to I
        assert op_norm(E0 - E1) < 1e-3
        assert op_norm(sum(sys.cell_effects) - np.eye(8)) < 1e-12

    def test_width_validation(self):
        with pytest.raises(ValueError):
            build_frame_smeared_system(8, 1.0, 1.0, width=0.0)

    @pytest.mark.parametrize("build", [build_frame_smeared_system,
                                       build_diagonal_smeared_system])
    @pytest.mark.parametrize("width", [1e-200, 1e-170, float("nan")])
    def test_width_whose_profile_is_not_finite_is_refused(self, build, width):
        with pytest.raises(ValueError, match="^width .* non-finite Gaussian profile"):
            build(8, 1.0, 1.0, width)

    @pytest.mark.parametrize("build", [build_sharp_system, build_alternating_system,
                                       build_frame_smeared_system,
                                       build_diagonal_smeared_system])
    @pytest.mark.parametrize("mass, a", [(1e200, 1.0), (1.0, 1e-300), (1.0, 1e-310)])
    def test_non_finite_dispersion_is_refused(self, build, mass, a):
        with pytest.raises(ValueError, match="^mass .* non-finite dispersion"):
            build(8, mass, a)

    def test_dispersion_keeps_the_sqrt_formula(self):
        for n, mass, a in ((7, 1.0, 1.0), (16, 0.3, 2.5), (5, 1e150, 1e-150)):
            p = (2.0 / a) * np.sin(np.pi * np.minimum(np.arange(n), n - np.arange(n)) / n)
            assert np.array_equal(lattice_dispersion(n, mass, a), np.sqrt(mass * mass + p * p))

    def test_smallest_width_with_a_finite_profile_is_sharp(self):
        g = gaussian_frame_vector(8, 0, 1e-160)
        assert np.array_equal(g, np.eye(8)[0])

    def test_nonempty_effect_sums_have_trivial_kernel(self, smeared16):
        A = effect_of(smeared16, {3})
        assert np.linalg.eigvalsh(A)[0] > 1e-4


class TestDiagonalSmearedSystem:
    def test_commuting_and_normalized(self):
        sys = build_diagonal_smeared_system(12, 1.0, 1.0, 1.5)
        assert validate_system(sys).passed
        A = effect_of(sys, {0, 1})
        B = effect_of(sys, {5, 6})
        assert op_norm(commutator(A, B)) < 1e-14
        assert np.linalg.eigvalsh(effect_of(sys, {2}))[0] > 0


class TestEffectOf:
    def test_full_lattice_is_identity(self, smeared16):
        assert op_norm(effect_of(smeared16, range(16)) - np.eye(16)) <= 1e-12

    def test_empty_is_zero(self, smeared16):
        assert op_norm(effect_of(smeared16, ())) == 0.0

    def test_partition(self, smeared16):
        cells = frozenset({1, 4, 9})
        comp = smeared16.complement(cells)
        total = effect_of(smeared16, cells) + effect_of(smeared16, comp)
        assert op_norm(total - np.eye(16)) <= 1e-12

    def test_independent_of_how_the_cells_are_listed(self):
        """A(cells) is summed in sorted cell order, so permuting the list or
        freezing it again gives the same bits."""
        sys = build_frame_smeared_system(64, 1.0, 1.0, 1.5)
        rng = make_rng(52)
        for _ in range(300):
            size = int(rng.integers(2, 40))
            cells = [int(k) for k in rng.choice(64, size=size, replace=False)]
            reference = effect_of(sys, sorted(cells))
            for listing in (cells, cells[::-1], frozenset(cells), frozenset(cells[::-1]),
                            frozenset(frozenset(cells) | {cells[0]})):
                assert np.array_equal(effect_of(sys, listing), reference)

    def test_covariance_on_random_sets(self, smeared16):
        rng = make_rng(51)
        for _ in range(100):
            size = int(rng.integers(1, 16))
            cells = frozenset(int(k) for k in rng.choice(16, size=size, replace=False))
            shifted = frozenset((k + 1) % 16 for k in cells)
            lhs = smeared16.shift @ effect_of(smeared16, cells) @ dag(smeared16.shift)
            assert op_norm(lhs - effect_of(smeared16, shifted)) <= 1e-12

    def test_out_of_range_rejected(self, smeared16):
        with pytest.raises(ValueError):
            effect_of(smeared16, {16})

    def test_cell_sum_same_bits_for_any_container(self):
        """CellEffects and a plain list of the same matrices sum to the bits
        of effect_of, however the cells are listed."""
        sys = build_frame_smeared_system(32, 1.0, 1.0, 1.5)
        as_list = list(sys.cell_effects)
        rng = make_rng(53)
        for _ in range(50):
            size = int(rng.integers(0, 20))
            cells = [int(k) for k in rng.choice(32, size=size, replace=False)]
            reference = effect_of(sys, cells)
            for effects in (sys.cell_effects, as_list):
                for listing in (cells, cells[::-1], frozenset(cells)):
                    assert np.array_equal(cell_sum(effects, listing, 32), reference)

    def test_cell_sum_dtype_follows_the_members(self):
        real = [np.diag(np.eye(4)[k]) for k in range(4)]
        assert cell_sum(real, {0, 2}, 4).dtype == np.float64
        assert cell_sum(real, (), 4).dtype == np.float64
        assert np.array_equal(cell_sum(real, (), 4), np.zeros((4, 4)))
        mixed = [real[0], real[1].astype(complex)]
        total = cell_sum(mixed, [1, 0], 4)
        assert total.dtype == np.complex128
        assert np.array_equal(total, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))


    def test_cell_sums_stack_each_cell_sum(self):
        real = [np.diag(np.eye(4)[k]) for k in range(4)]
        empty = cell_sums(real, [], 4)
        assert (empty.shape, empty.dtype) == ((0, 4, 4), np.float64)
        mixed = [real[0], real[1].astype(complex), real[2], real[3]]
        sets = [{0, 2}, (), [3, 1, 0], {3}]
        stack = cell_sums(mixed, sets, 4)
        assert stack.dtype == np.complex128
        assert np.array_equal(stack, np.stack([cell_sum(mixed, cells, 4) for cells in sets]))


BUILDERS = [build_sharp_system, build_alternating_system, build_diagonal_smeared_system,
            build_frame_smeared_system]


class TestCellSumsBytes:
    """Each slot of ``cell_sums`` keeps the bytes of that set's ``cell_sum``,
    whatever the order of the sets."""

    @staticmethod
    def assert_bytes_equal(effects, sets, dim):
        stack = cell_sums(effects, sets, dim)
        assert stack.shape == (len(sets), dim, dim)
        for total, cells in zip(stack, sets):
            alone = cell_sum(effects, cells, dim)
            if cells:
                assert alone.dtype == stack.dtype
            assert total.tobytes() == alone.astype(stack.dtype).tobytes()

    @staticmethod
    def random_sets(n: int, count: int, rng) -> list:
        """Random sets, with their prefixes, extensions and duplicates."""
        sets = []
        for _ in range(count):
            cells = sorted(int(k) for k in rng.choice(n, size=int(rng.integers(1, n)),
                                                       replace=False))
            cut = int(rng.integers(0, len(cells) + 1))
            sets += [frozenset(cells), frozenset(cells[:cut]), list(cells[::-1])]
        return sets

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("n", [16, 64])
    def test_bytes_equal_each_cell_sum(self, build, n):
        sys = build(n, 1.0)
        rng = make_rng(57, n)
        sets = self.random_sets(n, 12, rng)
        self.assert_bytes_equal(sys.cell_effects, sets, n)
        for _ in range(3):  # any order of the sets
            order = rng.permutation(len(sets))
            self.assert_bytes_equal(sys.cell_effects, [sets[i] for i in order], n)

    def test_every_partition_of_a_laboratory(self):
        """The left sides ``ConditionalPOVM.validate`` reads, and their
        complements."""
        sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5)
        cells = list(range(3, 11))
        lefts = [frozenset(c for i, c in enumerate(cells) if r >> i & 1) for r in range(128)]
        self.assert_bytes_equal(sys.cell_effects, lefts, 16)
        self.assert_bytes_equal(sys.cell_effects, [frozenset(cells) - s for s in lefts], 16)

    def test_complex_effects_and_the_empty_set(self):
        """A complex effect list, with signed zeros; the empty set is the
        stack's zero, of the stack's dtype."""
        rng = make_rng(58)
        effects = [hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
                   for _ in range(6)]
        effects[2][0, 1] = -0.0
        sets = [(), {0, 1, 2}, {0, 1}, {0, 1, 2}, (), {5}, {2, 4, 5}, {0, 1, 2, 3, 4, 5}, {2}]
        self.assert_bytes_equal(effects, sets, 6)
        stack = cell_sums(effects, sets, 6)
        assert stack.dtype == np.complex128
        assert stack[0].tobytes() == np.zeros((6, 6), dtype=complex).tobytes()

    def test_only_empty_sets(self):
        stack = cell_sums([np.eye(3)] * 3, [(), frozenset()], 3)
        assert (stack.dtype, stack.tobytes()) == (np.float64, np.zeros((2, 3, 3)).tobytes())


class TestMicrocausality:
    def test_frozen_dynamics(self, sharp16):
        frozen = build_sharp_system(16, 1.0, 1.0)
        frozen.hamiltonian = np.zeros((16, 16), dtype=complex)
        assert microcausality_residual(frozen, {0}, {8}, [0.0, 0.7, 2.0]) < 1e-12

    def test_rebinding_h_after_first_use_takes_effect(self):
        # before, the first decomposition was kept: frozen, the residual
        # still read 5.27e-05
        sys = build_sharp_system(16, 1.0, 1.0)
        assert microcausality_residual(sys, {0}, {8}, [0.7, 2.0]) > 1e-5
        sys.hamiltonian = np.zeros((16, 16))
        assert microcausality_residual(sys, {0}, {8}, [0.7, 2.0]) == 0.0

    def test_time_zero_sharp_projectors(self, sharp16):
        assert microcausality_residual(sharp16, {0, 1}, {4, 5}, [0.0]) < 1e-14

    def test_positive_energy_evolution_breaks_it(self, sharp16):
        # calibrated on this system: residual ~9.2e-6 at the antipodal pair,
        # ~5e-2 for nearby cells at t = 1
        assert microcausality_residual(sharp16, {0}, {8}, [0.5]) > 4e-6
        assert microcausality_residual(sharp16, {0}, {2}, [1.0]) > 1e-2

    def test_overlap_rejected(self, sharp16):
        with pytest.raises(ValueError, match="disjoint"):
            microcausality_residual(sharp16, {0, 1}, {1, 2}, [0.5])


class TestCausalCondition:
    def test_time_zero_residual_vanishes(self, sharp16):
        assert cc_residual(sharp16, {2, 3}, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_hegerfeldt_violation_for_sharp(self, sharp16):
        # calibrated witness: single cell, one time step
        assert cc_residual(sharp16, {0}, 1.0) < -0.01

    def test_full_lattice_saturates_exactly(self, sharp16):
        shadow, saturated = causal_shadow(sharp16, range(16), 0.5)
        assert saturated
        r = cc_residual(sharp16, range(16), 0.5)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_shadow_growth(self, sharp16):
        shadow, saturated = causal_shadow(sharp16, {8}, 2.0)
        assert shadow == frozenset({6, 7, 8, 9, 10})
        assert not saturated

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_shadow_matches_the_plain_loop_for_every_reach(self, n):
        sys = build_sharp_system(n, 1.0, 0.5)
        for cells in (set(), {0}, {1, n - 1}, set(range(n))):
            for reach in range(n + 1):
                plain = frozenset((k + d) % n for k in cells for d in range(-reach, reach + 1))
                for t in {0.5 * reach, -0.5 * reach, max(0.0, 0.5 * reach - 0.25)}:
                    assert causal_shadow(sys, cells, t) == (plain, len(plain) == n)

    @pytest.mark.parametrize("a", [1.0, 1e-150])
    def test_huge_time_saturates_at_once(self, a):
        # |t|/a is 1e300 or overflows to inf; neither is looped over
        sys = build_sharp_system(8, 1.0, a)
        for t in (1e300, -1e300):
            assert causal_shadow(sys, {3}, t) == (frozenset(range(8)), True)
        assert causal_shadow(sys, set(), 1e300) == (frozenset(), False)

    def test_smeared_system_is_less_violating(self, smeared16, sharp16):
        worst_smeared = min(
            cc_residual(smeared16, {k}, 1.0) for k in range(0, 16, 4)
        )
        worst_sharp = min(cc_residual(sharp16, {k}, 1.0) for k in range(0, 16, 4))
        assert worst_smeared > worst_sharp


class TestAudit:
    T_GRID = [0.5, 1.0, 3.0]
    SAMPLES = [[0, 1, 2, 3], [5, 6, 7, 8], [12, 13]]

    def test_sharp_system_fails_microcausality(self, sharp16):
        audit = hc_audit(sharp16, self.SAMPLES, self.T_GRID, tol=1e-9)
        assert audit.residual("additivity_residual") <= 1e-12
        assert audit.residual("covariance_residual") <= 1e-12
        assert audit.residual("energy_min_eig") >= 1.0 - 1e-9
        assert audit.residual("microcausality_residual") > 1e-3
        assert audit.residual("max_effect_norm") > 0.9
        assert audit.notes[0].startswith("hypothesis 4")

    def test_alternating_spectrum_fails_energy(self):
        sys = build_alternating_system(16, 1.0, 1.0)
        audit = hc_audit(sys, self.SAMPLES, self.T_GRID, tol=1e-9)
        assert audit.residual("energy_min_eig") < -0.5
        assert audit.notes[0].startswith("hypothesis 3")
        # its projector effects commute pairwise regardless of the dynamics
        for j in range(16):
            for k in range(j + 1, 16):
                assert op_norm(commutator(sys.cell_effects[j], sys.cell_effects[k])) <= 1e-12

    def test_degenerate_all_zero_system_rejected_at_validation(self, sharp16):
        broken = build_sharp_system(4, 1.0, 1.0)
        broken.cell_effects = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
        rep = validate_system(broken)
        assert not rep.passed
        audit = hc_audit(broken, [[0], [2]], [0.5], tol=1e-9)
        assert audit.notes[0].startswith("effects trivial")

    @pytest.mark.parametrize("samples", [[[], []], [[0, 1], []], []])
    def test_empty_sampled_region_refused(self, sharp16, samples):
        with pytest.raises(ValueError, match="sampled region"):
            hc_audit(sharp16, samples, self.T_GRID, tol=1e-9)

    def test_frame_smeared_same_verdict(self, smeared16):
        audit = hc_audit(smeared16, self.SAMPLES, self.T_GRID, tol=1e-9)
        assert audit.notes[0].startswith("hypothesis 4")

    def test_unitarily_moved_system_audits_alike(self, smeared16):
        # complex effects and a shift that is no permutation: the covariance
        # takes the matrix form and every ordered pair is audited
        V = haar_unitary(16, make_rng(5))
        moved = LatticeLocalizationSystem(
            16, 1.0, [hermitize(V @ E @ dag(V)) for E in smeared16.cell_effects],
            V @ smeared16.shift @ dag(V), hermitize(V @ smeared16.hamiltonian @ dag(V)))
        audit = hc_audit(moved, self.SAMPLES, self.T_GRID, tol=1e-9)
        reference = hc_audit(smeared16, self.SAMPLES, self.T_GRID, tol=1e-9)
        assert audit.residual("covariance_residual") <= 1e-12
        micro = reference.residual("microcausality_residual")
        assert abs(audit.residual("microcausality_residual") - micro) <= 1e-12 * micro
        assert audit.notes == reference.notes


class TestHeisenbergEvolve:
    def test_unitary_consistency(self, sharp16):
        A = effect_of(sharp16, {0, 1})
        evolved = heisenberg_evolve(sharp16, A, 0.7)
        w_before = np.sort(np.linalg.eigvalsh(A))
        w_after = np.sort(np.linalg.eigvalsh(evolved))
        assert np.max(np.abs(w_before - w_after)) < 1e-12

    def test_zero_time_identity(self, sharp16):
        A = effect_of(sharp16, {3})
        assert op_norm(heisenberg_evolve(sharp16, A, 0.0) - A) < 1e-12

    def test_zero_time_returns_the_input_without_decomposing_h(self, smeared16, monkeypatch):
        def refuse(self):
            raise AssertionError("decomposed H at t = 0")

        monkeypatch.setattr(LatticeLocalizationSystem, "energy_eigensystem", refuse)
        real = effect_of(smeared16, {2, 3, 4})
        cplx = haar_unitary(16, make_rng(8))
        stack = np.stack([real, real.T])
        for M in (real, cplx, stack):
            for t in (0, 0.0, -0.0):
                out = heisenberg_evolve(smeared16, M, t)
                assert out is M
                assert out.dtype == M.dtype and out.tobytes() == M.tobytes()

    def test_stack_equals_one_call_per_matrix(self, smeared16):
        rng = make_rng(9)
        stack = np.stack([effect_of(smeared16, {1, 2}), haar_unitary(16, rng),
                          effect_of(smeared16, {7, 8, 9, 10})])
        evolved = heisenberg_evolve(smeared16, stack, 0.7)
        assert evolved.shape == stack.shape
        for k in range(3):
            assert evolved[k].tobytes() == heisenberg_evolve(smeared16, stack[k], 0.7).tobytes()


class TestEvolvedInEigenbasis:
    @pytest.mark.parametrize("kind, n", [("frame_smeared", 16), ("alternating", 17)])
    def test_matches_heisenberg_evolve_and_stays_exactly_hermitian(self, kind, n):
        from povmlab.lattice import _evolved_in_eigenbasis

        sys = MAKE_SYSTEM[kind](n, 1.5)
        w, V = sys.energy_eigensystem()
        stack = np.stack([effect_of(sys, [0, 1, 2]), effect_of(sys, [5, 6])])
        rotated = hermitize(dag(V) @ stack @ V)
        for t in (-0.5, 1.5, 3.0):
            evolved = _evolved_in_eigenbasis(rotated, w, t)
            assert np.array_equal(evolved, dag(evolved))
            assert np.abs(V @ evolved @ dag(V) - heisenberg_evolve(sys, stack, t)).max() <= 1e-13


class TestProjectorScreening:
    def make_triple(self, dim, p_rank, q_extra, r_rank, rng):
        U = haar_unitary(dim, rng)
        P = U @ np.diag(np.r_[np.ones(p_rank), np.zeros(dim - p_rank)]) @ dag(U)
        Q = U @ np.diag(np.r_[np.ones(p_rank + q_extra), np.zeros(dim - p_rank - q_extra)]) @ dag(U)
        r_diag = np.zeros(dim)
        r_diag[p_rank + q_extra : p_rank + q_extra + r_rank] = 1.0
        R = U @ np.diag(r_diag) @ dag(U)
        return P, Q, R

    def test_random_construction(self):
        rng = make_rng(52)
        for _ in range(50):
            P, Q, R = self.make_triple(8, 2, 2, 3, rng)
            rep = projector_screening_identity(P, Q, R)
            assert rep.passed
            assert rep.residual("PR_zero") <= 1e-12

    def test_zero_projector_trivial(self):
        Z = np.zeros((3, 3), dtype=complex)
        Q = np.diag([1.0, 1.0, 0.0]).astype(complex)
        R = np.diag([0.0, 0.0, 1.0]).astype(complex)
        rep = projector_screening_identity(Z, Q, R)
        assert rep.passed

    def test_violated_precondition_skips_conclusion(self):
        P = np.diag([1.0, 0.0]).astype(complex)
        Q = np.diag([1.0, 0.0]).astype(complex)
        R = np.diag([1.0, 0.0]).astype(complex)  # QR != 0
        rep = projector_screening_identity(P, Q, R)
        assert not rep.passed
        assert any("skipped" in note for note in rep.notes)
        assert all(it.name != "PR_zero" for it in rep.items)


# ---------------------------------------------------------------------------
# bit-exact oracles: the system constructors against the plain formulas, the audit
# against the public per-pair residual
# ---------------------------------------------------------------------------

def _mirror_symmetric(omega):
    return np.array_equal(omega, omega[-np.arange(len(omega)) % len(omega)])


def _oracle_hamiltonian(n, omega):
    """F† diag(omega) F, and F; its real part when omega_j = omega_{n-j}."""
    j = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    H = hermitize(dag(F) @ np.diag(omega).astype(complex) @ F)
    return (np.ascontiguousarray(H.real) if _mirror_symmetric(omega) else H), F


def _oracle_system(kind, n, width):
    """Cell effects and H by the textbook formulas, one matrix at a time."""
    omega = lattice_dispersion(n, 1.0, 1.0)
    if kind == "alternating":
        omega = omega * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    H, F = _oracle_hamiltonian(n, omega)
    if kind in ("sharp", "alternating"):
        eye = np.eye(n, dtype=complex)
        return [np.outer(eye[:, k], eye[:, k].conj()) for k in range(n)], H
    if kind == "diagonal_smeared":
        w = gaussian_frame_vector(n, 0, width)
        w = w / w.sum()
        return [np.diag(np.roll(w, k)).astype(complex) for k in range(n)], H
    g = gaussian_frame_vector(n, 0, width)
    g = (g / np.linalg.norm(g)).astype(complex)
    power = np.abs(F @ g) ** 2
    alpha = 0.9 / (n * float(power.max()))
    D = hermitize(dag(F) @ np.diag(1.0 / n - alpha * power).astype(complex) @ F)
    effects = []
    for k in range(n):
        gk = np.roll(g, k)
        effects.append(hermitize(alpha * np.outer(gk, gk.conj()) + D))
    return effects, H


MAKE_SYSTEM = {
    "sharp": lambda n, width: build_sharp_system(n, 1.0, 1.0),
    "alternating": lambda n, width: build_alternating_system(n, 1.0, 1.0),
    "diagonal_smeared": lambda n, width: build_diagonal_smeared_system(n, 1.0, 1.0, width),
    "frame_smeared": lambda n, width: build_frame_smeared_system(n, 1.0, 1.0, width),
}
SYSTEM_CASES = [
    (kind, n, width)
    for kind in MAKE_SYSTEM
    for n in (2, 3, 5, 16, 17, 64)
    for width in ((0.3, 1.5, 7.0) if kind.endswith("smeared") else (None,))
]


@pytest.mark.parametrize("kind, n, width", SYSTEM_CASES)
def test_systems_bit_equal_to_the_formulas(kind, n, width):
    sys = MAKE_SYSTEM[kind](n, width)
    effects, H = _oracle_system(kind, n, width)
    assert np.array_equal(sys.hamiltonian, H)
    assert len(sys.cell_effects) == n
    for E, oracle in zip(sys.cell_effects, effects):
        # the builders keep the real part of the complex textbook formula; its
        # imaginary part is rounding of the real circulant D
        assert E.dtype == np.float64
        assert E.tobytes() == np.ascontiguousarray(oracle.real).tobytes()
        assert np.abs(oracle.imag).max() <= 1e-15
        assert np.array_equal(E, E.T)
    assert effect_of(sys, range(0, n, 2)).dtype == np.float64
    assert sys.shift.dtype == np.complex128


def _close(value, reference):
    """Within max(1e-13, 1e-12 |reference|): the audit and the pairwise
    oracle take the same norms along different roundings."""
    return abs(value - reference) <= max(1e-13, 1e-12 * abs(reference))


@pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
@pytest.mark.parametrize("n", [2, 16, 17, 64])
def test_hamiltonian_is_real_exactly_when_the_spectrum_is_mirror_symmetric(kind, n):
    omega = lattice_dispersion(n, 1.0, 1.0)
    assert _mirror_symmetric(omega)
    H = MAKE_SYSTEM[kind](n, 1.5).hamiltonian
    if kind == "alternating" and n % 2:
        # the sign pattern breaks omega_j = omega_{n-j}: H is genuinely complex
        assert H.dtype == np.complex128
        assert np.abs(H.imag).max() > 0.1
    else:
        assert H.dtype == np.float64
        assert np.array_equal(H, H.T)


def _norms_by_op_norm(*groups):
    """``lattice._largest_norms`` with its diagonal route off: every matrix
    normed by one ``op_norm`` stack per dtype."""
    matrices = [M for group in groups for M in group]
    norms = np.empty(len(matrices))
    for dtype in {M.dtype for M in matrices}:
        at = [i for i, M in enumerate(matrices) if M.dtype == dtype]
        norms[at] = op_norm(np.stack([matrices[i] for i in at]))
    parts = np.split(norms, np.cumsum([len(group) for group in groups])[:-1])
    return [float(part.max()) for part in parts]


def _diagonal_stack(rng, n, dtype):
    """Seeded exactly diagonal matrices of size n and the given dtype: each
    one's entries of both signs, log-uniform between two magnitudes drawn in
    [1e-20, 1e3], with exact zeros and -0.0 on and off the diagonal; the
    first matrix is all 0.0 and the second all -0.0."""
    count = 10
    low, high = np.sort(rng.uniform(-20.0, 3.0, size=(2, count)), axis=0)
    d = 10.0 ** rng.uniform(low[:, None], high[:, None], size=(count, n))
    d *= rng.choice([-1.0, 1.0], size=(count, n))
    d[rng.random((count, n)) < 0.2] = 0.0
    d[rng.random((count, n)) < 0.2] = -0.0
    stack = np.where(rng.random((count, n, n)) < 0.5, 0.0, -0.0).astype(dtype)
    stack[:, np.arange(n), np.arange(n)] = d
    stack[0], stack[1] = 0.0, -0.0
    return stack


class TestDiagonalNorms:
    """``_largest_norms`` takes an exactly diagonal matrix's norm from its
    diagonal, with no LAPACK call, and keeps every bit of the plain norm."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 128])
    def test_bit_equal_to_the_largest_absolute_eigenvalue(self, n, dtype, monkeypatch):
        from povmlab.lattice import _largest_norms

        stack = _diagonal_stack(make_rng(91, n), n, dtype)
        expected = [np.abs(np.linalg.eigvalsh(M)).max() for M in stack]

        def refused(*args, **kwargs):
            raise AssertionError("a diagonal matrix reached LAPACK")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        got = _largest_norms(*([M] for M in stack))
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    def test_every_other_matrix_keeps_its_op_norm(self, n):
        """Diagonal matrices beyond LAPACK's unscaled range, complex ones with
        an imaginary diagonal part, and matrices with an off-diagonal entry
        are normed by ``op_norm``, in the same call as diagonal ones."""
        from povmlab.lattice import _largest_norms

        rng = make_rng(92, n)
        others = [np.diag(rng.uniform(0.5, 1.0, n) * scale) for scale in (1e-200, 1e200)]
        others.append(np.diag(rng.uniform(0.5, 1.0, n) + 1j * rng.uniform(0.5, 1.0, n)))
        if n > 1:
            G = np.diag(rng.uniform(0.5, 1.0, n))
            G[0, 1] = G[1, 0] = 1e-300
            others.append(G)
        matrices = [*others, *_diagonal_stack(rng, n, float), *_diagonal_stack(rng, n, complex)]
        got, expected = (np.array(norms(*([M] for M in matrices)))
                         for norms in (_largest_norms, _norms_by_op_norm))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
    @pytest.mark.parametrize("n", [16, 64])
    def test_audit_reports_equal_the_audit_without_the_route(self, kind, n, monkeypatch):
        from povmlab import lattice

        rng = make_rng(93, n)
        samples = [sorted(int(k) for k in rng.choice(n, size, replace=False))
                   for size in (1, 2, 3, n // 4, n // 2, 1)]
        samples.append([(k + 1) % n for k in samples[-1]])
        t_grid = [0.0, 0.5, 1.3]
        sys = MAKE_SYSTEM[kind](n, 1.5)
        routed = hc_audit(sys, samples, t_grid).to_dict()
        monkeypatch.setattr(lattice, "_largest_norms", _norms_by_op_norm)
        plain = hc_audit(sys, samples, t_grid).to_dict()
        assert repr(routed) == repr(plain)


class TestAuditAgainstPairwiseResidual:
    SAMPLES = [[0, 1, 2], [5, 6], [9, 10, 11, 12]]
    T_GRID = [1.5, 0.0, -0.5, 3.0]

    # alternating at odd n has a complex H: no time reversal, every ordered
    # pair is audited
    @pytest.mark.parametrize("kind, n", [(kind, 16) for kind in MAKE_SYSTEM]
                             + [("alternating", 17)])
    def test_microcausality_and_witness_match_the_oracle(self, kind, n):
        sys = MAKE_SYSTEM[kind](n, 1.5)
        tol = 1e-9
        audit = hc_audit(sys, self.SAMPLES, self.T_GRID, tol=tol)
        pairs = [(left, right) for left in self.SAMPLES for right in self.SAMPLES
                 if not set(left) & set(right)]
        residuals = [microcausality_residual(sys, left, right, self.T_GRID)
                     for left, right in pairs]
        assert _close(audit.residual("microcausality_residual"), max(residuals))
        if max(residuals) == 0.0:
            assert audit.witnesses["microcausality_witness"] == {}
            return
        left, right = pairs[residuals.index(max(residuals))]
        if np.isrealobj(sys.hamiltonian):
            # the canonical pair: the earlier-listed sample first
            left, right = sorted((left, right), key=self.SAMPLES.index)
        first = next((t for t in sorted(self.T_GRID, key=abs)
                      if microcausality_residual(sys, left, right, [t]) > tol), None)
        assert audit.witnesses["microcausality_witness"] == {
            "delta": left, "delta_prime": right, "first_violating_t": first}

    @pytest.mark.parametrize("kind, n", [(kind, 16) for kind in MAKE_SYSTEM]
                             + [("alternating", 17)])
    def test_reversed_samples_give_the_same_residual(self, kind, n):
        sys = MAKE_SYSTEM[kind](n, 1.5)
        forward = hc_audit(sys, self.SAMPLES, self.T_GRID, tol=1e-9)
        backward = hc_audit(sys, self.SAMPLES[::-1], self.T_GRID, tol=1e-9)
        assert _close(backward.residual("microcausality_residual"),
                      forward.residual("microcausality_residual"))

    def test_witness_time_skips_the_commuting_time_zero(self, sharp16):
        audit = hc_audit(sharp16, self.SAMPLES, self.T_GRID, tol=1e-9)
        assert audit.witnesses["microcausality_witness"]["first_violating_t"] == -0.5

    def test_time_zero_only_never_evolves(self, sharp16, monkeypatch):
        def refuse(self):
            raise AssertionError("evolved at t = 0")

        monkeypatch.setattr(LatticeLocalizationSystem, "energy_eigensystem", refuse)
        audit = hc_audit(sharp16, self.SAMPLES, [0.0], tol=1e-9)
        assert audit.residual("microcausality_residual") == 0.0
        assert audit.witnesses["microcausality_witness"] == {}

    def test_each_sampled_region_summed_once(self, sharp16, monkeypatch):
        # per region its effect, complement and shifted region, plus one
        # union per adjacent disjoint pair: 3 * 3 + 2
        import povmlab.lattice as lattice

        calls = []

        def counted(sys, cells, _effect_of=lattice.effect_of):
            calls.append(frozenset(cells))
            return _effect_of(sys, cells)

        monkeypatch.setattr(lattice, "effect_of", counted)
        hc_audit(sharp16, self.SAMPLES, self.T_GRID, tol=1e-9)
        assert len(calls) == 11


# ---------------------------------------------------------------------------
# cell effects built on first read, against the eager builders they replaced
# ---------------------------------------------------------------------------

def _eager_system(kind, n, width):
    """(effects, H, shift) as the builders made them when every E_k was
    built up front: the same expressions, evaluated for k = 0..n-1."""
    j = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    omega = lattice_dispersion(n, 1.0, 1.0)
    if kind in ("sharp", "alternating"):
        eye = np.eye(n)
        effects = [np.outer(eye[:, k], eye[:, k]) for k in range(n)]
        if kind == "alternating":
            omega = omega * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    elif kind == "diagonal_smeared":
        w = gaussian_frame_vector(n, 0, width)
        w = w / w.sum()
        effects = [np.diag(np.roll(w, k)) for k in range(n)]
    else:
        g = gaussian_frame_vector(n, 0, width)
        g = g / np.linalg.norm(g)
        power = np.abs(F @ g) ** 2
        alpha = 0.9 / (n * float(power.max()))
        D = hermitize((dag(F) * (1.0 / n - alpha * power)) @ F).real
        P = alpha * np.outer(g, g)
        effects = [np.roll(P, (k, k), axis=(0, 1)) + D for k in range(n)]
    H = hermitize((dag(F) * omega) @ F)
    return effects, (H.real.copy() if _mirror_symmetric(omega) else H), shift


def _built(sys):
    return [k for k, E in enumerate(sys.cell_effects._built) if E is not None]


LAZY_CASES = [
    (kind, n, width)
    for kind in MAKE_SYSTEM
    for n in (2, 3, 5, 16, 64, 100)
    for width in ((0.3, 1.5, 40.0) if kind.endswith("smeared") else (None,))
]


class TestCellEffectsOnFirstRead:
    @pytest.mark.parametrize("kind, n, width", LAZY_CASES)
    def test_bytes_equal_the_eager_builder(self, kind, n, width):
        sys = MAKE_SYSTEM[kind](n, width)
        effects, H, shift = _eager_system(kind, n, width)
        assert _built(sys) == []
        assert sys.hamiltonian.tobytes() == H.tobytes()
        assert sys.shift.tobytes() == shift.tobytes()
        order = [int(k) for k in make_rng(n).permutation(n)]
        for k in order:
            assert sys.cell_effects[k].tobytes() == effects[k].tobytes()
        assert [E.tobytes() for E in sys.cell_effects] == [E.tobytes() for E in effects]

    @pytest.mark.parametrize("kind", ["diagonal_smeared", "frame_smeared"])
    def test_a_laboratory_builds_only_its_cells(self, kind):
        from povmlab.conditional import build_conditional

        sys = MAKE_SYSTEM[kind](64, 8.0)  # wide enough that A(lab) has no kernel
        lab = [3, 17, 18, 40, 63]
        build_conditional(sys, lab)
        assert _built(sys) == lab
        effect_of(sys, [17, 20])
        assert _built(sys) == [3, 17, 18, 20, 40, 63]

    def test_sequence_protocol(self):
        sys = build_frame_smeared_system(8, 1.0, 1.0, 1.5)
        effects, _, _ = _eager_system("frame_smeared", 8, 1.5)
        assert len(sys.cell_effects) == 8
        assert np.array_equal(sys.cell_effects[-1], effects[7])
        with pytest.raises(IndexError):
            sys.cell_effects[8]
        assert isinstance(sys.cell_effects[2:5], list)
        assert all(np.array_equal(a, b) for a, b in zip(sys.cell_effects[2:5], effects[2:5],
                                                        strict=True))
        assert np.array_equal(sum(sys.cell_effects), sum(effects))
        assert sys.cell_effects[3] is sys.cell_effects[3]

    def test_a_plain_list_still_serves_effect_of(self):
        sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5)
        reference = effect_of(sys, [2, 5, 9])
        sys.cell_effects = list(sys.cell_effects)
        assert np.array_equal(effect_of(sys, [9, 2, 5]), reference)

    def test_threads_on_one_fresh_system_get_identical_bytes(self):
        import threading
        from sys import getswitchinterval, setswitchinterval

        lab = list(range(0, 64, 3))
        expected = effect_of(build_frame_smeared_system(64, 1.0, 1.0, 1.5), lab).tobytes()
        switch = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for _ in range(10):
                system = build_frame_smeared_system(64, 1.0, 1.0, 1.5)
                barrier = threading.Barrier(4)
                results = []

                def read():
                    barrier.wait(timeout=10)
                    results.append(effect_of(system, lab).tobytes())

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 4
        finally:
            setswitchinterval(switch)


# ---------------------------------------------------------------------------
# real models stay real from the builders to the kernels
# ---------------------------------------------------------------------------

class TestRealModels:
    def test_lab_enumeration_decomposes_only_real_matrices(self, monkeypatch):
        from itertools import combinations

        from povmlab.conditional import build_conditional

        sys = build_frame_smeared_system(16, 1.0, 1.0, 1.5)
        seen = []
        for name in ("eigh", "eigvalsh"):
            def recorded(A, *args, _call=getattr(np.linalg, name), **kwargs):
                seen.append(np.asarray(A).dtype)
                return _call(A, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        eye = np.eye(16)
        for lab in list(combinations(range(16), 4))[::97]:
            cond = build_conditional(sys, lab)
            left = frozenset(lab[:2])
            B_lab, B_left = cond.effect(lab), cond.effect(left)
            B_right = cond.effect(cond.lab_cells - left)
            assert B_lab.dtype == B_left.dtype == B_right.dtype == np.float64
            op_norm(B_lab - eye)
            op_norm(B_left + B_right - B_lab)
            np.linalg.eigvalsh(B_left)
            assert cond.validate().passed
        assert seen and set(seen) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("kind, n", [(kind, 16) for kind in MAKE_SYSTEM]
                             + [("alternating", 17)])
    def test_audit_makes_no_svd_and_one_eigh_of_h(self, kind, n, monkeypatch):
        sys = MAKE_SYSTEM[kind](n, 1.5)
        seen = []
        for name in ("eigh", "eigvalsh", "svd"):
            def recorded(A, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                seen.append((_name, np.asarray(A).dtype))
                return _call(A, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        hc_audit(sys, [[1, 2, 3], [6, 7], [10, 11]], [0.0, 0.5, 1.0])
        # real LAPACK for H wherever H is real: every case but alternating at odd n
        assert [call for call in seen if call[0] != "eigvalsh"] == [
            ("eigh", sys.hamiltonian.dtype)]


# ---------------------------------------------------------------------------
# derived values: H's decomposition, the rest box, the audit's pair stacks
# ---------------------------------------------------------------------------

class TestDerivedEnergyEigensystem:
    def test_a_handed_in_decomposition_is_refused(self):
        # before, Eig(zeros, I) froze the dynamics: E_0 stayed put at t = 1
        sys = build_sharp_system(16, 1.0, 1.0)
        with pytest.raises(TypeError):
            LatticeLocalizationSystem(16, 1.0, sys.cell_effects, sys.shift, sys.hamiltonian,
                                      _energy=Eig(np.zeros(16), np.eye(16)))

    @pytest.mark.parametrize("kind, n", [("sharp", 16), ("frame_smeared", 16),
                                         ("alternating", 17)])
    def test_decomposed_from_h_once(self, kind, n):
        sys = MAKE_SYSTEM[kind](n, 1.5)
        energy = sys.energy_eigensystem()
        assert sys.energy_eigensystem() is energy
        w, V = np.linalg.eigh(hermitize(sys.hamiltonian))
        assert np.array_equal(energy.w, w) and np.array_equal(energy.V, V)

    @pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
    def test_shared_with_every_system_of_the_same_arguments(self, kind):
        energy = MAKE_SYSTEM[kind](16, 1.5).energy_eigensystem()
        assert MAKE_SYSTEM[kind](16, 1.5).energy_eigensystem() is energy
        for array in energy:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
    def test_a_rebound_h_is_decomposed_for_its_system_alone(self, kind):
        shared = MAKE_SYSTEM[kind](16, 1.5).energy_eigensystem()
        sys = MAKE_SYSTEM[kind](16, 1.5)
        H = sys.hamiltonian + np.diag(np.linspace(0.0, 0.3, 16))
        sys.hamiltonian = H
        energy = sys.energy_eigensystem()
        assert sys.energy_eigensystem() is energy
        w, V = np.linalg.eigh(hermitize(H))
        assert np.array_equal(energy.w, w) and np.array_equal(energy.V, V)
        again = MAKE_SYSTEM[kind](16, 1.5)
        assert again.energy_eigensystem() is shared
        assert not np.array_equal(shared.w, energy.w)

    def test_the_dynamics_moves_a_cell_effect(self, sharp16):
        E = sharp16.cell_effects[0]
        assert op_norm(heisenberg_evolve(sharp16, E, 1.0) - E) > 0.1


class TestRestBoxOverEveryCell:
    def test_equals_the_old_construction(self):
        rng = make_rng(73)
        for _ in range(40):
            n, a = int(rng.integers(2, 129)), float(rng.uniform(0.01, 10.0))
            t = float(rng.uniform(-5.0, 5.0))
            sys = build_sharp_system(n, 1.0, a)
            ring = SpacetimeBox(FourVector(t, 0.0, 0.0, 0.0), FourVector(t, n * a, 0.0, 0.0))
            assert cells_bounding_box(sys, range(n), t) == ring


class TestAuditPairStacks:
    """The audit evaluates its disjoint pairs in stacks of stack_size(n);
    the report does not depend on the stack size."""

    @pytest.mark.parametrize("kind, n", [("frame_smeared", 16), ("alternating", 17),
                                         ("diagonal_smeared", 16)])
    def test_many_samples_bit_equal_to_one_stack(self, monkeypatch, kind, n):
        import povmlab.lattice as lattice

        rng = make_rng(74)
        sys = MAKE_SYSTEM[kind](n, 1.5)
        samples = [rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
                   for _ in range(32)]
        t_grid = [0.0, 0.5, -1.5, 3.0]
        reports = []
        for size in (10**9, 7, 1):
            monkeypatch.setattr(lattice, "stack_size", lambda dim, _size=size: _size)
            reports.append(hc_audit(sys, samples, t_grid, tol=1e-9).to_dict())
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["items"][3]["residual"] > 0


# ---------------------------------------------------------------------------
# the builders' fixed parts, made once per process and shared read-only
# ---------------------------------------------------------------------------

def _old_cells(kind, n, width):
    """E_0, ..., E_{n-1} by the expressions the builders evaluated before
    their cells were built from views of the shared parts."""
    if kind in ("sharp", "alternating"):
        return [np.diag(np.eye(1, n, k)[0]) for k in range(n)]
    if kind == "diagonal_smeared":
        w = gaussian_frame_vector(n, 0, width)
        w = w / w.sum()
        return [np.diag(np.roll(w, k)) for k in range(n)]
    g = gaussian_frame_vector(n, 0, width)
    g = g / np.linalg.norm(g)
    j = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    power = np.abs(F @ g) ** 2
    alpha = 0.9 / (n * float(power.max()))
    D = hermitize((dag(F) * (1.0 / n - alpha * power)) @ F).real
    P = alpha * np.outer(g, g)
    return [np.roll(P, (k, k), axis=(0, 1)) + D for k in range(n)]


class TestFixedParts:
    """H, the shift and the cell ingredients are made once per process for
    the last SYSTEMS_KEPT distinct systems, and H's decomposition with them
    on first use; every builder call still returns a new system with cell
    effects of its own."""

    @pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
    @pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
    def test_view_built_cells_equal_the_roll_and_diag_expressions(self, kind, n):
        old = _old_cells(kind, n, 1.5)
        first, second = MAKE_SYSTEM[kind](n, 1.5), MAKE_SYSTEM[kind](n, 1.5)  # a miss or a hit
        for sys in (first, second):
            for E, reference in zip(sys.cell_effects, old, strict=True):
                assert E.dtype == reference.dtype
                assert E.tobytes() == reference.tobytes()
                assert E.flags.c_contiguous and E.flags.writeable
        assert first.cell_effects is not second.cell_effects
        first.cell_effects[0][0, 0] = 7.0  # a cell is the system's own
        assert second.cell_effects[0].tobytes() == old[0].tobytes()

    @pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
    def test_an_in_place_write_into_a_shared_array_raises(self, kind):
        sys = MAKE_SYSTEM[kind](8, 1.5)
        for array in (sys.hamiltonian, sys.shift):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
        _, H, shift = _eager_system(kind, 8, 1.5)
        again = MAKE_SYSTEM[kind](8, 1.5)
        assert again.hamiltonian.tobytes() == H.tobytes()
        assert again.shift.tobytes() == shift.tobytes()

    @pytest.mark.parametrize("kind", list(MAKE_SYSTEM))
    def test_rebinding_a_field_touches_only_that_system(self, kind):
        sys = MAKE_SYSTEM[kind](16, 1.5)
        sys.hamiltonian = np.zeros((16, 16))
        sys.shift = np.eye(16)
        sys.cell_effects = [np.eye(16)] * 16
        effects, H, shift = _eager_system(kind, 16, 1.5)
        again = MAKE_SYSTEM[kind](16, 1.5)
        assert again.hamiltonian.tobytes() == H.tobytes()
        assert again.shift.tobytes() == shift.tobytes()
        assert [E.tobytes() for E in again.cell_effects] == [E.tobytes() for E in effects]

    @pytest.mark.parametrize("build, args, message", [
        (build_frame_smeared_system, (8, 1.0, 1.0, 1e-200), "non-finite Gaussian profile"),
        (build_diagonal_smeared_system, (8, 1.0, 1.0, 1e-200), "non-finite Gaussian profile"),
        (build_sharp_system, (8, 1e200, 1.0), "non-finite dispersion"),
        (build_alternating_system, (8, 1.0, 1e-300), "non-finite dispersion"),
    ])
    def test_a_refused_build_is_refused_again(self, build, args, message):
        from povmlab.lattice import _fixed_parts

        for _ in range(2):
            kept = _fixed_parts.cache_info().currsize
            with pytest.raises(ValueError, match=message):
                build(*args)
            assert _fixed_parts.cache_info().currsize == kept

    def test_at_most_systems_kept(self):
        from povmlab.lattice import SYSTEMS_KEPT, _fixed_parts

        for i in range(SYSTEMS_KEPT + 5):
            build_frame_smeared_system(8, 1.0, 1.0, 1.0 + i / 64)
            assert _fixed_parts.cache_info().currsize <= SYSTEMS_KEPT
        assert _fixed_parts.cache_info().currsize == SYSTEMS_KEPT

    def test_threads_building_one_system_get_identical_bytes(self):
        import threading
        from sys import getswitchinterval, setswitchinterval

        from povmlab.lattice import _fixed_parts

        def arrays(sys):
            return [sys.hamiltonian.tobytes(), sys.shift.tobytes(),
                    *(E.tobytes() for E in sys.cell_effects),
                    *(part.tobytes() for part in sys.energy_eigensystem())]

        expected = arrays(build_frame_smeared_system(64, 1.0, 1.0, 1.25))
        switch = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _fixed_parts.cache_clear()  # the threads race on a miss and on H's eigh
                barrier = threading.Barrier(8)
                results = []

                def build():
                    barrier.wait(timeout=10)
                    results.append(arrays(build_frame_smeared_system(64, 1.0, 1.0, 1.25)))

                threads = [threading.Thread(target=build) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 8
        finally:
            setswitchinterval(switch)


GUARD = "need n >= 2, mass > 0, a > 0"
SMEARED_GUARD = GUARD + ", width > 0"
SHARPNESS = "sharpness must lie strictly between 0 and 1"


@pytest.mark.parametrize("build, args, message", [
    *((build, args, GUARD) for build in (build_sharp_system, build_alternating_system)
      for args in ((1, 1.0, 1.0), (8, 0.0, 1.0), (8, 1.0, 0.0))),
    *((build, args + rest, SMEARED_GUARD)
      for build, rest in ((build_diagonal_smeared_system, ()),
                          (build_frame_smeared_system, (0.9,)))
      for args in ((1, 1.0, 1.0, 1.5), (8, 0.0, 1.0, 1.5), (8, 1.0, 0.0, 1.5),
                   (8, 1.0, 1.0, 0.0))),
    (build_frame_smeared_system, (8, 1.0, 1.0, 1.5, 0.0), SHARPNESS),
    (build_frame_smeared_system, (8, 1.0, 1.0, 1.5, 1.0), SHARPNESS),
    # the size, mass, spacing and width guard comes before sharpness
    (build_frame_smeared_system, (1, 1.0, 1.0, 1.5, 1.0), SMEARED_GUARD),
])
def test_builders_refuse_with_their_messages(build, args, message):
    with pytest.raises(ValueError) as refused:
        build(*args)
    assert str(refused.value) == message
