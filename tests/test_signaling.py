import numpy as np
import pytest

from povmlab.generators import (
    commuting_povm_pair,
    haar_unitary,
    make_rng,
    random_effect,
    random_povm,
    random_state,
)
from povmlab.linalg import dag, op_norm
from povmlab.measurement import DiscretePOVM, KrausInstrument, identity_instrument, luders_instrument
from povmlab.signaling import (
    SearchWitness,
    beck_check,
    commutator_residual,
    heinosaari_wolf_search,
    kraus_commutator_residual,
    luders_equivalence_check,
    nsc_deviation,
    rcc_deviation,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * np.ones((2, 2), dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)

COMP = DiscretePOVM([P0, P1])
HADAMARD = DiscretePOVM([PLUS, MINUS])


class TestNscDeviation:
    def test_trivial_instrument(self):
        S = random_effect(3, make_rng(31))
        assert nsc_deviation(identity_instrument(3), S) < 1e-14

    def test_commuting_diagonal(self):
        T = DiscretePOVM([np.diag([0.3, 0.6]), np.diag([0.7, 0.4])])
        S = np.diag([0.2, 0.9]).astype(complex)
        assert nsc_deviation(luders_instrument(T), S) < 1e-12

    def test_qubit_witness_half(self):
        instr = luders_instrument(HADAMARD)
        assert nsc_deviation(instr, P0) == pytest.approx(0.5, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            nsc_deviation(identity_instrument(2), np.eye(3))

    def test_exactness_of_dual_formulation(self):
        # |tr(rho' S) - tr(rho S)| <= nsc_deviation for every state, with
        # equality attained by the extremal eigenvector of the dual defect
        rng = make_rng(32)
        from povmlab.measurement import nonselective_post_state
        from povmlab.generators import random_luders_instrument

        for _ in range(50):
            dim = int(rng.integers(2, 5))
            instr = random_luders_instrument(dim, 2, rng)
            S = random_effect(dim, rng)
            dev = nsc_deviation(instr, S)
            for _ in range(5):
                rho = random_state(dim, rng)
                diff = abs(
                    np.trace(nonselective_post_state(rho, instr) @ S).real
                    - np.trace(rho @ S).real
                )
                assert diff <= dev + 1e-9
            defect = instr.dual_apply(S) - S
            w, V = np.linalg.eigh(0.5 * (defect + dag(defect)))
            k = int(np.argmax(np.abs(w)))
            extremal = np.outer(V[:, k], V[:, k].conj())
            diff = abs(
                np.trace(nonselective_post_state(extremal, instr) @ S).real
                - np.trace(extremal @ S).real
            )
            assert diff == pytest.approx(dev, abs=1e-9)


class TestRccDeviation:
    def test_identical_commuting_diagonal(self):
        T = DiscretePOVM([np.diag([0.3, 0.6]), np.diag([0.7, 0.4])])
        instr = luders_instrument(T)
        assert rcc_deviation(instr, instr) < 1e-14

    def test_trivial_first(self):
        rng = make_rng(33)
        second = luders_instrument(random_povm(3, 2, rng))
        assert rcc_deviation(identity_instrument(3), second) < 1e-12

    def test_qubit_witness_quarter(self):
        first = luders_instrument(COMP)
        second = luders_instrument(HADAMARD)
        assert rcc_deviation(first, second) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self):
        rng = make_rng(34)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            a = luders_instrument(random_povm(dim, 2, rng))
            b = luders_instrument(random_povm(dim, 3, rng))
            assert abs(rcc_deviation(a, b) - rcc_deviation(b, a)) <= 1e-12

    def test_equals_the_loop_over_outcome_pairs(self):
        rng = make_rng(35)
        a = luders_instrument(random_povm(3, 2, rng))
        b = luders_instrument(random_povm(3, 4, rng))
        loop = max(np.abs(dag(K) @ b.effect(i) @ K - dag(L) @ a.effect(j) @ L).max()
                   for j, (K,) in enumerate(a.families) for i, (L,) in enumerate(b.families))
        assert rcc_deviation(a, b) == loop

    def test_requires_efficient(self):
        K1 = np.sqrt(0.5) * np.eye(2)
        non_eff = KrausInstrument([[K1, K1]])
        with pytest.raises(ValueError, match="efficient"):
            rcc_deviation(non_eff, identity_instrument(2))


class TestCommutatorResidual:
    def test_diagonal_povms(self):
        T = DiscretePOVM([np.diag([0.3, 0.6]), np.diag([0.7, 0.4])])
        S = DiscretePOVM([np.diag([0.1, 0.8]), np.diag([0.9, 0.2])])
        assert commutator_residual(T, S) < 1e-14

    def test_self_commutation_diagonal(self):
        T = DiscretePOVM([np.diag([0.3, 0.6]), np.diag([0.7, 0.4])])
        assert commutator_residual(T, T) < 1e-14

    def test_qubit_witness(self):
        assert commutator_residual(COMP, HADAMARD) == pytest.approx(0.5, abs=1e-12)


class TestLudersEquivalence:
    def test_commuting_pair_both_sides_small(self):
        rng = make_rng(35)
        for _ in range(10):
            T, S = commuting_povm_pair(4, rng)
            rep = luders_equivalence_check(T, S)
            assert rep.residual("commutator_residual") <= 1e-10
            assert rep.residual("nsc_deviation") <= 1e-10
            assert rep.residual("rcc_deviation") <= 1e-10
            assert rep.residual("biconditional") == 0.0
            assert rep.passed

    def test_qubit_witness_values(self):
        rep = luders_equivalence_check(COMP, HADAMARD)
        assert rep.residual("nsc_deviation") == pytest.approx(0.5, abs=1e-12)
        assert rep.residual("rcc_deviation") == pytest.approx(0.25, abs=1e-12)
        assert rep.residual("commutator_residual") == pytest.approx(0.5, abs=1e-12)
        assert rep.residual("biconditional") == 0.0

    def test_trivial_povm_commutes_with_anything(self):
        rng = make_rng(36)
        T = DiscretePOVM([np.eye(3)])
        S = random_povm(3, 2, rng)
        rep = luders_equivalence_check(T, S)
        assert rep.residual("commutator_residual") < 1e-12
        assert rep.residual("nsc_deviation") < 1e-12
        assert rep.residual("rcc_deviation") < 1e-12

    def test_report_carries_convention_note(self):
        rep = luders_equivalence_check(COMP, HADAMARD)
        assert any("convention" in note for note in rep.notes)


class TestBeckCheck:
    def test_all_diagonal(self):
        T = DiscretePOVM([np.diag([0.3, 0.6, 0.5]), np.diag([0.7, 0.4, 0.5])])
        S = np.diag([0.2, 0.9, 0.4]).astype(complex)
        rep = beck_check(luders_instrument(T), S)
        assert rep.residual("kraus_commutator") < 1e-12
        assert rep.residual("nsc_deviation") < 1e-12
        assert rep.residual("nsc_deviation_squared") < 1e-12
        assert rep.residual("biconditional") == 0.0

    def test_noncommuting_unitary_detected(self):
        rng = make_rng(37)
        instr = KrausInstrument([[haar_unitary(3, rng)]])
        S = random_effect(3, rng)
        rep = beck_check(instr, S)
        assert rep.residual("nsc_deviation") > 1e-3
        assert rep.residual("biconditional") == 0.0

    def test_level_fixing_witness_pattern(self):
        # no-signaling for S yet signaling for S^2, with noncommuting Kraus
        witness = heinosaari_wolf_search(3, seed=5)
        assert isinstance(witness, SearchWitness)
        rep = beck_check(witness.instrument, witness.effect, tol=1e-9)
        assert rep.residual("nsc_deviation") <= 1e-9
        assert rep.residual("nsc_deviation_squared") >= 1e-3
        assert rep.residual("kraus_commutator") > 1e-9
        assert rep.residual("biconditional") == 0.0  # both sides false

    def test_forward_direction(self):
        rng = make_rng(38)
        for _ in range(20):
            T, S_povm = commuting_povm_pair(3, rng)
            rep = beck_check(luders_instrument(T), S_povm[0], tol=1e-12)
            if rep.residual("kraus_commutator") <= 1e-12:
                assert rep.residual("nsc_deviation") <= 1e-10
                assert rep.residual("nsc_deviation_squared") <= 1e-10


class TestSearch:
    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_below_dim_three_refused(self, dim):
        with pytest.raises(ValueError, match="need dim >= 3"):
            heinosaari_wolf_search(dim, seed=0)

    def test_witness_revalidates(self):
        witness = heinosaari_wolf_search(4, seed=9)
        assert isinstance(witness, SearchWitness)
        d1 = nsc_deviation(witness.instrument, witness.effect)
        d2 = nsc_deviation(witness.instrument, witness.effect @ witness.effect)
        assert d1 <= 1e-9
        assert d2 >= 1e-3

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_first_draw_is_a_witness(self, dim):
        # the dual map fixes S, and the split level moves the S^2 expectation
        # by alpha(1 - alpha)(s_hi - s_lo)^2 >= 0.35 * 0.65 * 0.8^2
        for seed in range(50):
            witness = heinosaari_wolf_search(dim, seed=seed)
            assert isinstance(witness, SearchWitness)
            assert witness.d1 <= 1e-9
            assert witness.d2 >= 0.145

    def test_deterministic_for_seed(self):
        a = heinosaari_wolf_search(3, seed=123)
        b = heinosaari_wolf_search(3, seed=123)
        assert isinstance(a, SearchWitness) and isinstance(b, SearchWitness)
        assert np.array_equal(a.effect, b.effect)
        assert (a.d1, a.d2) == (b.d1, b.d2)

    def test_commuting_seed_family_rejected(self):
        # a commuting instrument/effect pair has d2 = 0 and can never be a witness
        T = DiscretePOVM([np.diag([0.3, 0.6, 0.5]), np.diag([0.7, 0.4, 0.5])])
        S = np.diag([0.2, 0.9, 0.4]).astype(complex)
        instr = luders_instrument(T)
        d2 = nsc_deviation(instr, S @ S)
        assert d2 < 1e-12


class TestKrausCommutator:
    def test_conjugation_invariance(self):
        rng = make_rng(39)
        U = haar_unitary(3, rng)
        T, S_povm = commuting_povm_pair(3, rng)
        instr = luders_instrument(T)
        S = S_povm[0]
        rotated = KrausInstrument(
            [[U @ K @ dag(U) for K in fam] for fam in instr.families]
        )
        assert abs(
            kraus_commutator_residual(instr, S)
            - kraus_commutator_residual(rotated, U @ S @ dag(U))
        ) < 1e-10

    def test_equals_the_loop_over_operators(self):
        rng = make_rng(40)
        ops = [haar_unitary(3, rng) * 0.5 for _ in range(3)]
        instr, S = KrausInstrument([ops[:2], ops[2:]]), random_effect(3, rng)
        loop = max(max(op_norm(K @ S - S @ K), op_norm(dag(K) @ S - S @ dag(K))) for K in ops)
        assert kraus_commutator_residual(instr, S) == loop
