import json

import numpy as np
import pytest

from povmlab import scenarios
from povmlab.conditional import gentle_sides
from povmlab.generators import (
    KINDS,
    commuting_povm_pair,
    effect_from,
    generate_instance,
    ginibre,
    haar_unitary,
    make_rng,
    random_effect,
    random_povm,
    random_state,
    state_from,
    unitary_from,
)
from povmlab.linalg import dag, hermitize, op_norm, stack_size
from povmlab.measurement import validate_effect, validate_povm, validate_state
from povmlab.reporting import CheckReport
from povmlab.signaling import commutator_residual


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_byte_identical(self, kind):
        a = json.dumps(generate_instance(kind, 4, seed=99), sort_keys=True)
        b = json.dumps(generate_instance(kind, 4, seed=99), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = json.dumps(generate_instance("state", 4, seed=1), sort_keys=True)
        b = json.dumps(generate_instance("state", 4, seed=2), sort_keys=True)
        assert a != b

    def test_rng_streams_independent_of_call_order(self):
        r1 = make_rng(5, 0, 0).normal(size=3)
        _ = make_rng(5, 1, 0).normal(size=100)
        r2 = make_rng(5, 0, 0).normal(size=3)
        assert np.array_equal(r1, r2)


def two_decomposition_random_povm(dim, n_outcomes, rng):
    """random_povm with its floor from op_norm(S) and the inverse square
    root from a second, separate decomposition."""
    blocks = []
    for _ in range(n_outcomes):
        G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(G @ dag(G))
    S = sum(blocks)
    assert np.linalg.eigvalsh(hermitize(S))[0] > 1e-12 * op_norm(S)
    w, V = np.linalg.eigh(hermitize(S))
    R = (V * (1.0 / np.sqrt(w))[..., None, :]) @ dag(V)
    return [hermitize(R @ B @ R) for B in blocks]


class TestRandomPovm:
    @pytest.mark.parametrize("dim, outcomes", [(1, 2), (2, 2), (3, 4), (8, 3), (16, 2)])
    def test_bit_equal_to_two_decompositions(self, dim, outcomes):
        for seed in range(5):
            povm = random_povm(dim, outcomes, make_rng(seed, dim))
            expected = two_decomposition_random_povm(dim, outcomes, make_rng(seed, dim))
            assert all(np.array_equal(a, b) for a, b in zip(povm.effects, expected, strict=True))


class TestGeneratedObjectsValidate:
    def test_state_trace_one(self):
        rng = make_rng(81)
        for dim in (2, 5):
            rho = random_state(dim, rng)
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert validate_state(rho).passed

    def test_effect_within_bounds(self):
        rng = make_rng(82)
        assert validate_effect(random_effect(6, rng)).passed

    def test_povm_normalized(self):
        rng = make_rng(83)
        povm = random_povm(4, 3, rng)
        assert validate_povm(povm).passed

    def test_commuting_pair_commutes(self):
        rng = make_rng(84)
        for _ in range(10):
            T, S = commuting_povm_pair(5, rng)
            assert commutator_residual(T, S) <= 1e-12
            assert validate_povm(T).passed
            assert validate_povm(S).passed

    def test_haar_unitary_phase_fixed(self):
        # phase fixing makes the sampler reproducible across QR conventions:
        # R's diagonal is rotated to the positive real axis
        U = haar_unitary(4, make_rng(85))
        assert op_norm(dag(U) @ U - np.eye(4)) < 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            generate_instance("qubit_soup", 2, seed=0)


# ---------------------------------------------------------------------------
# stacked generators and the gentle sweep, against the per-instance formulas
# ---------------------------------------------------------------------------

def old_random_effect(dim, rng):
    """The per-matrix formulas random_effect had before it was built from stacks."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    U = Q * (d / np.abs(d))
    return hermitize(U @ np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex) @ dag(U))


def old_random_state(dim, rng):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ dag(G)
    return hermitize(rho / np.trace(rho).real)


class TestStackedGenerators:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 16])
    def test_one_draw_is_bit_equal_to_the_old_formulas(self, dim):
        for seed in range(4):
            for new, old in ((random_effect, old_random_effect),
                             (random_state, old_random_state)):
                assert new(dim, make_rng(seed)).tobytes() == old(dim, make_rng(seed)).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 16])
    def test_a_stack_is_bit_equal_to_one_draw_at_a_time(self, dim):
        rng = make_rng(86, dim)
        draws = [(ginibre(dim, rng), rng.uniform(0.0, 1.0, dim), ginibre(dim, rng))
                 for _ in range(5)]
        G, spectrum, W = (np.stack(part) for part in zip(*draws))
        T, rho = effect_from(unitary_from(G), spectrum), state_from(W)
        rng = make_rng(86, dim)
        for k in range(5):
            assert T[k].tobytes() == random_effect(dim, rng).tobytes()
            assert rho[k].tobytes() == random_state(dim, rng).tobytes()


def dense_effect_from(U, spectrum):
    """U D U† through the complex diagonal matrix D of the spectrum, the
    product ``effect_from`` had before it scaled U's columns."""
    d = spectrum.shape[-1]
    D = np.zeros((*spectrum.shape, d), dtype=complex)
    D[..., range(d), range(d)] = spectrum
    return hermitize(U @ D @ dag(U))


class TestEffectFromColumnScaling:
    @pytest.mark.parametrize("dim", range(1, 33))
    def test_bytes_equal_the_dense_diagonal_product(self, dim):
        """One matrix and stacks, with uniform spectra and spectra holding
        zero eigenvalues.  Only the zero matrix of an all-zero spectrum may
        differ, in the signs of its zeros: each BLAS sums its own signed
        zeros.  Its tr(rho T) is 0, so the gentle sweep skips it."""
        rng = make_rng(88, dim)
        for shape in ((), (3,), (2, 4)):
            U = unitary_from(rng.normal(size=(*shape, dim, dim))
                             + 1j * rng.normal(size=(*shape, dim, dim)))
            spectrum = rng.uniform(0.0, 1.0, size=(*shape, dim))
            zeros = spectrum * (rng.uniform(size=spectrum.shape) < 0.5)
            for values in (spectrum, zeros, np.zeros_like(spectrum)):
                T, dense = effect_from(U, values), dense_effect_from(U, values)
                nonzero = values.any(axis=-1)
                assert T[nonzero].tobytes() == dense[nonzero].tobytes()
                assert not T[~nonzero].any() and not dense[~nonzero].any()


class ZeroSpectra:
    """A generator whose every ``period``-th ``uniform`` draw is scaled to
    zeros, so that T = 0 and tr(rho T) = 0; all other calls pass through."""

    def __init__(self, rng, period):
        self.rng, self.period, self.calls = rng, period, 0

    def normal(self, *args, **kwargs):
        return self.rng.normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs) * (self.calls % self.period != 0)


def oracle_sweep(dims, instances, rng):
    """The per-instance loop: the worst bound - trace distance and the
    number of instances skipped at tr(rho T) <= 1e-9."""
    worst, skipped = float("inf"), 0
    for i in range(instances):
        dim = dims[i % len(dims)]
        T, rho = random_effect(dim, rng), random_state(dim, rng)
        if float(np.trace(rho @ T).real) <= 1e-9:
            skipped += 1
            continue
        _, distance, bound = gentle_sides(T, rho)
        worst = min(worst, float(bound - distance))
    return worst, skipped


class TestGentleSweepOracle:
    @pytest.mark.parametrize("dims, instances, period", [
        ([2, 3, 4, 5, 6, 7, 8], 40, None),
        ([1], 9, None),
        ([1, 9, 16], 25, None),
        ([8], 2 * stack_size(8) + 3, None),  # three flushes of one dimension
        ([2, 5], 30, 3),  # every third instance skipped
        ([3], 4, 1),  # every instance skipped
    ])
    def test_report_matches_the_per_instance_loop(self, monkeypatch, dims, instances, period):
        margins = []
        margin = scenarios._gentle_margin
        monkeypatch.setattr(scenarios, "_gentle_margin",
                            lambda draws: margins.append(margin(draws)) or margins[-1])
        rng = make_rng(87, instances)
        sc = scenarios.Scenario("gentle_sweep", {"dims": dims, "instances": instances})
        report = scenarios.CHECKS["gentle_sweep"].run(
            sc, rng if period is None else ZeroSpectra(rng, period))
        rng = make_rng(87, instances)
        worst, skipped = oracle_sweep(dims, instances,
                                      rng if period is None else ZeroSpectra(rng, period))
        assert (skipped > 0) == (period is not None)
        assert min(margins) == worst  # bit for bit
        expected = CheckReport(name="gentle_sweep")
        expected.add("min_margin", max(0.0, -worst), 1e-9,
                     note=f"worst margin {worst:.3e} over {instances} instances")
        assert report.to_dict() == expected.to_dict()
