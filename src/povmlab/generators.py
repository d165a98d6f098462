"""Seeded random instance generation.

Counter-based RNG (Philox) with per-scenario sub-seed derivation from
(seed, scenario index, repeat index), so the same scenario file produces the
same instances regardless of worker count or execution order.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .lattice import build_frame_smeared_system
from .linalg import dag, eigh_checked, hermitize
from .measurement import DiscretePOVM, KrausInstrument, luders_instrument
from .serialization import encode_instrument, encode_matrix, encode_povm

KINDS = ("state", "effect", "povm", "luders_instrument", "commuting_pair", "lattice_system")


def make_rng(*parts: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(p) for p in parts])))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fixing."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ dag(G)
    return hermitize(rho / np.trace(rho).real)


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random effect with Haar eigenbasis and uniform spectrum in [0, 1]."""
    U = haar_unitary(dim, rng)
    return hermitize(U @ np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex) @ dag(U))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> DiscretePOVM:
    """Random POVM: positive blocks normalized by the inverse square root of
    their sum."""
    blocks = []
    for _ in range(n_outcomes):
        G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(G @ dag(G))
    R = eigh_checked(sum(blocks)).inv_sqrt()
    return DiscretePOVM([hermitize(R @ B @ R) for B in blocks])


def random_luders_instrument(
    dim: int, n_outcomes: int, rng: np.random.Generator
) -> KrausInstrument:
    return luders_instrument(random_povm(dim, n_outcomes, rng))


def commuting_povm_pair(dim: int, rng: np.random.Generator) -> tuple[DiscretePOVM, DiscretePOVM]:
    """Simultaneously diagonalizable two-outcome POVM pair: a common
    Haar-random eigenbasis with independent random eigenvalue profiles
    (column-stochastic over outcomes)."""
    U = haar_unitary(dim, rng)

    def build() -> DiscretePOVM:
        W = rng.uniform(0.05, 1.0, size=(2, dim))
        W /= W.sum(axis=0, keepdims=True)
        return DiscretePOVM([hermitize(U @ np.diag(p).astype(complex) @ dag(U)) for p in W])

    return build(), build()


def generate_instance(kind: str, dim: int, seed: int) -> dict[str, Any]:
    """Deterministic serialized instance of the requested kind.

    Generated objects pass their validators; the same (kind, dim, seed)
    produces byte-identical output.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    rng = make_rng(seed, KINDS.index(kind), dim)
    if kind == "state":
        return {"kind": "state", "matrix": encode_matrix(random_state(dim, rng))}
    if kind == "effect":
        return {"kind": "effect", "matrix": encode_matrix(random_effect(dim, rng))}
    if kind == "povm":
        return encode_povm(random_povm(dim, 2, rng))
    if kind == "luders_instrument":
        return encode_instrument(random_luders_instrument(dim, 2, rng))
    if kind == "commuting_pair":
        T, S = commuting_povm_pair(dim, rng)
        return {"kind": "commuting_pair", "first": encode_povm(T), "second": encode_povm(S)}
    # lattice_system: dim is the cell count
    sys = build_frame_smeared_system(dim, 1.0, 1.0, 1.5)
    return {
        "kind": "lattice_system",
        "n": sys.n,
        "a": sys.a,
        "system": "frame_smeared",
        "cell_effects": [encode_matrix(E) for E in sys.cell_effects],
        "shift": encode_matrix(sys.shift),
        "hamiltonian": encode_matrix(sys.hamiltonian),
    }
