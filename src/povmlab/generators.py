"""Seeded random instance generation.

Counter-based RNG (Philox) with per-scenario sub-seed derivation from
(seed, scenario index, repeat index), so the same scenario file produces the
same instances regardless of worker count or execution order.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from . import KINDS
from .linalg import dag, eigh_checked, hermitize
from .measurement import DiscretePOVM, KrausInstrument, luders_instrument
from .serialization import encode_instrument, encode_matrix, encode_povm


def make_rng(*parts: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(p) for p in parts])))


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """dim x dim complex Gaussian matrix; the real part is drawn first."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def unitary_from(G: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussians G (..., d, d): QR with the
    phases of R's diagonal fixed."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def state_from(G: np.ndarray) -> np.ndarray:
    """Normalized Wishart states G G† / tr(G G†) from complex Gaussians G (..., d, d)."""
    rho = G @ dag(G)
    return hermitize(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def effect_from(U: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """U diag(spectrum) U† for unitaries U (..., d, d) and spectra (..., d):
    U's columns scaled by the spectrum, as complex numbers, which gives the
    bits of the product with the complex diagonal matrix."""
    return hermitize((U * spectrum.astype(complex)[..., None, :]) @ dag(U))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fixing."""
    return unitary_from(ginibre(dim, rng))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    return state_from(ginibre(dim, rng))


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random effect with Haar eigenbasis and uniform spectrum in [0, 1]."""
    U = haar_unitary(dim, rng)
    return effect_from(U, rng.uniform(0.0, 1.0, dim))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> DiscretePOVM:
    """Random POVM: positive blocks normalized by the inverse square root of
    their sum."""
    blocks = []
    for _ in range(n_outcomes):
        G = ginibre(dim, rng)
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
        return DiscretePOVM([effect_from(U, p) for p in W])

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
    T, S = commuting_povm_pair(dim, rng)
    return {"kind": "commuting_pair", "first": encode_povm(T), "second": encode_povm(S)}
