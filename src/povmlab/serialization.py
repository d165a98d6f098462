"""JSON encoding of matrices, measurement objects, and regions.

Matrices are encoded as {"dim": n, "re": [...], "im": [...]} with row-major
real/imaginary parts; Python float repr round-trips IEEE doubles bit-exactly
through JSON.  Structured objects are tagged wrappers around that encoding.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .geometry import FourVector, RegionUnion, SpacetimeBox
from .measurement import DiscretePOVM, KrausInstrument


class SchemaError(ValueError):
    """Input violates the wire schema; ``pointer`` is a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def encode_matrix(M: np.ndarray) -> dict[str, Any]:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected square matrix, got shape {A.shape}")
    return {
        "dim": int(A.shape[0]),
        "re": [float(v) for v in A.real.ravel()],
        "im": [float(v) for v in A.imag.ravel()],
    }


def decode_matrix(data: Any, pointer: str = "") -> np.ndarray:
    if not isinstance(data, dict):
        raise SchemaError(pointer, "matrix must be an object")
    for key in ("dim", "re", "im"):
        if key not in data:
            raise SchemaError(f"{pointer}/{key}", "missing field")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{pointer}/dim", "dim must be a positive integer")
    re, im = data["re"], data["im"]
    if not isinstance(re, list) or len(re) != dim * dim:
        raise SchemaError(f"{pointer}/re", f"expected {dim * dim} reals")
    if not isinstance(im, list) or len(im) != dim * dim:
        raise SchemaError(f"{pointer}/im", f"expected {dim * dim} reals")
    try:
        A = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(pointer, f"non-numeric entries: {exc}") from None
    return A.reshape(dim, dim)


def encode_povm(p: DiscretePOVM) -> dict[str, Any]:
    return {
        "kind": "povm",
        "labels": list(p.labels),
        "effects": [encode_matrix(E) for E in p.effects],
    }


def encode_instrument(instr: KrausInstrument) -> dict[str, Any]:
    return {
        "kind": "instrument",
        "labels": list(instr.labels),
        "families": [[encode_matrix(K) for K in fam] for fam in instr.families],
    }


def _expect_kind(data: Any, kind: str, pointer: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(pointer, f"expected a {kind} object")
    if data.get("kind") != kind:
        raise SchemaError(f"{pointer}/kind", f"expected {kind!r}, got {data.get('kind')!r}")
    return data


def decode_effect(data: Any, pointer: str = "") -> np.ndarray:
    data = _expect_kind(data, "effect", pointer)
    return decode_matrix(data.get("matrix"), f"{pointer}/matrix")


def decode_state(data: Any, pointer: str = "") -> np.ndarray:
    data = _expect_kind(data, "state", pointer)
    return decode_matrix(data.get("matrix"), f"{pointer}/matrix")


def decode_povm(data: Any, pointer: str = "") -> DiscretePOVM:
    data = _expect_kind(data, "povm", pointer)
    effects = data.get("effects")
    if not isinstance(effects, list) or not effects:
        raise SchemaError(f"{pointer}/effects", "expected a nonempty list")
    mats = [decode_matrix(E, f"{pointer}/effects/{i}") for i, E in enumerate(effects)]
    try:
        return DiscretePOVM(mats, data.get("labels"))
    except (TypeError, ValueError) as exc:  # mixed dimensions, or labels that do not fit
        raise SchemaError(pointer, str(exc)) from None


def decode_instrument(data: Any, pointer: str = "") -> KrausInstrument:
    data = _expect_kind(data, "instrument", pointer)
    families = data.get("families")
    if not isinstance(families, list) or not families:
        raise SchemaError(f"{pointer}/families", "expected a nonempty list")
    fams = []
    for j, fam in enumerate(families):
        if not isinstance(fam, list) or not fam:
            raise SchemaError(f"{pointer}/families/{j}", "expected a nonempty list")
        fams.append([decode_matrix(K, f"{pointer}/families/{j}/{k}") for k, K in enumerate(fam)])
    try:
        return KrausInstrument(fams, data.get("labels"))
    except (TypeError, ValueError) as exc:  # mixed dimensions, or labels that are no list
        raise SchemaError(pointer, str(exc)) from None


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def encode_region(region: RegionUnion) -> dict[str, Any]:
    return {
        "frame": [float(c) for c in region.frame.components()],
        "boxes": [
            {
                "lo": [float(c) for c in box.lo.components()],
                "hi": [float(c) for c in box.hi.components()],
            }
            for box in region.boxes
        ],
    }


def _decode_four(data: Any, pointer: str) -> FourVector:
    if not isinstance(data, list) or len(data) != 4:
        raise SchemaError(pointer, "expected [t, x, y, z]")
    try:
        return FourVector(*(float(c) for c in data))
    except (TypeError, ValueError) as exc:
        raise SchemaError(pointer, f"non-numeric component: {exc}") from None


def decode_region(data: Any, pointer: str = "") -> RegionUnion:
    if not isinstance(data, dict):
        raise SchemaError(pointer, "region must be an object")
    frame = _decode_four(data.get("frame", [1.0, 0.0, 0.0, 0.0]), f"{pointer}/frame")
    boxes = data.get("boxes")
    if not isinstance(boxes, list) or not boxes:
        raise SchemaError(f"{pointer}/boxes", "expected a nonempty list")
    out = []
    for i, b in enumerate(boxes):
        if not isinstance(b, dict):
            raise SchemaError(f"{pointer}/boxes/{i}", "box must be an object")
        lo = _decode_four(b.get("lo"), f"{pointer}/boxes/{i}/lo")
        hi = _decode_four(b.get("hi"), f"{pointer}/boxes/{i}/hi")
        try:
            out.append(SpacetimeBox(lo, hi))
        except ValueError as exc:
            raise SchemaError(f"{pointer}/boxes/{i}", str(exc)) from None
    try:
        return RegionUnion(out, frame)
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from None
