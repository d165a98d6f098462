"""JSON encoding of matrices, measurement objects, and regions, and the
readers every JSON value of a scenario file goes through.

Matrices are encoded as {"dim": n, "re": [...], "im": [...]} with row-major
real/imaginary parts; Python float repr round-trips IEEE doubles bit-exactly
through JSON.  Structured objects are tagged wrappers around that encoding.
A reader takes the raw JSON value, its JSON pointer and the values read
before it, and refuses a bad value with a ``SchemaError`` at that pointer;
``Fields`` reads scenario params and wire objects alike.
"""
from __future__ import annotations

from sys import float_info
from typing import Any, Callable, NamedTuple

import numpy as np

from .geometry import FourVector, RegionUnion, SpacetimeBox
from .measurement import DiscretePOVM, KrausInstrument


class SchemaError(ValueError):
    """Input violates the wire schema; ``pointer`` is a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _escape(key: str) -> str:
    """A key as one JSON-pointer token."""
    return key.replace("~", "~0").replace("/", "~1")


class Integer(NamedTuple):
    """A JSON integer >= minimum, and <= maximum when given (no bool, float or string)."""
    minimum: int
    maximum: int | None = None

    def __call__(self, raw: Any, pointer: str, values: dict | None = None) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise SchemaError(pointer, f"expected an integer, got {raw!r}")
        if raw < self.minimum:
            raise SchemaError(pointer, f"must be >= {self.minimum}, got {raw}")
        if self.maximum is not None and raw > self.maximum:
            raise SchemaError(pointer, f"must be <= {self.maximum}, got {raw}")
        return raw


class Number(NamedTuple):
    """A finite JSON number (int or float; no bool, no string), > 0 when ``positive``."""
    positive: bool = False

    def __call__(self, raw: Any, pointer: str, values: dict | None = None) -> float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise SchemaError(pointer, f"expected a number, got {raw!r}")
        if not -float_info.max <= raw <= float_info.max:
            raise SchemaError(pointer, f"expected a finite number, got {raw!r}")
        if self.positive and raw <= 0:
            raise SchemaError(pointer, f"must be > 0, got {raw!r}")
        return float(raw)


NUMBER_TYPES = frozenset((int, float))  # the Python types of a JSON number


class Numbers(NamedTuple):
    """A JSON list of ``count`` finite numbers (with ``square``, of the square
    of the integer read under that key) as one float64 array: one type scan,
    one array, one bound check; any other list is read by ``Number`` entry by
    entry, which names the first bad one.  The bound is strict, because an
    integer just above the float range converts to the largest float."""
    count: int = 0
    square: str | None = None

    def __call__(self, raw: Any, pointer: str, values: dict | None = None) -> np.ndarray:
        count = values[self.square] ** 2 if self.square else self.count
        if not isinstance(raw, list) or len(raw) != count:
            raise SchemaError(pointer, f"expected a list of {count} numbers")
        if NUMBER_TYPES.issuperset(map(type, raw)):
            try:
                array = np.array(raw, dtype=float)
            except OverflowError:  # an integer beyond float range
                pass
            else:
                if (np.abs(array) < float_info.max).all():
                    return array
        return np.array([Number()(x, f"{pointer}/{j}") for j, x in enumerate(raw)], dtype=float)


class Nonempty(NamedTuple):
    """A nonempty JSON list, of at most ``most`` elements when given, each
    element read by ``item`` at its own pointer."""
    item: Callable[[Any, str, dict], Any]
    what: str
    most: int | None = None

    def __call__(self, raw: Any, pointer: str, values: dict | None = None) -> list:
        if not isinstance(raw, list) or not raw:
            raise SchemaError(pointer, f"expected a nonempty list of {self.what}")
        if self.most is not None and len(raw) > self.most:
            raise SchemaError(pointer, f"expected at most {self.most} {self.what}, got {len(raw)}")
        return [self.item(x, f"{pointer}/{j}", values) for j, x in enumerate(raw)]


class OneOf(NamedTuple):
    """One of the strings ``choices``: a wire object's tag, a system kind, a check type."""
    choices: tuple[str, ...]

    def __call__(self, raw: Any, pointer: str, values: dict | None = None) -> str:
        if raw not in self.choices:
            expected = ", ".join(map(repr, self.choices))
            if len(self.choices) > 1:
                expected = f"one of {expected}"
            raise SchemaError(pointer, f"expected {expected}, got {raw!r}")
        return raw


def as_given(raw: Any, pointer: str, values: dict | None = None) -> Any:
    """The value itself, for a field its constructor checks."""
    return raw


REQUIRED = object()  # the default of a parameter that must be given


class Param(NamedTuple):
    """A field of a JSON object: its key, its reader, and its value when absent."""
    name: str
    read: Callable[[Any, str, dict], Any]
    default: Any = REQUIRED


class Fields(NamedTuple):
    """A JSON object read through a table, in order: an unknown key is
    refused, a missing field named or given its default, and ``pair`` given
    both or neither.  Each reader sees the values read before it."""
    table: tuple[Param, ...]
    what: str  # the object, in "<what> must be an object"
    key: str = "key"  # one of its fields, in "unknown <key>"
    pair: tuple[str, str] | None = None

    def __call__(self, raw: Any, pointer: str, values: dict | None = None) -> dict[str, Any]:
        if not isinstance(raw, dict):
            raise SchemaError(pointer, f"{self.what} must be an object")
        names = [p.name for p in self.table]
        for key in raw:
            if key not in names:
                raise SchemaError(f"{pointer}/{_escape(key)}",
                                  f"unknown {self.key}; expected one of {', '.join(names)}")
        if self.pair and (self.pair[0] in raw) != (self.pair[1] in raw):
            given, missing = self.pair if self.pair[0] in raw else self.pair[::-1]
            raise SchemaError(f"{pointer}/{missing}", f"missing field: given {given!r} without it")
        read: dict[str, Any] = {}
        for p in self.table:
            if p.name in raw:
                read[p.name] = p.read(raw[p.name], f"{pointer}/{p.name}", read)
            elif p.default is REQUIRED:
                raise SchemaError(f"{pointer}/{p.name}", "missing field")
            else:
                read[p.name] = p.default
        return read


def encode_matrix(M: np.ndarray) -> dict[str, Any]:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected square matrix, got shape {A.shape}")
    return {
        "dim": int(A.shape[0]),
        "re": [float(v) for v in A.real.ravel()],
        "im": [float(v) for v in A.imag.ravel()],
    }


MATRIX = Fields((Param("dim", Integer(1)), Param("re", Numbers(square="dim")),
                 Param("im", Numbers(square="dim"))), "matrix")


def decode_matrix(data: Any, pointer: str = "", values: dict | None = None) -> np.ndarray:
    m = MATRIX(data, pointer)
    return (m["re"] + 1j * m["im"]).reshape(m["dim"], m["dim"])


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


EFFECT = Fields((Param("kind", OneOf(("effect",))), Param("matrix", decode_matrix)), "effect")
STATE = Fields((Param("kind", OneOf(("state",))), Param("matrix", decode_matrix)), "state")
POVM = Fields((Param("kind", OneOf(("povm",))), Param("labels", as_given, None),
               Param("effects", Nonempty(decode_matrix, "matrices"))), "povm")
INSTRUMENT = Fields((Param("kind", OneOf(("instrument",))), Param("labels", as_given, None),
                     Param("families", Nonempty(Nonempty(decode_matrix, "matrices"),
                                                "Kraus families"))), "instrument")


def built(make: Callable, pointer: str, *parts) -> Any:
    """``make(*parts)``, refused at ``pointer`` when the parts do not fit together."""
    try:
        return make(*parts)
    except (TypeError, ValueError) as exc:
        raise SchemaError(pointer, str(exc)) from None


def decode_effect(data: Any, pointer: str = "") -> np.ndarray:
    return EFFECT(data, pointer)["matrix"]


def decode_state(data: Any, pointer: str = "") -> np.ndarray:
    return STATE(data, pointer)["matrix"]


def decode_povm(data: Any, pointer: str = "") -> DiscretePOVM:
    p = POVM(data, pointer)
    return built(DiscretePOVM, pointer, p["effects"], p["labels"])


def decode_instrument(data: Any, pointer: str = "") -> KrausInstrument:
    p = INSTRUMENT(data, pointer)
    return built(KrausInstrument, pointer, p["families"], p["labels"])


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


def decode_four(data: Any, pointer: str = "", values: dict | None = None) -> FourVector:
    """[t, x, y, z], four finite JSON numbers."""
    return FourVector(*Numbers(4)(data, pointer).tolist())


BOX = Fields((Param("lo", decode_four), Param("hi", decode_four)), "box")


def decode_box(data: Any, pointer: str = "", values: dict | None = None) -> SpacetimeBox:
    b = BOX(data, pointer)
    return built(SpacetimeBox, pointer, b["lo"], b["hi"])


REGION = Fields((Param("frame", decode_four, FourVector(1.0, 0.0, 0.0, 0.0)),
                 Param("boxes", Nonempty(decode_box, "boxes"))), "region")


def decode_region(data: Any, pointer: str = "") -> RegionUnion:
    r = REGION(data, pointer)
    return built(RegionUnion, pointer, r["boxes"], r["frame"])
