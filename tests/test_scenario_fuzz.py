"""Property test of the scenario parser, with strategies built from the
parameter table: a valid file parses to the declared types, and a file with
one fault (a bad value, a missing field, half a pair, an unknown key) is
refused with a ``SchemaError`` at the faulty field, never with another
exception.  A constraint across fields (cells inside another cell list or
disjoint from it, a state of dimension ``n``, the second object of a pair of
the first one's dimension) is a fault of the later field."""
import math
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from povmlab.generators import generate_instance  # noqa: E402
from povmlab.geometry import RegionUnion  # noqa: E402
from povmlab.measurement import DiscretePOVM, KrausInstrument  # noqa: E402
from povmlab.scenarios import (  # noqa: E402
    CHECKS,
    REQUIRED,
    Cells,
    Decoded,
    Integer,
    Nonempty,
    Number,
    SYSTEM_KINDS,
    SystemKind,
    parse_scenarios,
)
from povmlab.serialization import (  # noqa: E402
    SchemaError,
    decode_effect,
    decode_instrument,
    decode_povm,
    decode_region,
    decode_state,
)

REGION = {"frame": [1.0, 0.0, 0.0, 0.0],
          "boxes": [{"lo": [0.0, 0.0, 0.0, 0.0], "hi": [0.0, 1.0, 1.0, 1.0]}]}
# the generator kind of a decoder read with a dimension
KIND = {decode_state: "state", decode_effect: "effect", decode_instrument: "luders_instrument",
        decode_povm: "povm"}
# a few valid objects per decoder, and the type each one decodes to
OBJECTS = {
    decode_instrument: ([generate_instance("luders_instrument", d, 1) for d in (1, 2, 3)],
                        KrausInstrument),
    decode_effect: ([generate_instance("effect", d, 2) for d in (1, 2, 3)], np.ndarray),
    decode_povm: ([generate_instance("povm", d, 3) for d in (1, 2, 3)], DiscretePOVM),
    decode_state: ([generate_instance("state", d, 4) for d in (1, 2, 3)], np.ndarray),
    decode_region: ([REGION], RegionUnion),
}
# JSON values other than lists; none is a valid object or system kind
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
                 st.floats(allow_nan=True, allow_infinity=True), st.just({}),
                 st.just({"kind": "matrix"}))
NOT_A_NUMBER = JUNK.filter(lambda v: type(v) not in (int, float)) | st.just([1.0])


def appended(lists: st.SearchStrategy, element: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(lists, element).map(lambda pair: pair[0] + [pair[1]])


def cached(strategy):
    """Build each strategy once.  The key holds the reader's type, because
    readers are named tuples, which compare equal across types."""
    build = lru_cache(maxsize=None)(lambda kind, reader, n: strategy(reader, n))
    return lambda reader, n: build(type(reader), reader, n)


@cached
def valid(reader, n: int) -> st.SearchStrategy:
    """Values the reader accepts, on a lattice of ``n`` cells."""
    if isinstance(reader, Integer):
        return st.integers(reader.minimum, reader.minimum + 40)
    if isinstance(reader, Number):
        floats = st.floats(0.0 if reader.positive else -1e6, 1e6, exclude_min=reader.positive)
        return floats | st.integers(1 if reader.positive else -10, 10)
    if isinstance(reader, SystemKind):
        return st.sampled_from(SYSTEM_KINDS)
    if isinstance(reader, Cells):
        return st.lists(st.integers(0, n - 1), min_size=int(reader.nonempty), max_size=6)
    if isinstance(reader, Nonempty):
        return st.lists(valid(reader.item, n), min_size=1, max_size=3)
    if isinstance(reader, Decoded) and reader.dim == "n":
        return st.just(generate_instance(KIND[reader.decode], n, 4))
    if isinstance(reader, Decoded):
        return st.sampled_from(OBJECTS[reader.decode][0])
    raise AssertionError(f"no strategy for {reader!r}")


def fit(reader, value, params: dict):
    """A valid cell list cut to the cells another cell list allows, and a
    valid object of the dimension of the object it is paired with."""
    if isinstance(reader, Cells) and reader.inside:
        return [k for k in value if k in params[reader.inside]]
    if isinstance(reader, Cells) and reader.disjoint_from:
        return [k for k in value if k not in params[reader.disjoint_from]]
    if isinstance(reader, Decoded) and reader.dim not in (None, "n"):
        return generate_instance(KIND[reader.decode], dimension(params[reader.dim]), 4)
    return value


def dimension(raw: dict) -> int:
    """The dimension of an encoded matrix, or of the first matrix of an encoded object."""
    while isinstance(raw, list) or "dim" not in raw:
        raw = raw[0] if isinstance(raw, list) else (
            raw.get("matrix") or raw.get("effects") or raw["families"])
    return raw["dim"]


def relation(reader) -> str | None:
    """The field a value is constrained by, if any."""
    if isinstance(reader, Cells):
        return reader.inside or reader.disjoint_from
    return reader.dim if isinstance(reader, Decoded) else None


def either(*strategies: st.SearchStrategy) -> st.SearchStrategy:
    """One of the strategies, each equally likely however many branches it has."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


@cached
def invalid(reader, n: int) -> st.SearchStrategy:
    """Values the reader refuses: wrong JSON types, numbers out of range or
    not finite, lists with one bad element."""
    if isinstance(reader, Integer):
        return either(JUNK.filter(lambda v: type(v) is not int),
                      st.lists(st.integers(), max_size=1), st.integers(-50, reader.minimum - 1))
    if isinstance(reader, Number):
        non_finite = st.sampled_from([math.inf, -math.inf, math.nan, 10**400])
        not_positive = st.floats(-1e6, 0.0) if reader.positive else non_finite
        return either(NOT_A_NUMBER, non_finite, not_positive)
    if isinstance(reader, SystemKind):
        return either(JUNK, st.lists(st.sampled_from(SYSTEM_KINDS), max_size=1))
    if isinstance(reader, Cells):
        element = either(st.integers(n, n + 50), st.integers(-5, -1), st.booleans(), st.floats(),
                         st.text(max_size=2), st.just([0]))
        empty = st.just([]) if reader.nonempty else JUNK
        return either(appended(valid(reader, n), element), JUNK, empty)
    if isinstance(reader, Nonempty):
        items = st.lists(valid(reader.item, n), max_size=2)
        return either(st.just([]), JUNK, appended(items, invalid(reader.item, n)))
    if isinstance(reader, Decoded):
        return either(JUNK, st.lists(st.sampled_from(OBJECTS[reader.decode][0]), max_size=1))
    raise AssertionError(f"no strategy for {reader!r}")


def declared(reader, value) -> bool:
    """Whether a read value has the type the reader declares."""
    if isinstance(reader, Integer):
        return type(value) is int and value >= reader.minimum
    if isinstance(reader, Number):
        return type(value) is float and math.isfinite(value) and (value > 0 or not reader.positive)
    if isinstance(reader, SystemKind):
        return value in SYSTEM_KINDS
    if isinstance(reader, Cells):
        return isinstance(value, frozenset) and all(type(k) is int for k in value)
    if isinstance(reader, Nonempty):
        return isinstance(value, list) and value and all(declared(reader.item, v) for v in value)
    return isinstance(value, OBJECTS[reader.decode][1])


@st.composite
def scenario(draw, stype: str | None = None) -> dict:
    """A valid scenario entry: each parameter valid or left to its default,
    a pair given whole or not at all."""
    stype = stype or draw(st.sampled_from(sorted(CHECKS)))
    check = CHECKS[stype]
    explicit = draw(st.booleans())
    params = {}
    for p in check.params:
        if p.name in (check.pair or ()):
            given = explicit
        else:
            given = p.default is REQUIRED or draw(st.booleans())
        if given:
            params[p.name] = fit(p.read, draw(valid(p.read, params.get("n", 16))), params)
    return {"type": stype, "seed": draw(st.integers(0, 2**32)), "params": params}


FIELDS = [(stype, p) for stype, check in CHECKS.items() for p in check.params]
FAULTS = ["none", "invalid", "invalid", "invalid", "missing", "half", "unknown", "conflict",
          "conflict"]


@st.composite
def faulty_file(draw):
    """Valid scenarios around one scenario with at most one fault: a bad
    value, a missing required field, half a pair, an unknown key or a value
    that breaks its constraint on another field.
    Returns the file, the faulty scenario's index and the field the fault
    lies in (None for a valid file)."""
    fault = draw(st.sampled_from(FAULTS))
    if fault in ("invalid", "conflict"):
        stype, bad = draw(st.sampled_from(
            FIELDS if fault == "invalid" else [(t, p) for t, p in FIELDS if relation(p.read)]))
    else:
        stype = draw(st.sampled_from(sorted(
            stype for stype, check in CHECKS.items()
            if (fault != "missing" or any(p.default is REQUIRED for p in check.params))
            and (fault != "half" or check.pair))))
    check, entry = CHECKS[stype], draw(scenario(stype))
    params, field = entry["params"], None
    n = params.get("n", 16)
    if fault == "invalid":
        if check.pair and bad.name in check.pair:  # the whole pair, one half bad
            for q in check.params:
                if q.name in check.pair:
                    params[q.name] = draw(valid(q.read, n))
        params[bad.name], field = draw(invalid(bad.read, n)), bad.name
    elif fault == "missing":
        field = draw(st.sampled_from([p.name for p in check.params if p.default is REQUIRED]))
        del params[field]
    elif fault == "half":
        given, field = draw(st.permutations(check.pair))
        params[given] = draw(valid(next(p.read for p in check.params if p.name == given), n))
        params.pop(field, None)
    elif fault == "unknown":
        names = {p.name for p in check.params}
        field = draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in names))
        params[field] = draw(JUNK)
    elif fault == "conflict":
        field, other = bad.name, relation(bad.read)
        if isinstance(bad.read, Decoded):  # one dimension above the other field's
            if other != "n" and other not in params:
                first = next(p.read for p in check.params if p.name == other)
                params[other] = draw(valid(first, n))
            size = n if other == "n" else dimension(params[other])
            params[field] = generate_instance(KIND[bad.read.decode], size + 1, 4)
        else:
            cell = draw(st.integers(0, n - 1))
            if bad.read.inside:  # the other list without the cell, this one with it
                params[other] = [k for k in params[other] if k != cell]
            else:  # both lists with the cell
                params[other] = params[other] + [cell]
            params[field] = draw(valid(bad.read, n)) + [cell]
    entries = draw(st.lists(scenario(), max_size=2))
    index = draw(st.integers(0, len(entries)))
    entries.insert(index, entry)
    bare = draw(st.booleans())
    return (entries if bare else {"scenarios": entries}), index, field


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(faulty_file())
def test_one_fault_is_refused_at_its_field_and_valid_values_are_read(drawn):
    data, index, field = drawn
    if field is None:
        parsed = parse_scenarios(data)
        entries = data if isinstance(data, list) else data["scenarios"]
        for entry, sc in zip(entries, parsed, strict=True):
            check = CHECKS[entry["type"]]
            assert list(sc.params) == [p.name for p in check.params]
            for p in check.params:
                if p.name in entry["params"]:
                    assert declared(p.read, sc.params[p.name]), (p.name, sc.params[p.name])
                else:
                    assert sc.params[p.name] == p.default
        return
    with pytest.raises(SchemaError) as err:
        parse_scenarios(data)
    base = "" if isinstance(data, list) else "/scenarios"
    escaped = field.replace("~", "~0").replace("/", "~1")
    prefix = f"{base}/{index}/params/{escaped}"
    assert err.value.pointer == prefix or err.value.pointer.startswith(prefix + "/")
