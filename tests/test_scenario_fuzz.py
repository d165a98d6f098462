"""Property test of the scenario parser, with strategies built from the
parameter table: a valid file parses to the declared types, and a file with
one fault (a bad value, a missing field, half a pair, an unknown key) is
refused with a ``SchemaError`` at the faulty field, never with another
exception.  A constraint across fields (cells inside another cell list or
disjoint from it, a state of dimension ``n``, the second object of a pair of
the first one's dimension) is a fault of the later field.  A fault inside a
wire object (a matrix entry, a ``dim``, a box coordinate, an unknown key) is
refused at that entry's own pointer.  A lattice system the rule across its
fields refuses (a dispersion or smeared Gaussian profile that is not finite)
is refused at ``params``, and a time whose phase t * max|omega| overflows at
the time's own pointer.  Valid values make such a system too (a tiny ``a``,
or a tiny ``width`` of a smeared kind); the first scenario refused is the
one the error names."""
import copy
import math
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from povmlab import lattice  # noqa: E402
from povmlab.generators import generate_instance  # noqa: E402
from povmlab.geometry import RegionUnion  # noqa: E402
from povmlab.measurement import DiscretePOVM, KrausInstrument  # noqa: E402
from povmlab.scenarios import (  # noqa: E402
    CHECKS,
    SHARP_KINDS,
    SYSTEM_PARAMS,
    Cells,
    Decoded,
    parse_scenarios,
)
from povmlab.serialization import (  # noqa: E402
    REQUIRED,
    Integer,
    Nonempty,
    Number,
    OneOf,
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


def top(reader: Integer) -> float:
    """An integer reader's maximum, inf when it has none."""
    return math.inf if reader.maximum is None else reader.maximum


@cached
def valid(reader, n: int) -> st.SearchStrategy:
    """Values the reader accepts, on a lattice of ``n`` cells."""
    if isinstance(reader, Integer):
        return st.integers(reader.minimum, min(reader.minimum + 40, top(reader)))
    if isinstance(reader, Number):
        floats = st.floats(0.0 if reader.positive else -1e6, 1e6, exclude_min=reader.positive)
        return floats | st.integers(1 if reader.positive else -10, 10)
    if isinstance(reader, OneOf):
        return st.sampled_from(reader.choices)
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
    valid object of the dimension of the object it is paired with.  A
    nonempty list cut to nothing takes the first free cell; when the other
    list holds every cell, it gives up its first cell of this list."""
    if isinstance(reader, Cells) and reader.inside:
        return [k for k in value if k in params[reader.inside]]
    if isinstance(reader, Cells) and reader.disjoint_from:
        other = params[reader.disjoint_from]
        kept = [k for k in value if k not in other]
        if reader.nonempty and not kept:
            free = [k for k in range(params.get("n", 16)) if k not in other]
            kept = free[:1] or value[:1]
            params[reader.disjoint_from] = [k for k in other if k not in kept]
        return kept
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


def sites(value, path: tuple = ()):
    """The places of a valid wire object where one fault goes, as (kind,
    path of keys and indices): each object (for an unknown key), each
    ``dim``, each matrix entry and each box or frame coordinate."""
    if isinstance(value, list):
        for j, item in enumerate(value):
            yield from sites(item, path + (j,))
    elif isinstance(value, dict):
        yield "key", path
        for key, item in value.items():
            if key == "dim":
                yield "dim", path + (key,)
            elif key in ("re", "im", "lo", "hi", "frame"):
                kind = "entry" if key in ("re", "im") else "coordinate"
                yield from ((kind, path + (key, j)) for j in range(len(item)))
            else:
                yield from sites(item, path + (key,))


# what one matrix entry, dim or coordinate holds instead of its valid value
WIRE_FAULTS = {
    "entry": st.sampled_from([True, False, "0.5", None, math.nan, math.inf, -math.inf, 10**400]),
    "dim": st.sampled_from([True, 0]),
    "coordinate": st.sampled_from(["nan", "inf", "1.0", math.nan, math.inf, -math.inf, 10**400]),
}


@st.composite
def wire_fault(draw, valid_object: dict) -> tuple[dict, str]:
    """A copy of a valid wire object with one fault inside, and the JSON
    pointer of that fault within the object."""
    broken = copy.deepcopy(valid_object)
    by_kind: dict[str, list[tuple]] = {}
    for kind, path in sites(broken):
        by_kind.setdefault(kind, []).append(path)
    kind = draw(st.sampled_from(sorted(by_kind)))  # each kind equally likely
    path = draw(st.sampled_from(by_kind[kind]))
    holder = broken  # the object that gets the unknown key, or holds the entry
    for token in path if kind == "key" else path[:-1]:
        holder = holder[token]
    if kind == "key":
        key = draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in holder))
        holder[key] = draw(JUNK)
        path += (key.replace("~", "~0").replace("/", "~1"),)
    else:
        holder[path[-1]] = draw(WIRE_FAULTS[kind])
    return broken, "".join(f"/{token}" for token in path)


@cached
def invalid(reader, n: int) -> st.SearchStrategy:
    """Values the reader refuses: wrong JSON types, numbers out of range or
    not finite, lists with one bad element."""
    if isinstance(reader, Integer):
        above = () if reader.maximum is None else (
            st.integers(reader.maximum + 1, reader.maximum + 50),)
        return either(JUNK.filter(lambda v: type(v) is not int),
                      st.lists(st.integers(), max_size=1), st.integers(-50, reader.minimum - 1),
                      *above)
    if isinstance(reader, Number):
        non_finite = st.sampled_from([math.inf, -math.inf, math.nan, 10**400])
        not_positive = st.floats(-1e6, 0.0) if reader.positive else non_finite
        return either(NOT_A_NUMBER, non_finite, not_positive)
    if isinstance(reader, OneOf):
        return either(JUNK, st.lists(st.sampled_from(reader.choices), max_size=1))
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
        return type(value) is int and reader.minimum <= value <= top(reader)
    if isinstance(reader, Number):
        return type(value) is float and math.isfinite(value) and (value > 0 or not reader.positive)
    if isinstance(reader, OneOf):
        return value in reader.choices
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
          "conflict", "wire", "wire", "system"]
# the check types on a lattice system
SYSTEMS = tuple(sorted(stype for stype, check in CHECKS.items()
                       if check.params[:len(SYSTEM_PARAMS)] == SYSTEM_PARAMS))
HUGE_TIME = st.floats(1e170, 1e308) | st.floats(-1e308, -1e170)
# the systems the rule across their fields refuses, each as the check types
# it fits, the values it sets and the field it is refused at ("" for the
# whole params): a dispersion whose square overflows (a tiny spacing or a
# huge mass), a smeared kind's Gaussian profile whose width squared
# underflows, and a time whose phase t * max|omega| overflows at a mass the
# dispersion still takes, refused at the time's own pointer
SYSTEM_FAULTS = [
    (SYSTEMS, st.fixed_dictionaries({"a": st.floats(0.0, 1e-155, exclude_min=True)}), ""),
    (SYSTEMS, st.fixed_dictionaries({"mass": st.floats(1e155, 1e308)}), ""),
    (SYSTEMS, st.fixed_dictionaries({
        "width": st.floats(0.0, 1e-163, exclude_min=True),
        "kind": st.sampled_from(["diagonal_smeared", "frame_smeared"])}), ""),
    (("cc_residual",), st.fixed_dictionaries({"mass": st.floats(1e140, 1e150),
                                              "t": HUGE_TIME}), "t"),
    (("hc_audit",), st.fixed_dictionaries({"mass": st.floats(1e140, 1e150), "t_grid": appended(
        st.lists(st.floats(-1e6, 1e6), max_size=2), HUGE_TIME)}), "t_grid"),
]


def system_refused(entry: dict) -> bool:
    """Whether the builders' own functions refuse the lattice system of a
    scenario whose fields are each valid: a tiny ``a``, or a tiny ``width``
    of a smeared kind, that ``valid`` drew.  Its times never overflow: they
    are at most 1e6, and a dispersion the builders take is below 1e155."""
    if entry["type"] not in SYSTEMS:
        return False
    values = {p.name: entry["params"].get(p.name, p.default) for p in SYSTEM_PARAMS}
    n, mass, a, width = (values[key] for key in ("n", "mass", "a", "width"))
    try:
        if values["kind"] not in SHARP_KINDS:
            lattice.gaussian_frame_vector(n, 0, float(width))
        lattice.lattice_dispersion(n, float(mass), float(a))
    except ValueError:
        return True
    return False


@st.composite
def faulty_file(draw, faults=FAULTS):
    """Valid scenarios around one scenario with at most one fault, drawn
    from ``faults`` ("none" for none): a bad value, a missing required
    field, half a pair, an unknown key, a value that breaks its constraint
    on another field, or one fault inside a valid wire object, or a system
    the rule across its fields refuses.
    Returns the file, the faulty scenario's index, the field the fault
    lies in (None for a valid file, "" for the whole params) and, for a
    fault inside a wire object or a system fault, its exact pointer within
    the field."""
    fault = draw(st.sampled_from(faults))
    inner = None
    if fault == "system":
        stypes, overrides, at = draw(st.sampled_from(SYSTEM_FAULTS))
        stype = draw(st.sampled_from(stypes))
    elif fault in ("invalid", "conflict", "wire"):
        stype, bad = draw(st.sampled_from(
            FIELDS if fault == "invalid" else
            [(t, p) for t, p in FIELDS if isinstance(p.read, Decoded)] if fault == "wire" else
            [(t, p) for t, p in FIELDS if relation(p.read)]))
    else:
        stype = draw(st.sampled_from(sorted(
            stype for stype, check in CHECKS.items()
            if (fault != "missing" or any(p.default is REQUIRED for p in check.params))
            and (fault != "half" or check.pair))))
    check, entry = CHECKS[stype], draw(scenario(stype))
    params, field = entry["params"], None
    n = params.get("n", 16)
    if fault in ("invalid", "wire"):
        if check.pair and bad.name in check.pair:  # the whole pair, one half bad
            for q in check.params:
                if q.name in check.pair:
                    params[q.name] = draw(valid(q.read, n))
        if fault == "invalid":
            params[bad.name] = draw(invalid(bad.read, n))
        else:
            params[bad.name], inner = draw(wire_fault(draw(valid(bad.read, n))))
        field = bad.name
    elif fault == "missing":
        field = draw(st.sampled_from([p.name for p in check.params if p.default is REQUIRED]))
        del params[field]
    elif fault == "half":
        given, field = draw(st.permutations(check.pair))
        params[given] = draw(valid(next(p.read for p in check.params if p.name == given), n))
        params.pop(field, None)
    elif fault == "system":
        params.update(draw(overrides))
        field, inner = at, f"/{len(params['t_grid']) - 1}" if at == "t_grid" else ""
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
            if bad.read.inside:  # the other list without the cell (never empty), this one with it
                params[other] = [k for k in params[other] if k != cell] or [(cell + 1) % n]
            else:  # both lists with the cell
                params[other] = params[other] + [cell]
            params[field] = draw(valid(bad.read, n)) + [cell]
    if fault in ("none", "system") and system_refused(entry):  # refused whole, at params
        field, inner = "", ""
    entries = draw(st.lists(scenario(), max_size=2))
    index = draw(st.integers(0, len(entries)))
    entries.insert(index, entry)
    # an earlier valid scenario (or any, in a valid file) whose system is refused comes first
    ahead = entries if field is None else entries[:index]
    first = next((i for i, other in enumerate(ahead) if system_refused(other)), None)
    if first is not None:
        index, field, inner = first, "", ""
    bare = draw(st.booleans())
    return (entries if bare else {"scenarios": entries}), index, field, inner


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(faulty_file())
def test_one_fault_is_refused_at_its_field_and_valid_values_are_read(drawn):
    data, index, field, inner = drawn
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
    prefix = f"{base}/{index}/params" + (f"/{escaped}" if field else "")
    if inner is not None:
        assert err.value.pointer == prefix + inner
    else:
        assert err.value.pointer == prefix or err.value.pointer.startswith(prefix + "/")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(faulty_file(faults=("none",)))
def test_a_file_without_a_fault_is_read_to_its_declared_types(drawn):
    """Each value is read to its reader's type and each absent one to its
    default, unless a valid value made a system the builders refuse: then
    the first such scenario is refused at its params."""
    data, index, field, _ = drawn
    entries = data if isinstance(data, list) else data["scenarios"]
    if field is not None:
        assert field == "" and system_refused(entries[index])
        with pytest.raises(SchemaError) as err:
            parse_scenarios(data)
        assert err.value.pointer == ("" if data is entries else "/scenarios") + f"/{index}/params"
        return
    for entry, sc in zip(entries, parse_scenarios(data), strict=True):
        check = CHECKS[entry["type"]]
        assert list(sc.params) == [p.name for p in check.params]
        for p in check.params:
            if p.name in entry["params"]:
                assert declared(p.read, sc.params[p.name]), (p.name, sc.params[p.name])
            else:
                assert sc.params[p.name] == p.default


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(OBJECTS)).flatmap(lambda decode: st.tuples(
    st.just(decode), st.sampled_from(OBJECTS[decode][0]).flatmap(wire_fault))))
def test_one_fault_inside_a_wire_object_is_refused_at_it(drawn):
    decode, (broken, inner) = drawn
    with pytest.raises(SchemaError) as err:
        decode(broken, "/x")
    assert err.value.pointer == "/x" + inner
