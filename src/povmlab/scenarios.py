"""Scenario files: schema validation, check dispatch, and execution.

A scenario file is a JSON object {"scenarios": [...]} (or a bare list).  Each
scenario carries a check type, a params payload, a seed, a tolerance, and a
repeat count.  ``CHECKS`` declares each check type's parameters in read order,
and ``parse_scenarios`` reads every scenario through it before anything runs.
Execution is deterministic: every (scenario, repeat) derives its own
counter-based RNG from (seed, scenario index, repeat index), so any worker
count yields identical reports, assembled in input order.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from . import conditional as cond
from . import lattice as lat
from . import signaling as sig
from .generators import commuting_povm_pair, make_rng, random_effect, random_state
from .geometry import RegionUnion, causally_separated, spatial_distance
from .linalg import DEFAULT_TOL, op_norm, stack_size
from .measurement import luders_instrument
from .reporting import CheckReport
from .serialization import (
    Fields,
    Integer,
    Nonempty,
    Number,
    OneOf,
    Param,
    SchemaError,
    as_given,
    decode_effect,
    decode_instrument,
    decode_povm,
    decode_region,
    decode_state,
    encode_matrix,
)


@dataclass
class Scenario:
    type: str
    params: dict[str, Any] = field(default_factory=dict)  # the values the table read
    seed: int = 0
    tol: float = DEFAULT_TOL
    repeat: int = 1
    index: int = 0
    pointer: str = ""

    def echo(self) -> dict[str, Any]:
        return {"type": self.type, "seed": self.seed, "tol": self.tol, "repeat": self.repeat}


def parse_scenarios(data: Any) -> list[Scenario]:
    """Validate the scenario file and read every scenario's parameters;
    schema violations carry JSON-pointer paths."""
    if isinstance(data, dict):
        items, base = FILE(data, "")["scenarios"], "/scenarios"
    else:
        items, base = data, ""
    if not isinstance(items, list):
        raise SchemaError(base or "/", "expected a list of scenarios")
    out = []
    for i, raw in enumerate(items):
        pointer = f"{base}/{i}"
        entry = ENTRY(raw, pointer)
        params = CHECKS[entry["type"]].read(entry["params"], f"{pointer}/params")
        out.append(Scenario(entry["type"], params, entry["seed"], entry["tol"], entry["repeat"],
                            index=i, pointer=pointer))
    return out


# the readers of cell lists and decoded objects; the generic readers
# (Integer, Number, OneOf, Nonempty, Fields) live in ``serialization``
class Cells(NamedTuple):
    """A list of JSON integers, cells of the ring of the ``n`` read before it;
    inside the cells read as ``inside``, and disjoint from those read as
    ``disjoint_from``, when given."""
    nonempty: bool = False
    inside: str | None = None
    disjoint_from: str | None = None

    def __call__(self, raw: Any, pointer: str, values: dict) -> frozenset[int]:
        if not isinstance(raw, list) or not all(type(k) is int for k in raw):
            raise SchemaError(pointer, "expected a list of cell indices")
        if self.nonempty and not raw:
            raise SchemaError(pointer, "sampled regions must be nonempty")
        try:
            cells = lat.as_cells(raw, values["n"])
        except ValueError as exc:
            raise SchemaError(pointer, str(exc)) from None
        if self.inside is not None and not cells <= values[self.inside]:
            outside = sorted(cells - values[self.inside])
            raise SchemaError(pointer, f"must lie inside {self.inside!r}; cells {outside} do not")
        if self.disjoint_from is not None and cells & values[self.disjoint_from]:
            shared = sorted(cells & values[self.disjoint_from])
            raise SchemaError(pointer,
                              f"must be disjoint from {self.disjoint_from!r}; both hold {shared}")
        return cells


class Decoded(NamedTuple):
    """An object read by one of the ``serialization`` decoders; with ``dim``,
    of the dimension of the value read under that key: an integer, or a
    decoded matrix, instrument or POVM."""
    decode: Callable[[Any, str], Any]
    dim: str | None = None

    def __call__(self, raw: Any, pointer: str, values: dict) -> Any:
        out = self.decode(raw, pointer)
        if self.dim is not None:
            want, got = _dimension(values[self.dim]), _dimension(out)
            if got != want:
                raise SchemaError(pointer, f"expected dimension {self.dim} = {want}, got {got}")
        return out


def _dimension(value: Any) -> int:
    """An integer itself, an instrument's or POVM's ``dim``, a matrix's size."""
    if isinstance(value, int):
        return value
    return value.dim if hasattr(value, "dim") else value.shape[0]


check_tol = Number(positive=True)  # a scenario tolerance
check_seed = Integer(0, 2**64 - 1)  # a scenario seed
SYSTEM_KINDS = ("sharp", "alternating", "diagonal_smeared", "frame_smeared")


class CheckType(NamedTuple):
    """An adapter, its parameters in read order, and a pair given both or neither."""
    run: Callable[[Scenario, np.random.Generator], CheckReport]
    params: tuple[Param, ...]
    pair: tuple[str, str] | None = None

    def read(self, raw: Any, pointer: str) -> dict[str, Any]:
        """The values of one scenario's params, read in the table's order."""
        return Fields(self.params, "params", "parameter", self.pair)(raw, pointer)


# read first by every check on a lattice system
SYSTEM_PARAMS = (Param("n", Integer(2), 16), Param("mass", Number(positive=True), 1.0),
                 Param("a", Number(positive=True), 1.0),
                 Param("width", Number(positive=True), 1.5),
                 Param("kind", OneOf(SYSTEM_KINDS), "frame_smeared"))


def _system(sc: Scenario) -> lat.LatticeLocalizationSystem:
    """The scenario's lattice system, its builder looked up on ``lattice`` at call time."""
    n, mass, a, width, kind = (sc.params[p.name] for p in SYSTEM_PARAMS)
    args = (n, mass, a) if kind in ("sharp", "alternating") else (n, mass, a, width)
    try:
        return getattr(lat, f"build_{kind}_system")(*args)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{sc.pointer}/params", str(exc)) from None


# ---------------------------------------------------------------------------
# check implementations
# ---------------------------------------------------------------------------

def _check_nsc(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    if sc.params["instrument"] is not None:
        instr, S = sc.params["instrument"], sc.params["effect"]
    else:
        instr = luders_instrument(commuting_povm_pair(sc.params["dim"], rng)[0])
        S = random_effect(sc.params["dim"], rng)
    report = CheckReport(name="nsc")
    dev = sig.nsc_deviation(instr, S)
    report.add("nsc_deviation", dev, sc.tol * max(1.0, op_norm(S)))
    if not report.passed:
        report.witnesses["effect"] = encode_matrix(S)
    return report


def _check_rcc(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    if sc.params["first"] is not None:
        first, second = sc.params["first"], sc.params["second"]
    else:
        T, S = commuting_povm_pair(sc.params["dim"], rng)
        first, second = luders_instrument(T), luders_instrument(S)
    report = CheckReport(name="rcc")
    report.add("rcc_deviation", sig.rcc_deviation(first, second), sc.tol)
    report.notes.append(sig.RCC_CONVENTION_NOTE)
    return report


def _check_luders_equivalence(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    if sc.params["first"] is not None:
        T, S = sc.params["first"], sc.params["second"]
    else:
        T, S = commuting_povm_pair(sc.params["dim"], rng)
    return sig.luders_equivalence_check(T, S, sc.tol)


def _check_beck(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    if sc.params["instrument"] is not None:
        instr, S = sc.params["instrument"], sc.params["effect"]
    else:
        T, S_povm = commuting_povm_pair(sc.params["dim"], rng)
        instr = luders_instrument(T)
        S = S_povm[0]
    return sig.beck_check(instr, S, sc.tol)


def _check_hw_search(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    report = CheckReport(name="hw_search")
    seed = int(rng.integers(2**63))  # per repeat, so repeats draw distinct witnesses
    # the table's dim >= 3 and budget >= 1 make the first draw a witness
    result = sig.heinosaari_wolf_search(sc.params["dim"], seed, sc.params["budget"])
    report.add("d1_reverified", result.d1, sig.D1_MAX)
    report.add("d2_shortfall", sig.D2_MIN - result.d2, 0.0, note="D2_MIN - d2")
    report.witnesses["effect"] = encode_matrix(result.effect)
    return report


def _check_hc_audit(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    sys, samples = _system(sc), sc.params["delta_samples"]
    if samples is None:
        quarter = max(1, sys.n // 4)
        samples = [frozenset(range(quarter)), frozenset(
            range(min(2 * quarter, sys.n - quarter), min(3 * quarter, sys.n)))]
    return lat.hc_audit(sys, samples, sc.params["t_grid"], sc.tol)


def _check_cc_residual(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    sys = _system(sc)
    cells, t = sc.params["delta"], sc.params["t"]
    shadow, saturated = lat.causal_shadow(sys, cells, t)
    report = CheckReport(name="cc_residual")
    report.add("cc_residual", lat.cc_residual(sys, cells, t), tol=None)
    report.notes.append(f"shadow={sorted(shadow)} saturated={saturated}")
    return report


def _check_conditional_build(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    povm = cond.build_conditional(_system(sc), sc.params["lab"], tol=sc.tol)
    report = povm.validate(sc.tol)
    report.name = "conditional_build"
    return report


def _check_gentle_sweep(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    dims, instances = sc.params["dims"], sc.params["instances"]
    report = CheckReport(name="gentle_sweep")
    # drawn in order, evaluated in one stack per dimension (flushed when full)
    pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    worst = float("inf")
    for i in range(instances):
        dim = dims[i % len(dims)]
        T = random_effect(dim, rng)
        rho = random_state(dim, rng)
        if float(np.trace(rho @ T).real) <= 1e-9:
            continue
        stack = pending.setdefault(dim, [])
        stack.append((T, rho))
        if len(stack) == stack_size(dim):
            worst = min(worst, _gentle_margin(stack))
            stack.clear()
    for stack in pending.values():
        if stack:
            worst = min(worst, _gentle_margin(stack))
    report.add("min_margin", max(0.0, -worst), 1e-9,
               note=f"worst margin {worst:.3e} over {instances} instances")
    return report


def _gentle_margin(pairs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The smallest bound - trace_distance over (T, rho) pairs of one size."""
    _, distance, bound = cond.gentle_sides(np.stack([T for T, _ in pairs]),
                                           np.stack([rho for _, rho in pairs]))
    return float((bound - distance).min())


def _check_conditional_bound(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    sys = _system(sc)
    rho = sc.params["state"]
    if rho is None:
        rho = random_state(sys.n, rng)
    return cond.conditional_prob_bound(sys, sc.params["delta"], sc.params["lab"], rho, sc.tol)


def _check_composition(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    return cond.composition_identity_check(_system(sc), sc.params["lab1"], sc.params["lab2"],
                                           sc.tol)


def _check_cross_lab_commutator(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    sys = _system(sc)
    lab1, lab2 = sc.params["lab1"], sc.params["lab2"]
    cells1, cells2 = sc.params["delta1"], sc.params["delta2"]
    value = cond.cross_lab_commutator(sys, lab1, lab1 if cells1 is None else cells1,
                                      lab2, lab2 if cells2 is None else cells2, sc.tol)
    report = CheckReport(name="cross_lab_commutator")
    report.add("commutator_norm", value, tol=None,
               note="measurement only; commutativity across laboratories is not asserted")
    if lab1 and lab2 and not (lab1 & lab2):
        box1 = lat.cells_bounding_box(sys, lab1)
        box2 = lat.cells_bounding_box(sys, lab2)
        report.add("lab_spatial_distance", spatial_distance(box1, box2), tol=None)
        report.add(
            "labs_causally_separated_at_equal_time",
            0.0 if causally_separated(RegionUnion([box1]), RegionUnion([box2])) else 1.0,
            tol=None,
        )
    return report


def _check_causal_separation(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    separated = causally_separated(sc.params["first"], sc.params["second"])
    report = CheckReport(name="causal_separation")
    report.add("separated", 1.0 if separated else 0.0, tol=None)
    return report


_DIM = Param("dim", Integer(1), 3)
_INSTRUMENT_EFFECT = (_DIM, Param("instrument", Decoded(decode_instrument), None),
                      Param("effect", Decoded(decode_effect, dim="instrument"), None))

CHECKS: dict[str, CheckType] = {
    "nsc": CheckType(_check_nsc, _INSTRUMENT_EFFECT, ("instrument", "effect")),
    "rcc": CheckType(_check_rcc, (
        _DIM, Param("first", Decoded(decode_instrument), None),
        Param("second", Decoded(decode_instrument, dim="first"), None)), ("first", "second")),
    "luders_equivalence": CheckType(_check_luders_equivalence, (
        _DIM, Param("first", Decoded(decode_povm), None),
        Param("second", Decoded(decode_povm, dim="first"), None)), ("first", "second")),
    "beck": CheckType(_check_beck, _INSTRUMENT_EFFECT, ("instrument", "effect")),
    # the search's level-splitting construction needs three distinct levels
    "hw_search": CheckType(_check_hw_search, (Param("dim", Integer(3), 3),
                                              Param("budget", Integer(1), 1000))),
    "hc_audit": CheckType(_check_hc_audit, SYSTEM_PARAMS + (
        Param("t_grid", Nonempty(Number(), "times"), [0.5, 1.0, 2.0]),
        Param("delta_samples", Nonempty(Cells(nonempty=True), "cell lists"), None))),
    "cc_residual": CheckType(_check_cc_residual, SYSTEM_PARAMS + (
        Param("delta", Cells()), Param("t", Number(), 0.0))),
    "conditional_build": CheckType(_check_conditional_build,
                                   SYSTEM_PARAMS + (Param("lab", Cells()),)),
    "gentle_sweep": CheckType(_check_gentle_sweep, (
        Param("dims", Nonempty(Integer(1), "dimensions"), [2, 3, 4, 5, 6, 7, 8]),
        Param("instances", Integer(1), 1000))),
    "conditional_bound": CheckType(_check_conditional_bound, SYSTEM_PARAMS + (
        Param("lab", Cells()), Param("delta", Cells(inside="lab")),
        Param("state", Decoded(decode_state, dim="n"), None))),
    "composition": CheckType(_check_composition, SYSTEM_PARAMS + (
        Param("lab1", Cells()), Param("lab2", Cells(disjoint_from="lab1")))),
    "cross_lab_commutator": CheckType(_check_cross_lab_commutator, SYSTEM_PARAMS + (
        Param("lab1", Cells()), Param("lab2", Cells()),
        Param("delta1", Cells(inside="lab1"), None),
        Param("delta2", Cells(inside="lab2"), None))),
    "causal_separation": CheckType(_check_causal_separation, (
        Param("first", Decoded(decode_region)), Param("second", Decoded(decode_region)))),
}


# a scenario file given as an object, and one scenario entry, whose params
# are read by its check type's table
FILE = Fields((Param("scenarios", as_given),), "scenario file")
ENTRY = Fields((Param("type", OneOf(tuple(CHECKS))), Param("params", as_given, {}),
                Param("seed", check_seed, 0), Param("tol", check_tol, DEFAULT_TOL),
                Param("repeat", Integer(1), 1)), "scenario")


def run_one(sc: Scenario) -> CheckReport:
    """Execute one scenario; repeats fold into the same report with derived
    sub-seeds.  Repeat r > 0 files its witnesses under ``<key>#<r>``."""
    start = time.perf_counter()
    report: CheckReport | None = None
    for r in range(sc.repeat):
        rng = make_rng(sc.seed, sc.index, r)
        rep = CHECKS[sc.type].run(sc, rng)
        if report is None:
            report = rep
        else:
            report.items.extend(rep.items)
            report.notes.extend(rep.notes)
            report.witnesses.update({f"{key}#{r}": w for key, w in rep.witnesses.items()})
    assert report is not None
    report.scenario = sc.echo()
    report.wall_time = time.perf_counter() - start
    return report


def run_scenarios(scenarios: list[Scenario], workers: int = 1) -> list[CheckReport]:
    """Execute scenarios (concurrently when workers > 1) and assemble reports
    in input order."""
    if workers <= 1 or len(scenarios) <= 1:
        return [run_one(sc) for sc in scenarios]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, scenarios))
