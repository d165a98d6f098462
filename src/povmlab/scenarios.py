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

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from . import conditional as cond
from . import lattice as lat
from . import signaling as sig
from .generators import (commuting_povm_pair, effect_from, ginibre, make_rng, random_effect,
                         random_state, state_from, unitary_from)
from .geometry import RegionUnion, _same_frame, causally_separated
from .linalg import DEFAULT_TOL, op_norm, stack_size
from .measurement import KrausInstrument, luders_instrument
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
    built,
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

    def echo(self) -> dict[str, Any]:
        return {"type": self.type, "seed": self.seed, "tol": self.tol, "repeat": self.repeat}


def parse_scenarios(data: Any, tol: Any = None, seed: Any = None) -> list[Scenario]:
    """Validate the scenario file and read every scenario's parameters;
    schema violations carry JSON-pointer paths.  A given ``tol`` or ``seed``
    (``run``'s ``--tol`` and ``--seed``) replaces every scenario's, read
    first, so each table rule reads the tolerance that will be used."""
    tol = None if tol is None else check_tol(tol, "--tol")
    seed = None if seed is None else check_seed(seed, "--seed")
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
        sc_tol = entry["tol"] if tol is None else tol
        params = CHECKS[entry["type"]].read(entry["params"], f"{pointer}/params", sc_tol)
        out.append(Scenario(entry["type"], params, entry["seed"] if seed is None else seed,
                            sc_tol, entry["repeat"], index=i))
    return out


# the readers of cell lists and decoded objects; the generic readers
# (Integer, Number, OneOf, Nonempty, Fields) live in ``serialization``
class Cells(NamedTuple):
    """A list of JSON integers, cells of the ring of the ``n`` read before it,
    at least one when ``nonempty``; inside the cells read as ``inside``, and
    disjoint from those read as ``disjoint_from``, when given."""
    nonempty: bool = False
    inside: str | None = None
    disjoint_from: str | None = None

    def __call__(self, raw: Any, pointer: str, values: dict) -> frozenset[int]:
        if not isinstance(raw, list) or not all(type(k) is int for k in raw):
            raise SchemaError(pointer, "expected a list of cell indices")
        if self.nonempty and not raw:
            raise SchemaError(pointer, "expected a nonempty list of cell indices")
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
    decoded matrix, instrument or POVM; with ``rule``, refused by
    ``rule(value, pointer, values)`` as well."""
    decode: Callable[[Any, str], Any]
    dim: str | None = None
    rule: Callable[[Any, str, dict], None] | None = None

    def __call__(self, raw: Any, pointer: str, values: dict) -> Any:
        out = self.decode(raw, pointer)
        if self.dim is not None:
            want, got = _dimension(values[self.dim]), _dimension(out)
            if got != want:
                raise SchemaError(pointer, f"expected dimension {self.dim} = {want}, got {got}")
        if self.rule is not None:
            self.rule(out, pointer, values)
        return out


def _efficient(instrument: KrausInstrument, pointer: str, values: dict) -> None:
    """rcc's rule: an efficient instrument, one Kraus operator per outcome."""
    if not instrument.efficient:
        raise SchemaError(pointer, "rcc needs an efficient instrument: one Kraus operator "
                                   "per outcome")


def _in_frame_of_first(region: RegionUnion, pointer: str, values: dict) -> None:
    """causal_separation's rule: a region in the frame of ``first``, by ``geometry``'s own test."""
    built(_same_frame, f"{pointer}/frame", values["first"], region)


def _luders_povms(values: dict, pointer: str, tol: float) -> None:
    """luders_equivalence's rule: each explicit family a POVM at ``tol``, by
    ``luders_instrument``'s own test, which names the failed items of
    ``validate_povm``."""
    for key in ("first", "second"):
        if values[key] is not None:
            built(luders_instrument, f"{pointer}/{key}", values[key], tol)


def _dimension(value: Any) -> int:
    """An integer itself, an instrument's or POVM's ``dim``, a matrix's size."""
    if isinstance(value, int):
        return value
    return value.dim if hasattr(value, "dim") else value.shape[0]


check_tol = Number(positive=True)  # a scenario tolerance
check_seed = Integer(0, 2**64 - 1)  # a scenario seed
# the largest lattice or matrix dimension a scenario may ask for, the largest
# n the tests run; each builder and generator allocates dense n x n arrays
N_MAX = 128
# the most instances of one gentle sweep and the most repeats of one scenario,
# far above the largest in use (2000 and 3); each costs a loop turn, not memory
INSTANCES_MAX = 100_000
REPEAT_MAX = 100
# the most sampled regions and times of one hc_audit, far above the largest in
# use (3 and 4): its work grows with the square of the samples times the times
SAMPLES_MAX = 32
TIMES_MAX = 32
SHARP_KINDS = ("sharp", "alternating")  # the system kinds whose builders take no width
SYSTEM_KINDS = (*SHARP_KINDS, "diagonal_smeared", "frame_smeared")


class CheckType(NamedTuple):
    """An adapter, its parameters in read order, a pair given both or neither,
    and a rule on the values read that depends on the scenario's tolerance."""
    run: Callable[[Scenario, np.random.Generator], CheckReport]
    params: tuple[Param, ...]
    pair: tuple[str, str] | None = None
    rule: Callable[[dict, str, float], None] | None = None

    def read(self, raw: Any, pointer: str, tol: float) -> dict[str, Any]:
        """One scenario's params, read in the table's order; a system's
        checked whole, and ``rule`` applied at ``tol``."""
        values = Fields(self.params, "params", "parameter", self.pair)(raw, pointer)
        if self.params[:len(SYSTEM_PARAMS)] == SYSTEM_PARAMS:
            _check_system(values, pointer)
        if self.rule is not None:
            self.rule(values, pointer, tol)
        return values


# read first by every check on a lattice system
SYSTEM_PARAMS = (Param("n", Integer(2, N_MAX), 16), Param("mass", Number(positive=True), 1.0),
                 Param("a", Number(positive=True), 1.0),
                 Param("width", Number(positive=True), 1.5),
                 Param("kind", OneOf(SYSTEM_KINDS), "frame_smeared"))


def _check_system(values: dict[str, Any], pointer: str) -> None:
    """Refuse, with the builders' own functions, a non-finite Gaussian profile or dispersion,
    and at its own key a time whose phase t * max|omega| is not finite with a margin."""
    n, mass, a, width, kind = (values[p.name] for p in SYSTEM_PARAMS)
    try:
        if kind not in SHARP_KINDS:  # profile first, as the smeared builders do
            lat.gaussian_frame_vector(n, 0, width)
        norm = float(lat.lattice_dispersion(n, mass, a).max())
    except ValueError as exc:
        raise SchemaError(pointer, str(exc)) from None
    times = [("t", values["t"])] if "t" in values else [
        (f"t_grid/{k}", t) for k, t in enumerate(values.get("t_grid", ()))]
    for key, t in times:
        if not math.isfinite(t * norm * (1 + 1e-12)):  # eigh(H) tops norm by up to 4e-14
            raise SchemaError(f"{pointer}/{key}",
                              f"the phase t * max|omega| = {t!r} * {norm:.3e} overflows")


def _system(sc: Scenario) -> lat.LatticeLocalizationSystem:
    """The scenario's lattice system, its builder looked up on ``lattice`` at call time."""
    n, mass, a, width, kind = (sc.params[p.name] for p in SYSTEM_PARAMS)
    args = (n, mass, a) if kind in SHARP_KINDS else (n, mass, a, width)
    return getattr(lat, f"build_{kind}_system")(*args)


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
    # one draw, a witness at the table's dim >= 3: a miss fails, never redrawn
    result = sig.heinosaari_wolf_search(sc.params["dim"], seed)
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
    # drawn in order, as random_effect and random_state draw; built and
    # evaluated in one stack per dimension, flushed when full
    pending: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    worst = float("inf")
    for i in range(instances):
        dim = dims[i % len(dims)]
        draws = pending.setdefault(dim, [])
        draws.append((ginibre(dim, rng), rng.uniform(0.0, 1.0, dim), ginibre(dim, rng)))
        if len(draws) == stack_size(dim):
            worst = min(worst, _gentle_margin(draws))
            draws.clear()
    for draws in pending.values():
        if draws:
            worst = min(worst, _gentle_margin(draws))
    report.add("min_margin", max(0.0, -worst), 1e-9,
               note=f"worst margin {worst:.3e} over {instances} instances")
    return report


def _gentle_margin(draws: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> float:
    """The smallest bound - trace_distance over the instances of one size
    drawn as (Gaussian of T's eigenbasis, T's spectrum, Gaussian of rho);
    instances with tr(rho T) <= 1e-9 are skipped."""
    G, spectrum, W = (np.stack(part) for part in zip(*draws))
    T, rho = effect_from(unitary_from(G), spectrum), state_from(W)
    kept = ~(np.trace(rho @ T, axis1=-2, axis2=-1).real <= 1e-9)
    if not kept.any():
        return float("inf")
    _, distance, bound = cond.gentle_sides(T[kept], rho[kept])
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
    if not lab1 & lab2:
        gap = float(lat.ring_gaps(sys, lab1)[sorted(lab2)].min())
        report.add("lab_spatial_distance", gap, tol=None)
        report.add("labs_causally_separated_at_equal_time", 1.0 if gap > 0 else 0.0, tol=None)
    return report


def _check_causal_separation(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    separated = causally_separated(sc.params["first"], sc.params["second"])
    report = CheckReport(name="causal_separation")
    report.add("separated", 1.0 if separated else 0.0, tol=None)
    return report


DIM = Param("dim", Integer(1, N_MAX), 3)
_INSTRUMENT_EFFECT = (DIM, Param("instrument", Decoded(decode_instrument), None),
                      Param("effect", Decoded(decode_effect, dim="instrument"), None))

CHECKS: dict[str, CheckType] = {
    "nsc": CheckType(_check_nsc, _INSTRUMENT_EFFECT, ("instrument", "effect")),
    "rcc": CheckType(_check_rcc, (
        DIM, Param("first", Decoded(decode_instrument, rule=_efficient), None),
        Param("second", Decoded(decode_instrument, dim="first", rule=_efficient), None)),
        ("first", "second")),
    "luders_equivalence": CheckType(_check_luders_equivalence, (
        DIM, Param("first", Decoded(decode_povm), None),
        Param("second", Decoded(decode_povm, dim="first"), None)), ("first", "second"),
        _luders_povms),
    "beck": CheckType(_check_beck, _INSTRUMENT_EFFECT, ("instrument", "effect")),
    # the draw needs three distinct levels; ``budget`` is read and not used
    "hw_search": CheckType(_check_hw_search, (Param("dim", Integer(3, N_MAX), 3),
                                              Param("budget", Integer(1), 1000))),
    "hc_audit": CheckType(_check_hc_audit, SYSTEM_PARAMS + (
        Param("t_grid", Nonempty(Number(), "times", TIMES_MAX), [0.5, 1.0, 2.0]),
        Param("delta_samples", Nonempty(Cells(nonempty=True), "cell lists", SAMPLES_MAX),
              None))),
    "cc_residual": CheckType(_check_cc_residual, SYSTEM_PARAMS + (
        Param("delta", Cells()), Param("t", Number(), 0.0))),
    "conditional_build": CheckType(_check_conditional_build,
                                   SYSTEM_PARAMS + (Param("lab", Cells(nonempty=True)),)),
    "gentle_sweep": CheckType(_check_gentle_sweep, (
        Param("dims", Nonempty(Integer(1, N_MAX), "dimensions"), [2, 3, 4, 5, 6, 7, 8]),
        Param("instances", Integer(1, INSTANCES_MAX), 1000))),
    "conditional_bound": CheckType(_check_conditional_bound, SYSTEM_PARAMS + (
        Param("lab", Cells(nonempty=True)), Param("delta", Cells(inside="lab")),
        Param("state", Decoded(decode_state, dim="n"), None))),
    "composition": CheckType(_check_composition, SYSTEM_PARAMS + (
        Param("lab1", Cells(nonempty=True)),
        Param("lab2", Cells(nonempty=True, disjoint_from="lab1")))),
    "cross_lab_commutator": CheckType(_check_cross_lab_commutator, SYSTEM_PARAMS + (
        Param("lab1", Cells(nonempty=True)), Param("lab2", Cells(nonempty=True)),
        Param("delta1", Cells(inside="lab1"), None),
        Param("delta2", Cells(inside="lab2"), None))),
    "causal_separation": CheckType(_check_causal_separation, (
        Param("first", Decoded(decode_region)),
        Param("second", Decoded(decode_region, rule=_in_frame_of_first)))),
}


# a scenario file given as an object, and one scenario entry, whose params
# are read by its check type's table
FILE = Fields((Param("scenarios", as_given),), "scenario file")
ENTRY = Fields((Param("type", OneOf(tuple(CHECKS))), Param("params", as_given, {}),
                Param("seed", check_seed, 0), Param("tol", check_tol, DEFAULT_TOL),
                Param("repeat", Integer(1, REPEAT_MAX), 1)), "scenario")


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
    from concurrent.futures import ThreadPoolExecutor  # only here: it imports logging

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, scenarios))
