"""Scenario files: schema validation, check dispatch, and execution.

A scenario file is a JSON object {"scenarios": [...]} (or a bare list).  Each
scenario carries a check type, a params payload, a seed, a tolerance, and a
repeat count.  Execution is deterministic: every (scenario, repeat) derives
its own counter-based RNG from (seed, scenario index, repeat index), so any
worker count yields identical reports, assembled in input order.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from sys import float_info
from typing import Any, Callable

import numpy as np

from . import conditional as cond
from . import lattice as lat
from . import signaling as sig
from .generators import commuting_povm_pair, make_rng, random_effect, random_state
from .geometry import causally_separated
from .linalg import DEFAULT_TOL, op_norm, stack_size
from .measurement import luders_instrument
from .reporting import CheckReport
from .serialization import (
    SchemaError,
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
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    tol: float = DEFAULT_TOL
    repeat: int = 1
    index: int = 0

    def echo(self) -> dict[str, Any]:
        return {"type": self.type, "seed": self.seed, "tol": self.tol, "repeat": self.repeat}


def parse_scenarios(data: Any) -> list[Scenario]:
    """Validate the scenario file structure; schema violations carry
    JSON-pointer paths."""
    if isinstance(data, dict):
        if "scenarios" not in data:
            raise SchemaError("/scenarios", "missing field")
        items = data["scenarios"]
        base = "/scenarios"
    else:
        items = data
        base = ""
    if not isinstance(items, list):
        raise SchemaError(base or "/", "expected a list of scenarios")
    out = []
    for i, entry in enumerate(items):
        pointer = f"{base}/{i}"
        if not isinstance(entry, dict):
            raise SchemaError(pointer, "scenario must be an object")
        stype = entry.get("type")
        if not isinstance(stype, str) or stype not in CHECKS:
            raise SchemaError(f"{pointer}/type", f"unknown check type {stype!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError(f"{pointer}/params", "params must be an object")
        seed = entry.get("seed", 0)
        if not isinstance(seed, int) or seed < 0 or seed >= 2**64:
            raise SchemaError(f"{pointer}/seed", "seed must be a 64-bit unsigned integer")
        tol = check_tol(entry.get("tol", DEFAULT_TOL), f"{pointer}/tol")
        repeat = entry.get("repeat", 1)
        if not isinstance(repeat, int) or repeat < 1:
            raise SchemaError(f"{pointer}/repeat", "repeat must be >= 1")
        out.append(Scenario(stype, params, seed, tol, repeat, index=i))
    return out


def _number(raw: Any, pointer: str, positive: bool = False) -> float:
    """A finite JSON number (int or float; no bool, no string), > 0 when
    ``positive``, or a SchemaError naming the field."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(pointer, f"expected a number, got {raw!r}")
    if not -float_info.max <= raw <= float_info.max:
        raise SchemaError(pointer, f"expected a finite number, got {raw!r}")
    if positive and raw <= 0:
        raise SchemaError(pointer, f"must be > 0, got {raw!r}")
    return float(raw)


def check_tol(raw: Any, pointer: str) -> float:
    """A scenario tolerance: a finite number > 0."""
    return _number(raw, pointer, positive=True)


def _integer(raw: Any, pointer: str, minimum: int) -> int:
    """A JSON integer >= minimum (no bool, float or string), or a
    SchemaError naming the field."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise SchemaError(pointer, f"expected an integer, got {raw!r}")
    if raw < minimum:
        raise SchemaError(pointer, f"must be >= {minimum}, got {raw}")
    return raw


# ---------------------------------------------------------------------------
# lattice-system payloads
# ---------------------------------------------------------------------------

def _system_from_params(params: dict[str, Any], pointer: str) -> lat.LatticeLocalizationSystem:
    n = _integer(params.get("n", 16), f"{pointer}/n", 2)
    mass = _number(params.get("mass", 1.0), f"{pointer}/mass", positive=True)
    a = _number(params.get("a", 1.0), f"{pointer}/a", positive=True)
    width = _number(params.get("width", 1.5), f"{pointer}/width", positive=True)
    kind = params.get("kind", "frame_smeared")
    try:
        if kind == "sharp":
            return lat.build_sharp_system(n, mass, a)
        if kind == "alternating":
            return lat.build_alternating_system(n, mass, a)
        if kind == "diagonal_smeared":
            return lat.build_diagonal_smeared_system(n, mass, a, width)
        if kind == "frame_smeared":
            return lat.build_frame_smeared_system(n, mass, a, width)
    except (TypeError, ValueError) as exc:
        raise SchemaError(pointer, str(exc)) from None
    raise SchemaError(f"{pointer}/kind", f"unknown system kind {kind!r}")


def _cells(params: dict[str, Any], key: str, n: int, pointer: str) -> frozenset[int]:
    raw = params.get(key)
    if not isinstance(raw, list):
        raise SchemaError(f"{pointer}/{key}", "expected a list of cell indices")
    try:
        return lat.as_cells(raw, n)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{pointer}/{key}", str(exc)) from None


# ---------------------------------------------------------------------------
# check implementations
# ---------------------------------------------------------------------------

def _check_nsc(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    if "instrument" in sc.params:
        instr = decode_instrument(sc.params["instrument"], f"{p}/instrument")
        S = decode_effect(sc.params["effect"], f"{p}/effect")
    else:
        dim = _integer(sc.params.get("dim", 3), f"{p}/dim", 1)
        instr = luders_instrument(commuting_povm_pair(dim, rng)[0])
        S = random_effect(dim, rng)
    report = CheckReport(name="nsc", scenario=sc.echo())
    dev = sig.nsc_deviation(instr, S)
    report.add("nsc_deviation", dev, sc.tol * max(1.0, op_norm(S)))
    if not report.passed:
        report.witnesses["effect"] = encode_matrix(S)
    return report


def _check_rcc(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    if "first" in sc.params:
        first = decode_instrument(sc.params["first"], f"{p}/first")
        second = decode_instrument(sc.params["second"], f"{p}/second")
    else:
        dim = _integer(sc.params.get("dim", 3), f"{p}/dim", 1)
        T, S = commuting_povm_pair(dim, rng)
        first, second = luders_instrument(T), luders_instrument(S)
    report = CheckReport(name="rcc", scenario=sc.echo())
    report.add("rcc_deviation", sig.rcc_deviation(first, second), sc.tol)
    report.notes.append(sig.RCC_CONVENTION_NOTE)
    return report


def _check_luders_equivalence(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    if "first" in sc.params:
        T = decode_povm(sc.params["first"], f"{p}/first")
        S = decode_povm(sc.params["second"], f"{p}/second")
    else:
        dim = _integer(sc.params.get("dim", 3), f"{p}/dim", 1)
        T, S = commuting_povm_pair(dim, rng)
    report = sig.luders_equivalence_check(T, S, sc.tol)
    report.scenario = sc.echo()
    return report


def _check_beck(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    if "instrument" in sc.params:
        instr = decode_instrument(sc.params["instrument"], f"{p}/instrument")
        S = decode_effect(sc.params["effect"], f"{p}/effect")
    else:
        dim = _integer(sc.params.get("dim", 3), f"{p}/dim", 1)
        T, S_povm = commuting_povm_pair(dim, rng)
        instr = luders_instrument(T)
        S = S_povm[0]
    report = sig.beck_check(instr, S, sc.tol)
    report.scenario = sc.echo()
    return report


def _check_hw_search(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    # the search's level-splitting construction needs three distinct levels
    dim = _integer(sc.params.get("dim", 3), f"{p}/dim", 3)
    budget = _integer(sc.params.get("budget", 1000), f"{p}/budget", 1)
    report = CheckReport(name="hw_search", scenario=sc.echo())
    result = sig.heinosaari_wolf_search(dim, sc.seed, budget)
    if result == sig.NOT_FOUND:
        report.add("found", 1.0, 0.5, note="NOT_FOUND within budget; increase budget")
        return report
    d1, d2 = result.reverify()
    report.add("found", 0.0, 0.5)
    report.add("d1_reverified", d1, 1e-9)
    report.add("d2_reverified_above_floor", max(0.0, 1e-3 - d2), 0.0,
               note=f"d2 = {d2:.6f}")
    report.witnesses["effect"] = encode_matrix(result.effect)
    return report


def _check_hc_audit(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    sys = _system_from_params(sc.params, p)
    t_grid = sc.params.get("t_grid", [0.5, 1.0, 2.0])
    if not isinstance(t_grid, list) or not t_grid:
        raise SchemaError(f"{p}/t_grid", "expected a nonempty list of times")
    samples = sc.params.get("delta_samples")
    if samples is None:
        quarter = max(1, sys.n // 4)
        samples = [list(range(quarter)),
                   list(range(min(2 * quarter, sys.n - quarter), min(3 * quarter, sys.n)))]
    if not isinstance(samples, list) or not samples:
        raise SchemaError(f"{p}/delta_samples", "expected a nonempty list of cell lists")
    cells = [_cells({str(j): s}, str(j), sys.n, f"{p}/delta_samples") for j, s in enumerate(samples)]
    for j, region in enumerate(cells):
        if not region:
            raise SchemaError(f"{p}/delta_samples/{j}", "sampled regions must be nonempty")
    times = [_number(t, f"{p}/t_grid/{j}") for j, t in enumerate(t_grid)]
    report = lat.hc_audit(sys, cells, times, sc.tol)
    report.scenario = sc.echo()
    return report


def _check_cc_residual(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    sys = _system_from_params(sc.params, p)
    cells = _cells(sc.params, "delta", sys.n, p)
    t = _number(sc.params.get("t", 0.0), f"{p}/t")
    shadow, saturated = lat.causal_shadow(sys, cells, t)
    report = CheckReport(name="cc_residual", scenario=sc.echo(), info_only=True)
    report.add("cc_residual", lat.cc_residual(sys, cells, t), tol=None)
    report.notes.append(f"shadow={sorted(shadow)} saturated={saturated}")
    return report


def _check_conditional_build(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    sys = _system_from_params(sc.params, p)
    lab = _cells(sc.params, "lab", sys.n, p)
    povm = cond.build_conditional(sys, lab, tol=sc.tol)
    report = povm.validate(sc.tol)
    report.name = "conditional_build"
    report.scenario = sc.echo()
    return report


def _check_gentle_sweep(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    dims = sc.params.get("dims", [2, 3, 4, 5, 6, 7, 8])
    if not isinstance(dims, list) or not dims:
        raise SchemaError(f"{p}/dims", "expected a nonempty list of dimensions")
    dims = [_integer(d, f"{p}/dims/{j}", 1) for j, d in enumerate(dims)]
    instances = _integer(sc.params.get("instances", 1000), f"{p}/instances", 1)
    report = CheckReport(name="gentle_sweep", scenario=sc.echo())
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
    p = f"/scenarios/{sc.index}/params"
    sys = _system_from_params(sc.params, p)
    lab = _cells(sc.params, "lab", sys.n, p)
    cells = _cells(sc.params, "delta", sys.n, p)
    if "state" in sc.params:
        rho = decode_state(sc.params["state"], f"{p}/state")
    else:
        rho = random_state(sys.n, rng)
    report = cond.conditional_prob_bound(sys, cells, lab, rho, sc.tol)
    report.scenario = sc.echo()
    return report


def _check_composition(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    sys = _system_from_params(sc.params, p)
    lab1 = _cells(sc.params, "lab1", sys.n, p)
    lab2 = _cells(sc.params, "lab2", sys.n, p)
    report = cond.composition_identity_check(sys, lab1, lab2, sc.tol)
    report.scenario = sc.echo()
    return report


def _check_cross_lab_commutator(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    sys = _system_from_params(sc.params, p)
    lab1 = _cells(sc.params, "lab1", sys.n, p)
    lab2 = _cells(sc.params, "lab2", sys.n, p)
    cells1 = _cells(sc.params, "delta1", sys.n, p) if "delta1" in sc.params else lab1
    cells2 = _cells(sc.params, "delta2", sys.n, p) if "delta2" in sc.params else lab2
    value = cond.cross_lab_commutator(sys, lab1, cells1, sys, lab2, cells2, sc.tol)
    report = CheckReport(name="cross_lab_commutator", scenario=sc.echo(), info_only=True)
    report.add("commutator_norm", value, tol=None,
               note="measurement only; commutativity across laboratories is not asserted")
    if lab1 and lab2 and not (lab1 & lab2):
        box1 = lat.cells_bounding_box(sys, lab1)
        box2 = lat.cells_bounding_box(sys, lab2)
        from .geometry import RegionUnion, spatial_distance

        report.add("lab_spatial_distance", spatial_distance(box1, box2), tol=None)
        report.add(
            "labs_causally_separated_at_equal_time",
            0.0 if causally_separated(RegionUnion([box1]), RegionUnion([box2])) else 1.0,
            tol=None,
        )
    return report


def _check_causal_separation(sc: Scenario, rng: np.random.Generator) -> CheckReport:
    p = f"/scenarios/{sc.index}/params"
    a = decode_region(sc.params.get("first"), f"{p}/first")
    b = decode_region(sc.params.get("second"), f"{p}/second")
    report = CheckReport(name="causal_separation", scenario=sc.echo(), info_only=True)
    report.add("separated", 1.0 if causally_separated(a, b) else 0.0, tol=None)
    return report


CHECKS: dict[str, Callable[[Scenario, np.random.Generator], CheckReport]] = {
    "nsc": _check_nsc,
    "rcc": _check_rcc,
    "luders_equivalence": _check_luders_equivalence,
    "beck": _check_beck,
    "hw_search": _check_hw_search,
    "hc_audit": _check_hc_audit,
    "cc_residual": _check_cc_residual,
    "conditional_build": _check_conditional_build,
    "gentle_sweep": _check_gentle_sweep,
    "conditional_bound": _check_conditional_bound,
    "composition": _check_composition,
    "cross_lab_commutator": _check_cross_lab_commutator,
    "causal_separation": _check_causal_separation,
}


def run_one(sc: Scenario) -> CheckReport:
    """Execute one scenario; repeats fold into the same report with derived
    sub-seeds.  Repeat r > 0 files its witnesses under ``<key>#<r>``."""
    start = time.perf_counter()
    report: CheckReport | None = None
    for r in range(sc.repeat):
        rng = make_rng(sc.seed, sc.index, r)
        rep = CHECKS[sc.type](sc, rng)
        if report is None:
            report = rep
        else:
            report.items.extend(rep.items)
            report.notes.extend(rep.notes)
            report.witnesses.update({f"{key}#{r}": w for key, w in rep.witnesses.items()})
    assert report is not None
    report.wall_time = time.perf_counter() - start
    return report


def run_scenarios(scenarios: list[Scenario], workers: int = 1) -> list[CheckReport]:
    """Execute scenarios (concurrently when workers > 1) and assemble reports
    in input order."""
    if workers <= 1 or len(scenarios) <= 1:
        return [run_one(sc) for sc in scenarios]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, scenarios))
