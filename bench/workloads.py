"""Seeded inputs, ops and correctness gates of the benchmark workloads.

Every input comes from ``--seed``; povmlab only ever sees the generated
laboratories and scenario files.  An op is timed by ``Workload.run``; its
outputs are then checked by ``Workload.check``, which raises ``GateError`` on
a wrong answer and returns the exception type when the op raised.
"""
from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from povmlab import cli, conditional, linalg
from povmlab.generators import commuting_povm_pair, make_rng
from povmlab.lattice import build_frame_smeared_system
from povmlab.measurement import luders_instrument
from povmlab.reporting import FAIL, INFO, PASS
from povmlab.serialization import encode_instrument, encode_matrix

# the criterion-4 residual bound of tests/test_acceptance.py
CRITERION_4_TOL = 1e-10
SYSTEM_KINDS = ("sharp", "alternating", "diagonal_smeared", "frame_smeared")
# one op in PROBE_EVERY runs a single-scenario file the toolkit must refuse
PROBE_EVERY = 10


class GateError(Exception):
    """An output of the program contradicts the expected result."""


class LabEnum:
    """Criterion 4 through the library: conditional POVMs of every laboratory
    of the given sizes on the frame-smeared ring, in a seeded order."""

    threads = 1  # an op runs on the calling thread only

    def __init__(self, seed: int, n: int = 16, sizes=(4, 6, 8)):
        self.sys = build_frame_smeared_system(n, 1.0, 1.0, 1.5)
        self.labs = [frozenset(c) for size in sizes for c in combinations(range(n), size)]
        random.Random(f"lab_enum/{seed}").shuffle(self.labs)
        self.eye = np.eye(n)
        self.worst = 0.0

    def run(self, i: int):
        lab = self.labs[i % len(self.labs)]
        cond = conditional.build_conditional(self.sys, lab)
        cells = sorted(lab)
        left = frozenset(cells[: len(cells) // 2])
        B_lab = cond.effect(lab)
        B_left = cond.effect(left)
        B_right = cond.effect(lab - left)
        w = np.linalg.eigvalsh(B_left)
        return (linalg.op_norm(B_lab - self.eye),
                linalg.op_norm(B_left + B_right - B_lab),
                max(0.0, -float(w[0]), float(w[-1]) - 1.0))

    def check(self, i: int, result, exc: Exception | None) -> str | None:
        if exc is not None:
            return type(exc).__name__
        worst = max(result)
        self.worst = max(self.worst, worst)
        if worst > CRITERION_4_TOL:
            raise GateError(f"criterion-4 residuals {result} exceed {CRITERION_4_TOL} "
                            f"at lab {sorted(self.labs[i % len(self.labs)])}")
        return None

    def is_probe(self, i: int) -> bool:
        return False

    def summary(self) -> dict:
        return {"labs": len(self.labs), "worst_residual": self.worst,
                "residual_bound": CRITERION_4_TOL}


# ---------------------------------------------------------------------------
# scenario batches
# ---------------------------------------------------------------------------

def _blocks(rng: random.Random, n: int, lengths: list[int]) -> list[list[int]]:
    """Disjoint contiguous cell blocks on the ring, separated by gaps >= 1."""
    spare = n - sum(lengths) - len(lengths)
    cuts = sorted(rng.randint(0, spare) for _ in lengths)
    gaps = [b - a for a, b in zip([0] + cuts, cuts)]
    pos = rng.randrange(n)
    out = []
    for length, gap in zip(lengths, gaps):
        pos += gap
        out.append([(pos + j) % n for j in range(length)])
        pos += length + 1
    return out


def _times(rng: random.Random) -> list[float]:
    return sorted(round(rng.uniform(0.2, 3.0), 3) for _ in range(3))


def _hc_audit(rng: random.Random, n: int, index: int) -> dict:
    lengths = [n // 16 * (1 + (index + j) % 4) for j in range(3)]
    return {"n": n, "mass": 1.0, "kind": SYSTEM_KINDS[index % 4], "t_grid": _times(rng),
            "delta_samples": _blocks(rng, n, lengths)}


def _labs(rng: random.Random, n: int, sizes: tuple[int, ...]) -> list[list[int]]:
    cells = rng.sample(range(n), sum(sizes))
    out, start = [], 0
    for size in sizes:
        out.append(sorted(cells[start:start + size]))
        start += size
    return out


def _region(rng: random.Random, t: float) -> dict:
    x = rng.uniform(-5.0, 5.0)
    return {"frame": [1.0, 0.0, 0.0, 0.0],
            "boxes": [{"lo": [t, x, 0.0, 0.0], "hi": [t, x + rng.uniform(0.1, 2.0), 1.0, 1.0]}]}


# Sizes (dimensions, lab and region sizes, system kinds) follow the batch
# index, so every seed runs the same mix of work; the seed draws the cells,
# times, matrices and scenario seeds.

def small_batch(rng: random.Random, index: int) -> list[tuple[dict, str]]:
    """Criterion-1/2 sweeps and the demo's check types on tiny matrices."""
    def dim(offset):
        return 2 + (index + offset) % 5

    def sc(stype, params, **extra):
        return {"type": stype, "seed": rng.randrange(2**31), "params": params, **extra}

    lab1, lab2 = _labs(rng, 16, (2 + index % 3, 2 + (index + 1) % 3))
    t = rng.uniform(0.0, 2.0)
    return [
        (sc("gentle_sweep", {"instances": 40, "dims": [2, 3, 4, 5, 6, 7, 8]}), PASS),
        (sc("luders_equivalence", {"dim": dim(0)}, repeat=2), PASS),
        (sc("beck", {"dim": dim(1)}), PASS),
        # a Lüders instrument against an independent random effect signals;
        # not at dim 2, where a two-outcome POVM drawn close to a multiple of
        # the identity can legitimately pass
        (sc("nsc", {"dim": 3 + index % 4}), FAIL),
        (sc("rcc", {"dim": dim(3)}), PASS),
        (sc("hw_search", {"dim": 3 + index % 4, "budget": 500}), PASS),
        (sc("hc_audit", _hc_audit(rng, 16, index)), PASS),
        (sc("conditional_build", {"n": 16, "kind": "frame_smeared", "width": 1.5,
                                  "lab": _labs(rng, 16, ((4, 6, 8)[index % 3],))[0]}), PASS),
        (sc("composition", {"n": 16, "kind": "frame_smeared", "lab1": lab1, "lab2": lab2}), PASS),
        (sc("causal_separation", {"first": _region(rng, t),
                                  "second": _region(rng, t + rng.uniform(0.0, 3.0))}), INFO),
    ]


def large_batch(rng: random.Random, index: int) -> list[tuple[dict, str]]:
    """Lattice-heavy checks at n = 64, plus explicit matrices for the decoder."""
    n = 64

    def sc(stype, params):
        return {"type": stype, "seed": rng.randrange(2**31), "params": params}

    def smeared(**params):
        return {"n": n, "kind": "frame_smeared", "width": 1.5, **params}

    bound_lab, build_lab = _labs(rng, n, (6 + index % 5, 10 + index % 3))
    lab1, lab2 = _labs(rng, n, (2 + index % 3, 2 + (index + 1) % 3))
    far1, far2 = _labs(rng, n, (3, 3))
    T, S = commuting_povm_pair(8 + index % 9, make_rng(rng.randrange(2**31)))
    if index % 2:
        explicit = sc("nsc", {"instrument": encode_instrument(luders_instrument(T)),
                              "effect": {"kind": "effect", "matrix": encode_matrix(S[0])}})
    else:
        explicit = sc("rcc", {"first": encode_instrument(luders_instrument(T)),
                              "second": encode_instrument(luders_instrument(S))})
    return [
        (sc("hc_audit", _hc_audit(rng, n, index)), PASS),
        (sc("cc_residual", {"n": n, "mass": 1.0, "kind": SYSTEM_KINDS[(index + 1) % 4],
                            "delta": _blocks(rng, n, [1 + index % 4])[0],
                            "t": (0.5, 1.0, 2.0, 3.0)[index % 4]}), INFO),
        (sc("conditional_build", smeared(lab=build_lab)), PASS),
        (sc("conditional_bound", smeared(lab=bound_lab,
                                         delta=rng.sample(bound_lab, 1 + index % 3))), PASS),
        (sc("composition", smeared(lab1=lab1, lab2=lab2)), PASS),
        (sc("cross_lab_commutator", smeared(lab1=far1, lab2=far2,
                                            delta1=far1[:2], delta2=far2[:1])), INFO),
        (explicit, PASS),
    ]


SMALL_PROBES = [
    # kernel obstruction: a sharp system has no conditional POVM on a proper lab
    {"type": "conditional_build", "params": {"n": 16, "kind": "sharp", "lab": [2, 3, 4, 5]}},
    {"type": "hc_audit", "params": {"n": 16, "kind": "frame_smeared", "t_grid": ["a"]}},
    {"type": "nsc", "params": {"dim": 0}},
    {"type": "gentle_sweep", "params": {"dims": []}},
]
LARGE_PROBES = [
    {"type": "conditional_build", "params": {"n": 64, "kind": "alternating", "lab": [7, 8, 9]}},
    {"type": "hc_audit", "params": {"n": 64, "kind": "sharp", "t_grid": [1.0, "later"]}},
    {"type": "composition", "params": {"n": 64, "kind": "frame_smeared",
                                       "lab1": [1, 2, 3], "lab2": [3, 4]}},
    {"type": "nsc", "params": {"instrument": {"kind": "povm"}, "effect": {}}},
]


@dataclass
class Batch:
    path: str
    types: list[str]
    expected: list[str] | None  # None: a refusal probe


class ScenarioBatches:
    """One op runs one generated scenario file through ``povmlab.cli.main``
    exactly as ``povmlab run f --out .. --csv .. --workers nproc`` would."""

    def __init__(self, seed: int, workdir: Path, make_batch, probes: list[dict],
                 workers: int, batches: int = 36):
        self.workers = workers
        self.threads = workers  # the scenario pool's threads
        self.out = str(workdir / "report.json")
        self.csv = str(workdir / "summary.csv")
        self.documented_exits = {v for k, v in vars(cli).items()
                                 if k.startswith("EXIT_") and isinstance(v, int)}
        self.batches: list[Batch] = []
        normal = 0
        for i in range(batches * PROBE_EVERY // (PROBE_EVERY - 1)):
            rng = random.Random(f"{make_batch.__name__}/{seed}/{i}")
            if i % PROBE_EVERY == PROBE_EVERY - 1:
                probe = dict(probes[(i // PROBE_EVERY) % len(probes)], seed=rng.randrange(2**31))
                entries, expected = [probe], None
            else:
                pairs = make_batch(rng, normal)
                normal += 1
                entries, expected = [p for p, _ in pairs], [v for _, v in pairs]
            path = workdir / f"batch{i:03d}.json"
            path.write_text(json.dumps({"scenarios": entries}))
            self.batches.append(Batch(str(path), [e["type"] for e in entries], expected))
        self.verdicts: dict[str, int] = {}

    def run(self, i: int) -> int:
        batch = self.batches[i % len(self.batches)]
        return cli.main(["run", batch.path, "--out", self.out, "--csv", self.csv,
                         "--workers", str(self.workers)])

    def is_probe(self, i: int) -> bool:
        return self.batches[i % len(self.batches)].expected is None

    def check(self, i: int, code, exc: Exception | None) -> str | None:
        batch = self.batches[i % len(self.batches)]
        try:
            if exc is not None:
                return type(exc).__name__
            if code not in self.documented_exits:
                return f"exit {code}"
            reports = self._read_reports(len(batch.types))
            if batch.expected is None:
                if code == cli.EXIT_OK:
                    raise GateError(f"{batch.path}: refusal probe {batch.types} was accepted")
                return None
            got = [r["verdict"] for r in reports]
            if [r["scenario"]["type"] for r in reports] != batch.types or got != batch.expected:
                raise GateError(f"{batch.path}: verdicts {got} for {batch.types}, "
                                f"expected {batch.expected}")
            want = cli.EXIT_FAIL if FAIL in batch.expected else cli.EXIT_OK
            if code != want:
                raise GateError(f"{batch.path}: exit code {code}, expected {want}")
            for verdict in got:
                self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
            return None
        finally:
            for path in (self.out, self.csv):
                if os.path.exists(path):
                    os.unlink(path)

    def _read_reports(self, count: int) -> list[dict]:
        """Re-parse the JSON report and count CSV rows; both must hold one
        entry per scenario.  Returns [] when no report was written."""
        if not os.path.exists(self.out):
            return []
        with open(self.out) as fh:
            reports = json.load(fh)["reports"]
        with open(self.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(reports) != count or len(rows) != count:
            raise GateError(f"{len(reports)} JSON reports and {len(rows)} CSV rows "
                            f"for {count} scenarios")
        if [row["verdict"] for row in rows] != [r["verdict"] for r in reports]:
            raise GateError("CSV verdicts differ from the JSON report")
        return reports

    def summary(self) -> dict:
        return {"batch_files": len(self.batches),
                "probe_files": sum(b.expected is None for b in self.batches),
                "scenarios_per_batch": len(next(b for b in self.batches if b.expected).types),
                "verdicts_checked": self.verdicts}


def make_workload(name: str, seed: int, workdir: Path, workers: int):
    if name == "lab_enum_n16":
        return LabEnum(seed)
    if name == "scenario_small_n16":
        return ScenarioBatches(seed, workdir, small_batch, SMALL_PROBES, workers)
    if name == "scenario_large_n64":
        return ScenarioBatches(seed, workdir, large_batch, LARGE_PROBES, workers)
    raise ValueError(f"unknown workload {name!r}")

