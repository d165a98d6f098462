"""Workload process: builds one workload's inputs, runs its ops in a closed
loop (one client, next op after the previous one returns), checks every
output, and writes the measurements to ``--result`` as JSON.

Ops run in windows of at least ``WINDOW_S``; the reference kernel of
``reference.py`` runs between windows, on as many threads as an op uses, and
each op's wall time is scaled by the kernel's nominal time over the mean of
the ``2 * SMOOTH + 2`` kernel times around its window.  The latency metrics
come from the scaled times; the wall-clock figures stay in the record under
``wall``.

Started by ``run.py`` with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``
already in the environment, so numpy sees them at import.  With ``--trace 1``
the timed time is split: an untraced half, then a traced half whose spans give
the per-layer table.  Exits 1 when a correctness gate fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import povmlab
from reference import Reference
from tracer import Recorder, unit_of
from workloads import GateError, make_workload

WARMUP_S = 2.0
WINDOW_S = 0.05
# kernel times averaged on each side of a window beyond the two next to it
SMOOTH = 5


class Phase:
    """Latencies and outcome counts of the ops run in one timed phase."""

    def __init__(self) -> None:
        # flat arrays, so the harness's own memory barely grows with the op count
        self.latencies = array("d")
        self.scaled = array("d")  # latencies at the reference speed
        self.refs = array("d")  # kernel times, before each window and after the last
        self.window_ops = array("l")
        self.raised: Counter = Counter()
        self.unexpected = 0

    def scale(self, nominal_s: float) -> None:
        """Fill ``scaled``: window k lies between kernel times k and k + 1."""
        refs = self.refs
        start = 0
        for k, ops in enumerate(self.window_ops):
            around = refs[max(0, k - SMOOTH):k + SMOOTH + 2]
            factor = nominal_s * len(around) / sum(around)
            self.scaled.extend(lat * factor for lat in self.latencies[start:start + ops])
            start += ops


def run_phase(workload, start: int, seconds: float, recorder: Recorder | None = None):
    """Run ops from index ``start`` until ``seconds`` have passed, at least one."""
    phase = Phase()
    i = start
    with Reference(workload.threads) as reference:
        phase.refs.append(reference())
        deadline = perf_counter() + seconds
        while i == start or perf_counter() < deadline:
            ops = 0
            window_end = min(perf_counter() + WINDOW_S, deadline)
            while not ops or perf_counter() < window_end:
                root = recorder.begin_op(i) if recorder else 0
                exc = result = None
                t0 = perf_counter()
                try:
                    result = workload.run(i)
                except Exception as err:  # the op's failure is a measured outcome
                    exc = err
                t1 = perf_counter()
                if recorder:
                    recorder.end_op(root, t0, t1)
                kind = workload.check(i, result, exc)
                if kind is not None:
                    phase.raised[kind] += 1
                    phase.unexpected += not workload.is_probe(i)
                phase.latencies.append(t1 - t0)
                ops += 1
                i += 1
            phase.refs.append(reference())
            phase.window_ops.append(ops)
        phase.scale(reference.nominal_s)
    return phase, i


def percentiles_ms(lat: array) -> tuple[float, float, float]:
    """Median, 90th percentile and ops per second of op time."""
    lat = sorted(lat)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return statistics.median(lat) * 1e3, deciles[8] * 1e3, len(lat) / sum(lat)


def latency_stats(phase: Phase) -> dict:
    ops = len(phase.latencies)
    p50, p90, rate = percentiles_ms(phase.scaled)
    wall_p50, wall_p90, wall_rate = percentiles_ms(phase.latencies)
    return {
        "ops": ops,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ops_per_s": rate,
        "wall": {"op_p50_ms": wall_p50, "op_p90_ms": wall_p90, "ops_per_s": wall_rate},
        "reference_ms": {"median": statistics.median(phase.refs) * 1e3,
                         "min": min(phase.refs) * 1e3, "max": max(phase.refs) * 1e3,
                         "runs": len(phase.refs)},
        "failed_frac": sum(phase.raised.values()) / ops,
        "failed_by_type": dict(phase.raised),
        "unexpected_failures": phase.unexpected,
    }


def blas_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    workers = len(os.sched_getaffinity(0))
    result: dict = {
        "workload": args.workload,
        "provenance": {
            "povmlab_version": povmlab.__version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "nproc": workers,
            "workers": workers,
            "seed": args.seed,
        },
    }
    workload = make_workload(args.workload, args.seed, args.workdir, workers)
    result["provenance"]["reference_threads"] = workload.threads
    try:
        _, next_op = run_phase(workload, 0, WARMUP_S)
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        phase, next_op = run_phase(workload, next_op, untraced_s)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["untraced"] = latency_stats(phase)
        if args.trace:
            recorder = Recorder()
            span_cost = recorder.span_cost_s()
            recorder.install()
            try:
                traced, _ = run_phase(workload, next_op, args.seconds / 2, recorder)
            finally:
                recorder.uninstall()
            stats = latency_stats(traced)
            accounting = recorder.check_accounting()
            table = recorder.layer_table(workers)
            table["trace.overhead_frac"] = 1.0 - stats["ops_per_s"] / result["untraced"]["ops_per_s"]
            table["failed_frac"] = stats["failed_frac"]
            result["traced"] = stats
            result["layers"] = {name: {"value": value, "unit": unit_of(name)}
                                for name, value in table.items()}
            result["trace_check"] = dict(accounting, span_cost_s=span_cost)
            args.outdir.mkdir(parents=True, exist_ok=True)
            recorder.write_spans(args.outdir / f"{args.workload}.spans.npz")
    except (GateError, AssertionError) as err:
        print(f"correctness gate failed: {err}", file=sys.stderr)
        return 1
    result["inputs"] = workload.summary()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
