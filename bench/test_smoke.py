"""Smoke test of the benchmark harness at tiny sizes.

    python -m pytest bench/test_smoke.py

Outside the repository's ``testpaths``, so the plain test run stays as it is.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import Recorder  # noqa: E402
from worker import latency_stats, run_phase  # noqa: E402
from workloads import (  # noqa: E402
    LARGE_PROBES,
    SMALL_PROBES,
    GateError,
    LabEnum,
    ScenarioBatches,
    large_batch,
    small_batch,
)


def traced(workload, seconds):
    rec = Recorder()
    rec.install()
    try:
        phase, _ = run_phase(workload, 0, seconds, rec)
    finally:
        rec.uninstall()
    return rec, phase


def test_lab_enum_traced_self_times_account_for_each_op():
    rec, phase = traced(LabEnum(3, n=6, sizes=(2, 3)), 0.3)
    assert phase.latencies and not phase.raised
    check = rec.check_accounting()
    assert check["ops"] == len(phase.latencies) and check["pool_spans"] == 0
    table = rec.layer_table(workers=1)
    assert table["conditional.builds"] == 1.0
    assert table["conditional.effect_calls"] == 3.0
    assert table["conditional.effect_hit_ratio"] == 0.0
    assert table["lapack.small_frac"] == 1.0
    assert table["cli.calls"] == 0.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(table) | {"trace.overhead_frac", "failed_frac"} == {
        m["name"] for m in spec["per_layer"]}


# lattice systems built by the first batch and the first probe: the large
# batch's cc_residual builds the alternating system on top of the sharp one,
# which counts once
@pytest.mark.parametrize("make_batch, probes, builds", [(small_batch, SMALL_PROBES, 4),
                                                        (large_batch, LARGE_PROBES, 7)])
def test_scenario_batches_pass_their_gate_and_count_refusals(tmp_path, make_batch, probes,
                                                            builds):
    workload = ScenarioBatches(11, tmp_path, make_batch, probes, workers=2, batches=9)
    assert [b.expected is None for b in workload.batches].count(True) == 1
    rec = Recorder()
    rec.install()
    try:
        run_phase(workload, 0, 0.0, rec)  # exactly one op: the first batch
        phase, _ = run_phase(workload, 9, 0.0, rec)  # and the probe
    finally:
        rec.uninstall()
    assert rec.check_accounting()["pool_spans"] > 0
    assert rec.layer_table(workers=2)["lattice.system_builds"] == builds / 2
    stats = latency_stats(phase)
    assert stats["unexpected_failures"] == 0
    assert stats["failed_by_type"] == {"ValueError": 1}
    assert workload.summary()["verdicts_checked"]


def test_latencies_are_scaled_by_the_reference_kernel(monkeypatch):
    import worker

    times = iter([4e-3] * 1000)
    monkeypatch.setattr(worker.Reference, "__call__", lambda self: next(times))
    phase, _ = run_phase(LabEnum(3, n=6, sizes=(2, 3)), 0, 0.2)
    assert len(phase.refs) == len(phase.window_ops) + 1 >= 3
    for wall, scaled in zip(phase.latencies, phase.scaled, strict=True):
        assert scaled == pytest.approx(wall / 4)
    stats = latency_stats(phase)
    assert stats["op_p50_ms"] == pytest.approx(stats["wall"]["op_p50_ms"] / 4)
    assert stats["ops_per_s"] == pytest.approx(stats["wall"]["ops_per_s"] * 4)


def test_scaling_averages_the_kernel_times_around_each_window():
    import worker

    phase = worker.Phase()
    phase.latencies.extend([1.0] * 30)
    phase.window_ops.extend([1] * 30)
    phase.refs.extend([1.0] * 15 + [3.0] * 16)
    phase.scale(1.0)
    # window 0 sees kernel times 0..6, window 15 sees 10..21, window 29 sees 24..30
    assert phase.scaled[0] == pytest.approx(1.0)
    assert phase.scaled[15] == pytest.approx(12 / (5 + 21))
    assert phase.scaled[29] == pytest.approx(1 / 3)


def test_wrong_verdict_fails_the_gate(tmp_path):
    workload = ScenarioBatches(11, tmp_path, small_batch, SMALL_PROBES, workers=1, batches=9)
    workload.batches[0].expected[-1] = "PASS"  # causal_separation is measurement-only
    with pytest.raises(GateError):
        workload.check(0, workload.run(0), None)


def test_lab_enum_gate_rejects_a_residual_above_the_bound():
    workload = LabEnum(3, n=6, sizes=(2,))
    with pytest.raises(GateError):
        workload.check(0, (0.0, 2e-10, 0.0), None)


def test_run_prints_every_end_to_end_metric(tmp_path):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "lab_enum_n16",
                          "--seed", "2", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "lab_enum_n16",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
