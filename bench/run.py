"""povmlab benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Measures ``setup_s`` on fresh interpreters,
then starts the workload in its own process with the BLAS pinned to one
thread, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Times are scaled to a fixed host speed: op latencies by
the reference kernel of ``reference.py``, ``setup_s`` by a fresh interpreter
importing numpy, launched beside each set-up launch.  The line
before it carries provenance, sample counts, the wall-clock latencies and the
failure breakdown.  Exits 2 without printing when the toolkit's sources are
missing, and 1 with ``"correct": false`` and no metrics when a correctness
gate fails.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("lab_enum_n16", "scenario_small_n16", "scenario_large_n64")
# program-side set-up each workload pays before its first op
SETUP_CODE = {
    "lab_enum_n16": ("import povmlab.cli\n"
                     "from povmlab.lattice import build_frame_smeared_system\n"
                     "build_frame_smeared_system(16, 1.0, 1.0, 1.5)\n"),
    "scenario_small_n16": "import povmlab.cli\npovmlab.cli.build_parser()\n",
    "scenario_large_n64": "import povmlab.cli\npovmlab.cli.build_parser()\n",
}
SETUP_LAUNCHES = 7
# a fresh interpreter importing numpy, launched after each set-up launch: the
# yardstick for the host's start-up speed, as reference.py is for the ops.
# It counts as taking REF_LAUNCH_S, about its time on a quiet 2-vCPU host.
REF_LAUNCH_CODE = "import numpy\n"
REF_LAUNCH_S = 0.15
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch_s(code: str, env: dict) -> float | None:
    """Wall time of a fresh interpreter running ``code``.  Output goes to
    pipes: waiting on a pipe returns at the child's exit, where waiting with a
    timeout on the process alone polls every 50 ms."""
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        return None
    return perf_counter() - t0


def time_setup(code: str, env: dict) -> list[tuple[float, float]] | None:
    """(set-up, reference) wall times of fresh interpreters, in pairs: one
    importing povmlab.cli and doing the workload's set-up, then one importing
    numpy.  The first, untimed pair fills the bytecode cache."""
    pairs = []
    for launch in range(SETUP_LAUNCHES + 1):
        pair = launch_s(code, env), launch_s(REF_LAUNCH_CODE, env)
        if None in pair:
            return None
        if launch:
            pairs.append(pair)
    return pairs


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "povmlab" / "cli.py").is_file():
        print(f"error: povmlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = pinned_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = time_setup(SETUP_CODE[args.workload], env)
        if setup is not None:
            result_path = work / "result.json"
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--workdir", str(work), "--outdir", str(outdir),
                 "--result", str(result_path)],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        if setup is None or proc.returncode != 0:
            # the run as a whole is the one failed attempt; no metric is valid
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["provenance"]["git_rev"] = git_rev()
    result["setup_s_samples"] = [t for t, _ in setup]
    result["setup_reference_s_samples"] = [r for _, r in setup]
    setup_s = statistics.median(t / r for t, r in setup) * REF_LAUNCH_S
    untraced = result["untraced"]
    if args.trace:
        phases = (untraced, result["traced"])
        metrics = result["layers"]
    else:
        phases = (untraced,)
        values = {"setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"],
                  **{k: untraced[k] for k in ("op_p50_ms", "op_p90_ms", "ops_per_s")}}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    outdir.mkdir(exist_ok=True)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps(result))
    print(json.dumps({
        "correct": True,
        "attempted": sum(p["ops"] for p in phases),
        "failed": sum(p["unexpected_failures"] for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
