"""torsionkit benchmark: one seeded workload per call.

    python3 perfbench/run.py --workload lens-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in its own process
(``worker.py``), a closed loop with one client.  With ``--trace 0`` two
more processes only set up, and ``setup_s`` is the median set-up time of
the three.  The last stdout line is the result object; the line before it is the
full report (error rate, provenance, sample counts, oracle errors).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lens-cli", "cert-verify", "wide-torsion")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "cpu_per_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(Exception):
    pass


def run_worker(extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start a worker, wait for it, and return its report and set-up time
    at reference machine speed (see ``calibrate.py``)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + extra
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker exceeded the deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    report = json.loads(lines[-1])
    return report, (report["ready"] - t0) * report["setup_scale"]


def layer_units(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s", "total_s": "s"}.get(stat, "ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="torsionkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "torsionkit", "cli.py")):
        print(f"error: no torsionkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        report, setup = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(common + ["--setup-only"], deadline)[1])
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    raw = report.pop("metrics")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in sorted(raw.items())}
    else:
        raw["setup_s"] = statistics.median(setups)
        report["setup_s_samples"] = setups
        report["samples"] = raw.pop("samples")
        report["samples_beyond_p90"] = raw.pop("samples_beyond_p90")
        metrics = {k: {"value": raw[k], "unit": unit} for k, unit in END_TO_END.items()}
    attempted, failed = report["attempted"], report["failed"]
    report["error_rate"] = failed / attempted
    correct = failed == 0
    if args.trace and report["untraced_output_digest"] != report["provenance"]["output_digest"]:
        report["errors"].append("traced and untraced outputs differ")
        correct = False
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
