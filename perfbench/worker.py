"""One workload in its own process: set up, run passes, check, report.

Usage (normally started by ``run.py``):

    python3 perfbench/worker.py --workload lens-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload cert-verify --seed 1 --setup-only

The last stdout line is one JSON object.  ``ready`` is ``time.monotonic()``
when the first op was about to start, less the calibration run before
set-up, so the parent can time set-up from process start.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import calibrate, tracing  # noqa: E402

# cert-verify runs under this address-space cap, so a change that makes
# certificate coefficients blow up fails ops instead of exhausting memory.
CERT_VERIFY_AS_BYTES = 1 << 30
MIN_PASSES = 3
MIN_OPS = 100  # op_p90_s needs at least 10 samples beyond it
HARD_STOP_S = 120.0
TRACED_SHARE_UNTRACED = 0.3  # share of a traced run spent on the untraced baseline


class PhaseResult:
    def __init__(self, n_ops: int):
        self.lat = [[] for _ in range(n_ops)]
        self.cpu = [[] for _ in range(n_ops)]
        self.first = [None] * n_ops  # (status, text) of each op's first run
        self.attempted = 0
        self.bad_runs = [0] * n_ops  # raised, or output differs from the first run
        self.passes = 0
        self.kernel: list[tuple[int, float]] = []  # calibration after each op run, in run order
        self.errors: list[str] = []
        self.cache_hits: dict[str, list[int]] = {}

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for out in self.first:
            status, text = out if out is not None else (None, "")
            h.update(f"{status}\n{text}\0".encode())
        return h.hexdigest()

    def scaled(self, samples=None) -> list[list[float]]:
        """``lat`` (or ``cpu``) with each op run at reference machine speed,
        by the calibration of the ops around it (see ``calibrate.py``)."""
        samples = self.lat if samples is None else samples
        k = calibrate.local_scales(self.kernel)
        n = len(samples)
        return [[x * k[j * n + i] for j, x in enumerate(runs)] for i, runs in enumerate(samples)]

    def pass_times(self, samples=None) -> list[float]:
        """Each pass's summed op times (``lat`` or ``cpu``), at reference
        machine speed."""
        return [sum(p) for p in zip(*self.scaled(samples))]


def _clear_caches(caches) -> None:
    for fn in caches:
        fn.cache_clear()
    for fn in caches:
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"cache of {fn.__name__} not empty after cache_clear")


def run_phase(wl, budget_s: float, caches, tracer=None, cached=None, min_passes=1, min_ops=0) -> PhaseResult:
    """Whole passes over the op list while at least half of the next one
    fits in ``budget_s``, and at least ``min_passes`` passes and ``min_ops``
    ops."""
    res = PhaseResult(len(wl.ops))
    cached = cached or {}
    res.cache_hits = {name: [0, 0] for name in cached}
    clock, cpu = time.perf_counter, time.process_time
    t_start = clock()
    pass_walls: list[float] = []
    while True:
        elapsed = clock() - t_start
        if res.passes >= min_passes and res.attempted >= min_ops:
            if elapsed + statistics.median(pass_walls) / 2 > budget_s:
                break
        if res.passes and elapsed > HARD_STOP_S:
            break
        t_pass = clock()
        for i, op in enumerate(wl.ops):
            if wl.cold_start:
                _clear_caches(caches)
            before = {k: fn.cache_info() for k, fn in cached.items()}
            if tracer is not None:
                tracer.op_id = res.passes * len(wl.ops) + i
            c0, t0 = cpu(), clock()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op
                out = None
                err = f"{type(exc).__name__}: {exc}"
            t1, c1 = clock(), cpu()
            res.lat[i].append(t1 - t0)
            res.cpu[i].append(c1 - c0)
            res.attempted += 1
            for k, fn in cached.items():
                info = fn.cache_info()
                res.cache_hits[k][0] += info.hits - before[k].hits
                res.cache_hits[k][1] += info.misses - before[k].misses
            if out is None:
                res.bad_runs[i] += 1
                res.errors.append(f"{op.label}: {err}")
            elif res.first[i] is None:
                res.first[i] = out
            elif out != res.first[i]:
                res.bad_runs[i] += 1
                res.errors.append(f"{op.label}: output differs between passes")
            res.kernel.append(calibrate.after_op(t1 - t0))
        res.passes += 1
        pass_walls.append(clock() - t_pass)
    return res


def check_outputs(wl, res: PhaseResult) -> int:
    """Failed op runs: those that raised or changed output, plus every run
    of an op whose first output fails its oracle."""
    failed = 0
    for i, op in enumerate(wl.ops):
        runs = len(res.lat[i])
        if res.first[i] is None:
            failed += runs
            continue
        try:
            op.check(*res.first[i])
        except Exception as exc:  # oracle mismatch or unparsable output
            res.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            failed += runs
            continue
        failed += res.bad_runs[i]
    return failed


def end_to_end(res: PhaseResult) -> dict:
    """Every op run is scaled to reference machine speed; throughput and
    CPU time are medians over passes, the quantiles are over every op run."""
    lat = sorted(x for runs in res.scaled() for x in runs)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    n_ops = len(res.lat)
    return {
        "ops_per_s": n_ops / statistics.median(res.pass_times()),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": deciles[8],
        "cpu_per_op_s": statistics.median(res.pass_times(res.cpu)) / n_ops,
        "samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > deciles[8]),
    }


def per_layer(res: PhaseResult, tracer, untraced: PhaseResult) -> dict:
    """Per traced pass; span times are scaled by the traced phase's
    calibration, and the overhead compares scaled pass times."""
    passes = res.passes
    k = calibrate.scale(res.kernel)
    out: dict[str, float] = {}
    summary = tracer.summarize()
    for name, row in summary.items():
        out[f"{name}.calls"] = row["calls"] / passes
        out[f"{name}.self_s"] = row["self_s"] * k / passes
        out[f"{name}.total_s"] = row["total_s"] * k / passes
    for name, (hits, misses) in res.cache_hits.items():
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    traced_time = sum(sum(x) for x in res.lat)
    for mod in tracing.MODULES:
        own = sum(row["self_s"] for name, row in summary.items() if name.startswith(mod + "."))
        out[f"{mod}.self_share"] = own / traced_time
    out["trace.overhead_ratio"] = statistics.median(res.pass_times()) / statistics.median(untraced.pass_times())
    return out


def git_commit() -> str:
    """The checkout's commit from .git, without running git; "unknown" when
    the checkout is not a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Set-up is scaled by calibration runs on both sides of it; the first
    # one's time is taken out of set-up time.
    k0 = time.monotonic()
    kernel = [calibrate.measure(calibrate.SETUP_CHUNKS // 2)]
    kernel_wall = time.monotonic() - k0

    if args.workload == "cert-verify":
        resource.setrlimit(resource.RLIMIT_AS, (CERT_VERIFY_AS_BYTES, CERT_VERIFY_AS_BYTES))

    import torsionkit.cli  # noqa: F401  (import cost belongs to set-up)
    from perfbench import workloads

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.chdir(workdir)
    try:
        wl = workloads.BY_NAME[args.workload](args.seed)
        caches = tracing.cache_functions()
        # The generated inputs are long-lived: keep the collector from
        # rescanning them during the timed ops.
        gc.collect()
        gc.freeze()
        ready = time.monotonic() - kernel_wall
        kernel.append(calibrate.measure(calibrate.SETUP_CHUNKS // 2))
        setup_scale = calibrate.scale(kernel)
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        result: dict = {
            "ready": ready,
            "setup_scale": setup_scale,
            "workload": args.workload,
            "ops_per_pass": len(wl.ops),
        }
        if args.trace:
            t_base = time.perf_counter()
            base = run_phase(wl, args.seconds * TRACED_SHARE_UNTRACED, caches)
            cached = {
                f"{mod}.{fn}": getattr(sys.modules[f"torsionkit.{mod}"], fn)
                for mod, fn in tracing.CACHED
            }
            tracer = tracing.Tracer()
            tracer.install()
            try:
                budget = max(args.seconds - (time.perf_counter() - t_base), 0.0)
                res = run_phase(wl, budget, caches, tracer, cached)
            finally:
                tracer.uninstall()
            failed = check_outputs(wl, base) + check_outputs(wl, res)
            attempted = base.attempted + res.attempted
            result["metrics"] = per_layer(res, tracer, base)
            result["untraced_output_digest"] = base.output_digest()
            trace_dir = os.path.join(HERE, "_traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.spans.gz"), len(wl.ops))
            errors = base.errors + res.errors
        else:
            res = run_phase(wl, args.seconds, caches, min_passes=MIN_PASSES, min_ops=MIN_OPS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failed = check_outputs(wl, res)
            attempted = res.attempted
            result["metrics"] = end_to_end(res)
            result["metrics"]["peak_rss_mb"] = peak_rss_mb
            result["scale_quartiles"] = statistics.quantiles(calibrate.local_scales(res.kernel), n=4)
            errors = res.errors
        result.update(
            attempted=attempted,
            failed=failed,
            passes=res.passes,
            errors=errors[:20],
            provenance={
                "seed": args.seed,
                "input_digest": wl.input_digest(),
                "output_digest": res.output_digest(),
                "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "commit": git_commit(),
            },
        )
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
