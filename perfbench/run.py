"""Run one stimex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 25 --trace 0

The process is single-threaded: BLAS thread counts are pinned to 1 before
numpy is imported and no worker pool is used.  With ``--trace 0`` the
timed region repeats until ``--seconds`` have passed (at least
``MIN_ROUNDS`` times) and the last stdout line holds the end-to-end
metrics: medians over rounds, and ``setup_s`` as the median of repeated
set-ups (at least ``MIN_SETUPS``, and at least ``SETUP_SECONDS`` of them).
Times are scaled to a machine that runs the reference kernel in
``REF_SECONDS`` (see ``reference.py``): each round is bracketed by the
kernel, and a round that ran while the machine was 20% slow has its
seconds multiplied by 1/1.2.  With ``--trace 1`` one untraced and one traced round
run back to back and the last line holds the per-layer metrics.  The line
before it is a report with the environment, quartiles, quality scores and
output digests.  The exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 100
MIN_ROUNDS = 3
REF_SECONDS = 0.038  # reference_seconds() on an idle 2-core Xeon (Sapphire Rapids) VM


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "stimex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stimex sources under {src}")
    sys.path[:0] = [str(HERE), str(src)]
    import stimex

    if Path(stimex.__file__).resolve().parent != (src / "stimex").resolve():
        sys.exit(f"perfbench: imported stimex from {stimex.__file__}, not {src}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict mode
        blas_build = f"unknown ({exc})"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float):
    """Timed rounds until ``seconds`` have passed; checks every round."""
    from reference import reference_seconds
    from workloads import Checked

    rounds, speeds, checks = [], [], []
    start = perf_counter()
    ref = reference_seconds()
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        rnd = wl.run()
        after = reference_seconds()
        speeds.append(REF_SECONDS / ((ref + after) / 2))
        ref = after
        checks.append(wl.check(rnd, first=not rounds))
        rnd.outputs = {}
        rounds.append(rnd)
    total = Checked(
        attempted=sum(c.attempted for c in checks),
        failed=[f for c in checks for f in c.failed],
        digest=checks[0].digest,
        quality=checks[0].quality,
    )
    total.expect(
        all(c.digest == total.digest for c in checks),
        f"outputs differ between rounds: {[c.digest[:12] for c in checks]}",
    )
    return rounds, speeds, total


def setups(wl) -> tuple[list[float], float]:
    """Set-up seconds of repeated set-ups, and the machine speed meanwhile."""
    from reference import reference_seconds

    times: list[float] = []
    before = reference_seconds()
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS):
        gc.collect()
        start = perf_counter()
        wl.setup()
        times.append(perf_counter() - start)
    return times, REF_SECONDS / ((before + reference_seconds()) / 2)


def end_to_end(rounds, speeds, setup_times, setup_speed) -> tuple[dict, dict]:
    """Metrics from speed-scaled medians, and the quartiles of raw and scaled series."""
    from workloads import ARCHS

    raw = {"inst_per_s": [r.instances / r.wall for r in rounds]}
    for arch in ARCHS:
        raw[f"{arch}.inst_per_s"] = [r.units / r.seconds[arch] for r in rounds]
    scaled = {name: [v / s for v, s in zip(values, speeds)] for name, values in raw.items()}
    setup = [t * setup_speed for t in setup_times]
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    for name, values in scaled.items():
        metrics[name] = {"value": statistics.median(values), "unit": "1/s"}
    spread = {name: quartiles(values) for name, values in scaled.items()}
    spread.update({f"raw.{name}": quartiles(values) for name, values in raw.items()})
    spread.update(setup_s=quartiles(setup), speed=quartiles(speeds + [setup_speed]))
    return metrics, spread


def traced(wl) -> tuple[dict, object]:
    """Per-layer metrics: traced set-up, then an untraced and a traced round."""
    from tracing import Tracer, unit

    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    plain = wl.run()
    check = wl.check(plain, first=True)
    tracer.install()
    try:
        rnd = wl.run()
    finally:
        tracer.uninstall()
    check.expect(wl.check(rnd, first=False).digest == check.digest, "traced outputs differ")
    values = tracer.metrics()
    values["trace.overhead_ratio"] = rnd.wall / plain.wall
    return {name: {"value": v, "unit": unit(name)} for name, v in values.items()}, check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    # A terminated run still removes its scratch files (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        report = {"workload": args.workload, "seed": args.seed, "environment": environment()}
        if args.trace:
            metrics, check = traced(wl)
        else:
            setup_times, setup_speed = setups(wl)
            rounds, speeds, check = measure(wl, args.seconds)
            metrics, report["quartiles"] = end_to_end(rounds, speeds, setup_times, setup_speed)
            report.update(rounds=len(rounds), setups=len(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    report.update(quality=check.quality, digest=check.digest, failures=check.failed[:10])
    print(json.dumps(report))
    result = {
        "correct": not check.failed,
        "attempted": check.attempted,
        "failed": len(check.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
