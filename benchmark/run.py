"""Benchmark of ``bgmo``: one workload per run, one JSON result line at the end.

    python3 benchmark/run.py --workload fit --seed 1 --seconds 10 --trace 0

Workloads: ``fit``, ``distribution`` and ``functionals`` (see README.md).
A run sets up once, then repeats rounds until ``--seconds`` have passed (at
least one round).  A round is one pass over the workload's operations
between runs of the small probes of the other two workloads, so every run
attempts whole rounds of the same operations.  With ``--trace 0`` the result
holds the end-to-end metrics, in calibrated seconds (``workloads.Calibrator``);
with ``--trace 1`` it holds the per-layer metrics of a traced pass, made after
one untraced round.  Exit code 0 means every check passed apart from the
known faults, which count as failed operations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread for BLAS and OpenMP, set before numpy loads; set-up processes inherit it
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_run"
WORKLOADS = ("fit", "distribution", "functionals")
SETUP_REPEATS = 3  # set-up is timed in this many fresh processes; the median is reported
# The probes of the other two workloads run this many times before the pass and
# again after it: their calls are short, and on a shared machine a single one
# swings by a fifth from one second to the next.
PROBE_REPEATS = 3


def setup(workload: str, seed: int):
    """Import, load the datasets and generate the inputs of every group."""
    t0 = time.perf_counter()
    if not (ROOT / "src" / "bgmo").is_dir():
        sys.exit(f"no bgmo sources at {ROOT / 'src' / 'bgmo'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    inputs = {
        name: group.setup(seed, workloads.FULL if name == workload else workloads.PROBE)
        for name, group in workloads.GROUPS.items()
    }
    return workloads, inputs, (t0, time.perf_counter())


def timed_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_round(wl, cal, workload: str, inputs: dict, tracer=None):
    """Probes, one pass of the workload (traced if a tracer is given), probes again."""
    probes = {name: [] for name in wl.GROUPS if name != workload}

    def run_probes():
        for _ in range(PROBE_REPEATS):
            for name, ledgers in probes.items():
                ledgers.append(wl.Ledger(cal))
                wl.GROUPS[name].run(ledgers[-1], inputs[name], OUT_DIR)

    run_probes()
    main = wl.Ledger(cal, tracer)
    if tracer:
        tracer.active = True
    with tracer.span(f"pass {workload}") if tracer else contextlib.nullcontext():
        wl.GROUPS[workload].run(main, inputs[workload], OUT_DIR)
    if tracer:
        tracer.active = False
    run_probes()
    cal.calibrate()
    return main, probes


def group_metrics(wl, workload: str, rounds) -> dict:
    """Each metric's median over the rounds, from the group that owns it.

    A probe metric is first the median over the probe repeats of its round.
    """
    per_round = []
    for main, probes in rounds:
        metrics = {"wall_s": main.total()}
        metrics.update(wl.GROUPS[workload].metrics(main))
        for name, ledgers in probes.items():
            reps = [wl.GROUPS[name].metrics(ledger) for ledger in ledgers]
            metrics.update({k: statistics.median(r[k] for r in reps) for k in reps[0]})
        per_round.append(metrics)
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


def result_metrics(values: dict, key: str) -> dict:
    """``values`` by the names and units that BENCHMARK.json lists under ``key``."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print the seconds")
    args = parser.parse_args(argv)

    wl, inputs, (t0, t1) = setup(args.workload, args.seed)
    cal = wl.Calibrator()
    if args.setup_only:
        cal.calibrate()
        print(repr((t1 - t0) * cal.scale(t0, t1)))
        return 0
    OUT_DIR.mkdir(exist_ok=True)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(wl, cal, args.workload, inputs))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
        with tracer.span("setup"):
            traced_inputs = dict(inputs)
            traced_inputs[args.workload] = wl.GROUPS[args.workload].setup(args.seed, wl.FULL)
        tracer.active = False
        traced = run_round(wl, cal, args.workload, traced_inputs, tracer)
        untraced_wall = statistics.median(main.total() for main, _ in rounds)
        metrics = tracing.per_layer_metrics(tracer, traced[0].total() - untraced_wall)
        rounds.append(traced)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", metrics)
        reported = result_metrics(metrics, "per_layer")
    else:
        metrics = group_metrics(wl, args.workload, rounds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = timed_setup(args.workload, args.seed)
        reported = result_metrics(metrics, "end_to_end")

    ledgers = [ledger for main, probes in rounds
               for ledger in [main, *(p for reps in probes.values() for p in reps)]]
    failed = [msg for ledger in ledgers for msg in ledger.failed]
    errors = [msg for ledger in ledgers for msg in ledger.errors]
    for msg in failed:
        print(f"known fault: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"FAILED CHECK: {msg}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(ledger.attempted for ledger in ledgers),
        "failed": len(failed),
        "metrics": reported,
    }
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
