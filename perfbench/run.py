"""narrowops benchmark: time to a certified sign, checked independently.

Usage (from the repository root):

    python3 perfbench/run.py --workload truncation_l1 --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and README.md) in a closed loop for
``--seconds`` seconds, re-checks every operation's output, prints every
metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` odd operations run
untraced and even ones traced, and the metrics are the per-layer ones.
The spans of a traced run are written to ``perfbench/traces/``.

Exits with status 2, printing no result, when the ``narrowops`` sources are
not found in ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import envinfo  # noqa: E402  (stdlib only; must run before numpy loads)

envinfo.cap_blas_threads()

SETUP_PROBES = 7
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "op_cal.p50": "cal",
    "op_cal.tail": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "atoms_out.mean": "atoms",
}
BENCH_UNITS = {
    "bench.cal_s": "s",
    "bench.op_s.p50": "s",
    "bench.trace_overhead": "ratio",
}


def import_library():
    """Import ``narrowops`` from this checkout's ``src``, or exit with 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import narrowops
    except ImportError as exc:
        print(f"perfbench: cannot import narrowops from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(narrowops.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: narrowops was imported from {narrowops.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return narrowops


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile that
    has at least TAIL_BEYOND samples beyond it; the maximum if none has."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    narrowops = import_library()
    import calibration
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    fixed = workload.setup()
    setups = setup_seconds(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    calibrator = calibration.Calibrator()

    attempted = failed = 0
    atoms: list[int] = []
    untraced: list = []  # Timing of each timed untraced operation
    traced: list = []

    def attempt(i: int):
        nonlocal attempted, failed
        inp = workload.make_input(fixed, args.seed, i)
        is_traced = tracer is not None and i > 0 and i % 2 == 0
        attempted += 1
        try:
            if is_traced:
                with tracer.operation(i):
                    out, timing = calibrator.time(lambda: workload.run(fixed, inp))
            else:
                out, timing = calibrator.time(lambda: workload.run(fixed, inp))
        except narrowops.NarrowOpsError as exc:
            failed += 1
            print(f"# operation {i} raised {type(exc).__name__}: {exc}")
            return None
        problems = workload.check(fixed, inp, out)
        if problems:
            failed += 1
            print(f"# operation {i} failed the re-check: {problems[0]}")
        atoms.extend(workload.atoms_out(inp, out))
        return timing, is_traced

    attempt(0)  # warm-up: checked, never traced, not counted in the timings
    deadline = time.perf_counter() + args.seconds
    i = 1
    while True:
        result = attempt(i)
        if result is not None:
            (traced if result[1] else untraced).append(result[0])
        i += 1
        enough = untraced and (tracer is None or traced)
        if time.perf_counter() >= deadline and enough:
            break

    env = envinfo.collect()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# operations attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.4g} (timed: {len(untraced)} untraced, "
          f"{len(traced)} traced)")

    op_s = statistics.median(t.net_s for t in untraced)
    if tracer is None:
        cal_units = [t.cal_units for t in untraced]
        tail_value, pct, beyond = tail(cal_units)
        print(f"# op_cal.tail is p{pct:.1f} of {len(cal_units)} operations, "
              f"{beyond} beyond it; raw op_s.p50 = {op_s:.6g} s")
        values = {
            "op_cal.p50": statistics.median(cal_units),
            "op_cal.tail": tail_value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "atoms_out.mean": statistics.fmean(atoms),
        }
        units = END_TO_END_UNITS
    else:
        values = tracer.metrics()
        values["bench.cal_s"] = statistics.median(calibrator.samples)
        values["bench.op_s.p50"] = op_s
        values["bench.trace_overhead"] = (
            statistics.median(t.net_s for t in traced) / op_s
        )
        units = {**spans.metric_units(), **BENCH_UNITS}
        path = HERE / "traces" / f"{args.workload}.jsonl.gz"
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
