"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/probe_setup.py <workload> <seed>

Times importing ``narrowops``, building the workload's fixed instances and
generating its first input, in calibration units (see ``calibration.py``),
and prints that time converted to seconds at the reference speed.
``run.py`` starts this several times per run and reports the median as
``setup_s``.  numpy is imported before the clock starts: the library cannot
change its cost, and loading its shared libraries is the noisiest part of a
cold start on the machine the benchmark was tuned on.
"""

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401  (not timed, see above)

import calibration  # noqa: E402


def set_up(workload: str, seed: int) -> None:
    importlib.import_module("narrowops")
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[workload]
    w.make_input(w.setup(), seed, 0)


calibration.reference_work()  # warm the reference path before sampling it
_, timing = calibration.Calibrator().time(lambda: set_up(sys.argv[1], int(sys.argv[2])))
print(timing.cal_units * calibration.REFERENCE_SAMPLE_S)
