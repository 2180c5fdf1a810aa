"""One workload in a fresh interpreter, started by run.py.

    worker.py WORKLOAD SEED SECONDS WORKDIR MODE

Set-up is everything from the launch to the first timed op: interpreter
start, `import bubblehbt.cli`, input preparation and one untimed warm-up
op.  When set-up is done the worker prints `ready`; run.py times the launch
to that line.  Right after it the worker times SETUP_CALIBRATIONS
calibration passes, whose median scales that set-up time.  Then, by MODE:

    setup   print the calibration as JSON and exit.
    timed   run ops until SECONDS have passed and there are enough samples
            for a tail percentile; print the op times as JSON.
    traced  run the same TRACED_OPS ops untraced, then traced; print the
            per-layer metrics as JSON and write the spans to WORKDIR.
"""

import gzip
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, Iterable, List, Optional

import bubblehbt.cli  # noqa: F401  set-up imports what a CLI call imports
import calibration
import percentiles
import tracing
from workloads import WORKLOADS

SETUP_CALIBRATIONS = 5


class OpLog:
    """Op wall times and failures of one phase, with the calibration passes
    run before each op and after the last."""

    def __init__(self):
        self.seconds: List[float] = []
        self.calibrations: List[float] = []
        self.failed = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def scaled(self) -> List[float]:
        """Op times at the reference speed, each scaled by the mean of the
        calibration passes on either side of it."""
        cal = self.calibrations
        return [t * calibration.scale((cal[i] + cal[i + 1]) / 2)
                for i, t in enumerate(self.seconds)]


def run_op(workload, state: Dict, index: int, log: OpLog,
           tracer: Optional[tracing.Tracer] = None) -> None:
    """Time one op, right after a calibration pass, and check its output;
    a wrong output or an exception is a failed op, not a crash."""
    log.calibrations.append(calibration.calibrate())
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        problems = workload.op(state, index)
    except Exception:  # the op failed; count it and keep measuring
        problems = [traceback.format_exc()]
    log.seconds.append(time.perf_counter() - start)
    if problems:
        log.failed += 1
        print(f"op {index} of {workload.name} failed: " + "; ".join(
            problems[:3]), file=sys.stderr)


def run_ops(workload, state: Dict, indices: Iterable[int],
            tracer: Optional[tracing.Tracer] = None) -> OpLog:
    log = OpLog()
    for index in indices:
        run_op(workload, state, index, log, tracer)
    log.calibrations.append(calibration.calibrate())
    return log


def timed_phase(workload, state: Dict, seconds: float) -> OpLog:
    """Ops 1, 2, ... until `seconds` have passed and a tail percentile has
    enough samples."""
    log = OpLog()
    start = time.perf_counter()
    index = 1
    while (time.perf_counter() - start < seconds
           or log.attempted < percentiles.MIN_SAMPLES):
        run_op(workload, state, index, log)
        index += 1
    log.calibrations.append(calibration.calibrate())
    log.elapsed = time.perf_counter() - start  # calibration passes included
    return log


def traced_phase(workload, state: Dict, workdir: str, seed: int) -> Dict:
    """Per-layer metrics of ops 1..TRACED_OPS, with the tracing overhead
    measured on the same ops run untraced just before."""
    indices = range(1, workload.TRACED_OPS + 1)
    plain = run_ops(workload, state, indices)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_ops(workload, state, indices, tracer)
    metrics, shares = tracing.layer_metrics(
        tracer, len(indices), sum(traced.seconds))
    metrics["bench.tracing_overhead"] = (
        statistics.median(traced.scaled()) / statistics.median(plain.scaled()),
        "ratio")
    path = os.path.join(workdir, f"spans-{workload.name}-{seed}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump(tracing.span_table(tracer), fh)
    return {"metrics": metrics, "shares": shares, "spans": path,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed}


def main(argv: List[str]) -> int:
    name, seed, seconds, workdir, mode = argv
    seed, seconds = int(seed), float(seconds)
    workload = WORKLOADS[name]
    state = workload.setup(seed, workdir)
    warm = run_ops(workload, state, [0])
    print("ready", flush=True)
    setup_calibration_s = statistics.median(
        calibration.calibrate() for _ in range(SETUP_CALIBRATIONS))
    if mode == "setup":
        print(json.dumps({"setup_calibration_s": setup_calibration_s}))
        return 0
    if mode == "timed":
        log = timed_phase(workload, state, seconds)
        out = {"seconds": log.seconds, "scaled": log.scaled(),
               "elapsed": log.elapsed,
               "attempted": log.attempted, "failed": log.failed,
               "peak_rss_kib": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss}
    else:
        out = traced_phase(workload, state, workdir, seed)
    out["setup_calibration_s"] = setup_calibration_s
    out["attempted"] += warm.attempted
    out["failed"] += warm.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
