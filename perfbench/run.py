"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from `src/`
and keeps its scratch files in `.perfbench_work/`.  Every op is checked.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The lines before it print each metric
by name with its unit.

Each workload runs closed loop with one client in a fresh interpreter
(worker.py); BLAS and OpenMP pools are pinned to one thread.  `setup_s` is
the median over SETUP_LAUNCHES launches of the time from launching that
interpreter to its first timed op.  Every time is scaled to the reference
speed of calibration.py by the calibration passes run next to it; the
wall times are printed too.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import calibration
import percentiles

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("surface_scan", "fit_ensemble", "oracle_validation")
SETUP_LAUNCHES = 3
PROBE_LAUNCHES = 3
# every child is stopped by then: set-up launches and probes get a fixed
# allowance, the timed phase its --seconds twice over (ops run on past it
# until a tail has enough samples)
RUN_DEADLINE_MARGIN_S = 120.0
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
# cli.import.<key>_s -> the module whose cumulative `-X importtime` entry it
# is, read while importing `bubblehbt.cli`
PACKAGE_IMPORTS = {key: f"bubblehbt.{key}" for key in (
    "correlators", "special_functions", "synth", "inference", "oracle")}
# scipy loads its subpackages through importlib, which `-X importtime` does
# not log, so their cost is read from a separate interpreter importing them
# in the order bubblehbt does
SCIPY_IMPORTS = {f"scipy_{key}": f"scipy.{key}" for key in (
    "special", "integrate", "stats")}


class RunError(RuntimeError):
    pass


class Children:
    """Starts the benchmark's child processes, each stopped and waited for
    before the run's deadline."""

    def __init__(self, root: str, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **THREADS_ENV)
        self.cwd = root
        self.deadline = deadline

    def _timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise RunError("run deadline passed")
        return left

    def worker(self, *args: str) -> Tuple[float, str]:
        """Run worker.py; return the seconds from launch to its `ready` line,
        and the output after that line."""
        timeout = self._timeout()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or first.strip() != "ready":
            raise RunError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}")
        return ready, rest

    def run(self, *argv: str) -> Tuple[float, subprocess.CompletedProcess]:
        """Run a Python command to the end; return its wall time."""
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *argv], capture_output=True,
                                  text=True, env=self.env, cwd=self.cwd,
                                  timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{argv} passed the run deadline") from exc
        if done.returncode != 0:
            raise RunError(f"{argv} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")
        return time.perf_counter() - start, done


def last_json(text: str) -> Dict:
    return json.loads(text.strip().splitlines()[-1])


def timed_run(children: Children, args, workdir: str) -> Dict:
    worker_args = [args.workload, str(args.seed), str(args.seconds), workdir]
    launches = [children.worker(*worker_args, "setup")
                for _ in range(SETUP_LAUNCHES - 1)]
    launches.append(children.worker(*worker_args, "timed"))
    result = last_json(launches[-1][1])
    setups = [ready * calibration.scale(
        last_json(out)["setup_calibration_s"]) for ready, out in launches]
    ops = result["scaled"]
    tail = percentiles.tail(ops)
    print(f"op_tail_s is p{tail.percentile:.1f} of {tail.samples} ops, "
          f"{tail.above} above it")
    print(f"setup_s is the median of {len(setups)} launches: "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"wall times: op p50 {statistics.median(result['seconds']):.4f} s, "
          "set-up " + ", ".join(f"{ready:.4f}" for ready, _ in launches)
          + f" s; {len(ops)} ops in {result['elapsed']:.2f} s with their "
          "calibration passes")
    metrics = {
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (tail.value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
    }
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def parse_importtime(stderr: str, modules: Dict[str, str]
                     ) -> Dict[str, float]:
    """Cumulative seconds of each of `modules` in `-X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cum, module = line.split("|")
            if cum.strip().isdigit():
                cumulative[module.strip()] = int(cum) * 1e-6
    return {key: cumulative[module] for key, module in modules.items()}


def cli_metrics(children: Children, seed: int, workdir: str
                ) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    """The CLI layer's start-up and per-subcommand times, each the median of
    PROBE_LAUNCHES fresh interpreters; and the subcommands attempted and
    failed."""
    samples: Dict[str, List[float]] = {}
    attempted = failed = 0
    for _ in range(PROBE_LAUNCHES):
        wall, _ = children.run("-c", "pass")
        samples.setdefault("cli.interp_start_s", []).append(wall)
        _, done = children.run("-X", "importtime",
                               os.path.join(HERE, "cli_probe.py"), workdir,
                               str(seed))
        probe = last_json(done.stdout)
        samples.setdefault("cli.import_s", []).append(probe["import_s"])
        imports = parse_importtime(done.stderr, PACKAGE_IMPORTS)
        _, done = children.run("-X", "importtime", "-c", "import " + ", ".join(
            SCIPY_IMPORTS.values()))
        imports.update(parse_importtime(done.stderr, SCIPY_IMPORTS))
        for key, value in imports.items():
            samples.setdefault(f"cli.import.{key}_s", []).append(value)
        for name, value in probe["main_s"].items():
            samples.setdefault(f"cli.main.{name}_s", []).append(value)
        attempted += probe["commands"]
        failed += len(probe["problems"])
        for problem in probe["problems"]:
            print(f"cli probe: {problem}", file=sys.stderr)
    metrics = {name: (statistics.median(values), "s")
               for name, values in samples.items()}
    return metrics, attempted, failed


def traced_run(children: Children, args, workdir: str) -> Dict:
    _, out = children.worker(args.workload, str(args.seed), str(args.seconds),
                             workdir, "traced")
    result = last_json(out)
    spans = os.path.join(os.path.dirname(workdir),
                         os.path.basename(result["spans"]))
    shutil.move(result["spans"], spans)
    print(f"spans written to {os.path.relpath(spans)}")
    print("layer shares of op time (self time): " + ", ".join(
        f"{layer} {share:.3f}" for layer, share in result["shares"].items()))
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    cli, attempted, failed = cli_metrics(children, args.seed, workdir)
    metrics.update(cli)
    return {"attempted": result["attempted"] + attempted,
            "failed": result["failed"] + failed, "metrics": metrics}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stop request unwinds through the `finally` blocks that stop children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bubblehbt",
                                       "__init__.py")):
        print("error: run from the root of a checkout that has "
              "src/bubblehbt", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    children = Children(root, time.perf_counter() + RUN_DEADLINE_MARGIN_S
                        + 2 * args.seconds)
    try:
        result = (traced_run if args.trace else timed_run)(
            children, args, workdir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed ops: {result['failed']} of {result['attempted']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
