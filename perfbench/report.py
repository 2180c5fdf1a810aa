"""Run the benchmark over several seeds and report every metric with its
run-to-run spread.

    python3 perfbench/report.py [--seeds 1 2 ...] [--seconds S]

Run it from the root of a checkout.  For each workload in BENCHMARK.json it
makes one untraced run per seed and prints each run's metrics, the share
of failed ops, and each metric's median over the runs with its unit and
the distance between the first and third quartiles as a share of the
median (the spread the bounds in BENCHMARK.json are checked against).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"  seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g}"
                for name, m in runs[-1]["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed ops {failed} of "
              f"{attempted} ({failed / attempted:.2%}); medians:")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            line = (f"  {name} = {statistics.median(values):.6g} "
                    f"{first['unit']}")
            if len(values) >= 4 and statistics.median(values):
                line += f"  spread {spread(values):.3f}"
                if bounds.get(name):
                    line += f" (bound {bounds[name]})"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
