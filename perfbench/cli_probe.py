"""The CLI layer's start-up and per-subcommand cost, in a fresh interpreter.

    python -X importtime cli_probe.py WORKDIR SEED

Times `import bubblehbt.cli`, then `main(argv)` for each subcommand, and
prints the times as JSON; run.py reads the `-X importtime` lines from
stderr.  Every subcommand must exit 0.
"""

import contextlib
import io
import json
import os
import sys
import time

start = time.perf_counter()
import bubblehbt.cli as cli  # noqa: E402
import_s = time.perf_counter() - start

from bubblehbt.correlators import correlation  # noqa: E402
from bubblehbt.sources import SourceCase, SourceSpec  # noqa: E402

CHECK_TOLERANCE = 1e-4  # acceptance criterion 2


def commands(workdir: str, seed: int):
    surface = os.path.join(workdir, "cli_surface.csv")
    return {
        "eval": ["eval", "--q", "1.0", "--dw", "0.5"],
        "synth": ["synth", "--pairs-per-bin", "1000000", "--seed", str(seed),
                  "--out", surface],
        "fit": ["fit", surface],
        "check": ["check", "--case", "E", "--q-grid", "0:2:3",
                  "--dw-grid", "0:2:3"],
        "figure1": ["figure1", "--out", os.path.join(workdir, "fig1.csv")],
        "figure2": ["figure2", "--out", os.path.join(workdir, "fig2.csv")],
    }


def problems(name: str, code: int, stdout: str) -> list:
    """What is wrong with one subcommand's exit code and output."""
    if code != 0:
        return [f"{name} exited {code}"]
    if name == "eval":
        expected = correlation(SourceSpec(case=SourceCase.A_GAUSSIAN,
                                          tau=1.0, R=1.0), 1.0, 0.5).c
        if stdout.strip() != f"C = {expected:.17g}":
            return [f"eval printed {stdout.strip()!r}, expected C = "
                    f"{expected:.17g}"]
    if name == "fit" and "chaoticity = chaotic" not in stdout.splitlines():
        return ["fit did not report chaoticity = chaotic"]
    if name == "check":
        worst = float(stdout.split("=")[-1])
        if not worst <= CHECK_TOLERANCE:
            return [f"check deviation {worst} above {CHECK_TOLERANCE}"]
    return []


def main(workdir: str, seed: int) -> int:
    out = {"import_s": import_s, "main_s": {}, "problems": [],
           "commands": 0}
    for name, argv in commands(workdir, seed).items():
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        out["main_s"][name] = time.perf_counter() - t0
        out["problems"] += problems(name, code, captured.getvalue())
        out["commands"] += 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
