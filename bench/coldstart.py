"""Fresh-interpreter timings: package set-up and cold CLI calls.

Every child is a new ``python`` process with ``src`` on ``PYTHONPATH`` and the
checkout as working directory; each is waited for before the next starts.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

SETUP_CODE = "import qelliptic; qelliptic.register_builtin_checks()"

# (argv after `python -m qelliptic.cli`, text the output must contain)
CLI_EVAL = (
    ["eval", "--fn", "kr", "--params", "r=1", "--digits", "30"],
    "0.707106781186547524400844362",
)
CLI_MINPOLY = (
    ["minpoly", "--fn", "kr", "--params", "r=2", "--degree", "4", "--digits", "80"],
    "confidence: verified",
)

CHILD_TIMEOUT_S = 60


def _env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _timed_child(root, argv) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=root,
        env=_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def setup_seconds(root, repeats: int) -> list:
    """Wall times of `repeats` fresh imports plus registry construction."""
    times = []
    for _ in range(repeats):
        seconds, proc = _timed_child(root, ["-c", SETUP_CODE])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(seconds)
    return times


def cli_cold(root, command, repeats: int) -> tuple:
    """(median seconds, every output correct?) of a fresh CLI process."""
    argv, must_contain = command
    times, ok = [], True
    for _ in range(repeats):
        seconds, proc = _timed_child(root, ["-m", "qelliptic.cli", *argv])
        times.append(seconds)
        ok = ok and proc.returncode == 0 and must_contain in proc.stdout
    return statistics.median(times), ok
