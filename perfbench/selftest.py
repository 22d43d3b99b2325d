"""Self-test: the benchmark leaves no process behind, on any exit path.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It makes itself a child subreaper, so any process the benchmark leaves
behind is re-parented here and shows up as a descendant.  Checks:

1. a ``paper-lstm-process`` run aborted mid-load with SIGTERM, and one
   with SIGINT, exit non-zero without a result, and afterwards ``/proc``
   lists no descendant and no member of any gateway's process group;
2. a normal run prints its result and leaves nothing behind either;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without a result, well within 180 seconds.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from procs import (
    become_subreaper, cmdline, descendants, group_members, proc_table, reap_children,
)

HERE = Path(__file__).resolve().parent
LOAD_MARKER = "closed-loop slice"


def _command(workload: str, seed: int) -> list[str]:
    return [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "20", "--trace", "0",
    ]


def _has_result(output: str) -> bool:
    lines = output.strip().splitlines()
    try:
        return "metrics" in json.loads(lines[-1])
    except (IndexError, ValueError):
        return False


def _gateway_groups(root: int) -> set[int]:
    table = proc_table()
    return {
        table[pid][1] for pid in descendants(root)
        if pid in table and b"repro\x00serve" in cmdline(pid)
    }


def _leftovers(groups: set[int]) -> list[int]:
    """Processes still alive after the benchmark returned; kills them."""
    deadline = time.monotonic() + 2.0
    while True:
        reap_children()
        alive = set(descendants(os.getpid()))
        for pgid in groups:
            alive.update(group_members(pgid))
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    reap_children()
    return sorted(alive)


def abort_mid_load(signum: int) -> list[str]:
    """Interrupt a process-mode run once its load is under way."""
    proc = subprocess.Popen(
        _command("paper-lstm-process", 1),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    problems: list[str] = []
    seen = ""
    deadline = time.monotonic() + 600  # covers training on a fresh checkout
    while LOAD_MARKER not in seen:
        if proc.poll() is not None or time.monotonic() > deadline:
            break
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            seen += proc.stdout.readline()
    if LOAD_MARKER not in seen:
        proc.kill()
        proc.communicate()
        return [f"signal {signum}: load never started:\n{seen[-2000:]}"]
    time.sleep(1.5)  # mid-load
    groups = _gateway_groups(proc.pid)
    if not groups:
        problems.append(f"signal {signum}: no gateway found mid-load")
    proc.send_signal(signum)
    try:
        output, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        problems.append(f"signal {signum}: benchmark did not exit within 120s")
    if proc.returncode == 0 or _has_result(output):
        problems.append(f"signal {signum}: aborted run reported success")
    survivors = _leftovers(groups)
    if survivors:
        problems.append(f"signal {signum}: processes survived: {survivors}")
    return problems


def normal_run() -> list[str]:
    proc = subprocess.run(
        _command("paper-lstm", 1), capture_output=True, text=True, timeout=300,
    )
    problems = []
    if proc.returncode != 0 or not _has_result(proc.stdout):
        problems.append(f"normal run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    survivors = _leftovers(set())
    if survivors:
        problems.append(f"normal run left processes: {survivors}")
    return problems


def bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: fail fast, no result."""
    bare = Path.cwd() / ".perfbench-cache" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(Path.cwd() / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "paper-lstm",
             "--seed", "1", "--seconds", "20", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        elapsed = time.monotonic() - started
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _has_result(proc.stdout):
        return ["bare directory: benchmark did not fail"]
    return [] if elapsed < 180 else [f"bare directory: took {elapsed:.0f}s"]


def main() -> int:
    become_subreaper()
    problems: list[str] = []
    for name, check in (
        ("abort with SIGTERM", lambda: abort_mid_load(signal.SIGTERM)),
        ("abort with SIGINT", lambda: abort_mid_load(signal.SIGINT)),
        ("normal run", normal_run),
        ("bare directory", bare_directory),
    ):
        found = check()
        print(f"{name}: {'FAILED' if found else 'ok'}", flush=True)
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
