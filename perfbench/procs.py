"""Gateway process lifecycle: spawn, wait for ports, measure, tear down.

Every gateway runs ``python -m repro serve`` in its own session, so its
process group holds the gateway, its shard workers and the
multiprocessing resource tracker (which outlives a process-mode gateway
by about a second).  Teardown is SIGTERM, a bounded wait, then SIGKILL
to the whole group, and it returns only once ``/proc`` lists no member
of that group.  The benchmark process makes itself a child subreaper,
so orphaned group members are re-parented to it and reaped here rather
than left as zombies under an init that may never collect them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36


class GatewayError(RuntimeError):
    """A gateway failed to start, or could not be stopped."""


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be reaped (Linux only)."""
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def reap_children() -> None:
    """Collect every exited child without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def proc_table() -> dict[int, tuple[int, int]]:
    """``pid -> (ppid, pgrp)`` for every process ``/proc`` lists."""
    table: dict[int, tuple[int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                raw = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command name: state ppid pgrp ...
        fields = raw[raw.rindex(b")") + 2 :].split()
        table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table


def group_members(pgid: int) -> list[int]:
    return sorted(pid for pid, (_, pgrp) in proc_table().items() if pgrp == pgid)


def descendants(root: int) -> list[int]:
    """Every process whose parent chain leads to ``root``."""
    table = proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    found: list[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return sorted(found)


def cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def pin(pid: int, cpus: set[int]) -> None:
    """Restrict every thread of ``pid`` to ``cpus``."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return  # exited
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # exited while we looked


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Gateway:
    """One ``repro serve`` process group, started and stopped here."""

    def __init__(
        self, args: list[str], workdir: Path, src: Path, cpus: set[int] | None = None,
    ) -> None:
        self.workdir = workdir
        #: CPUs the gateway starts on, whatever the spawning thread is pinned to.
        self.cpus = cpus
        self.port_file = workdir / "ports.txt"
        self.log_path = workdir / "gateway.log"
        self.argv = [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--http-port", "0", "--quiet",
            "--port-file", str(self.port_file), *args,
        ]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.http_address: tuple[str, int] | None = None

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the gateway; returns seconds until both ports are listed."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                start_new_session=True,
            )
        if self.cpus is not None:
            pin(self.proc.pid, self.cpus)
        deadline = started + timeout
        while True:
            lines = self._port_lines()
            if lines is not None:
                elapsed = time.perf_counter() - started
                host, port = lines[0].split()
                _, http_host, http_port = lines[1].split()
                self.address = (host, int(port))
                self.http_address = (http_host, int(http_port))
                return elapsed
            if self.proc.poll() is not None:
                raise GatewayError(
                    f"gateway exited with {self.proc.returncode} before "
                    f"listening:\n{self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise GatewayError(f"gateway not listening after {timeout}s")
            time.sleep(0.002)

    def _port_lines(self) -> list[str] | None:
        try:
            text = self.port_file.read_text()
        except FileNotFoundError:
            return None
        lines = text.splitlines()
        if len(lines) < 2 or not text.endswith("\n"):
            return None  # the gateway is still writing the file
        return lines[:2]

    def log_tail(self, limit: int = 4000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def worker_pids(self) -> list[int]:
        """The gateway's shard worker processes (process mode)."""
        assert self.proc is not None
        return [
            pid for pid in descendants(self.proc.pid)
            if b"spawn_main" in cmdline(pid)
        ]

    def pin(self, cpus: set[int]) -> None:
        """Pin every thread of the gateway and of its shard workers."""
        assert self.proc is not None
        for pid in [self.proc.pid, *self.worker_pids()]:
            pin(pid, cpus)

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the gateway and its shard workers."""
        assert self.proc is not None
        pids = [self.proc.pid] + self.worker_pids()
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self, grace: float = 15.0) -> None:
        """SIGTERM, bounded wait, SIGKILL the group; return once it is gone."""
        proc = self.proc
        if proc is None:
            return
        pgid = proc.pid  # session leader: its pid is the group id
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(grace)
                except subprocess.TimeoutExpired:
                    pass
            deadline = time.perf_counter() + grace
            while True:
                reap_children()
                if proc.poll() is not None and not group_members(pgid):
                    return
                if time.perf_counter() > deadline:
                    break
                time.sleep(0.02)
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.perf_counter() + grace
            while time.perf_counter() < deadline:
                reap_children()
                if proc.poll() is not None and not group_members(pgid):
                    return
                time.sleep(0.02)
            raise GatewayError(
                f"process group {pgid} still has members after SIGKILL: "
                f"{group_members(pgid)}"
            )
        finally:
            self.proc = None if proc.poll() is not None else proc
