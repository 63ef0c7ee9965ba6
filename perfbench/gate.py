"""Correctness and hygiene checks: count gate, leak check, memory, provenance."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.patterns import PATTERNS, build_plan
from repro.patterns.executor import count_embeddings

ROOT = Path(__file__).resolve().parent.parent
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "xset-"
#: processes computing reference counts (the host has 2 cores)
REFERENCE_WORKERS = 2
#: seconds a workload's threads, segments and sockets get to go away
LEAK_GRACE = 5.0


class CountGate:
    """Checks every timed result against its reference count.

    ``attempted``/``failed`` feed the run's error accounting: a wrong
    count, a raised error and a refused submission all count as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def check(self, what: str, expected, got) -> bool:
        with self._lock:
            self.attempted += 1
            if expected == got:
                return True
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: expected {expected}, got {got}")
        return False

    def fail(self, what: str, exc: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {type(exc).__name__}: {exc}")

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _reference(graph, pattern_name: str) -> int:
    return count_embeddings(graph, build_plan(PATTERNS[pattern_name])).embeddings


def reference_counts(jobs: dict) -> dict:
    """``{key: (graph, pattern_name)}`` -> ``{key: reference count}``.

    Counts come from the scalar reference executor, which shares no code
    with the engines under test.  They are computed in a small spawn pool
    before anything is timed.
    """
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(REFERENCE_WORKERS, mp_context=ctx) as pool:
        futures = {
            key: pool.submit(_reference, graph, name)
            for key, (graph, name) in jobs.items()
        }
        return {key: fut.result() for key, fut in futures.items()}


# -- teardown leak check -----------------------------------------------------


def shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}


def _listening_inodes() -> set[str]:
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            cols = line.split()
            if len(cols) > 9 and cols[3] == "0A":  # TCP_LISTEN
                inodes.add(cols[9])
    return inodes


def listening_sockets() -> int:
    """Listening TCP sockets held open by this process."""
    listening = _listening_inodes()
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in listening:
            count += 1
    return count


def leaks(shm_before: set[str]) -> tuple[list[str], list[str]]:
    """``(leaks, late)``: what a workload left behind after shutting down.

    ``Coordinator.shutdown`` returns before its scatter threads have
    exited (its pool is shut down with ``wait=False``), so stragglers get
    ``LEAK_GRACE`` seconds to finish.  What is gone by then is reported
    in ``late``; what is still there is a leak.
    """
    first = _leftovers(shm_before)
    deadline = time.monotonic() + LEAK_GRACE
    found = first
    while found and time.monotonic() < deadline:
        for t in threading.enumerate():
            if t is not threading.main_thread() and not t.daemon:
                t.join(timeout=0.1)
        time.sleep(0.05)
        found = _leftovers(shm_before)
    if found:
        return found, []
    return [], [f"gone only after shutdown returned: {m}" for m in first]


def _leftovers(shm_before: set[str]) -> list[str]:
    found = []
    left = sorted(shm_segments() - shm_before)
    if left:
        found.append(f"{len(left)} shm segment(s) left: {left[:3]}")
    threads = [
        t.name for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon and t.is_alive()
    ]
    if threads:
        found.append(f"non-daemon thread(s) still running: {threads}")
    socks = listening_sockets()
    if socks:
        found.append(f"{socks} listening socket(s) still open")
    return found


# -- memory and provenance ---------------------------------------------------


def _hwm_kib(pid: int | str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes, in MiB."""
    kib = _hwm_kib("self")
    kib += sum(_hwm_kib(p.pid) for p in multiprocessing.active_children())
    return kib / 1024.0


def source_digest() -> str:
    """Hash of the library sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from _common import bench_meta
    finally:
        sys.path.pop(0)
    return {
        **bench_meta(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
