"""Helpers shared by the workloads: paths, child processes, statistics."""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Limit on waiting for a child to announce set-up or finish; a healthy
#: run needs well under a minute for either.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program under test misbehaved in a way the run cannot measure."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(args: list, stderr_path: str) -> subprocess.Popen:
    with open(stderr_path, "wb") as err:
        return subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)


def wait_for_line(proc: subprocess.Popen, prefix: str,
                  timeout: float = CHILD_TIMEOUT_S) -> str:
    """Read the child's stdout until a line starting with ``prefix``."""
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"timed out waiting for {prefix!r}")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if not ready:
            continue
        line = proc.stdout.readline().decode("utf-8", "replace")
        if not line:
            raise BenchError(f"child exited (code {proc.wait()}) "
                             f"before printing {prefix!r}")
        if line.startswith(prefix):
            return line.strip()


def stop(proc: subprocess.Popen, grace: float = 30.0) -> int:
    """SIGINT (the server's documented shutdown), then kill; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        code = proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    proc.stdout.close()
    return code


def finish(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> None:
    """Wait for a child that exits by itself; non-zero exit is an error."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("child did not exit")
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"child exited with code {code}")


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


def reset_peak_rss(pid: "int | str" = "self") -> None:
    """Reset the kernel's peak-RSS mark to the current RSS (Linux >= 4.0),
    so set-up (parsing the text edge list) does not mask the peak of the
    timed phase."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: list) -> float:
    return statistics.median(values)


def covered_seconds(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


#: The reference computation's time on the development box when it is
#: quiet (2 vCPUs, Python 3.11); scaled timings read as milliseconds at
#: that speed.
REF_NOMINAL_MS = 16.0


def reference_ms(reps: int = 1) -> float:
    """Median time of a fixed pure-Python plus NumPy computation.

    The box is a shared VM whose speed drifts by 20-50% over tens of
    seconds, CPU time and wall time alike.  Timing this computation next
    to the program's own operations measures that drift, and
    :class:`SpeedScale` divides it out.  It runs no repro code, so a change
    to the program cannot move it.
    """
    import numpy as np

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        keys = np.arange(200_000, dtype=np.int64)[::-1] * 7 % 1_000_003
        np.argsort(keys)
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


class SpeedScale:
    """Reference timings taken beside a run's operations.

    ``factor`` is ``REF_NOMINAL_MS / median(reference)``: multiplying a
    CPU-bound wall time by it gives the time at the nominal box speed.
    Over five-second blocks of a drifting run, raw call times moved by up
    to 28% while their ratio to the reference moved by under 10%.
    """

    def __init__(self, samples: "list | None" = None) -> None:
        self.samples: list = [] if samples is None else list(samples)

    def sample(self, reps: int = 1) -> None:
        self.samples.append(reference_ms(reps))

    @property
    def factor(self) -> float:
        return REF_NOMINAL_MS / median(self.samples)


def write_graph(name: str, seed: int, path: str):
    """Generate the dataset analogue for ``seed`` and write its edge list.

    Runs before any timing; the program only ever sees the file.
    """
    from repro.datasets import load_dataset
    from repro.graph import write_edge_list

    graph = load_dataset(name, "exp", seed)
    write_edge_list(graph, path)
    return graph


class Context:
    """What one run was asked for: workload seed, seconds, trace flag."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 work: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work


class Outcome:
    """A workload's result: operation counts, metrics and a free report."""

    def __init__(self, attempted: int, failed: int) -> None:
        self.attempted = attempted
        self.failed = failed
        self.metrics: dict = {}
        self.layers: dict = {}
        self.report: dict = {}
