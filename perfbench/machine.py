"""Facts about the machine and the code a result was measured on, and the
host-speed reference the end-to-end times are scaled by."""

import glob
import os
import platform
import subprocess
import sys
import time

import numpy as np

# reference_work() on the machine described in README.md, in a fast stretch
REFERENCE_SECONDS = 0.038


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def reference_work():
    """Seconds for fixed work that uses no permfield code.

    A Python loop and numpy transcendental math, the two kinds of work the
    workloads do; timed between the parts, it measures how fast the host
    runs at that moment.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    x = np.arange(600_000, dtype=np.float64)
    float(np.log1p(np.sin(x) ** 2).sum())
    return time.perf_counter() - t0


class ReferenceProcess:
    """reference_work() timed in a helper process of its own.

    The helper shares no heap, GIL or threads with the measured process, so
    a change that slows the whole measured process (threads left spinning,
    a grown heap) does not slow the reference and is not divided out of the
    scaled times. Calling the object runs the work once in the helper and
    returns its seconds; the measured process waits idle meanwhile.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        self()  # the first run pays the helper's warm-up

    def __call__(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with {self._proc.wait()}")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def nproc():
    return len(os.sched_getaffinity(0))


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches():
    """Cache sizes of cpu0 by level and type, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level and kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = _read(f"{index}/size")
    return out


def _commit(root):
    """HEAD of the checkout, read from .git without running git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha:
        return sha
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def facts(root):
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "commit": _commit(root),
    }


if __name__ == "__main__":
    # helper of ReferenceProcess: one reference_work() per input line
    for _ in sys.stdin:
        print(repr(reference_work()), flush=True)
