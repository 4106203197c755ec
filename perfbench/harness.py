"""Process plumbing of the benchmark: run the CLI, time it, size its store.

Everything here is independent of the workloads: spawning one
``python -m repro`` process in a scrubbed environment and reading its
wall clock, CPU time and peak RSS from ``wait4``; copying and sizing
store directories; parsing ``python -X importtime``; and summarising
samples (median, tail percentile).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

#: The benchmark's directory and the repository checkout it measures.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Prints the run environment as JSON.  Run before the timed runs, it
#: also pays the first import of the package (and writes its bytecode
#: cache, unless the environment disables that).
ENV_PROBE = """
import json, os, sys
import repro.cli
import numpy, scipy
from repro.solve.backend import selected_backend_name
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "solver_backend": selected_backend_name(),
    "nproc": len(os.sched_getaffinity(0)),
    "cpu_count": os.cpu_count(),
}))
"""


def program_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def clean_env(seed: int) -> dict[str, str]:
    """The child environment: no inherited ``REPRO_*`` knob, the
    checkout's ``src`` as the only ``PYTHONPATH`` entry, and the hash
    seed derived from the workload seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


@dataclass
class Sample:
    """One CLI process, spawn to exit."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool = False


def run_process(argv: list[str], *, env: dict[str, str],
                stdout: pathlib.Path, stderr: pathlib.Path,
                timeout: float) -> Sample:
    """Run ``argv`` to completion; rusage comes from ``wait4`` on the
    child alone.  A child still running after ``timeout`` seconds is
    killed (and still reaped)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                 stderr=err, stdin=subprocess.DEVNULL)
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            child.kill()

        watchdog = threading.Timer(max(timeout, 0.001), kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            # Interrupted while waiting: never leave the child behind.
            child.kill()
            os.waitpid(child.pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return Sample(code=child.returncode, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  timed_out=expired.is_set())


def cli(*arguments: str) -> list[str]:
    return [sys.executable, "-m", "repro", *arguments]


def tree_mib(path: pathlib.Path) -> float:
    """Bytes of every file under ``path``, in MiB."""
    total = 0
    for directory, _subdirs, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(directory, name)).st_size
    return total / 2**20


def copy_store(source: pathlib.Path, target: pathlib.Path) -> None:
    """Copy a store directory and flush the copy to disk, so its
    write-back does not land inside the timed run that reads it."""
    shutil.copytree(source, target)
    for directory, _subdirs, files in os.walk(target):
        for name in files:
            descriptor = os.open(os.path.join(directory, name), os.O_RDONLY)
            try:
                os.fsync(descriptor)
            finally:
                os.close(descriptor)


# -- import time -----------------------------------------------------------

def parse_importtime(text: str) -> dict[str, float]:
    """``total``/``scipy``/``numpy`` seconds from ``-X importtime`` output.

    ``total`` is the cumulative time of the top-level ``repro`` entries;
    ``scipy`` and ``numpy`` sum the cumulative time of each package's
    outermost entries (numpy imported from inside scipy counts in both).
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(fields[1]) / 1e6))
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0}
    # Children print before their parent; walking backwards visits each
    # parent first, so the stack holds the entry's ancestors.
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        root = name.split(".")[0]
        roots = {ancestor.split(".")[0] for ancestor in ancestors}
        if depth == 0 and root == "repro":
            totals["total"] += cumulative
        if root in ("scipy", "numpy") and root not in roots:
            totals[root] += cumulative
        ancestors.append(name)
    return totals


# -- summaries -------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below eleven samples."""
    ordered = sorted(values)
    kept = len(ordered) - 10
    if kept < 1:
        return None
    return 100 * kept // len(ordered), ordered[kept - 1]


def describe(values: list[float], unit: str) -> str:
    """``median (pNN value, n=N)`` for the human-readable summary."""
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]} {tail[1]:.4g} {unit}" if tail is not None
                 else "no tail percentile below 11 samples")
    return (f"median {statistics.median(values):.4g} {unit} "
            f"({tail_text}, n={len(values)})")


def source_digest() -> str:
    """SHA-256 over the program's source files (path + bytes), which
    identifies the measured code where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def write_json(path: pathlib.Path, value: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")
