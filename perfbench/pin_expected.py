"""Regenerate the pinned result tables in ``perfbench/expected/``.

Usage, from the repository root at the commit whose output is the
reference::

    python3 perfbench/pin_expected.py

Runs the workloads' ``repro suite`` and ``repro sweep`` commands and one
extended sweep per pfail of ``run.EXTEND_PFAILS`` (each against a copy
of the cold sweep's store), and writes each report without its counter
footer.
"""

from __future__ import annotations

import shutil
import sys

import checks
import harness
from run import EXPECTED, EXTEND_PFAILS, WORK, WORKLOADS


def pinned(work, label: str, arguments: list[str]) -> str:
    sample = harness.run_process(
        harness.cli(*arguments), env=harness.clean_env(0),
        stdout=work / f"{label}.out", stderr=work / f"{label}.err",
        timeout=600)
    if sample.code != 0:
        sys.exit(f"{label}: exit code {sample.code}")
    tables, _footer = checks.split_footer(
        (work / f"{label}.out").read_text())
    return tables


def main() -> int:
    work = WORK / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    EXPECTED.mkdir(exist_ok=True)
    try:
        for name in ("suite-cold", "sweep-cold"):
            workload = WORKLOADS[name]
            cache = work / "warm"  # the sweep's store seeds the extensions
            shutil.rmtree(cache, ignore_errors=True)
            workload.expected_file(0).write_text(
                pinned(work, name, workload.arguments(0, cache)))
        extend = WORKLOADS["sweep-extend"]
        for pfail in EXTEND_PFAILS:
            cache = work / "extend"
            shutil.rmtree(cache, ignore_errors=True)
            harness.copy_store(work / "warm", cache)
            seed = next(seed for seed in range(1000)
                        if extend.pfails(seed)[1] == pfail)
            extend.expected_file(seed).write_text(
                pinned(work, f"extend-{pfail:g}",
                       extend.arguments(seed, cache)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
