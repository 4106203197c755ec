"""End-to-end benchmark of the ``repro`` CLI, with a traced per-layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-warm --seed 1 --trace 0
    python3 perfbench/run.py --workload all    # every workload in turn

``BENCHMARK.json`` lists two of the four workloads, suite-cold (the
cold path: analysis fixpoints, ILPs, store writes) and sweep-extend (the
warm path plus appends: store reads, decode, convolution); between them
they run every measured layer.  sweep-cold and sweep-warm run by name.
On a shared 2-vCPU KVM guest the same CLI run took up to 1.7 times as
long when other tenants were busy, in spells of seconds to minutes, so a
run's median wall clock moves with the host rather than the program.  The
time metrics are therefore relative: each CLI run's time is divided by
that of a fixed reference computation (:mod:`reference`, no ``repro``
code) run just before and just after it, and the run reports the median
of those ratios.  ``setup_s`` must stay in seconds, so it is the set-up
wall clock rescaled to a host on which one reference run takes 1 s
(divided by the run's median reference time).  Each run measures for
50 s; the time allowed for a full round of runs fits that length for two
workloads, not four.

Each timed run is one real ``python -m repro ...`` process, spawned and
waited for one at a time (a closed loop with a single caller), with
``--workers 1`` (the CLI default), its own ``--cache`` directory,
``--remote off`` and no inherited ``REPRO_*`` variable.  Every run's
stdout is checked (:mod:`checks`); a run that exits non-zero or fails a
check counts as failed.

``--trace 0`` prints the end-to-end metrics: the median over the timed
runs of wall clock and child CPU time relative to the reference
(``wall_rel``, ``cpu_rel``), of peak RSS and of store size, the set-up
time and the share of runs that passed.  The summary above the JSON
line also gives the plain wall clock and CPU time of the CLI runs and of
the reference runs (median, tail percentile, sample count).
``--trace 1`` adds one traced in-process run (:mod:`traced`) and prints
the per-layer metrics instead.  The last stdout line is always one JSON object
``{"correct", "attempted", "failed", "metrics"}``; run records and the
Chrome trace go to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import checks
import harness
from harness import BENCH_DIR
from instrument import LAYER_SELF_METRICS, STORE_KINDS, STORE_METRICS

EXPECTED = BENCH_DIR / "expected"
WORK = BENCH_DIR / ".work"
RESULTS = WORK / "results"

#: The sweep's own pfail (the paper's value) and the axis sweep-extend
#: draws its second column from.
BASE_PFAIL = 1e-4
EXTEND_PFAILS = (2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2)

#: The sweep workloads' grid: the default grid's way counts and line
#: sizes (two line-size groups of stacked geometries) at two of its four
#: capacities, 8 geometries with a third of the default grid's cache
#: sets.  The default 16-geometry sweep takes 20-40 s cold on a 2-core
#: machine and every warm run first builds its store with one, which
#: would stretch a round of 22 runs per workload past an hour.
SWEEP_GRID = ("--sizes", "512", "2048")

#: A benchmark invocation must end within this many seconds.
TIME_BUDGET_S = 170.0

#: Set-up import probes per run when set-up is only those probes.
SETUP_PROBES = 5

#: ``setup_s`` is rescaled to a host on which one reference run takes
#: this many seconds.
REFERENCE_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    #: Runs against a copy of a store filled by one cold sweep of the
    #: same grid.
    warm: bool = False
    #: Adds a second pfail column, chosen by the seed.
    extend: bool = False

    def pfails(self, seed: int) -> tuple[float, ...]:
        if not self.extend:
            return (BASE_PFAIL,)
        return BASE_PFAIL, random.Random(seed).choice(EXTEND_PFAILS)

    def arguments(self, seed: int, cache) -> list[str]:
        arguments = [self.command]
        if self.command == "sweep":
            arguments += SWEEP_GRID
        if self.extend:
            arguments += ["--pfails", *(f"{p:g}" for p in self.pfails(seed))]
        return arguments + ["--cache", str(cache), "--remote", "off"]

    def expected_file(self, seed: int):
        if self.command == "suite":
            return EXPECTED / "suite.txt"
        if self.extend:
            return EXPECTED / f"sweep-extend-{self.pfails(seed)[1]:g}.txt"
        return EXPECTED / "sweep.txt"


WORKLOADS = {workload.name: workload for workload in (
    Workload("suite-cold", "repro suite on an empty store: the only "
             "single-geometry, unbatched analysis path; import is a large "
             "share", "suite"),
    Workload("sweep-cold", "8-geometry sweep on an empty store: stacked "
             "fixpoints, thousands of ILPs and the store write path",
             "sweep"),
    Workload("sweep-warm", "the same sweep on a filled store: 0 ILPs, 0 "
             "fixpoints; import, store load and verify, plan and decode",
             "sweep", warm=True),
    Workload("sweep-extend", "the warm sweep plus one new pfail column: "
             "store reads beside appends, warm-solve rebuild and "
             "convolution", "sweep", warm=True, extend=True),
)}

#: End-to-end metric → unit (``--trace 0``).
END_TO_END = {"wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MiB",
              "store_mb": "MiB", "setup_s": "s", "ok_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric → unit (``--trace 1``), in report order."""
    units = {f"import.{name}": "s" for name in ("total_s", "scipy_s",
                                                "numpy_s")}
    units.update({metric: "s" for metric in LAYER_SELF_METRICS.values()})
    units.update({
        "cfg.digest_calls": "count", "cfg.digest_s": "s",
        "cfg.digest_repeat_ratio": "ratio", "suite.load_s": "s",
        "analysis.fixpoints": "count", "analysis.tables_built": "count",
        "analysis.tables_from_store": "count", "ipet.wcet_s": "s",
        "fmm.columns": "count", "solve.ilps": "count",
        "solve.backend_s": "s", "solve.dedup_hits": "count",
        "solve.store_hits": "count", "solve.dedup_ratio": "ratio",
        "pipeline.plan_s": "s", "pipeline.dag_build_s": "s",
        "pipeline.tasks_run": "count", "pipeline.cells_from_store": "count",
        "pipeline.cells_recomputed": "count", "pipeline.retries": "count",
        "cellstore.decode_s": "s", "cellstore.encode_s": "s",
        "pwcet.convolve_s": "s", "pwcet.rows": "count",
        "pwcet.rows_prefilled": "count", "report.s": "s",
    })
    store_units = {"load_s": "s", "lines_parsed": "count",
                   "bytes_read": "B", "parse_useful_ratio": "ratio",
                   "get_calls": "count", "hit_ratio": "ratio",
                   "put_calls": "count", "put_s": "s",
                   "corrupt_skipped": "count"}
    for kind in STORE_KINDS.values():
        for metric in STORE_METRICS:
            units[f"store.{kind}.{metric}"] = store_units[metric]
    units.update({f"footer.{name}": "count"
                  for name in checks.FOOTER_COUNTS})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.unattributed_s": "s", "trace.spans": "count"})
    return units


#: Program counter (``solver_stats`` key) behind each footer count, for
#: reports without a footer (``repro suite``).
FOOTER_COUNTERS = {"ilps_solved": ("ilp_solved",),
                   "store_hits": ("store_hits",),
                   "dedup_hits": ("dedup_hits",),
                   "cells_pruned": ("pruned_empty", "pruned_structural"),
                   "tables_built": ("tables_built",),
                   "tables_served": ("classify_store_hits",),
                   "cells_served": ("cells_from_store",),
                   "rows_prefilled": ("dist_batched_rows",),
                   "geometries_prefilled": ("classify_batched_rows",)}


class SetupError(RuntimeError):
    """The workload's inputs, or the reference runs, could not be
    prepared."""


# -- output checks -----------------------------------------------------------

def check_output(workload: Workload, seed: int, text: str) -> list[str]:
    """Every check that applies to one run's stdout."""
    tables, footer = checks.split_footer(text)
    expected_path = workload.expected_file(seed)
    problems = checks.check_tables(tables, expected_path.read_text())
    if workload.command == "suite":
        if footer:
            problems.append("suite report grew a counter footer")
        return problems + checks.check_suite_invariants(tables)
    problems += checks.check_sweep_invariants(tables)
    try:
        counts = checks.parse_footer(footer)
    except ValueError as error:
        return problems + [str(error)]
    if not footer:
        problems.append("sweep report has no counter footer")
    if not workload.warm:
        problems += checks.check_footer(counts, {"store_hits": 0,
                                                 "cells_served": 0})
    elif workload.extend:
        low, high = workload.pfails(seed)
        problems += checks.check_pfail_monotone(tables, low, high)
        problems += checks.check_rows_match(
            tables, (EXPECTED / "sweep.txt").read_text(), low)
        problems += checks.check_footer(counts, {"ilps_solved": 0})
    else:
        problems += checks.check_footer(
            counts, {"ilps_solved": 0, "tables_built": 0,
                     "cells_served": checks.sweep_cell_count(
                         expected_path.read_text())})
    return problems


# -- one workload ------------------------------------------------------------

class Run:
    """State of one workload invocation: its scratch directory, child
    environment and deadline."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = harness.clean_env(seed)
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.warm_store = self.work / "warm-store"

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv: list[str], label: str) -> tuple[harness.Sample,
                                                          str, str]:
        stdout = self.work / f"{label}.out"
        stderr = self.work / f"{label}.err"
        sample = harness.run_process(argv, env=self.env, stdout=stdout,
                                     stderr=stderr,
                                     timeout=self.remaining())
        return (sample, stdout.read_text(errors="replace"),
                stderr.read_text(errors="replace"))

    def setup(self) -> tuple[float, dict]:
        """Import probes (bytecode warm-up + environment record) and,
        for warm workloads, the pre-filled store built by the same CLI.
        Returns (set-up seconds, environment)."""
        probes = []
        for _ in range(1 if self.workload.warm else SETUP_PROBES):
            sample, out, err = self.spawn(
                [sys.executable, "-c", harness.ENV_PROBE], "probe")
            if sample.code != 0:
                raise SetupError(f"import probe failed: {err.strip()}")
            probes.append(sample.wall_s)
        environment = json.loads(out.strip().splitlines()[-1])
        setup_s = statistics.median(probes)
        if self.workload.warm:
            sample, out, err = self.spawn(
                harness.cli(*WORKLOADS["sweep-cold"].arguments(
                    self.seed, self.warm_store)), "warm-build")
            problems = [] if sample.code == 0 else [err.strip()]
            problems += checks.check_tables(
                checks.split_footer(out)[0],
                (EXPECTED / "sweep.txt").read_text())
            if problems:
                raise SetupError("building the warm store failed: "
                                 + "; ".join(problems))
            setup_s += sample.wall_s
        return setup_s, environment

    def reference(self) -> harness.Sample:
        """One run of the fixed reference computation."""
        sample, _out, err = self.spawn(
            [sys.executable, str(BENCH_DIR / "reference.py")], "reference")
        if sample.code != 0:
            raise SetupError(f"reference run failed: {err.strip()}")
        return sample

    def prepare_cache(self, label: str):
        cache = self.work / f"cache-{label}"
        if self.workload.warm:
            harness.copy_store(self.warm_store, cache)
        return cache

    def measure(self, argv_prefix: list[str], label: str,
                ) -> tuple[harness.Sample, str, list[str], float]:
        """One checked run: (sample, stdout, problems, store MiB)."""
        cache = self.prepare_cache(label)
        try:
            sample, out, err = self.spawn(
                argv_prefix + self.workload.arguments(self.seed, cache),
                label)
            if sample.code != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                problems = [f"exit code {sample.code}"
                            + (" (timed out)" if sample.timed_out else "")
                            + f": {tail[0]}"]
            else:
                problems = check_output(self.workload, self.seed, out)
            return sample, out, problems, harness.tree_mib(cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    started = time.perf_counter()
    run = Run(workload, seed, started + TIME_BUDGET_S)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        setup_wall_s, environment = run.setup()
        samples, problems, stores, stdouts = [], [], [], []
        measure_start = time.perf_counter()
        # A reference run before every CLI run and one after the last.
        references = [run.reference()]
        while True:
            sample, out, found, mib = run.measure(
                harness.cli(), f"run-{len(samples)}")
            samples.append(sample)
            problems.append(found)
            stores.append(mib)
            stdouts.append(out)
            references.append(run.reference())
            elapsed = time.perf_counter() - measure_start
            # Stop before a run that would end past the measuring time,
            # or early enough that one more run (and a traced run, which
            # costs about two) still fits the time budget.
            typical = (statistics.median(s.wall_s for s in samples)
                       + statistics.median(r.wall_s for r in references))
            reserve = sample.wall_s * (4 if trace else 2)
            if elapsed + typical > seconds or run.remaining() < reserve:
                break
        record = {"workload": workload.name, "seed": seed, "trace": trace,
                  "pfails": list(workload.pfails(seed)),
                  "environment": environment
                  | {"seed": seed, "git_commit": harness.git_commit(),
                     "source_sha256": harness.source_digest()},
                  "setup_wall_s": setup_wall_s,
                  "samples": [vars(sample) | {"store_mb": mib,
                                              "problems": found}
                              for sample, mib, found
                              in zip(samples, stores, problems)],
                  "references": [vars(sample) for sample in references]}
        if trace:
            metrics, traced_problems, tracer = traced_metrics(
                run, samples, stdouts, problems)
            problems.append(traced_problems)
            record["tracer"] = tracer
            units = per_layer_units()
        else:
            passed = sum(1 for found in problems if not found)
            metrics = {
                "wall_rel": statistics.median(
                    relative(samples, references, "wall_s")),
                "cpu_rel": statistics.median(
                    relative(samples, references, "cpu_s")),
                "peak_rss_mb": statistics.median(
                    s.peak_rss_mb for s in samples),
                "store_mb": statistics.median(stores),
                "setup_s": setup_wall_s * REFERENCE_S / statistics.median(
                    r.wall_s for r in references),
                "ok_frac": passed / len(samples),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    failed = sum(1 for found in problems if found)
    result = {"correct": failed == 0, "attempted": len(problems),
              "failed": failed,
              # A failed traced run leaves per-layer metrics unmeasured.
              "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                          for name, unit in units.items()}}
    record |= {"result": result, "problems": [p for p in problems if p]}
    harness.write_json(RESULTS / f"{workload.name}-seed{seed}-"
                       f"trace{int(trace)}.json", record)
    report(workload, seed, record, samples, references, stores)
    return result


def relative(samples, references, field: str) -> list[float]:
    """Each CLI run's ``field`` over the mean of the reference runs just
    before and just after it."""
    return [getattr(sample, field)
            / ((getattr(before, field) + getattr(after, field)) / 2)
            for sample, before, after
            in zip(samples, references, references[1:])]


def traced_metrics(run: Run, samples, stdouts, sample_problems
                   ) -> tuple[dict, list[str], dict]:
    """Per-layer metrics: import-time probes, one traced in-process run,
    and the footer counts of the timed runs; plus the tracer's own
    timings."""
    workload = run.workload
    imports = []
    for index in range(3):
        sample, _out, err = run.spawn(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            f"importtime-{index}")
        imports.append(harness.parse_importtime(err))
    metrics = {f"import.{key}_s": statistics.median(
        probe[key] for probe in imports) for key in ("total", "scipy",
                                                     "numpy")}
    summary_path = run.work / "traced-metrics.json"
    trace_path = RESULTS / f"{workload.name}-trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    sample, out, problems, _mib = run.measure(
        [sys.executable, str(BENCH_DIR / "traced.py"), "--metrics",
         str(summary_path), "--trace", str(trace_path), "--"], "traced")
    if sample.code != 0 or not summary_path.is_file():
        return metrics, problems or ["traced run wrote no metrics"], {}
    summary = json.loads(summary_path.read_text())
    metrics.update(summary["metrics"])
    tracer = {key: summary[key] for key in ("before_main_s", "after_main_s",
                                            "trace_write_s")}
    layer_total = sum(summary["metrics"][metric]
                      for metric in LAYER_SELF_METRICS.values())
    untraced = statistics.median(s.wall_s for s in samples)
    metrics.update({
        "trace.wall_s": sample.wall_s,
        "trace.overhead_s": sample.wall_s - untraced,
        "trace.unattributed_s": sample.wall_s - layer_total,
        "trace.spans": summary["spans"],
    })
    counters = summary["counters"]
    counts = {name: sum(counters.get(key, 0) for key in keys)
              for name, keys in FOOTER_COUNTERS.items()}
    # The timed runs' footers, where the report has one (`repro suite`
    # prints none, and then the traced run's counters stand in).
    footers = [checks.split_footer(text)[1]
               for text, found in zip(stdouts, sample_problems)
               if not found]
    if footers and footers[0]:
        footer_counts = checks.parse_footer(footers[0])
        if footer_counts != counts:
            print(f"note: traced counters {counts} differ from the "
                  f"report footer {footer_counts}", file=sys.stderr)
        counts = footer_counts
    metrics.update({f"footer.{name}": counts[name]
                    for name in checks.FOOTER_COUNTS})
    for target in summary["missing"]:
        print(f"note: {target} not found; its metrics read 0",
              file=sys.stderr)
    return metrics, problems, tracer


# -- output ------------------------------------------------------------------

def report(workload: Workload, seed: int, record: dict, samples,
           references, stores) -> None:
    """Human-readable summary (stdout, before the JSON line)."""
    result = record["result"]
    metrics = result["metrics"]
    print(f"== {workload.name} (seed {seed}, pfails "
          f"{' '.join(f'{p:g}' for p in record['pfails'])}): "
          f"{result['attempted']} run(s), {result['failed']} failed")
    print("   env: " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print(f"   FAILED: {'; '.join(problem)}")
    for name, values, unit in (
            ("wall_s", [s.wall_s for s in samples], "s"),
            ("cpu_s", [s.cpu_s for s in samples], "s"),
            ("peak_rss_mb", [s.peak_rss_mb for s in samples], "MiB"),
            ("store_mb", stores, "MiB"),
            ("reference_s", [r.wall_s for r in references], "s"),
            ("wall_rel", relative(samples, references, "wall_s"), "x"),
            ("cpu_rel", relative(samples, references, "cpu_s"), "x")):
        print(f"   {name:12s} {harness.describe(values, unit)}")
    print(f"   setup_wall_s {record['setup_wall_s']:.4g} s")
    wall = metrics.get("trace.wall_s", {}).get("value", 0)
    if wall <= 0:
        return  # untraced, or the traced run failed
    print(f"   traced run: {wall:.3f} s wall, overhead "
          f"{metrics['trace.overhead_s']['value']:+.3f} s; self time by "
          f"layer:")
    for layer, metric in LAYER_SELF_METRICS.items():
        value = metrics[metric]["value"]
        print(f"     {layer:14s} {value:8.3f} s  {value / wall:6.1%}")
    rest = metrics["trace.unattributed_s"]["value"]
    print(f"     {'(unattributed)':14s} {rest:8.3f} s  {rest / wall:6.1%}"
          f"   (outside every span: interpreter start/exit, and the "
          f"tracer's set-up {record['tracer']['before_main_s']:.3f} s and "
          f"metrics + trace write-out "
          f"{record['tracer']['after_main_s']:.3f} s)")
    print("   queue wait: 0 s in every layer by construction (--workers 1 "
          "runs every stage inline; nothing queues)")
    print("   remote layer: not measured (--remote off; scale-out is "
          "deferred)")
    print(f"   chrome trace: {RESULTS / (workload.name + '-trace.json')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    # Terminated from outside: unwind so the running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not harness.program_present():
        print(f"perfbench: no program to measure ({harness.SRC / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if options.workload == "all" \
        else [options.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], options.seed,
                                         options.seconds,
                                         bool(options.trace))
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value
                             for name, result in results.items()
                             for metric, value in result["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
