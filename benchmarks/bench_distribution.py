"""BENCH-DISTRIBUTION — the batched multi-pfail distribution kernel.

Measures the tentpole property of PR 7 on the full 25-benchmark suite:

* *cold cell stage* — empty cache, one pfail: the per-(mechanism,
  pfail) penalty convolutions run through the batched kernel (hybrid
  sparse/dense row-parallel folds, one suffix-sum ccdf per batch)
  instead of the scalar per-cell loop.  Acceptance: the cold suite's
  ``cell`` stage is >= 2x faster than the PR 6 recording
  (``BENCH_incremental.json``).
* *pfail axis* — a 5-column pfail sweep axis of one geometry: PR 6
  recomputed every column's 75 cells against the warm solve store,
  paying the full cell stage per column; the batched kernel computes
  the whole axis inside the first column's cell stages and prefills
  the cell store, so the remaining columns are served whole by the
  plan pass.  Acceptance: the amortised per-column cost drops >= 3x
  versus the PR 6 recording of the per-column cell stage.  The
  scalar-engine unbatched axis is also measured and reported — it is
  context, not the baseline, because the scalar engine shares this
  PR's satellite speedups (sparse packed cell encoding, vectorised
  distribution ops, store self-append offsets).

Exports ``BENCH_distribution.json`` under ``benchmarks/results/``.
The harness owns a private store directory under
``benchmarks/.solvecache/`` (gitignored) and wipes it first.
"""

import json
import os
import pathlib
import shutil
import time
from dataclasses import replace

from repro.pipeline import PipelineStats
from repro.pipeline.stages import SUITE_MECHANISMS, suite_pipeline
from repro.pwcet import EstimatorConfig
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.pwcet.batch import ENGINE_ENV
from repro.solve.backend import selected_backend_name
from repro.suite import EVALUATED_BENCHMARKS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CACHE_ROOT = pathlib.Path(__file__).parent / ".solvecache" / \
    "bench_distribution"

#: The sweep axis of phase B (5 columns, the grid's usual span).
AXIS_PFAILS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
#: 25 benchmarks x 3 mechanisms x 1 pfail.
CELLS_PER_COLUMN = 3 * len(EVALUATED_BENCHMARKS)


def _run_suite(config, *, batch_pfails=None) -> tuple[PipelineStats, float]:
    stats = PipelineStats()
    start = time.perf_counter()
    suite_pipeline(EVALUATED_BENCHMARKS, config, TARGET_EXCEEDANCE,
                   stats=stats, batch_pfails=batch_pfails)
    return stats, time.perf_counter() - start


def _cold_cell_seconds(cache: pathlib.Path, engine: str | None,
                       benchmark=None) -> tuple[PipelineStats, float]:
    """Cold one-pfail suite under ``engine``; returns (stats, wall).

    Store handles are memoised per resolved root, so every round gets
    its *own* fresh root — wiping a directory would not empty the
    in-memory handle and the rerun would be warm, not cold.
    """
    shutil.rmtree(cache, ignore_errors=True)
    previous = os.environ.get(ENGINE_ENV)
    try:
        if engine is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = engine
        if benchmark is not None:
            roots = iter(range(1000))

            def setup():
                root = cache / f"round-{next(roots)}"
                return (EstimatorConfig(cache=str(root)),), {}

            stats, _ = benchmark.pedantic(_run_suite, setup=setup,
                                          rounds=3, iterations=1)
            return stats, min(benchmark.stats.stats.data)
        return _run_suite(EstimatorConfig(cache=str(cache / "round-0")))
    finally:
        if previous is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = previous


def _axis_seconds(cache: pathlib.Path, *, batched: bool) -> float:
    """Wall-clock of the whole 5-column pfail axis, cold store.

    Unbatched runs the scalar engine with no prefill — each column
    recomputes its 75 cells against the warm solve store, the PR 6
    sweep's work profile.  Batched runs the default engine with the
    axis as its batch: the first column computes and persists every
    row, the rest are answered by the plan pass.
    """
    shutil.rmtree(cache, ignore_errors=True)
    previous = os.environ.get(ENGINE_ENV)
    try:
        if batched:
            os.environ.pop(ENGINE_ENV, None)
            batch = {name: AXIS_PFAILS for name in SUITE_MECHANISMS}
        else:
            os.environ[ENGINE_ENV] = "scalar"
            batch = None
        totals = []
        for round_ in range(2):  # best-of rounds damps machine noise
            total = 0.0
            for pfail in AXIS_PFAILS:
                config = replace(
                    EstimatorConfig(cache=str(cache / f"round-{round_}")),
                    pfail=pfail)
                stats, seconds = _run_suite(config, batch_pfails=batch)
                total += seconds
                if batched and pfail != AXIS_PFAILS[0]:
                    assert stats.cells_from_store == CELLS_PER_COLUMN
            totals.append(total)
        return min(totals)
    finally:
        if previous is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = previous


def _pr6_cell_seconds() -> float | None:
    """The PR 6 recording of the cold suite's cell stage, if present."""
    path = RESULTS_DIR / "BENCH_incremental.json"
    try:
        recorded = json.loads(path.read_text())
        return float(recorded["stage_seconds_cold"]["cell"])
    except (OSError, KeyError, ValueError, TypeError):
        return None


def test_distribution_kernel(benchmark, emit):
    # -- phase A: cold suite cell stage, batched vs scalar ------------
    batched_stats, _ = _cold_cell_seconds(CACHE_ROOT / "batched", None,
                                          benchmark=benchmark)
    scalar_stats, _ = _cold_cell_seconds(CACHE_ROOT / "scalar", "scalar")
    batched_cell = batched_stats.stage_seconds["cell"]
    scalar_cell = scalar_stats.stage_seconds["cell"]
    assert batched_stats.cells_recomputed == CELLS_PER_COLUMN
    assert scalar_stats.cells_recomputed == CELLS_PER_COLUMN

    pr6_cell = _pr6_cell_seconds()
    baseline_cell = pr6_cell if pr6_cell is not None else scalar_cell
    # The acceptance bound: the cold suite cell stage halves (at
    # least) against the PR 6 recording.
    assert batched_cell * 2 <= baseline_cell

    # -- phase B: the 5-column pfail axis -----------------------------
    unbatched_axis = _axis_seconds(CACHE_ROOT / "axis-unbatched",
                                   batched=False)
    batched_axis = _axis_seconds(CACHE_ROOT / "axis-batched",
                                 batched=True)
    columns = len(AXIS_PFAILS)
    # The acceptance bound: amortised per-column cost drops >= 3x
    # against the PR 6 recording, where every column paid the full
    # cell stage (`baseline_cell`) against the warm solve store.
    assert batched_axis * 3 <= baseline_cell * columns

    payload = {
        "benchmarks": len(EVALUATED_BENCHMARKS),
        "cells_per_column": CELLS_PER_COLUMN,
        "backend": selected_backend_name(),
        "cold_cell_seconds_batched": batched_cell,
        "cold_cell_seconds_scalar": scalar_cell,
        "cold_cell_seconds_pr6": pr6_cell,
        "cold_cell_speedup_vs_pr6": (baseline_cell / batched_cell),
        "batched_vs_scalar_cell_speedup": scalar_cell / batched_cell,
        "axis_pfails": list(AXIS_PFAILS),
        "axis_seconds_unbatched": unbatched_axis,
        "axis_seconds_batched": batched_axis,
        "axis_amortised_unbatched_per_column": unbatched_axis / columns,
        "axis_amortised_batched_per_column": batched_axis / columns,
        "axis_amortised_speedup_vs_pr6":
            (baseline_cell * columns) / batched_axis,
        "axis_amortised_speedup_vs_scalar": unbatched_axis / batched_axis,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_distribution.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    emit("distribution_kernel", json.dumps(payload, indent=2))
