"""BENCH-GEOMETRY-BATCH — the stacked classification kernel.

Measures the tentpole property of the geometry-batched engine: a cold
sweep over the **full default 16-geometry grid** runs ONE stacked
Must/May fixpoint pair per (benchmark, line size) — ≥ 8× fewer
fixpoints than classifying one geometry at a time (one
``grouped_analysis`` call per geometry with a one-element group; 16
geometries fall into 2 line-size groups) — while the sweep report
stays byte-identical to the ``dict`` oracle's and the cold classify
stage finishes ≥ 2× faster in wall clock.
Exports the machine-readable ``BENCH_geometry_batch.json`` under
``benchmarks/results/``.

The harness owns private store directories under
``benchmarks/.solvecache/`` (gitignored) and wipes them before each
cold pass — the controlled cold start is the point of the measurement.
"""

import json
import os
import pathlib
import shutil
import time

from repro.analysis.classify import ENGINE_ENV
from repro.analysis.geometry_batch import grouped_analysis
from repro.pipeline.stages import SUITE_MECHANISMS
from repro.pwcet import EstimatorConfig
from repro.suite import load
from repro.sweep import format_sweep_report, geometry_grid, run_sweep
from repro.sweep.service import _geometry_groups

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CACHE_ROOT = pathlib.Path(__file__).parent / ".solvecache" / "bench_geometry"

#: One benchmark per Figure-4 behaviour category (the full 25-benchmark
#: axis is the CLI's job); the *geometry* axis is the full default grid
#: — that axis is what this harness measures.
SUBSET = ("nsichneu", "fibcall", "ud", "adpcm")


def _classify_everything(cfg, groups, stacked):
    """One benchmark's whole cold classification work, grid-wide.

    ``stacked`` classifies each line-size group in one call; otherwise
    every geometry is its own one-element group.  Returns the
    fixpoints run.
    """
    batches = groups if stacked else [(geometry,) for group in groups
                                      for geometry in group]
    return sum(grouped_analysis(cfg, batch, SUITE_MECHANISMS,
                                cache="off", engine="batch"
                                ).stats.fixpoints_run
               for batch in batches)


def _classify_stage_seconds(cfgs, groups, stacked):
    start = time.perf_counter()
    for cfg in cfgs:
        _classify_everything(cfg, groups, stacked)
    return time.perf_counter() - start


def _cold_sweep(geometries, engine):
    cache = CACHE_ROOT / engine
    shutil.rmtree(cache, ignore_errors=True)
    previous = os.environ.get(ENGINE_ENV)
    os.environ[ENGINE_ENV] = engine
    try:
        result = run_sweep(geometries, benchmarks=SUBSET,
                           config=EstimatorConfig(cache=str(cache)))
    finally:
        if previous is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = previous
    return result


def test_geometry_batched_classification(benchmark, emit):
    geometries = geometry_grid()
    groups = _geometry_groups(geometries)
    assert len(geometries) == 16 and len(groups) == 2

    # --- classify-stage wall clock, isolated from solver/convolution.
    # Pre-warm the per-(CFG, line size) block-stream memo so both
    # engines time the same post-memo work, then take the best of
    # three rounds each to damp scheduler noise.
    cfgs = [load(name).cfg for name in SUBSET]
    for stacked in (False, True):
        _classify_stage_seconds(cfgs, groups, stacked)
    per_geometry_seconds = min(
        _classify_stage_seconds(cfgs, groups, False) for _ in range(3))
    benchmark.pedantic(_classify_stage_seconds,
                       args=(cfgs, groups, True),
                       rounds=3, iterations=1)
    batch_seconds = min(benchmark.stats.stats.data)
    per_geometry_fixpoints = sum(
        _classify_everything(cfg, groups, False) for cfg in cfgs)

    # --- full cold sweeps under the batch engine and the dict oracle:
    # fixpoint budget and byte-identity of the report.
    batched = _cold_sweep(geometries, "batch")
    oracle = _cold_sweep(geometries, "dict")
    batch_fixpoints = int(batched.solver_totals["fixpoints_run"])
    assert format_sweep_report(batched) == format_sweep_report(oracle)
    # <= 1 stacked pair (+ 1 shared SRB) per (benchmark, line size).
    assert batch_fixpoints <= len(SUBSET) * len(groups) * 3
    assert per_geometry_fixpoints >= 8 * batch_fixpoints

    # Warm rerun of the batched store: still zero fixpoints and ILPs.
    previous = os.environ.get(ENGINE_ENV)
    os.environ.pop(ENGINE_ENV, None)
    try:
        rewarm = run_sweep(geometries, benchmarks=SUBSET,
                           config=EstimatorConfig(
                               cache=str(CACHE_ROOT / "batch")))
    finally:
        if previous is not None:
            os.environ[ENGINE_ENV] = previous
    assert rewarm.solver_totals["fixpoints_run"] == 0
    assert rewarm.solver_totals["ilp_solved"] == 0
    # Every reported number matches the cold run exactly (the summary
    # footer differs by design: the warm run reports its store reuse).
    assert rewarm.points == batched.points

    payload = {
        "benchmarks": list(SUBSET),
        "grid_geometries": len(geometries),
        "line_size_groups": len(groups),
        "classify_per_geometry_seconds": per_geometry_seconds,
        "classify_batch_seconds": batch_seconds,
        "classify_speedup": per_geometry_seconds / batch_seconds,
        "cold_fixpoints_per_geometry": per_geometry_fixpoints,
        "cold_fixpoints_batch": batch_fixpoints,
        "fixpoint_reduction": per_geometry_fixpoints / batch_fixpoints,
        "classify_batched_rows":
            int(batched.solver_totals["classify_batched_rows"]),
        "geometry_group_runs":
            int(batched.solver_totals["geometry_groups"]),
        "warm_fixpoints": int(rewarm.solver_totals["fixpoints_run"]),
        "warm_ilp_solved": int(rewarm.solver_totals["ilp_solved"]),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_geometry_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    emit("geometry_batch_kernel", json.dumps(payload, indent=2))
    assert payload["fixpoint_reduction"] >= 8
    assert payload["classify_speedup"] >= 2
