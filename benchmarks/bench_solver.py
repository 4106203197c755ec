"""ABL-SOLVER — exact ILP vs LP relaxation for the IPET/FMM programs.

The paper solves its ILPs with CPLEX; we use HiGHS through scipy.  For
a *maximisation*, the LP relaxation is a sound (>=) but possibly looser
bound, and solves faster — a practical trade-off for design-space
exploration.  This harness times both modes and quantifies the bound
gap over a benchmark subset.

It also tracks the solve planner's perf trajectory:
``test_planner_end_to_end_stats`` times the planned pipeline against
the direct (dedup/prune disabled, scipy backend) path and writes the
machine-readable ``BENCH_solver.json`` (wall time, ILPs solved, ILPs
pruned, dedup hit-rate) under ``benchmarks/results/``.
"""

import json
import os
import pathlib
import time

import pytest

from repro.experiments.ablations import solver_comparison
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.backend import selected_backend_name
from repro.suite import load

SUBSET = ("fibcall", "ud", "adpcm")
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
MECHANISMS = ("none", "srb", "rw")


def _pipeline(relaxed: bool, name: str = "ud") -> int:
    # cache="off": this harness times the *planner*, so the persistent
    # cross-run store must not answer for it (bench_sweep.py is the
    # harness that measures the store).
    config = EstimatorConfig(relaxed=relaxed, cache="off")
    estimator = PWCETEstimator(load(name), config, name=name)
    return estimator.estimate("none").pwcet()


def test_exact_ilp_pipeline(benchmark):
    value = benchmark.pedantic(lambda: _pipeline(False), rounds=3,
                               iterations=1)
    assert value > 0


def test_relaxed_lp_pipeline(benchmark):
    value = benchmark.pedantic(lambda: _pipeline(True), rounds=3,
                               iterations=1)
    assert value > 0


def test_relaxation_gap_table(benchmark, emit):
    pairs = benchmark.pedantic(
        lambda: solver_comparison(benchmarks=SUBSET),
        rounds=1, iterations=1)
    lines = [f"{'benchmark':>10s} {'ILP none':>12s} {'LP none':>12s} "
             f"{'gap':>7s}"]
    for exact, relaxed in pairs:
        gap = (relaxed.pwcet_none - exact.pwcet_none) / exact.pwcet_none
        lines.append(f"{exact.benchmark:>10s} {exact.pwcet_none:12d} "
                     f"{relaxed.pwcet_none:12d} {gap:7.2%}")
        # Soundness: the relaxation never under-estimates.
        assert relaxed.pwcet_none >= exact.pwcet_none
        assert relaxed.pwcet_srb >= exact.pwcet_srb
        assert relaxed.pwcet_rw >= exact.pwcet_rw
    emit("ablation_solver_relaxation", "\n".join(lines))


_COUNTER_KEYS = ("requests", "ilp_solved", "lp_solved", "dedup_hits",
                 "store_hits", "pruned_empty", "pruned_structural")


def _run_pipeline(names, *, planned: bool):
    """Estimate all mechanisms for every benchmark; returns counters."""
    totals = dict.fromkeys(_COUNTER_KEYS, 0)
    for name in names:
        estimator = PWCETEstimator(load(name), EstimatorConfig(cache="off"),
                                   name=name)
        if not planned:
            estimator._planner.dedup = False
            estimator._planner.prescreen = False
        for mechanism in MECHANISMS:
            estimator.estimate(mechanism)
        stats = estimator.solver_stats.as_dict()
        for key in _COUNTER_KEYS:  # the hit-rate ratio does not sum
            totals[key] += int(stats[key])
    return totals


def test_planner_end_to_end_stats(benchmark, emit):
    """Planned vs direct sweep timing, exported as BENCH_solver.json."""
    names = ("crc", "ud", "adpcm")
    stats = benchmark.pedantic(
        lambda: _run_pipeline(names, planned=True), rounds=3, iterations=1)
    planned_seconds = min(benchmark.stats.stats.data)

    # Direct reference: no dedup, no pruning, per-call scipy.milp —
    # the shape of the pre-planner pipeline.
    saved = os.environ.get("REPRO_SOLVE_BACKEND")
    os.environ["REPRO_SOLVE_BACKEND"] = "scipy"
    try:
        direct_seconds = min(
            _timed(lambda: _run_pipeline(names, planned=False))
            for _ in range(3))
    finally:
        if saved is None:
            os.environ.pop("REPRO_SOLVE_BACKEND", None)
        else:
            os.environ["REPRO_SOLVE_BACKEND"] = saved

    speedup = direct_seconds / planned_seconds
    payload = {
        "benchmarks": list(names),
        "mechanisms": list(MECHANISMS),
        "backend": selected_backend_name(),
        "workers": 1,
        "planned_seconds": planned_seconds,
        "direct_seconds": direct_seconds,
        "speedup": speedup,
        "requests": int(stats["requests"]),
        "ilp_solved": int(stats["ilp_solved"]),
        "lp_solved": int(stats["lp_solved"]),
        "ilp_pruned": int(stats["pruned_empty"]
                          + stats["pruned_structural"]
                          + stats["dedup_hits"]),
        "pruned_empty": int(stats["pruned_empty"]),
        "pruned_structural": int(stats["pruned_structural"]),
        "dedup_hits": int(stats["dedup_hits"]),
        "dedup_hit_rate": stats["dedup_hits"] / max(
            1, stats["requests"] - stats["pruned_empty"]),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_solver.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    emit("solver_planner_stats", json.dumps(payload, indent=2))
    # The planner must dodge most of the sweep and beat the direct
    # path clearly (target: >= 3x single-worker over the seed shape).
    assert payload["ilp_solved"] < payload["requests"] / 2
    assert speedup >= 2.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
