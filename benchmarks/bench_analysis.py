"""BENCH-ANALYSIS — the vectorised ACS engine and the classification store.

Measures the two tentpole properties of the cache-analysis rework:

* **vectorisation** — classifying the full 25-benchmark suite at every
  associativity (``W .. 0``, plus the SRB pre-analysis) with the numpy
  age-vector engine must be at least 2x faster than the dict-based
  reference oracle, because it runs one Must/May fixpoint pair per
  benchmark instead of one pair per associativity;
* **persistence** — a *warm* rerun against the classification store
  runs **zero** abstract-interpretation fixpoints and reproduces every
  table bit for bit.

Exports the machine-readable ``BENCH_analysis.json`` (cold dict/vector
wall time and fixpoint counts, warm fixpoint count, speedups) under
``benchmarks/results/``.
"""

import json
import pathlib
import shutil
import time

from repro.analysis import CacheAnalysis
from repro.cache import CacheGeometry
from repro.suite import EVALUATED_BENCHMARKS, load

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CACHE_DIR = pathlib.Path(__file__).parent / ".solvecache" / "bench_analysis"

#: The paper's geometry: 1 KB, 4-way, 16 B lines.
GEOMETRY = CacheGeometry.from_size(1024, 4, 16)


def _classify_suite(cfgs, *, engine, cache):
    """Full classification workload; returns (seconds, fixpoints, tables)."""
    start = time.perf_counter()
    fixpoints = 0
    tables = {}
    for name, cfg in cfgs.items():
        analysis = CacheAnalysis(cfg, GEOMETRY, cache=cache, engine=engine)
        histograms = {}
        for assoc in range(GEOMETRY.ways, -1, -1):
            histograms[assoc] = \
                analysis.classification(assoc).count_by_chmc()
        srb = analysis.srb_always_hits()
        fixpoints += analysis.stats.fixpoints_run
        tables[name] = (histograms, sorted(srb))
    return time.perf_counter() - start, fixpoints, tables


def test_analysis_cold_vs_warm(benchmark, emit):
    shutil.rmtree(CACHE_DIR, ignore_errors=True)
    cfgs = {name: load(name).cfg for name in EVALUATED_BENCHMARKS}

    # -- cold: reference oracle vs vectorised engine, no store --------
    dict_seconds, dict_fixpoints, dict_tables = _classify_suite(
        cfgs, engine="dict", cache="off")
    vector_seconds, vector_fixpoints, vector_tables = _classify_suite(
        cfgs, engine="batch", cache="off")
    assert vector_tables == dict_tables  # engines agree exactly
    assert vector_fixpoints < dict_fixpoints

    # -- cold + store, then the benchmarked warm rerun ----------------
    cache = str(CACHE_DIR)
    cold_seconds, cold_fixpoints, cold_tables = _classify_suite(
        cfgs, engine="batch", cache=cache)
    assert cold_fixpoints == vector_fixpoints

    def warm():
        return _classify_suite(cfgs, engine="batch", cache=cache)

    warm_seconds_run, warm_fixpoints, warm_tables = \
        benchmark.pedantic(warm, rounds=3, iterations=1)
    warm_seconds = min(benchmark.stats.stats.data)

    # The acceptance property: zero fixpoints, bit-identical output.
    assert warm_fixpoints == 0
    assert warm_tables == cold_tables

    payload = {
        "benchmarks": len(cfgs),
        "associativities": GEOMETRY.ways + 1,
        "dict_seconds": dict_seconds,
        "dict_fixpoints": dict_fixpoints,
        "vector_seconds": vector_seconds,
        "vector_fixpoints": vector_fixpoints,
        "vector_speedup": dict_seconds / vector_seconds,
        "cold_store_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_fixpoints": warm_fixpoints,
        "warm_speedup_vs_dict": dict_seconds / warm_seconds,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_analysis.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    emit("analysis_cold_vs_warm", json.dumps(payload, indent=2))
    # The ISSUE's acceptance floor: >= 2x on the cold full-suite
    # classification (measured ~3.5x; the warm path is far beyond).
    assert payload["vector_speedup"] >= 2.0
