"""Stage functions of the estimation pipeline (pool-safe, picklable).

These are the module-level task bodies the
:class:`~repro.pipeline.scheduler.PipelineScheduler` executes:

``classify_stage``
    program → :class:`~repro.pipeline.artifacts.ClassificationArtifact`.
    Runs the abstract-interpretation fixpoints (or decodes warm tables
    from the :class:`~repro.analysis.store.ClassificationStore` — the
    store is the stage's read/write-through layer) for exactly the
    associativities the requested mechanisms will degrade to, plus the
    SRB hit set when a mechanism consults the buffer.

``solve_stage``
    (program, classification artifact) → :class:`SolveOutput`: the
    fault-free WCET plus every requested mechanism's Fault Miss Map,
    with the benchmark's merged solver+analysis counters.  Every ILP
    goes through the :class:`~repro.solve.store.SolveStore`
    read/write-through planner.

``cell_stage``
    (solve output) → :class:`~repro.pipeline.artifacts.CellArtifact`:
    one *(mechanism, pfail)* estimation cell — penalty convolution and
    the finished :class:`~repro.pwcet.estimator.PWCETEstimate` —
    written through the :class:`~repro.pipeline.cellstore.CellStore`
    under its content address, so the scheduler's plan pass can
    satisfy the cell from the store on the next run.  Given a
    pfail-axis batch, one cell computes its mechanism's whole axis in
    a single :func:`~repro.pwcet.batch.penalty_distributions` pass and
    prefills the sibling rows' addresses.

``result_stage``
    (cells) → :class:`~repro.experiments.runner.BenchmarkResult`:
    reassembles one benchmark's cells into the paper-facing result.

``suite_pipeline``
    Builds and runs the benchmark-suite DAG: per benchmark a classify,
    a solve, one cell per (mechanism, pfail) and a result task,
    dependency-chained, all on one shared pool — so solve stages of
    early benchmarks overlap the classification of later ones, and
    small cells backfill workers (or the parent, by work stealing)
    idling on another benchmark's long ILP batch.

The stage split is counter-transparent: an artifact-seeded estimator
performs no classification work and no classification-store traffic,
and the distribution work of the cell stages touches no counters at
all, so the merged per-benchmark counters are identical to the fused
:class:`~repro.pwcet.PWCETEstimator` run — the oracle the DAG is
property-tested bit-identical against, in every worker mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis import CacheAnalysis
from repro.analysis.store import classification_key
from repro.faults import FaultProbabilityModel
from repro.pipeline.artifacts import (CellArtifact, CfgArtifact,
                                      ClassificationArtifact,
                                      DistributionArtifact)
from repro.pipeline.resilience import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.pipeline.scheduler import (PipelineScheduler, PipelineStats,
                                      is_run_counter)
from repro.reliability import ReliabilityMechanism, mechanism_by_name
from repro.solve.store import store_context
from repro.suite import load

#: The paper's three configurations, in presentation order — the
#: mechanism set of every suite/sweep estimation.
SUITE_MECHANISMS = ("none", "srb", "rw")


def required_classifications(mechanisms, ways: int
                             ) -> tuple[tuple[int, ...], bool]:
    """Associativities (in first-demand order) a mechanism set needs.

    Mirrors the lazy demand order of the fused estimator exactly —
    nominal first, then each mechanism's degraded tables ``W-1, W-2,
    …`` — so a classify stage issues the same store traffic the
    estimator historically did.  The flag reports whether any
    mechanism consults the SRB (its all-faulty column replaces the
    associativity-0 table with the buffer's hit set).
    """
    assocs: list[int] = [ways]
    seen = {ways}
    needs_srb = False
    for mechanism in mechanisms:
        if not isinstance(mechanism, ReliabilityMechanism):
            mechanism = mechanism_by_name(mechanism)
        counts = mechanism.fault_counts(ways)
        for fault_count in range(1, max(counts) + 1):
            if mechanism.uses_srb and fault_count == ways:
                needs_srb = True
                continue
            assoc = ways - fault_count
            if assoc not in seen:
                seen.add(assoc)
                assocs.append(assoc)
    return tuple(assocs), needs_srb


def classification_artifact(analysis: CacheAnalysis, name: str,
                            mechanisms, *, carry_tables: bool
                            ) -> ClassificationArtifact:
    """Run (or decode) the classification stage on ``analysis``.

    The analysis object is the read/write-through boundary: warm
    tables decode from the persistent store, cold ones run the
    fixpoint engine and are written through.  ``carry_tables`` embeds
    the store-encoded tables in the artifact (required whenever the
    artifact crosses a process boundary); without it the artifact
    hands the analysis object itself to same-process consumers.
    """
    ways = analysis.geometry.ways
    assocs, needs_srb = required_classifications(mechanisms, ways)
    tables = {} if carry_tables else None
    for assoc in assocs:
        table = analysis.classification(assoc)
        if tables is not None:
            tables[assoc] = table.encoded()
    srb_hits = None
    if needs_srb:
        srb_hits = tuple(sorted(analysis.srb_always_hits()))
    digest = analysis.cfg.digest()
    return ClassificationArtifact(
        key=classification_key(digest, analysis.geometry, ways),
        cfg=CfgArtifact(key=digest, name=name),
        table_keys={assoc: classification_key(digest, analysis.geometry,
                                              assoc)
                    for assoc in assocs},
        tables=tables,
        srb_hits=srb_hits,
        stats=analysis.stats.as_dict(),
        analysis=None if carry_tables else analysis)


def classify_stage(name: str, config, mechanisms=SUITE_MECHANISMS,
                   carry_tables: bool = True,
                   batch_geometries=()) -> ClassificationArtifact:
    """Stage task: full classification stage of one suite benchmark.

    As a pool task (``carry_tables=True``) the artifact embeds the
    store-encoded tables; inline it hands the analysis object over
    directly, so the estimation stage reuses it with zero re-decoding.

    ``batch_geometries`` (lead geometry first; empty = unbatched) is
    the geometry-batched kernel's fan-in, the classification analogue
    of the cell stage's ``batch_rows``: every listed geometry shares
    this benchmark's line size, so ONE stacked Must/May fixpoint pair
    classifies all of them at once
    (:func:`~repro.analysis.geometry_batch.grouped_analysis`) and the
    sibling geometries' tables + SRB hit sets are written through the
    classification store under their own content addresses — the
    siblings' classify stages then decode them as warm hits.  Each
    table is byte-identical to an unbatched computation, so batching
    never changes a result.
    """
    program = load(name)
    if len(batch_geometries) > 1:
        from repro.analysis.geometry_batch import grouped_analysis

        analysis = grouped_analysis(program.cfg, batch_geometries,
                                    mechanisms, cache=config.cache)
        # The batching counters (classify_batched_rows /
        # geometry_groups, presence-gated like dist_batched_rows)
        # travel on the group's shared stats object, so both the
        # inline analysis hand-off and the pooled artifact surface
        # them.
        return classification_artifact(analysis, name, mechanisms,
                                       carry_tables=carry_tables)
    analysis = CacheAnalysis(program.cfg, config.geometry,
                             cache=config.cache)
    return classification_artifact(analysis, name, mechanisms,
                                   carry_tables=carry_tables)


def _merged_counters(summary: dict[str, float],
                     stage_stats: dict[str, float]) -> dict[str, float]:
    """Fold a prior stage's counters into an estimator summary.

    Count-style keys sum; rate-style keys keep the estimator's value
    (rates never sum — drivers recompute them from totals).  Keys that
    are not per-run work (:func:`~repro.pipeline.scheduler
    .is_run_counter`) are dropped, keeping ``solver_stats`` an
    immutable per-run snapshot.
    """
    merged = {key: value for key, value in summary.items()
              if is_run_counter(key)}
    for key, value in stage_stats.items():
        if is_run_counter(key) and not key.endswith("_rate"):
            merged[key] = merged.get(key, 0) + value
    return merged


def _refresh_stores(cache) -> None:
    """Fold fresh shard writes into this process' store handles.

    Called at pooled/stolen stage entry so entries written by sibling
    workers since the handle's last load are visible before the stage
    reads or writes — the cross-process analogue of PR 5's
    handle-per-run discipline.  Keys are benchmark-scoped (every store
    key embeds the CFG digest), so the visibility set can never change
    a stage's own hit counters — only spare it duplicate writes.
    """
    from repro.analysis.store import ClassificationStore
    from repro.pipeline.cellstore import CellStore
    from repro.solve.store import SolveStore

    for store in (SolveStore.resolve(cache),
                  ClassificationStore.resolve(cache),
                  CellStore.resolve(cache)):
        if store is not None:
            store.refresh()


@dataclass(frozen=True)
class SolveOutput:
    """Pool-safe output of one benchmark's solve stage.

    Everything the benchmark's cells fan out over: the fault-free
    WCET, one Fault Miss Map per requested mechanism, and the merged
    solver+analysis counters of the classify+solve work (each cell
    carries a reference to the same dict; the result stage counts it
    once).
    """

    name: str
    wcet_cycles: int
    fmms: dict[str, object] = field(repr=False)
    counters: dict[str, float] = field(repr=False)


def solve_stage(name: str, config, mechanisms, estimator_workers: int,
                refresh: bool, artifact: ClassificationArtifact
                ) -> SolveOutput:
    """Stage task: WCET + FMM solves of one benchmark.

    The solver-facing prefix of the fused estimator's run: identical
    store traffic in identical order (WCET first, then each
    mechanism's FMM), stopping before the distribution work — which
    the per-(mechanism, pfail) cell stages own.  ``refresh`` folds
    sibling workers' shard writes in first (pool mode only).
    """
    from repro.pwcet import PWCETEstimator

    if refresh:
        _refresh_stores(config.cache)
    stage_config = replace(config, workers=estimator_workers)
    if artifact.analysis is not None:
        estimator = PWCETEstimator(artifact.analysis.cfg, stage_config,
                                   name=name, analysis=artifact.analysis)
        stage_stats: dict[str, float] = {}
    else:
        estimator = PWCETEstimator(load(name), stage_config, name=name)
        estimator.analysis.preload(artifact.tables, artifact.srb_hits)
        stage_stats = artifact.stats
    wcet = estimator.fault_free_wcet()
    fmms = {mechanism: estimator.fault_miss_map(mechanism)
            for mechanism in mechanisms}
    return SolveOutput(
        name=name, wcet_cycles=wcet, fmms=fmms,
        counters=_merged_counters(estimator.stats_summary(), stage_stats))


def cell_stage(name: str, mechanism_name: str, pfail: float, config,
               cell_key: str, refresh: bool, batch_rows,
               solve_output: SolveOutput) -> CellArtifact:
    """Stage task: one (mechanism, pfail) estimation cell.

    Pure derivation from the solve output — penalty convolution via
    the same :func:`~repro.pwcet.estimator.penalty_distribution` the
    estimator uses, so the estimate is bit-identical to the fused
    path's — written through the cell store under ``cell_key`` for the
    next run's plan pass to find.

    ``batch_rows`` (``((pfail, cell_key), ...)``; empty = unbatched)
    is the batched distribution kernel's pfail-axis fan-in: the FMM's
    penalty points are pfail-independent, so every listed row shares
    this cell's penalty structure and all of them come out of *one*
    :func:`~repro.pwcet.batch.penalty_distributions` pass.  The
    sibling rows are written through to the cell store under their own
    content addresses — a later run (the sweep's next pfail column)
    finds them in its plan pass — while this cell's own row (always in
    the batch) is the artifact returned.  Each row is bit-identical to
    an unbatched computation, so batching never changes a result.
    """
    from repro.pipeline.cellstore import CellStore, encode_cell
    from repro.pwcet.batch import penalty_distributions
    from repro.pwcet.estimator import PWCETEstimate

    if refresh:
        _refresh_stores(config.cache)
    mechanism = mechanism_by_name(mechanism_name)
    rows = tuple(batch_rows) or ((pfail, cell_key),)
    fmm = solve_output.fmms[mechanism_name]
    sets = config.geometry.sets
    models = [FaultProbabilityModel(geometry=config.geometry,
                                    pfail=row_pfail)
              for row_pfail, _ in rows]
    distributions = penalty_distributions(fmm, mechanism, models, sets)
    store = CellStore.resolve(config.cache)
    own = None
    for (row_pfail, row_key), model, distribution in zip(rows, models,
                                                         distributions):
        estimate = PWCETEstimate(
            program_name=name,
            mechanism_name=mechanism_name,
            wcet_fault_free=solve_output.wcet_cycles,
            penalty_misses=distribution,
            timing=config.timing,
            fmm=fmm,
            exceedance_correction=mechanism.exceedance_correction(model,
                                                                  sets))
        if store is not None:
            store.put(row_key, encode_cell(estimate))
        if row_key == cell_key:
            own = estimate
    return CellArtifact(key=cell_key, mechanism=mechanism_name,
                        pfail=pfail, estimate=own,
                        counters=solve_output.counters, from_store=False,
                        batched_rows=len(rows) - 1)


def _zero_counters() -> dict[str, float]:
    """The all-zero solver+analysis counter template.

    The ``solver_stats`` of a benchmark whose every cell was satisfied
    from the store: no solve stage ran, so nothing was counted — but
    downstream aggregation still finds every familiar key.
    """
    from repro.analysis.classify import AnalysisStats
    from repro.solve.planner import SolveStats

    return {**SolveStats().as_dict(), **AnalysisStats().as_dict()}


def result_stage(name: str, target_probability: float, mechanisms,
                 *cells: CellArtifact) -> "object":
    """Stage task: reassemble one benchmark's cells into its result.

    Always runs inline (it is every benchmark DAG's sink).  The solve
    counters travel on the computed cells — all of one benchmark's
    computed cells reference the same dict, counted once here; a
    benchmark served entirely from the store reports the zero
    template.  ``cells_from_store`` is added only when > 0, so a cold
    result's counter dict is key-identical to the fused estimator's
    summary.
    """
    from repro.experiments.runner import BenchmarkResult

    counters = next((cell.counters for cell in cells
                     if cell.counters is not None), None)
    counters = dict(counters) if counters is not None else _zero_counters()
    served = sum(1 for cell in cells if cell.from_store)
    if served:
        counters["cells_from_store"] = \
            counters.get("cells_from_store", 0) + served
    # Sibling pfail rows the batched distribution kernel prefilled;
    # added only when batching happened, so an unbatched result's
    # counter dict stays key-identical to the fused estimator's.
    batched = sum(cell.batched_rows for cell in cells)
    if batched:
        counters["dist_batched_rows"] = \
            counters.get("dist_batched_rows", 0) + batched
    return BenchmarkResult(
        name=name,
        wcet_fault_free=cells[0].estimate.wcet_fault_free,
        estimates={mechanism: cell.estimate
                   for mechanism, cell in zip(mechanisms, cells)},
        target_probability=target_probability,
        solver_stats=counters)


def benchmark_dag(scheduler: PipelineScheduler, name: str, config,
                  target_probability: float, *,
                  mechanisms=SUITE_MECHANISMS, pool: bool = False,
                  estimator_workers: int = 1, cell_store=None,
                  batch_pfails=None, batch_geometries=None,
                  classify_store=None, prefix: str = "") -> str:
    """Add one benchmark's cell-granular DAG; returns the result key.

    classify → solve → one cell per (mechanism, ``config.pfail``) →
    result.  Cells carry their artifact key as the dispatch order key
    and, when ``cell_store`` is given, a plan-pass probe that decodes
    the persisted cell — an up-stream-clean cell is satisfied from the
    store, and a benchmark whose every cell is satisfied skips its
    classify and solve stages outright.

    ``batch_pfails`` (mechanism → pfail axis, e.g. the sweep's grid
    columns) opts each cell into the batched distribution kernel: the
    cell's stage computes every *store-missing* row of its mechanism's
    axis in one batched pass and prefills the cell store with the
    siblings.  Per-cell content addresses are untouched — the batch is
    assembled from exactly the per-row :meth:`DistributionArtifact
    .derive_key` digests the plan pass probes — so ``--only-cells``
    filtering and incremental invalidation behave as without batching.
    Requires ``cell_store`` (prefilled rows must land somewhere).

    ``batch_geometries`` (the benchmark's line-size group, e.g. the
    sweep's geometry axis at this line size) does the same for the
    classify stage: its cold work fans in over every *store-missing*
    geometry of the group — one stacked fixpoint pair classifies them
    all and the siblings' tables are prefilled into the classification
    store under their own content addresses.  Requires
    ``classify_store`` (the same read/write-through handle the stage
    resolves); like the pfail batch, it is assembled from exactly the
    per-geometry :func:`~repro.analysis.store.classification_key`
    digests a sibling's stage would probe.
    """
    from repro.pipeline.cellstore import decode_cell

    digest = load(name).cfg.digest()
    context = store_context(digest, config.geometry, config.timing)
    batch_group = ()
    if batch_geometries and classify_store is not None:
        group = [config.geometry]
        for geometry in batch_geometries:
            # Only store-missing siblings enter the batch — a geometry
            # another run (or an earlier group lead) already persisted
            # costs nothing to keep.  The probe is raw store access,
            # not an analysis lookup, so it counts no stage traffic.
            if geometry == config.geometry:
                continue
            key = classification_key(digest, geometry, geometry.ways)
            if classify_store.get(key) is None:
                group.append(geometry)
        if len(group) > 1:
            batch_group = tuple(group)
    classify_key = scheduler.add(
        f"{prefix}classify:{name}", classify_stage,
        args=(name, config, tuple(mechanisms), pool, batch_group),
        stage="classify", pool=pool)
    solve_key = scheduler.add(
        f"{prefix}solve:{name}", solve_stage,
        args=(name, config, tuple(mechanisms), estimator_workers, pool),
        deps=(classify_key,), stage="solve", pool=pool)
    cell_keys = []
    for mechanism in mechanisms:
        cell_key = DistributionArtifact.derive_key(context, mechanism,
                                                   config.pfail)
        batch_rows = ()
        if batch_pfails and cell_store is not None:
            axis = []
            for row_pfail in batch_pfails.get(mechanism, ()):
                row_key = DistributionArtifact.derive_key(
                    context, mechanism, row_pfail)
                # Only store-missing siblings enter the batch — a row
                # another run already persisted costs nothing to keep.
                if row_key != cell_key and cell_store.get(row_key) \
                        is not None:
                    continue
                axis.append((row_pfail, row_key))
            if not any(key == cell_key for _, key in axis):
                axis.insert(0, (config.pfail, cell_key))
            if len(axis) > 1:
                batch_rows = tuple(axis)
        probe = None
        if cell_store is not None:
            def probe(key=cell_key, mechanism=mechanism):
                value = cell_store.get(key)
                if value is None:
                    return None
                estimate = decode_cell(value, name=name,
                                       mechanism=mechanism,
                                       config=config, pfail=config.pfail)
                if estimate is None:
                    return None
                return CellArtifact(key=key, mechanism=mechanism,
                                    pfail=config.pfail,
                                    estimate=estimate, counters=None,
                                    from_store=True)
        cell_keys.append(scheduler.add(
            f"{prefix}cell:{name}:{mechanism}", cell_stage,
            args=(name, mechanism, config.pfail, config, cell_key, pool,
                  batch_rows),
            deps=(solve_key,), stage="cell", pool=pool,
            order_key=cell_key, probe=probe))
    return scheduler.add(
        f"{prefix}result:{name}", result_stage,
        args=(name, target_probability, tuple(mechanisms)),
        deps=tuple(cell_keys), stage="result")


def suite_pipeline(benchmarks, config, target_probability: float, *,
                   workers: int = 1,
                   scheduler: PipelineScheduler | None = None,
                   stats: PipelineStats | None = None,
                   mechanisms=SUITE_MECHANISMS,
                   batch_pfails=None,
                   batch_geometries=None,
                   strict: bool = True,
                   retry: "RetryPolicy | None" = None
                   ) -> dict[str, object]:
    """Run the suite DAG; returns BenchmarkResults keyed by name.

    ``workers > 1`` executes every stage family on one shared process
    pool with only artifact dependencies between them; ``workers=1``
    runs the same DAG inline in deterministic dispatch order.
    Results are bit-identical either way.

    Resilience: the scheduler runs under ``retry`` (default
    :data:`~repro.pipeline.resilience.DEFAULT_RETRY_POLICY` — killed
    workers and broken pools are recovered transparently).  With
    ``strict=False`` a permanently-failing benchmark yields a
    :class:`~repro.pipeline.resilience.TaskFailure` in the returned
    dict instead of aborting the suite; ``strict=True`` re-raises the
    original error after retries are exhausted.

    Each benchmark fans its distribution work out per (mechanism,
    pfail) cell with plan-pass store probes — a warm rerun satisfies
    every cell from the store, an edited benchmark recomputes only its
    own stages.  ``mechanisms`` restricts the estimated set.
    ``batch_pfails`` (mechanism → pfail axis) opts the cell stages
    into the batched distribution kernel's pfail-axis fan-in, and
    ``batch_geometries`` (the line-size group of ``config.geometry``)
    opts the classify stages into the geometry-batched stacked kernel;
    see :func:`benchmark_dag`.
    """
    # Dedupe while preserving order: a repeated benchmark name is one
    # task (and one result entry), exactly like the memoised runner.
    benchmarks = tuple(dict.fromkeys(benchmarks))
    if scheduler is None:
        scheduler = PipelineScheduler(
            workers=workers,
            retry=retry if retry is not None else DEFAULT_RETRY_POLICY,
            strict=strict)
    # A single benchmark still fans out over its cells, but runs them
    # inline and lets the configuration's own worker width drive the
    # per-ILP batches instead (the historical behaviour).
    pool = workers > 1 and len(benchmarks) > 1
    estimator_workers = 1 if pool else config.workers
    from repro.pipeline.cellstore import CellStore

    cell_store = CellStore.resolve(config.cache)
    if cell_store is not None:
        # Cells persisted by pool workers of an earlier run in this
        # process live in shards the memoised handle has not seen;
        # fold them in before the plan pass probes.
        cell_store.refresh()
    classify_store = None
    if batch_geometries:
        from repro.analysis.store import ClassificationStore

        classify_store = ClassificationStore.resolve(config.cache)
        if classify_store is not None:
            classify_store.refresh()
    result_keys = {
        name: benchmark_dag(scheduler, name, config, target_probability,
                            mechanisms=mechanisms, pool=pool,
                            estimator_workers=estimator_workers,
                            cell_store=cell_store,
                            batch_pfails=batch_pfails,
                            batch_geometries=batch_geometries,
                            classify_store=classify_store)
        for name in benchmarks}
    results = scheduler.run(stats=stats)
    suite = {}
    for name in benchmarks:
        result = results[result_keys[name]]
        suite[name] = result
        if stats is not None:
            # A strict=False run maps a failed benchmark's key to a
            # TaskFailure sentinel, which carries no counters.
            stats.merge_counters(getattr(result, "solver_stats", None))
    return suite
