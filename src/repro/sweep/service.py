"""The multi-geometry sweep service (design-stage exploration).

Runs the full estimation suite for every (geometry, pfail) grid cell,
aggregates pWCET gain and hardware cost per reliability mechanism, and
extracts the Pareto-optimal design points.  The heavy lifting reuses
the suite's cell DAG (:func:`repro.pipeline.stages.suite_pipeline`)
and the two persistent stores (solve + classification): grid cells
that share work — notably all cells along the pfail axis of one
geometry, which share every ILP objective *and* every classification
table — are answered from the caches instead of recomputed.  The
distribution stage goes further: penalty points are
pfail-*independent*, so the first cell of each geometry computes its
whole selected pfail axis in one batched kernel pass
(:func:`repro.pwcet.batch.penalty_distributions`) and prefills the
persistent cell store — the remaining grid columns are then answered
whole from their content addresses, never touching solver, analysis
or convolution again.

The geometry axis of classification is batched the same way: the
grid's geometries fall into *line-size groups* (same memory-block
stream per CFG), and each benchmark's first cold classify stage of a
group runs ONE stacked Must/May fixpoint pair serving every geometry
of the group (:mod:`repro.analysis.geometry_batch`), prefilling the
sibling geometries' tables into the classification store.

Execution goes through the unified pipeline scheduler
(:class:`~repro.pipeline.scheduler.PipelineScheduler`): sequentially
the grid cells run as inline DAG tasks in grid order; with
``run_sweep(cell_workers=N)`` / ``repro sweep --workers N`` whole
line-size groups become pool tasks on the scheduler's shared worker
pool.  Cells are grouped so both reuse axes stay in-process (and all
of a group's store keys inside one task — parallel sweeps do the same
store traffic as sequential ones), the two disk stores dedup across
workers, and completed cells *stream* back through the ``on_cell``
callback as they finish —
the CLI renders incremental progress while the final report stays
byte-identical to the sequential path (results are assembled in
deterministic grid order, and each worker computes exactly what the
sequential loop would).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from repro.pipeline.resilience import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.pipeline.scheduler import PipelineScheduler

from repro.errors import ConfigurationError
from repro.hwcost.model import MechanismCostModel
from repro.pipeline.stages import SUITE_MECHANISMS
from repro.pwcet import EstimatorConfig
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.reliability import MECHANISMS
from repro.suite import EVALUATED_BENCHMARKS
from repro.sweep.grid import (DEFAULT_PFAILS, SweepCell, geometry_grid,
                              sweep_cells)

#: Mechanisms compared by the sweep (paper's three configurations).
SWEEP_MECHANISMS = tuple(mechanism.name for mechanism in MECHANISMS)


@dataclass(frozen=True)
class DesignPoint:
    """One (geometry, pfail, mechanism) point of the design space.

    ``mean_gain`` is the paper's gain notion — pWCET reduction versus
    the unprotected cache *of the same cell*, averaged over the
    benchmark suite.  ``mean_pwcet`` is the absolute average pWCET in
    cycles, comparable across geometries.  ``area_cells`` is the total
    silicon budget of the configuration in 6T-cell equivalents
    (baseline arrays plus the mechanism's hardening overhead).
    """

    cell: SweepCell
    mechanism: str
    mean_pwcet: float
    mean_gain: float
    area_cells: float
    area_overhead: float
    leakage_cells: float

    @property
    def geometry(self):
        return self.cell.geometry

    @property
    def pfail(self) -> float:
        return self.cell.pfail


@dataclass(frozen=True)
class FailedCell:
    """A grid cell a ``strict=False`` sweep could not complete.

    The cell emits no design points; ``benchmarks`` names the suite
    members that failed and ``reason`` carries the first failure's
    ``TypeName: message``.
    """

    cell: SweepCell
    benchmarks: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced."""

    points: tuple[DesignPoint, ...]
    benchmarks: tuple[str, ...]
    probability: float
    #: Planner counters summed over every estimation of the sweep.
    solver_totals: dict[str, float]
    #: Cells dropped by a ``strict=False`` partial run (grid order);
    #: empty on a complete sweep.
    failed: tuple[FailedCell, ...] = ()

    def cells(self) -> tuple[SweepCell, ...]:
        seen: dict[SweepCell, None] = {}
        for point in self.points:
            seen.setdefault(point.cell)
        return tuple(seen)

    def of_mechanism(self, mechanism: str) -> tuple[DesignPoint, ...]:
        return tuple(point for point in self.points
                     if point.mechanism == mechanism)


def pareto_front(points: tuple[DesignPoint, ...]
                 ) -> tuple[DesignPoint, ...]:
    """Non-dominated points of (hardware cost down, pWCET gain up).

    A point dominates another when it costs no more silicon and gains
    at least as much pWCET, strictly better in one of the two.  The
    front is returned cheapest-first.
    """
    front = []
    for candidate in points:
        dominated = False
        for other in points:
            if other is candidate:
                continue
            if (other.area_cells <= candidate.area_cells
                    and other.mean_gain >= candidate.mean_gain
                    and (other.area_cells < candidate.area_cells
                         or other.mean_gain > candidate.mean_gain)):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    front.sort(key=lambda point: (point.area_cells, -point.mean_gain))
    return tuple(front)


def _cell_points(cell: SweepCell, results,
                 mechanisms: tuple[str, ...] = SWEEP_MECHANISMS
                 ) -> tuple[DesignPoint, ...]:
    """The per-mechanism design points of one completed grid cell.

    ``mechanisms`` restricts which configurations emit a point
    (``--only-cells``); the paper's full set by default.
    """
    cost_model = MechanismCostModel(cell.geometry)
    points = []
    for mechanism in MECHANISMS:
        if mechanism.name not in mechanisms:
            continue
        cost = cost_model.cost_of(mechanism)
        pwcets = [result.pwcet(mechanism.name) for result in results]
        gains = [result.gain(mechanism.name) for result in results]
        points.append(DesignPoint(
            cell=cell,
            mechanism=mechanism.name,
            mean_pwcet=statistics.mean(pwcets),
            mean_gain=statistics.mean(gains),
            area_cells=cost.total_cell_equivalents,
            area_overhead=cost.area_overhead_ratio,
            leakage_cells=cost.leakage_equivalents))
    return tuple(points)


def _selection(only_cells, pfails):
    """Normalise ``--only-cells`` filters into pfail → mechanism map.

    Each filter is a ``(mechanism | None, pfail | None)`` pair —
    ``None`` is a wildcard on that axis.  Returns the mechanisms (in
    presentation order) selected at every surviving pfail; pfails no
    filter matches are dropped from the grid entirely.  With no
    filters the whole grid is selected.
    """
    if not only_cells:
        return {pfail: SWEEP_MECHANISMS for pfail in pfails}
    filters = []
    for mechanism, pfail in only_cells:
        if mechanism is not None and mechanism not in SWEEP_MECHANISMS:
            raise ConfigurationError(
                f"--only-cells: unknown mechanism {mechanism!r} "
                f"(choose from {', '.join(SWEEP_MECHANISMS)})")
        filters.append((mechanism, pfail))
    selection = {}
    for pfail in pfails:
        mechanisms = tuple(
            name for name in SWEEP_MECHANISMS
            if any((want_mech is None or want_mech == name)
                   and (want_pfail is None or want_pfail == pfail)
                   for want_mech, want_pfail in filters))
        if mechanisms:
            selection[pfail] = mechanisms
    if not selection:
        raise ConfigurationError(
            "--only-cells selected no cells: no filter matches any "
            f"grid pfail ({', '.join(format(p, 'g') for p in pfails)})")
    return selection


def _estimation_mechanisms(point_mechanisms: tuple[str, ...]
                           ) -> tuple[str, ...]:
    """The mechanism set a filtered cell must actually estimate.

    The unprotected baseline is always included (gain and the
    fault-free WCET are defined against it), in the suite's canonical
    order — so a filtered cell's selected estimates are bit-identical
    to the full run's.
    """
    return tuple(name for name in SUITE_MECHANISMS
                 if name == "none" or name in point_mechanisms)


def _batch_pfails(selection):
    """Per-mechanism pfail axes for the batched distribution kernel.

    The FMM penalty points are pfail-independent, so the first cell of
    a geometry can compute its mechanism's *whole* selected pfail axis
    in one batched pass and prefill the cell store for the remaining
    grid columns.  Each mechanism's axis holds exactly the pfails at
    which the selection estimates it (``--only-cells`` filtering
    included — unselected cells are never computed, batched or not);
    single-pfail axes are dropped (nothing to amortise).
    """
    axes: dict[str, list[float]] = {}
    for pfail, point_mechanisms in selection.items():
        for mechanism in _estimation_mechanisms(point_mechanisms):
            axes.setdefault(mechanism, []).append(pfail)
    return {mechanism: tuple(pfails)
            for mechanism, pfails in axes.items() if len(pfails) > 1}


def _run_cell_suite(cell_config, benchmarks, workers, probability,
                    mechanisms, batch_pfails, batch_geometries, strict,
                    retry):
    """One grid cell's suite run, straight through the pipeline.

    The runner's result memo is never consulted: it keys results by
    (benchmark, config, probability) only, so a subset-mechanism
    result must never land there, and a memoised result would carry
    another run's counters into the sweep's totals.  With
    ``strict=False`` failed benchmarks come back as
    :class:`~repro.experiments.runner.FailedBenchmark` entries.
    """
    from repro.experiments.runner import FailedBenchmark
    from repro.pipeline.resilience import TaskFailure
    from repro.pipeline.stages import suite_pipeline

    if workers is None:
        workers = cell_config.workers
    computed = suite_pipeline(tuple(benchmarks), cell_config, probability,
                              workers=workers, mechanisms=mechanisms,
                              batch_pfails=batch_pfails,
                              batch_geometries=batch_geometries,
                              strict=strict, retry=retry)
    return [FailedBenchmark(name=name, failure=computed[name])
            if isinstance(computed[name], TaskFailure)
            else computed[name]
            for name in benchmarks]


def _geometry_groups(geometries):
    """The grid's line-size groups, in first-appearance order.

    Geometries of one group share the memory-block stream of every
    CFG (``block_of`` depends only on the line size), which is what
    the stacked classification kernel batches over — and what makes
    the group the right pool fan-out unit: all of a group's
    classification store keys stay inside one task, so parallel
    sweeps do the same store traffic as sequential ones.
    """
    groups: dict[int, list] = {}
    for geometry in geometries:
        groups.setdefault(geometry.block_bytes, []).append(geometry)
    return tuple(tuple(group) for group in groups.values())


def _inner_width(group_count: int, cell_workers: int, workers) -> int:
    """Benchmark fan-out width inside each concurrently-running group.

    Width not consumed by the group fan-out goes to benchmark fan-out
    inside each group (bit-identical either way); an explicit
    ``workers`` request asks for at least that inner width — but the
    *product* of concurrent groups × inner workers is capped at
    ``cell_workers``, so a wide grid can never oversubscribe the
    requested budget (the pre-cap formula divided by the geometry
    count and multiplied across groups).
    """
    concurrent = min(group_count, cell_workers)
    inner = max(workers or 1, cell_workers // concurrent)
    if concurrent * inner > cell_workers:
        inner = max(1, cell_workers // concurrent)
    return inner


def _run_cell_group(item):
    """Pool entry point: every cell of one line-size group, in order.

    Grouping keeps both reuse axes inside one process: the pfail axis
    (shared ILP objectives and classification tables of one geometry)
    and the geometry axis (one stacked fixpoint pair classifies the
    whole group; the sibling geometries' cells read the prefilled
    tables back through the shared in-memory store handles).
    ``inner_workers`` is the leftover pool width the group fan-out did
    not consume; > 1 fans benchmarks of each cell out a second level,
    so no requested worker idles.
    """
    (group, selection, benchmarks, config, probability,
     inner_workers, strict, retry) = item
    batch_pfails = _batch_pfails(selection)
    batch_geometries = group if len(group) > 1 else None
    cells = []
    for geometry in group:
        for pfail, point_mechanisms in selection.items():
            cell_config = replace(config, geometry=geometry, pfail=pfail,
                                  workers=1)
            results = _run_cell_suite(
                cell_config, benchmarks, inner_workers, probability,
                _estimation_mechanisms(point_mechanisms), batch_pfails,
                batch_geometries, strict, retry)
            cells.append((SweepCell(geometry=geometry, pfail=pfail),
                          results))
    return cells


def run_sweep(geometries=None, *,
              pfails: tuple[float, ...] = DEFAULT_PFAILS,
              benchmarks: tuple[str, ...] = EVALUATED_BENCHMARKS,
              config: EstimatorConfig | None = None,
              workers: int | None = None,
              cell_workers: int = 1,
              on_cell=None,
              only_cells=None,
              probability: float = TARGET_EXCEEDANCE,
              strict: bool = True,
              retry: RetryPolicy | None = None,
              pipeline_stats=None) -> SweepResult:
    """Estimate the whole suite at every grid cell.

    ``config`` carries the non-swept parameters (timing model, solver
    mode, cache selector, default worker width); its geometry and
    pfail are overridden per cell.  ``workers`` fans *benchmarks* of
    one cell over a pool (sequential cell order); ``cell_workers > 1``
    fans whole line-size groups of cells out instead (the stacked
    classification kernel's batching unit), with the persistent stores
    as the cross-process dedup.  ``on_cell`` is
    invoked as ``on_cell(cell, points, completed, total)`` for every
    finished cell — in grid order sequentially, in completion order
    under ``cell_workers`` — so callers can stream the report.

    ``only_cells`` (a sequence of ``(mechanism | None, pfail | None)``
    filters, ``None`` wildcarding an axis) restricts the sweep to the
    matching (mechanism, pfail) cells: unmatched pfails leave the
    grid, unmatched mechanisms of surviving cells are neither
    estimated nor reported — but every selected point and Pareto front
    section is bit-identical to the full run's.

    Every cell runs the suite's cell DAG directly, never through the
    runner's in-process result memo, so the solver totals describe
    exactly the work the sweep performed — results memoised by other
    drivers carry *their* planner counters and are neither reused nor
    overwritten.  Cross-run reuse is the persistent stores' job, and
    that one is exact (store hits are counted by the stage that makes
    them).

    Resilience: transient faults (killed workers, broken pools) are
    retried under ``retry`` (default policy).  ``strict=False`` keeps
    the sweep alive past a permanently-failing cell: the cell emits no
    design points and is listed in ``SweepResult.failed`` (the report
    annotates it) while every other cell completes normally.
    ``pipeline_stats`` (a :class:`~repro.pipeline.scheduler
    .PipelineStats`) scopes the driving scheduler's run — retry /
    failure ledger and remote-store counters included — so the CLI
    can surface degradation notes for sweeps like it does for suites.
    """
    from repro.experiments.runner import FailedBenchmark, solver_totals

    if geometries is None:
        geometries = geometry_grid()
    if config is None:
        config = EstimatorConfig()
    geometries = tuple(geometries)
    selection = _selection(only_cells, tuple(pfails))
    pfails = tuple(selection)
    cells = sweep_cells(geometries, pfails)
    points_by_cell: dict[SweepCell, tuple[DesignPoint, ...]] = {}
    results_by_cell: dict[SweepCell, list] = {}
    failed_by_cell: dict[SweepCell, FailedCell] = {}
    completed = 0

    def finish(cell, results):
        nonlocal completed
        completed += 1
        complete = [result for result in results
                    if not isinstance(result, FailedBenchmark)]
        broken = [result for result in results
                  if isinstance(result, FailedBenchmark)]
        if broken:
            # The cell's points would silently average over a partial
            # benchmark set — drop the cell and annotate instead.
            failed_by_cell[cell] = FailedCell(
                cell=cell,
                benchmarks=tuple(result.name for result in broken),
                reason=broken[0].failure.error)
            points_by_cell[cell] = ()
        else:
            points_by_cell[cell] = _cell_points(cell, complete,
                                                selection[cell.pfail])
        results_by_cell[cell] = complete
        if on_cell is not None:
            on_cell(cell, points_by_cell[cell], completed, len(cells))

    groups = _geometry_groups(geometries)
    group_of = {geometry: group for group in groups for geometry in group}
    if cell_workers > 1 and len(groups) > 1:
        inner_workers = _inner_width(len(groups), cell_workers, workers)
        scheduler = PipelineScheduler(
            workers=cell_workers,
            retry=retry if retry is not None else DEFAULT_RETRY_POLICY,
            strict=strict)
        for position, group in enumerate(groups):
            scheduler.add(
                f"cells:{position}", _run_cell_group,
                args=((group, selection, benchmarks, config,
                       probability, inner_workers, strict, retry),),
                stage="sweep-cells", pool=True)

        def group_done(_key, group_cells, _completed, _total):
            for cell, results in group_cells:
                finish(cell, results)

        scheduler.run(stats=pipeline_stats, on_task=group_done)
    else:
        if workers is None and cell_workers > 1:
            # A single-group grid leaves nothing to fan out at group
            # level; spend the requested width on benchmarks instead
            # of silently dropping it.
            workers = cell_workers
        scheduler = PipelineScheduler(
            workers=1,
            retry=retry if retry is not None else DEFAULT_RETRY_POLICY,
            strict=strict)
        batch_pfails = _batch_pfails(selection)
        for position, cell in enumerate(cells):
            cell_config = replace(config, geometry=cell.geometry,
                                  pfail=cell.pfail)
            cell_group = group_of[cell.geometry]
            batch_geometries = cell_group if len(cell_group) > 1 else None

            def run_cell(cell=cell, cell_config=cell_config,
                         batch_geometries=batch_geometries):
                mechanisms = _estimation_mechanisms(selection[cell.pfail])
                return (cell, _run_cell_suite(cell_config, benchmarks,
                                              workers, probability,
                                              mechanisms, batch_pfails,
                                              batch_geometries, strict,
                                              retry))

            scheduler.add(f"cell:{position}", run_cell, stage="sweep-cell")

        def cell_done(_key, value, _completed, _total):
            finish(*value)

        scheduler.run(stats=pipeline_stats, on_task=cell_done)

    # Deterministic assembly: grid order, regardless of completion order.
    points: list[DesignPoint] = []
    all_results = []
    for cell in cells:
        points.extend(points_by_cell[cell])
        all_results.extend(results_by_cell[cell])
    return SweepResult(points=tuple(points), benchmarks=tuple(benchmarks),
                       probability=probability,
                       solver_totals=solver_totals(all_results),
                       failed=tuple(failed_by_cell[cell] for cell in cells
                                    if cell in failed_by_cell))
