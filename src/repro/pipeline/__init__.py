"""The unified estimation pipeline: typed artifacts + one DAG scheduler.

The paper's estimation flow (program → CFG → cache classification →
FMM → ILP solve → pWCET distribution) used to be orchestrated three
different ways — inside the estimator, again in the experiment runner,
and a third time in the sweep service, each with its own worker pool.
This package makes the pipeline an explicit, schedulable artifact
graph instead of a call stack:

``artifacts``
    Frozen stage outputs (:class:`CfgArtifact`,
    :class:`ClassificationArtifact`, :class:`SolveArtifact`,
    :class:`FmmArtifact`, :class:`DistributionArtifact`,
    :class:`CellArtifact`), each keyed by the digest its stage's
    persistent store already uses.

``scheduler``
    :class:`PipelineScheduler` — the dependency-DAG executor with one
    shared worker pool that interleaves classification fixpoints with
    ILP solve batches across benchmarks, geometries and fault counts,
    steals queued pool tasks into the parent when every worker is
    busy, and runs an incremental-invalidation ``plan()`` pass that
    satisfies content-addressed stages from their persistent stores;
    :class:`PipelineStats` — per-run merged solver + analysis
    counters plus cell/from-store accounting and per-stage timings.

``stages``
    Pool-safe stage task bodies and the suite DAG builders
    (:func:`~repro.pipeline.stages.suite_pipeline`,
    :func:`~repro.pipeline.stages.benchmark_dag`).

``resilience``
    :class:`~repro.pipeline.resilience.RetryPolicy` (attempt budget,
    deterministic exponential backoff, per-stage timeouts),
    failure classification (transient worker crashes vs permanent
    solver errors) and the structured
    :class:`~repro.pipeline.resilience.FailureReport` that
    ``strict=False`` partial runs attach to their
    :class:`PipelineStats`.

``cellstore``
    :class:`~repro.pipeline.cellstore.CellStore` — the persistent,
    content-addressed store of finished (mechanism, pfail) cells the
    plan pass probes.

The estimator (:mod:`repro.pwcet.estimator`), the suite runner
(:mod:`repro.experiments.runner`) and the sweep service
(:mod:`repro.sweep.service`) all execute through this scheduler; the
suite/sweep cell DAG is property-tested bit-identical to the fused
estimator.
"""

from repro.pipeline.artifacts import (CELL_SCHEMA_VERSION, CellArtifact,
                                      CfgArtifact, ClassificationArtifact,
                                      DistributionArtifact, FmmArtifact,
                                      SolveArtifact, StageArtifact)
from repro.pipeline.resilience import (DEFAULT_RETRY_POLICY, FailureReport,
                                       RetryPolicy, StageTimeout,
                                       TaskFailure, classify_failure)
from repro.pipeline.scheduler import PipelineScheduler, PipelineStats
from repro.pipeline.stages import (SUITE_MECHANISMS, benchmark_dag,
                                   cell_stage, classify_stage,
                                   result_stage, solve_stage,
                                   suite_pipeline)

__all__ = [
    "CELL_SCHEMA_VERSION",
    "CellArtifact",
    "CfgArtifact",
    "ClassificationArtifact",
    "DistributionArtifact",
    "FmmArtifact",
    "SolveArtifact",
    "StageArtifact",
    "PipelineScheduler",
    "PipelineStats",
    "DEFAULT_RETRY_POLICY",
    "FailureReport",
    "RetryPolicy",
    "StageTimeout",
    "TaskFailure",
    "classify_failure",
    "SUITE_MECHANISMS",
    "benchmark_dag",
    "cell_stage",
    "classify_stage",
    "result_stage",
    "solve_stage",
    "suite_pipeline",
]
