"""End-to-end probabilistic WCET estimation.

:class:`PWCETEstimator` glues the whole pipeline together for one
program and one hardware configuration:

1. static cache analysis and fault-free IPET WCET (§II-B);
2. fault miss map per reliability mechanism (§II-C, §III-B);
3. per-set penalty distributions (values ``FMM[s][f]``, probabilities
   eq. 2 or eq. 3) convolved across sets (Figure 1.b);
4. pWCET = fault-free WCET + memory latency * penalty quantile at the
   target exceedance probability (the paper uses 1e-15).

All intermediate artefacts are memoised: the estimator runs the cache
analysis once per associativity and builds a single flow polytope that
every ILP (WCET and all FMM entries) reuses.  Solved objectives also
persist across runs through the content-addressed
:class:`~repro.solve.store.SolveStore` (``REPRO_CACHE``,
``EstimatorConfig(cache=...)``): a warm rerun of the same estimation
performs zero backend ILP solves.

Execution goes through the unified pipeline
(:mod:`repro.pipeline`): each estimation batch is a typed-artifact DAG
(cfg → classification → {WCET, FMM per mechanism} → distribution →
estimate) run by a :class:`~repro.pipeline.scheduler.PipelineScheduler`
whose pool also serves the planner's batched ILP solves — with
``workers > 1`` there is no private pool and no phase barrier between
the classification fixpoints and the solve batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis import CacheAnalysis
from repro.cache import CacheGeometry
from repro.cfg import CFG
from repro.errors import EstimationError
from repro.faults import FaultProbabilityModel
from repro.fmm import FaultMissMap, compute_fault_miss_map
from repro.ipet import FlowModel, TimingModel, compute_wcet
from repro.minic import CompiledProgram
from repro.pipeline.artifacts import (DistributionArtifact, FmmArtifact,
                                      SolveArtifact)
from repro.pipeline.scheduler import PipelineScheduler
from repro.pwcet.batch import penalty_distributions
from repro.pwcet.distribution import DiscreteDistribution
from repro.pwcet.exceedance import ExceedanceCurve
from repro.reliability import ReliabilityMechanism, mechanism_by_name
from repro.solve.store import SolveStore, store_context
from repro.util import check_probability

#: Exceedance probability used throughout the paper's evaluation
#: (1e-15 per task activation, aerospace commercial level).
TARGET_EXCEEDANCE = 1e-15


@dataclass(frozen=True)
class EstimatorConfig:
    """Hardware-side parameters of an estimation run.

    Defaults are the paper's experimental setup (§IV-A): 1 KB 4-way
    16 B-line LRU instruction cache, 1-cycle cache / 100-cycle memory
    latency, ``pfail = 1e-4``.
    """

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry.from_size(1024, 4, 16))
    timing: TimingModel = field(default_factory=TimingModel)
    pfail: float = 1e-4
    #: Solve LP relaxations instead of ILPs (sound, looser, faster).
    relaxed: bool = False
    #: Process-pool width for batched ILP solving (1 = in-process).
    #: Execution policy, not a hardware parameter: results are
    #: identical for any width, so it is excluded from equality (and
    #: hence from the experiment runner's memoisation key).
    workers: int = field(default=1, compare=False)
    #: Persistent solve-cache selector: ``None`` defers to the
    #: ``REPRO_CACHE`` environment variable, ``"off"`` disables
    #: persistence, anything else is a store directory.  Execution
    #: policy like ``workers``: cached values are bit-identical to
    #: fresh solves, so the field is excluded from equality.
    cache: str | None = field(default=None, compare=False)

    def fault_model(self) -> FaultProbabilityModel:
        return FaultProbabilityModel(geometry=self.geometry,
                                     pfail=self.pfail)


def penalty_distribution(fmm: FaultMissMap,
                         mechanism: ReliabilityMechanism,
                         fault_model: FaultProbabilityModel,
                         sets: int) -> DiscreteDistribution:
    """Whole-cache fault penalty distribution, in misses.

    Pure function of (FMM, mechanism, fault model): per-set penalty
    points weighted by the mechanism's fault pmf (eq. 2 / eq. 3),
    convolved across sets (Figure 1.b).  Module-level so the cell
    stage of the pipeline (:func:`repro.pipeline.stages.cell_stage`)
    and :meth:`PWCETEstimator.penalty_distribution` share one
    definition — bit-identity between the two schedules is by
    construction, not by parallel maintenance.

    Dispatches through the distribution engine selected by
    ``REPRO_DISTRIBUTION_ENGINE`` (:mod:`repro.pwcet.batch`): the
    default batched kernel as a one-row batch, or the scalar oracle
    :func:`~repro.pwcet.batch.penalty_distribution_scalar` — the two
    are property-tested bit-identical, so the engine choice can never
    change a result.
    """
    return penalty_distributions(fmm, mechanism, (fault_model,), sets)[0]


@dataclass(frozen=True)
class PWCETEstimate:
    """Everything known about one (program, mechanism) estimation."""

    program_name: str
    mechanism_name: str
    wcet_fault_free: int
    #: Fault-penalty distribution in *misses*.
    penalty_misses: DiscreteDistribution
    timing: TimingModel
    fmm: FaultMissMap = field(repr=False)
    #: Probability mass excluded by the analysis' assumptions (0 for
    #: the paper's mechanisms; > 0 for refined analyses like ``srb+``).
    exceedance_correction: float = 0.0

    def pwcet(self, probability: float = TARGET_EXCEEDANCE) -> int:
        """pWCET in cycles at the given exceedance probability."""
        check_probability(probability, "probability", allow_zero=False,
                          allow_one=False)
        effective = probability - self.exceedance_correction
        if effective <= 0.0:
            raise EstimationError(
                f"target probability {probability:g} is below the "
                f"analysis' excluded mass "
                f"{self.exceedance_correction:g}; the "
                f"{self.mechanism_name!r} analysis cannot certify this "
                "level — use the baseline 'srb' mechanism instead")
        quantile = self.penalty_misses.quantile_exceedance(effective)
        return self.wcet_fault_free + quantile * self.timing.memory_cycles

    def exceedance_curve(self) -> ExceedanceCurve:
        """The Figure 3 curve for this estimate."""
        curve = ExceedanceCurve.from_penalty_distribution(
            self.penalty_misses, self.wcet_fault_free,
            self.timing.memory_cycles,
            label=f"{self.program_name}/{self.mechanism_name}")
        if self.exceedance_correction == 0.0:
            return curve
        lifted = np.minimum(
            curve.probabilities + self.exceedance_correction, 1.0)
        return ExceedanceCurve(values=curve.values, probabilities=lifted,
                               label=curve.label)

    def penalty_quantile_misses(self,
                                probability: float = TARGET_EXCEEDANCE
                                ) -> int:
        return self.penalty_misses.quantile_exceedance(probability)


class PWCETEstimator:
    """Memoising pipeline driver for one program + configuration."""

    def __init__(self, program: CompiledProgram | CFG,
                 config: EstimatorConfig | None = None,
                 name: str | None = None, *,
                 scheduler: PipelineScheduler | None = None,
                 analysis: CacheAnalysis | None = None) -> None:
        if config is None:
            config = EstimatorConfig()
        cfg = program.cfg if isinstance(program, CompiledProgram) else program
        self._cfg = cfg
        self._config = config
        self._name = name if name is not None else cfg.name
        if analysis is not None:
            # An injected analysis (the pipeline's inline classify
            # stage handing its work over) must describe exactly this
            # estimation context.
            if analysis.cfg is not cfg \
                    or analysis.geometry != config.geometry:
                raise EstimationError(
                    "injected analysis belongs to a different "
                    "(CFG, geometry) than this estimator's")
            self._analysis = analysis
        else:
            #: The cache selector is shared with the solve store: one
            #: knob (``cache=`` / ``REPRO_CACHE``) controls both
            #: the classification store and the ILP store.
            self._analysis = CacheAnalysis(cfg, config.geometry,
                                           cache=config.cache)
        self._flow_model = FlowModel(cfg, self._analysis.forest)
        #: One scheduler per estimator (or an injected shared one):
        #: estimation batches run as artifact DAGs on it, and its pool
        #: doubles as the planner's solve executor — classification
        #: stages and ILP batches share one set of workers.
        self._scheduler = (scheduler if scheduler is not None
                           else PipelineScheduler(workers=config.workers))
        #: One planner per estimator: WCET and every mechanism's FMM
        #: dedup against the same canonical-objective cache.
        self._planner = self._flow_model.planner
        self._planner.workers = config.workers
        self._planner.executor = self._scheduler
        #: Cross-run persistence: already-solved objectives of this
        #: (program, geometry, timing) context are answered from the
        #: disk store instead of the ILP backend.
        self._store = SolveStore.resolve(config.cache)
        if self._store is not None:
            self._planner.attach_store(
                self._store,
                store_context(cfg.digest(), config.geometry, config.timing))
        self._fault_model = config.fault_model()
        self._wcet_fault_free: int | None = None
        self._fmm_cache: dict[str, FaultMissMap] = {}
        self._estimates: dict[str, PWCETEstimate] = {}

    @property
    def config(self) -> EstimatorConfig:
        return self._config

    @property
    def analysis(self) -> CacheAnalysis:
        return self._analysis

    @property
    def fault_model(self) -> FaultProbabilityModel:
        return self._fault_model

    @property
    def name(self) -> str:
        return self._name

    @property
    def solver_stats(self):
        """Planner counters (solved/pruned/deduped) for this estimator."""
        return self._planner.stats

    @property
    def analysis_stats(self):
        """Cache-analysis counters (fixpoints run, store traffic)."""
        return self._analysis.stats

    def stats_summary(self) -> dict[str, float]:
        """Solver and analysis counters merged into one flat dict.

        This is what suite/sweep drivers aggregate: together the two
        families prove the warm-run property end to end (zero backend
        ILPs *and* zero abstract-interpretation fixpoints).  The
        ``fault_pmf_*`` pair snapshots the process-wide fault-pmf memo
        (:func:`repro.reliability.mechanism.fault_pmf_cache_stats`) —
        cumulative cache diagnostics, not per-run work, so counter
        merges skip them (:func:`repro.pipeline.scheduler
        .is_run_counter`).  The ``*_corrupt_skipped`` triple
        snapshots each persistent store's silent-repair count
        (shard lines dropped as torn/corrupt and recomputed) — same
        handle-cumulative scope, same merge-skip treatment — so store
        repair is observable instead of silent.
        """
        from repro.pipeline.cellstore import CellStore
        from repro.reliability.mechanism import fault_pmf_cache_stats

        pmf_stats = fault_pmf_cache_stats()
        classify_store = self._analysis.store
        cell_store = CellStore.resolve(self._config.cache)
        return {**self._planner.stats.as_dict(),
                **self._analysis.stats.as_dict(),
                "fault_pmf_hits": pmf_stats.hits,
                "fault_pmf_misses": pmf_stats.misses,
                "fault_pmf_evicted": pmf_stats.evicted,
                "store_corrupt_skipped":
                    self._store.stats.corrupt_skipped
                    if self._store is not None else 0,
                "classify_store_corrupt_skipped":
                    classify_store.corrupt_skipped
                    if classify_store is not None else 0,
                "cell_store_corrupt_skipped":
                    cell_store.corrupt_skipped
                    if cell_store is not None else 0}

    @property
    def store(self):
        """The persistent solve store in use (``None`` when disabled)."""
        return self._store

    # ------------------------------------------------------------------
    def fault_free_wcet(self) -> int:
        """The deterministic WCET on a fault-free cache (§II-B)."""
        if self._wcet_fault_free is None:
            result = compute_wcet(
                self._cfg, self._analysis.classification(),
                self._config.timing, flow_model=self._flow_model,
                relaxed=self._config.relaxed, planner=self._planner)
            self._wcet_fault_free = result.cycles
        return self._wcet_fault_free

    def fault_miss_map(self,
                       mechanism: ReliabilityMechanism | str) -> FaultMissMap:
        mechanism = self._resolve(mechanism)
        if mechanism.name not in self._fmm_cache:
            self._fmm_cache[mechanism.name] = compute_fault_miss_map(
                self._analysis, mechanism, flow_model=self._flow_model,
                relaxed=self._config.relaxed, planner=self._planner)
        return self._fmm_cache[mechanism.name]

    def penalty_distribution(self, mechanism: ReliabilityMechanism | str
                             ) -> DiscreteDistribution:
        """Whole-cache fault penalty distribution, in misses."""
        mechanism = self._resolve(mechanism)
        return penalty_distribution(self.fault_miss_map(mechanism),
                                    mechanism, self._fault_model,
                                    self._config.geometry.sets)

    def estimate(self, mechanism: ReliabilityMechanism | str
                 ) -> PWCETEstimate:
        """Full pWCET estimate for one mechanism (memoised)."""
        mechanism = self._resolve(mechanism)
        if mechanism.name not in self._estimates:
            self._run_pipeline((mechanism,))
        return self._estimates[mechanism.name]

    def estimate_all(self) -> dict[str, PWCETEstimate]:
        """Estimates for the paper's three configurations."""
        pending = tuple(self._resolve(name) for name in ("none", "srb", "rw")
                        if name not in self._estimates)
        if pending:
            self._run_pipeline(pending)
        return {name: self._estimates[name] for name in ("none", "srb", "rw")}

    # -- the estimation DAG --------------------------------------------
    def _run_pipeline(self, mechanisms: tuple[ReliabilityMechanism, ...]
                      ) -> None:
        """One estimation batch as a typed-artifact DAG.

        Stages (inline closures over this estimator's memoised state;
        the planner's batched ILPs fan out over the scheduler's pool):
        classification → WCET and, per mechanism, FMM → distribution →
        estimate.  Inline execution follows submission order, which is
        exactly the historical fused call order — the DAG changes
        *where* work can run, never what is computed.
        """
        from repro.pipeline.stages import classification_artifact
        from repro.solve.store import store_context

        scheduler = self._scheduler
        context = store_context(self._cfg.digest(), self._config.geometry,
                                self._config.timing)
        scheduler.add(
            "classify",
            lambda: classification_artifact(
                self._analysis, self._name, mechanisms,
                carry_tables=False),
            stage="classify")
        scheduler.add(
            "wcet",
            lambda _classify: SolveArtifact(
                key=SolveArtifact.derive_key(context),
                wcet_cycles=self.fault_free_wcet()),
            deps=("classify",), stage="solve")
        for mechanism in mechanisms:
            name = mechanism.name
            scheduler.add(
                f"fmm:{name}",
                lambda _classify, mechanism=mechanism: FmmArtifact(
                    key=FmmArtifact.derive_key(context, mechanism.name),
                    mechanism=mechanism.name,
                    fmm=self.fault_miss_map(mechanism)),
                deps=("classify",), stage="solve")
            scheduler.add(
                f"distribution:{name}",
                lambda _fmm, mechanism=mechanism: DistributionArtifact(
                    key=DistributionArtifact.derive_key(
                        context, mechanism.name, self._config.pfail),
                    mechanism=mechanism.name,
                    pfail=self._config.pfail,
                    distribution=self.penalty_distribution(mechanism)),
                deps=(f"fmm:{name}",), stage="distribution")
            scheduler.add(
                f"estimate:{name}",
                lambda wcet, distribution, mechanism=mechanism:
                    PWCETEstimate(
                        program_name=self._name,
                        mechanism_name=mechanism.name,
                        wcet_fault_free=wcet.wcet_cycles,
                        penalty_misses=distribution.distribution,
                        timing=self._config.timing,
                        fmm=self.fault_miss_map(mechanism),
                        exceedance_correction=
                            mechanism.exceedance_correction(
                                self._fault_model,
                                self._config.geometry.sets)),
                deps=("wcet", f"distribution:{name}"), stage="estimate")
        results = scheduler.run()
        for mechanism in mechanisms:
            self._estimates[mechanism.name] = \
                results[f"estimate:{mechanism.name}"]

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(mechanism: ReliabilityMechanism | str
                 ) -> ReliabilityMechanism:
        if isinstance(mechanism, str):
            return mechanism_by_name(mechanism)
        if not isinstance(mechanism, ReliabilityMechanism):
            raise EstimationError(
                f"expected a mechanism or name, got {mechanism!r}")
        return mechanism
