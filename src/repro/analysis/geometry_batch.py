"""Geometry-batched classification: one stacked fixpoint per line size.

The sweep's geometry axis re-analyses the *same* CFG over and over:
``block_of(address)`` depends on the geometry only through the line
size, so every geometry of one line-size group observes the identical
memory-block reference stream.
:class:`~repro.analysis.vectorized.StackedAgeVectorEngine` lays a whole
group out as one block-diagonal age vector and runs a single Must/May
fixpoint pair over it (see :mod:`repro.analysis.vectorized`).

:func:`grouped_analysis` is the classify stage's entry point: it
builds one :class:`~repro.analysis.classify.CacheAnalysis` per
geometry of the group — all sharing one
:class:`~repro.analysis.classify.AnalysisStats`, one loop forest, one
stacked engine (under the default ``batch`` engine) and one group-wide
SRB hit set — computes every geometry's required tables, and writes
them through the persistent
:class:`~repro.analysis.store.ClassificationStore` under each
geometry's own content address.  Sibling geometries' classify stages
then decode their tables as warm store hits instead of running
fixpoints.  Under ``REPRO_ANALYSIS_ENGINE=dict`` the *same*
orchestration runs with the per-geometry dict oracle — the knob
selects only the kernel, so store traffic, tables and reports stay
byte-identical across the two engines (property-tested).
"""

from __future__ import annotations

from repro.analysis.classify import AnalysisStats, CacheAnalysis
from repro.analysis.references import all_references
from repro.analysis.vectorized import StackedAgeVectorEngine, srb_hit_keys
from repro.cache import CacheGeometry
from repro.cfg import CFG, find_loops


class BatchedAnalysisStats(AnalysisStats):
    """The shared counters of one batched line-size group.

    Adds the batching counters to the flat dict the drivers
    aggregate.  Only batched groups ever instantiate this class, so
    the keys are presence-gated exactly like ``dist_batched_rows``:
    an unbatched benchmark's counter dict stays key-identical to the
    fused estimator's summary.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Sibling geometries served alongside the lead (tables + SRB
        #: hit sets prefilled into the classification store).
        self.classify_batched_rows = 0
        #: Line-size groups this stage batched (always 1 per stage;
        #: sums to the sweep-wide group count).
        self.geometry_groups = 0

    def as_dict(self) -> dict[str, float]:
        return {
            **super().as_dict(),
            "classify_batched_rows": self.classify_batched_rows,
            "geometry_groups": self.geometry_groups,
        }


class GroupSrbHits:
    """Lazily computed SRB hit set shared by a line-size group.

    The Shared Reliable Buffer is a 1-set/1-way cache: its Must
    analysis depends on the geometry only through the line size, so
    one fixpoint serves every stacked geometry.  Each geometry's
    :meth:`~repro.analysis.classify.CacheAnalysis.srb_always_hits`
    still performs its own store probe and write-through (the hit set
    is keyed per full geometry — see the note there), so store traffic
    is identical to the per-geometry path; only the fixpoint is
    shared.  The one fixpoint is counted into the group's shared stats
    on first demand.
    """

    def __init__(self, cfg: CFG, block_bytes: int,
                 stats: AnalysisStats) -> None:
        self._cfg = cfg
        self._block_bytes = block_bytes
        self._stats = stats
        self._hits: tuple[tuple[int, int], ...] | None = None

    def __call__(self) -> tuple[tuple[int, int], ...]:
        if self._hits is None:
            self._hits = srb_hit_keys(self._cfg, self._block_bytes,
                                      self._stats)
        return self._hits


def grouped_analysis(cfg: CFG, geometries, mechanisms, *,
                     cache: str | None = None,
                     engine: str | None = None) -> CacheAnalysis:
    """Classify a whole line-size group; return the lead analysis.

    ``geometries`` is the group in batch order, lead (the requesting
    stage's own geometry) first.  Every geometry's required tables
    (each mechanism's degraded associativities at that geometry's own
    way count) plus the SRB hit set are computed and written through
    the persistent store under the geometry's own content addresses —
    so sibling stages decode them as warm hits.  All analyses share
    one :class:`~repro.analysis.classify.AnalysisStats` (the work is
    attributed to the producing stage) and one loop forest.

    The engine knob selects only the fixpoint kernel: ``batch`` (the
    default) runs one stacked pair plus one SRB fixpoint for the whole
    group, ``dict`` runs the per-geometry oracle — the orchestration
    (which tables are computed, in which order, with which store
    traffic) is identical, which is what keeps reports byte-identical
    across engines.
    """
    from repro.pipeline.stages import required_classifications

    geometries = tuple(geometries)
    cfg.validate()
    forest = find_loops(cfg)
    stats = BatchedAnalysisStats()
    stats.classify_batched_rows = len(geometries) - 1
    stats.geometry_groups = 1
    references = {geometry: all_references(cfg, geometry)
                  for geometry in geometries}
    if engine is None:
        engine = CacheAnalysis.selected_engine()
    analyses: dict[CacheGeometry, CacheAnalysis] = {}
    if engine == "batch":
        stacked = StackedAgeVectorEngine(cfg, geometries, references)
        srb_supplier = GroupSrbHits(cfg, geometries[0].block_bytes, stats)
        for position, geometry in enumerate(geometries):
            analyses[geometry] = CacheAnalysis(
                cfg, geometry, forest, cache=cache, engine=engine,
                references=references[geometry], stats=stats,
                vector_engine=stacked.geometry_slice(position),
                srb_supplier=srb_supplier)
    else:
        for geometry in geometries:
            analyses[geometry] = CacheAnalysis(
                cfg, geometry, forest, cache=cache, engine=engine,
                references=references[geometry], stats=stats)
    for geometry in geometries:
        analysis = analyses[geometry]
        assocs, needs_srb = required_classifications(mechanisms,
                                                     geometry.ways)
        for assoc in assocs:
            analysis.classification(assoc)
        if needs_srb:
            analysis.srb_always_hits()
    return analyses[geometries[0]]
