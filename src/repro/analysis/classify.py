"""CHMC classification: the facade combining Must, May and Persistence.

:class:`CacheAnalysis` produces a :class:`ClassificationTable` at any
requested associativity (the fault-aware pipeline needs every value
from ``W`` down to ``0``), with the priority of the paper: always-hit
beats first-miss beats always-miss beats not-classified.

Two engines compute the underlying Must/May verdicts:

* ``"batch"`` (default) — the numpy age-vector engine of
  :mod:`repro.analysis.vectorized`: one Must and one May fixpoint at
  the nominal associativity answer *every* degraded associativity by
  age thresholding.  A single geometry runs a one-geometry stack; when
  the sweep hands a classify stage a whole line-size group
  (:mod:`repro.analysis.geometry_batch`), ONE stacked fixpoint pair
  (plus one shared SRB fixpoint) serves every geometry of the group;
* ``"dict"`` — the classic per-set dict implementation
  (:class:`~repro.analysis.must.MustAnalysis` /
  :class:`~repro.analysis.may.MayAnalysis`), kept as the reference
  oracle; it re-runs both fixpoints per associativity.

Select with the ``engine`` argument or ``REPRO_ANALYSIS_ENGINE``.
Results are identical by construction (property-tested in
``tests/test_analysis_vectorized.py``).

Classification tables also persist across runs through the
content-addressed :class:`~repro.analysis.store.ClassificationStore`
(``REPRO_CACHE`` / ``cache=...``): a warm run performs **zero**
fixpoints, mirroring the solve store's zero-backend-ILP property.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.analysis.chmc import (ALWAYS_HIT, ALWAYS_MISS, NOT_CLASSIFIED,
                                 Chmc, Classification)
from repro.analysis.may import MayAnalysis
from repro.analysis.must import MustAnalysis
from repro.analysis.persistence import PersistenceAnalysis
from repro.analysis.references import Reference, all_references
from repro.analysis.store import (ClassificationStore, classification_key,
                                  decode_table, encode_table)
from repro.analysis.vectorized import StackedAgeVectorEngine, srb_hit_keys
from repro.cache import CacheGeometry
from repro.cfg import CFG, LoopForest, find_loops
from repro.errors import AnalysisError

#: Environment variable selecting the analysis engine.
ENGINE_ENV = "REPRO_ANALYSIS_ENGINE"
_ENGINES = ("batch", "dict")


@dataclass
class AnalysisStats:
    """Work counters of one :class:`CacheAnalysis` instance.

    Flow into :class:`~repro.experiments.runner.BenchmarkResult`
    alongside the solver counters, so suite/sweep drivers can prove
    properties like "the warm rerun ran zero fixpoints".
    """

    #: Abstract-interpretation fixpoints actually run (Must and May
    #: count separately; the SRB pre-analysis counts one).
    fixpoints_run: int = 0
    #: Tables computed by an engine (cold work).
    tables_built: int = 0
    #: Tables decoded from the persistent classification store.
    classify_store_hits: int = 0
    #: Store lookups that missed (followed by a cold computation).
    classify_store_misses: int = 0
    #: Tables appended to the store after a cold computation.
    classify_store_writes: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "fixpoints_run": self.fixpoints_run,
            "tables_built": self.tables_built,
            "classify_store_hits": self.classify_store_hits,
            "classify_store_misses": self.classify_store_misses,
            "classify_store_writes": self.classify_store_writes,
        }


class ClassificationTable:
    """Per-reference classifications at one associativity."""

    def __init__(self, assoc: int,
                 table: dict[int, tuple[Classification, ...]],
                 references: dict[int, tuple[Reference, ...]]) -> None:
        self.assoc = assoc
        self._table = table
        self._references = references

    def of_block(self, block_id: int) -> tuple[Classification, ...]:
        return self._table[block_id]

    def of(self, block_id: int, index: int) -> Classification:
        return self._table[block_id][index]

    def references(self, block_id: int) -> tuple[Reference, ...]:
        return self._references[block_id]

    def items(self):
        """Yield (reference, classification) over the whole program."""
        for block_id, classifications in self._table.items():
            for reference, classification in zip(
                    self._references[block_id], classifications):
                yield reference, classification

    def count_by_chmc(self) -> dict[str, int]:
        """Histogram of classifications (for reports and tests)."""
        histogram: dict[str, int] = {}
        for _reference, classification in self.items():
            key = classification.chmc.value
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def encoded(self) -> dict:
        """The table in the classification store's canonical encoding.

        This is the transport format of the pipeline's
        :class:`~repro.pipeline.artifacts.ClassificationArtifact`: the
        exact JSON document the persistent store would hold, so an
        artifact crossing a process boundary round-trips through the
        same (property-tested) codec as a warm store read.
        """
        return encode_table(self._table)


class CacheAnalysis:
    """Runs and memoises the cache analyses of one (CFG, geometry) pair.

    ``cache`` selects the persistent classification store (same
    convention as the solve cache: ``None`` defers to
    ``REPRO_CACHE``, ``"off"`` disables, anything else is a
    directory).  ``engine`` picks the Must/May implementation
    (``"batch"``/``"dict"``; default:
    ``REPRO_ANALYSIS_ENGINE``, else ``"batch"``).

    :func:`~repro.analysis.geometry_batch.grouped_analysis` injects
    the sharing plumbing of a line-size group through the keyword-only
    hooks: precomputed ``references``, a shared ``stats`` sink, a
    ``vector_engine`` facade (one geometry's slice of the stacked
    engine) and an ``srb_supplier`` computing the group's single SRB
    hit set.  Left at ``None``, every hook falls back to the
    self-contained per-geometry behaviour.
    """

    def __init__(self, cfg: CFG, geometry: CacheGeometry,
                 forest: LoopForest | None = None, *,
                 cache: str | None = None,
                 engine: str | None = None,
                 references: dict[int, tuple[Reference, ...]] | None = None,
                 stats: AnalysisStats | None = None,
                 vector_engine=None,
                 srb_supplier=None) -> None:
        cfg.validate()
        self._cfg = cfg
        self._geometry = geometry
        self._forest = forest if forest is not None else find_loops(cfg)
        self._references = references if references is not None \
            else all_references(cfg, geometry)
        #: Built lazily: a warm run decodes every table from the store
        #: and never needs the conflict-counting precomputation.
        self._persistence: PersistenceAnalysis | None = None
        self._tables: dict[int, ClassificationTable] = {}
        if engine is None:
            engine = self.selected_engine()
        if engine not in _ENGINES:
            raise AnalysisError(
                f"unknown analysis engine {engine!r}; expected one of "
                f"{_ENGINES}")
        self._engine_name = engine
        self._vector = vector_engine
        self._srb_supplier = srb_supplier
        self._store = ClassificationStore.resolve(cache)
        self._digest: str | None = None
        self._srb_hits: frozenset[tuple[int, int]] | None = None
        self.stats = stats if stats is not None else AnalysisStats()

    @staticmethod
    def selected_engine() -> str:
        """The engine the environment selects (unset → ``"batch"``).

        An empty/whitespace variable means unset, matching the
        ``REPRO_CACHE`` convention.
        """
        return (os.environ.get(ENGINE_ENV) or "").strip().lower() or "batch"

    @property
    def cfg(self) -> CFG:
        return self._cfg

    @property
    def geometry(self) -> CacheGeometry:
        return self._geometry

    @property
    def forest(self) -> LoopForest:
        return self._forest

    @property
    def persistence(self) -> PersistenceAnalysis:
        if self._persistence is None:
            self._persistence = PersistenceAnalysis(
                self._cfg, self._geometry, self._forest)
        return self._persistence

    @property
    def engine_name(self) -> str:
        return self._engine_name

    @property
    def store(self) -> ClassificationStore | None:
        """The persistent classification store (``None`` if disabled)."""
        return self._store

    def classification(self, assoc: int | None = None) -> ClassificationTable:
        """Classification table at ``assoc`` working ways per set.

        ``assoc=None`` means the nominal (fault-free) associativity.
        By LRU set independence, the entry of a reference to set ``s``
        in the table for ``assoc = W - f`` is its classification when
        set ``s`` has ``f`` faulty ways — regardless of other sets.
        """
        if assoc is None:
            assoc = self._geometry.ways
        if assoc < 0 or assoc > self._geometry.ways:
            raise AnalysisError(
                f"associativity {assoc} out of range "
                f"[0, {self._geometry.ways}]")
        if assoc not in self._tables:
            table = self._from_store(assoc)
            if table is None:
                table = self._classify(assoc)
                self._to_store(assoc, table)
            self._tables[assoc] = table
        return self._tables[assoc]

    def srb_always_hits(self) -> frozenset[tuple[int, int]]:
        """Reference keys guaranteed to hit the Shared Reliable Buffer.

        The SRB behaves as a 1-set/1-way cache observing the whole
        stream (paper §III-B2); its Must analysis rides the same
        engine selection and persistent store as the main tables, so
        warm SRB estimations also run zero fixpoints.
        """
        if self._srb_hits is not None:
            return self._srb_hits
        key = None
        if self._store is not None:
            # Keyed by the *full* L1 geometry even though the hit set
            # only depends on the line size: every geometry then does
            # the same store traffic whether grid cells run in one
            # process or fan out per geometry, keeping parallel sweep
            # reports byte-identical to sequential ones (at the cost
            # of storing one duplicate hit set per geometry).
            key = classification_key(self._cfg_digest(), self._geometry, 1,
                                     kind="srb")
            value = self._store.get(key)
            hits = _decode_srb(value)
            if hits is not None:
                self.stats.classify_store_hits += 1
                self._srb_hits = hits
                return hits
            self.stats.classify_store_misses += 1
        if self._srb_supplier is not None:
            # Group-shared SRB: the supplier runs (and accounts) its
            # single fixpoint on first demand; this geometry still did
            # its own store probe above and writes through below, so
            # store traffic matches the per-geometry path exactly.
            hit_keys = list(self._srb_supplier())
        elif self._engine_name != "dict":
            hit_keys = srb_hit_keys(self._cfg, self._geometry.block_bytes,
                                    self.stats)
        else:
            from repro.reliability.srb_analysis import \
                srb_always_hit_references
            hit_keys = list(srb_always_hit_references(self._cfg,
                                                      self._geometry))
            self.stats.fixpoints_run += 1
        self._srb_hits = frozenset(hit_keys)
        if self._store is not None:
            self._store.put(key, {"hits": sorted(self._srb_hits)})
            self.stats.classify_store_writes += 1
        return self._srb_hits

    def preload(self, tables: dict[int, object] | None,
                srb_hits=None) -> None:
        """Seed the memo from a pipeline artifact (no store traffic).

        ``tables`` maps associativity to store-encoded tables
        (:meth:`ClassificationTable.encoded`); ``srb_hits`` is an
        iterable of reference keys.  Entries that fail to decode or
        mismatch this analysis' reference map are skipped — they
        degrade to recomputation exactly like a corrupt store shard —
        and already-memoised associativities are never overwritten.
        Preloaded tables touch neither the stats counters nor the
        persistent store: the producing stage already accounted and
        persisted them.
        """
        for assoc, encoded in (tables or {}).items():
            assoc = int(assoc)
            if assoc in self._tables:
                continue
            table = decode_table(encoded)
            if table is None or set(table) != set(self._references) \
                    or any(len(table[block_id]) != len(refs)
                           for block_id, refs in self._references.items()):
                continue
            self._tables[assoc] = ClassificationTable(assoc, table,
                                                      self._references)
        if srb_hits is not None and self._srb_hits is None:
            self._srb_hits = frozenset(
                (int(block_id), int(index))
                for block_id, index in srb_hits)

    # -- persistence ---------------------------------------------------
    def _cfg_digest(self) -> str:
        if self._digest is None:
            self._digest = self._cfg.digest()
        return self._digest

    def _from_store(self, assoc: int) -> ClassificationTable | None:
        if self._store is None:
            return None
        key = classification_key(self._cfg_digest(), self._geometry, assoc)
        value = self._store.get(key)
        if value is not None:
            table = decode_table(value)
            # Malformed or mismatched entries degrade to recomputation.
            if table is not None and set(table) == set(self._references) \
                    and all(len(table[block_id]) == len(refs)
                            for block_id, refs in self._references.items()):
                self.stats.classify_store_hits += 1
                return ClassificationTable(assoc, table, self._references)
        self.stats.classify_store_misses += 1
        return None

    def _to_store(self, assoc: int, table: ClassificationTable) -> None:
        if self._store is None:
            return
        key = classification_key(self._cfg_digest(), self._geometry, assoc)
        self._store.put(key, encode_table(table._table))
        self.stats.classify_store_writes += 1

    # -- cold computation ----------------------------------------------
    def _classify(self, assoc: int) -> ClassificationTable:
        self.stats.tables_built += 1
        if assoc == 0:
            table = {
                block_id: tuple(ALWAYS_MISS for _ in references)
                for block_id, references in self._references.items()
            }
            return ClassificationTable(assoc, table, self._references)
        if self._engine_name != "dict":
            verdicts = self._vector_verdicts(assoc)
        else:
            verdicts = self._dict_verdicts(assoc)
        table: dict[int, tuple[Classification, ...]] = {}
        persistence = self.persistence
        #: scope -> the (immutable) first-miss classification carrying
        #: it — one object per scope instead of one per reference.
        first_miss: dict[int, Classification] = {}
        for block_id, references in self._references.items():
            hits, cached = verdicts(block_id)
            if not isinstance(hits, (tuple, list)):
                # numpy verdict vectors: iterate plain Python bools.
                hits, cached = hits.tolist(), cached.tolist()
            classifications = []
            #: set index -> persistence scope.  Within one CFG block
            #: the scope depends on the reference only through its set
            #: (same loop chain), and consecutive fetches share lines
            #: — so this collapses most scope queries.
            scopes: dict[int, int | None] = {}
            for reference, hit, may_hit in zip(references, hits, cached):
                if hit:
                    classifications.append(ALWAYS_HIT)
                    continue
                set_index = reference.set_index
                if set_index in scopes:
                    scope = scopes[set_index]
                else:
                    scope = scopes[set_index] = persistence.scope_of(
                        reference, assoc)
                if scope is not None:
                    classification = first_miss.get(scope)
                    if classification is None:
                        classification = first_miss[scope] = Classification(
                            chmc=Chmc.FIRST_MISS, scope=scope)
                    classifications.append(classification)
                elif not may_hit:
                    classifications.append(ALWAYS_MISS)
                else:
                    classifications.append(NOT_CLASSIFIED)
            table[block_id] = tuple(classifications)
        return ClassificationTable(assoc, table, self._references)

    def _vector_verdicts(self, assoc: int):
        """Always-hit / may-hit vectors from the shared age engine.

        The engine runs its two fixpoints on first use only; every
        associativity after that is pure array thresholding.
        """
        if self._vector is None:
            self._vector = StackedAgeVectorEngine(
                self._cfg, (self._geometry,),
                {self._geometry: self._references})
        engine = self._vector
        before = engine.fixpoints_run

        def verdicts(block_id: int):
            return (engine.guaranteed_hits(block_id, assoc),
                    engine.possibly_cached(block_id, assoc))

        # Force both fixpoints now so the counter reflects this table.
        engine.must_ages()
        engine.may_ages()
        self.stats.fixpoints_run += engine.fixpoints_run - before
        return verdicts

    def _dict_verdicts(self, assoc: int):
        """Reference oracle: fresh Must/May fixpoints per associativity."""
        must = MustAnalysis(self._cfg, self._geometry, assoc)
        may = MayAnalysis(self._cfg, self._geometry, assoc)
        self.stats.fixpoints_run += 2  # assoc 0 never reaches an engine

        def verdicts(block_id: int):
            return must.guaranteed_hits(block_id), may.possibly_cached(block_id)

        return verdicts


def _decode_srb(value: object) -> frozenset[tuple[int, int]] | None:
    if value is None:
        return None
    try:
        return frozenset((int(block_id), int(index))
                         for block_id, index in value["hits"])
    except (TypeError, ValueError, KeyError):
        return None
