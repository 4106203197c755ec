"""Typed, content-addressed stage artifacts of the estimation pipeline.

The suite/sweep cell DAG (:mod:`repro.pipeline.stages`) runs the
paper's flow as classify → solve → one cell per (mechanism, pfail) →
result.  The classify and cell stages hand on the frozen dataclasses
below (the solve stage's :class:`~repro.pipeline.stages.SolveOutput`
and the result stage's ``BenchmarkResult`` live with their stages).
Every artifact carries
``key``: the digest its stage's persistent store already uses (the CFG
digest for :class:`CfgArtifact`, a
:func:`repro.analysis.store.classification_key` for
:class:`ClassificationArtifact`, a digest over the solve store's
:func:`repro.solve.store.store_context` for :class:`CellArtifact`), so
an artifact is *identified* the same way it is *persisted* — the
stores are read/write-through layers at the artifact boundary, not a
separate caching concern.

Artifacts are plain picklable data: a pool stage computes one in a
worker process and ships it back; the scheduler hands it to dependent
stages verbatim.  Stages that run in-process may omit bulky payloads
(``ClassificationArtifact.tables is None`` means the tables stay
resident in the producing analysis) — the key and counters always
travel.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def _digest(*parts: object) -> str:
    """SHA-256 over a canonical JSON encoding of ``parts``."""
    payload = json.dumps(list(parts), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Schema of persisted pWCET cells (:mod:`repro.pipeline.cellstore`).
#: Folded into every :meth:`CellArtifact.derive_key`, so bumping it invalidates every
#: stored cell without touching the solve or classification stores.
#: v2: sparse (width, support, values) pmf encoding — wide suite
#: distributions are mostly zero, and the dense float list dominated
#: warm-decode and write-through time.  v3: the support travels as
#: ``(start, end)`` run pairs instead of one int64 per point.
CELL_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class StageArtifact:
    """Base of every stage output: the stage's content-address."""

    #: Digest key of this artifact, in the key family of the stage's
    #: persistent store (see module docstring).
    key: str


@dataclass(frozen=True)
class CfgArtifact(StageArtifact):
    """Stage 1: a compiled program's control-flow graph.

    ``key`` is :meth:`repro.cfg.graph.CFG.digest` — the prefix every
    downstream store key embeds.
    """

    name: str


@dataclass(frozen=True)
class ClassificationArtifact(StageArtifact):
    """Stage 2: CHMC tables (and SRB hit set) of one (CFG, geometry).

    ``key`` is the nominal-associativity
    :func:`~repro.analysis.store.classification_key`;
    ``table_keys`` maps every carried associativity to its own store
    key.  ``tables`` holds the store-encoded tables
    (:func:`~repro.analysis.store.encode_table` form) when the
    artifact crosses a process boundary, or ``None`` when they stay
    resident in the producing :class:`~repro.analysis.CacheAnalysis`.
    """

    cfg: CfgArtifact
    table_keys: dict[int, str] = field(repr=False)
    tables: dict[int, object] | None = field(repr=False)
    #: Sorted reference keys guaranteed to hit the SRB (``None`` when
    #: no requested mechanism consults the buffer).
    srb_hits: tuple | None = field(repr=False)
    #: :class:`~repro.analysis.classify.AnalysisStats` counters of the
    #: stage run that produced this artifact.
    stats: dict[str, float] = field(repr=False)
    #: In-process hand-off: the producing
    #: :class:`~repro.analysis.CacheAnalysis` itself, set only when
    #: producer and consumer share a process (inline stages) so the
    #: consumer reuses the object instead of decoding ``tables``.
    #: Always ``None`` on artifacts that cross a process boundary.
    analysis: object | None = field(default=None, repr=False,
                                    compare=False)


@dataclass(frozen=True)
class CellArtifact(StageArtifact):
    """Stage 4: one finished (mechanism, pfail) estimation cell.

    The cell-granular pipeline's unit of fan-out *and* of persistence:
    ``key`` is the :meth:`derive_key` digest (CFG digest × geometry ×
    timing × mechanism × pfail × schema), which is exactly the key the :class:`~repro.pipeline.cellstore.CellStore`
    persists the finished estimate under — `plan()` probes the store by
    this address to satisfy up-stream-clean cells without running them.
    """

    mechanism: str
    pfail: float
    #: The finished :class:`~repro.pwcet.estimator.PWCETEstimate`.
    estimate: object = field(repr=False)
    #: Merged solver+analysis counters of the benchmark's solve stage,
    #: carried by exactly one cell per benchmark (the others ``None``)
    #: so downstream merges count each solve once.  ``None`` on every
    #: store-served cell: a served cell ran nothing.
    counters: dict | None = field(repr=False)
    #: True when ``plan()`` answered this cell from the cell store.
    from_store: bool = False
    #: Sibling pfail rows this cell's stage computed alongside its own
    #: (the batched distribution kernel's pfail-axis fan-in) and wrote
    #: through to the cell store; 0 when the cell ran unbatched.
    batched_rows: int = 0

    @staticmethod
    def derive_key(store_context: str, mechanism: str,
                   pfail: float) -> str:
        # The leading "distribution" tag predates the cell stage; it
        # stays so every persisted cell keeps its address.
        return _digest("distribution", store_context, mechanism, pfail,
                       CELL_SCHEMA_VERSION)
