"""Persistent, content-addressed store of finished estimation cells.

The third disk-backed store of the pipeline, completing the stage
coverage: the solve store persists ILP optima, the classification
store persists CHMC tables, and this one persists whole *(mechanism,
pfail)* cells — the cell-granular pipeline's unit of fan-out
(:class:`~repro.pipeline.artifacts.CellArtifact`).  Keys are the
:meth:`~repro.pipeline.artifacts.DistributionArtifact.derive_key`
digest over CFG digest × geometry × timing × mechanism × pfail ×
:data:`~repro.pipeline.artifacts.CELL_SCHEMA_VERSION`, so a persisted
cell is addressed exactly like the running stage that would recompute
it — ``PipelineScheduler.plan()`` probes this store by content address
and marks up-stream-clean cells satisfied before any worker starts.

Entries hold everything a :class:`~repro.pwcet.estimator.PWCETEstimate`
needs (fault-free WCET, exact penalty pmf, exceedance correction, FMM
rows), so a warm run reconstructs estimates without touching the
solver, the analysis, or even the other two stores.  Values round-trip
exactly: the pmf is stored as base64 of its sparse support's raw
IEEE-754 bytes (schema v2), so a decoded cell is bit-for-bit
indistinguishable from a computed one — and encoding never repr's a
float, which used to dominate the whole cell stage's wall-clock.

Storage shares the shard conventions of the sibling stores
(append-only checksummed JSONL under ``cells-v<N>`` next to ``v<N>``
and ``classify-v<N>``; same ``REPRO_CACHE`` / ``--cache`` knob;
corrupt or foreign-schema entries degrade to recomputation).
"""

from __future__ import annotations

import base64
import os

import numpy as np

from repro.errors import ConfigurationError, DistributionError
from repro.fmm import FaultMissMap
from repro.pipeline.artifacts import CELL_SCHEMA_VERSION
from repro.pwcet.distribution import DiscreteDistribution
from repro.pwcet.estimator import PWCETEstimate
from repro.solve.store import ShardedStore


def _packed(array: np.ndarray, dtype: str) -> str:
    """Base64 of the array's raw little-endian bytes."""
    packed = np.ascontiguousarray(np.asarray(array, dtype=dtype))
    return base64.b64encode(packed.tobytes()).decode("ascii")


def encode_cell(estimate: PWCETEstimate) -> dict:
    """JSON-serialisable form of one finished estimation cell.

    The penalty pmf is stored sparsely and packed (schema v2): suite
    distributions reach hundreds of thousands of grid points at a few
    percent density, and a JSON float list — repr'd one float at a
    time — dominated the whole cell stage's wall-clock.  The support
    and its probabilities travel as base64 of the raw little-endian
    ``int64`` / ``float64`` bytes instead: the decoded dense array is
    bit-identical by construction (no text round-trip at all), and
    encode/decode are single C-speed passes.
    """
    pmf = estimate.penalty_misses.pmf
    support = np.flatnonzero(pmf)
    return {
        "program": estimate.program_name,
        "mechanism": estimate.mechanism_name,
        "wcet": estimate.wcet_fault_free,
        "width": len(pmf),
        "support": _packed(support, "<i8"),
        "pmf": _packed(pmf[support], "<f8"),
        "correction": float(estimate.exceedance_correction),
        "fmm": [list(row) for row in estimate.fmm.rows],
        "fmm_mechanism": estimate.fmm.mechanism_name,
    }


def decode_cell(value: object, *, name: str, mechanism: str,
                config, pfail: float) -> PWCETEstimate | None:
    """Inverse of :func:`encode_cell`; ``None`` on any malformation.

    ``None`` degrades to recomputation, exactly like a corrupt shard
    line — a truncated, bit-rotted or foreign entry can never become a
    wrong estimate.  The caller supplies the estimation context
    (name, mechanism, geometry, timing) because the key already binds
    it; the embedded names are cross-checked as one more guard.
    """
    try:
        if value["mechanism"] != mechanism:
            return None
        width = int(value["width"])
        support = np.frombuffer(base64.b64decode(value["support"],
                                                 validate=True),
                                dtype="<i8").astype(np.int64)
        weights = np.frombuffer(base64.b64decode(value["pmf"],
                                                 validate=True),
                                dtype="<f8").astype(np.float64)
        if width < 1 or support.shape != weights.shape:
            return None
        if support.size and (support[0] < 0 or support[-1] >= width
                             or np.any(np.diff(support) <= 0)):
            return None
        pmf = np.zeros(width)
        pmf[support] = weights
        fmm = FaultMissMap(
            geometry=config.geometry,
            rows=tuple(tuple(int(cell) for cell in row)
                       for row in value["fmm"]),
            mechanism_name=str(value["fmm_mechanism"]))
        return PWCETEstimate(
            program_name=name,
            mechanism_name=mechanism,
            wcet_fault_free=int(value["wcet"]),
            penalty_misses=DiscreteDistribution(pmf, normalized=False),
            timing=config.timing,
            fmm=fmm,
            exceedance_correction=float(value["correction"]))
    except (TypeError, ValueError, KeyError, IndexError,
            ConfigurationError, DistributionError):
        return None


class CellStore(ShardedStore):
    """Disk-backed map of cell keys to encoded estimation cells.

    Index, reads and writes are the shared single-kind
    :class:`~repro.solve.store.ShardedStore`'s (record kind
    ``"cell"``).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__(root, f"cells-v{CELL_SCHEMA_VERSION}", kind="cell")
