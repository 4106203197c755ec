"""Must analysis: which fetches are guaranteed cache hits.

Of the two analysis engines this is the ``dict`` one, the *reference
oracle*: one fixpoint per requested associativity over per-set
``{block: age}`` states.  The production ``batch`` engine
(:mod:`repro.analysis.vectorized`) answers every associativity — and
every geometry of a line-size group — from a single fixpoint; the two
are asserted equivalent by ``tests/test_analysis_vectorized.py`` and
``tests/test_geometry_batch.py``.
"""

from __future__ import annotations

from repro.analysis import acs
from repro.analysis.fixpoint import solve
from repro.analysis.references import Reference, all_references
from repro.cache import CacheGeometry
from repro.cfg import CFG
from repro.errors import AnalysisError


class MustAnalysis:
    """Fixpoint Must analysis at a given (possibly degraded) associativity.

    ``assoc`` defaults to the geometry's way count; passing a smaller
    value analyses every set as if it had that many working ways —
    which, by LRU set independence, gives for each set exactly the
    classification it would have if only *it* were degraded.
    An ``assoc`` of 0 models an entirely faulty set: nothing ever hits.
    """

    def __init__(self, cfg: CFG, geometry: CacheGeometry,
                 assoc: int | None = None) -> None:
        if assoc is None:
            assoc = geometry.ways
        if assoc < 0 or assoc > geometry.ways:
            raise AnalysisError(
                f"associativity {assoc} out of range [0, {geometry.ways}]")
        self._cfg = cfg
        self._geometry = geometry
        self._assoc = assoc
        self._references = all_references(cfg, geometry)
        if assoc == 0:
            self._in_states: dict[int, acs.CacheState] = {
                block_id: {} for block_id in cfg.block_ids()}
        else:
            self._in_states = solve(
                cfg,
                initial={},  # cold cache: nothing is guaranteed cached
                join=self._join,
                transfer=self._transfer,
                equal=acs.cache_state_equal)

    @property
    def assoc(self) -> int:
        return self._assoc

    def references(self, block_id: int) -> tuple[Reference, ...]:
        return self._references[block_id]

    def in_state(self, block_id: int) -> acs.CacheState:
        """Converged ACS at block entry (read-only)."""
        return self._in_states[block_id]

    def guaranteed_hits(self, block_id: int) -> tuple[bool, ...]:
        """Per-instruction always-hit verdicts for one block.

        Replays the block's fetches from the converged IN state; a
        fetch whose memory block is already in the Must ACS of its set
        is guaranteed to hit on every execution.
        """
        state = acs.copy_cache_state(self._in_states[block_id])
        verdicts = []
        for reference in self._references[block_id]:
            set_state = state.get(reference.set_index, {})
            verdicts.append(reference.memory_block in set_state)
            state[reference.set_index] = acs.must_update(
                set_state, reference.memory_block, self._assoc)
        return tuple(verdicts)

    # -- dataflow plumbing --------------------------------------------
    def _transfer(self, block_id: int,
                  state: acs.CacheState) -> acs.CacheState:
        state = dict(state)  # per-set dicts are replaced, never mutated
        for reference in self._references[block_id]:
            state[reference.set_index] = acs.must_update(
                state.get(reference.set_index, {}),
                reference.memory_block, self._assoc)
        return state

    @staticmethod
    def _join(left: acs.CacheState, right: acs.CacheState) -> acs.CacheState:
        # Intersection join: a set missing on either side joins to empty.
        return {
            set_index: joined
            for set_index in (set(left) & set(right))
            if (joined := acs.must_join(left[set_index], right[set_index]))
        }
