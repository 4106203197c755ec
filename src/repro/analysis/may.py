"""May analysis: which fetches are guaranteed cache misses.

Part of the ``dict`` *reference oracle*, like
:mod:`repro.analysis.must`; the production ``batch`` engine is the
age-vector engine of :mod:`repro.analysis.vectorized`.
"""

from __future__ import annotations

from repro.analysis import acs
from repro.analysis.fixpoint import solve
from repro.analysis.references import Reference, all_references
from repro.cache import CacheGeometry
from repro.cfg import CFG
from repro.errors import AnalysisError


class MayAnalysis:
    """Fixpoint May analysis at a given (possibly degraded) associativity.

    The cache is assumed empty at task start (cold boot / invalidated),
    as in the reproduced toolchain, so a fetch whose block is absent
    from the May ACS misses on every path — classification always-miss.
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
                initial={},  # cold cache: nothing can be cached yet
                join=self._join,
                transfer=self._transfer,
                equal=acs.cache_state_equal)

    @property
    def assoc(self) -> int:
        return self._assoc

    def references(self, block_id: int) -> tuple[Reference, ...]:
        return self._references[block_id]

    def in_state(self, block_id: int) -> acs.CacheState:
        return self._in_states[block_id]

    def possibly_cached(self, block_id: int) -> tuple[bool, ...]:
        """Per-instruction "may hit" verdicts for one block.

        ``False`` means the fetch misses on *every* execution
        (always-miss classification).
        """
        state = acs.copy_cache_state(self._in_states[block_id])
        verdicts = []
        for reference in self._references[block_id]:
            set_state = state.get(reference.set_index, {})
            verdicts.append(reference.memory_block in set_state)
            state[reference.set_index] = acs.may_update(
                set_state, reference.memory_block, self._assoc)
        return tuple(verdicts)

    # -- dataflow plumbing --------------------------------------------
    def _transfer(self, block_id: int,
                  state: acs.CacheState) -> acs.CacheState:
        state = dict(state)
        for reference in self._references[block_id]:
            state[reference.set_index] = acs.may_update(
                state.get(reference.set_index, {}),
                reference.memory_block, self._assoc)
        return state

    @staticmethod
    def _join(left: acs.CacheState, right: acs.CacheState) -> acs.CacheState:
        joined = {set_index: dict(set_state)
                  for set_index, set_state in left.items()}
        for set_index, set_state in right.items():
            joined[set_index] = acs.may_join(joined.get(set_index, {}),
                                             set_state)
        return joined
