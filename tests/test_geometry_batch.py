"""The stacked geometry-batch kernel vs the per-geometry dict oracle.

Every geometry of a stack (:mod:`repro.analysis.vectorized`, wired by
:mod:`repro.analysis.geometry_batch`) must reproduce the dict oracle's
Must/May verdicts at every associativity and its CHMC tables.  These
are the tests that license making ``batch`` the default engine and
wiring the sweep's geometry axis through it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (CacheAnalysis, MayAnalysis, MustAnalysis,
                            StackedAgeVectorEngine)
from repro.analysis.geometry_batch import GroupSrbHits, grouped_analysis
from repro.analysis.references import all_references
from repro.cache import CacheGeometry
from repro.errors import AnalysisError
from repro.minic import compile_program
from repro.pipeline.stages import SUITE_MECHANISMS, required_classifications
from repro.suite import load
from repro.sweep.grid import geometry_grid
from tests.strategies import programs

_suppress = [HealthCheck.too_slow]

#: A deliberately heterogeneous line-size group: different set counts
#: AND different way counts stacked into one state.
SMALL_GROUP = (
    CacheGeometry(sets=4, ways=2, block_bytes=16),
    CacheGeometry(sets=2, ways=4, block_bytes=16),
    CacheGeometry(sets=8, ways=2, block_bytes=16),
)


def _groups(geometries):
    groups: dict[int, list] = {}
    for geometry in geometries:
        groups.setdefault(geometry.block_bytes, []).append(geometry)
    return [tuple(group) for group in groups.values()]


def assert_stack_matches_solo(cfg, group):
    """Stacked verdicts == the dict oracle's, per geometry and level."""
    references = {geometry: all_references(cfg, geometry)
                  for geometry in group}
    stack = StackedAgeVectorEngine(cfg, group, references)
    for position, geometry in enumerate(group):
        view = stack.geometry_slice(position)
        for assoc in range(1, geometry.ways + 1):
            must = MustAnalysis(cfg, geometry, assoc)
            may = MayAnalysis(cfg, geometry, assoc)
            for block_id in references[geometry]:
                assert view.guaranteed_hits(block_id, assoc).tolist() \
                    == list(must.guaranteed_hits(block_id))
                assert view.possibly_cached(block_id, assoc).tolist() \
                    == list(may.possibly_cached(block_id))
    assert stack.fixpoints_run == 2


def assert_tables_identical(cfg, group):
    """Stacked-engine tables == per-geometry dict tables."""
    references = {geometry: all_references(cfg, geometry)
                  for geometry in group}
    stack = StackedAgeVectorEngine(cfg, group, references)
    for position, geometry in enumerate(group):
        batch = CacheAnalysis(cfg, geometry, cache="off", engine="batch",
                              references=references[geometry],
                              vector_engine=stack.geometry_slice(position))
        oracle = CacheAnalysis(cfg, geometry, cache="off", engine="dict")
        for assoc in range(geometry.ways, -1, -1):
            expected = oracle.classification(assoc)
            table = batch.classification(assoc)
            for block_id in cfg.block_ids():
                assert table.of_block(block_id) \
                    == expected.of_block(block_id)


class TestStackedEngineEquivalence:
    """Property tests: stacked == the per-geometry oracle."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_random_cfgs_small_group(self, program):
        compiled = compile_program(program)
        assert_stack_matches_solo(compiled.cfg, SMALL_GROUP)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_random_cfgs_tables(self, program):
        compiled = compile_program(program)
        assert_tables_identical(compiled.cfg, SMALL_GROUP[:2])

    @pytest.mark.parametrize("name", ("bs", "crc", "matmult"))
    def test_default_grid_geometries(self, name):
        """All 16 default grid geometries, stacked per line size."""
        cfg = load(name).cfg
        for group in _groups(geometry_grid()):
            assert_stack_matches_solo(cfg, group)

    def test_mixed_line_sizes_rejected(self):
        cfg = load("fibcall").cfg
        bad = (CacheGeometry(sets=4, ways=2, block_bytes=16),
               CacheGeometry(sets=4, ways=2, block_bytes=32))
        with pytest.raises(AnalysisError):
            StackedAgeVectorEngine(
                cfg, bad, {g: all_references(cfg, g) for g in bad})

    def test_duplicate_geometries_rejected(self):
        cfg = load("fibcall").cfg
        geometry = SMALL_GROUP[0]
        with pytest.raises(AnalysisError):
            StackedAgeVectorEngine(
                cfg, (geometry, geometry),
                {geometry: all_references(cfg, geometry)})

    def test_empty_group_rejected(self):
        with pytest.raises(AnalysisError):
            StackedAgeVectorEngine(load("fibcall").cfg, (), {})


class TestGroupedAnalysis:
    """The classify-stage entry point: shared stats, store prefill."""

    def test_one_fixpoint_pair_plus_srb_per_group(self):
        cfg = load("crc").cfg
        analysis = grouped_analysis(cfg, SMALL_GROUP, SUITE_MECHANISMS,
                                    cache="off")
        # 2 stacked (Must+May) + 1 shared SRB for the whole group.
        assert analysis.stats.fixpoints_run == 3
        assert analysis.stats.classify_batched_rows == len(SMALL_GROUP) - 1
        assert analysis.stats.geometry_groups == 1

    def test_vector_engine_runs_per_geometry_orchestration(self):
        """Same orchestration under the dict oracle: counters except
        fixpoints identical (the engine knob selects only the kernel)."""
        cfg = load("bs").cfg
        batched = grouped_analysis(cfg, SMALL_GROUP, SUITE_MECHANISMS,
                                   cache="off")
        oracle = grouped_analysis(cfg, SMALL_GROUP, SUITE_MECHANISMS,
                                  cache="off", engine="dict")
        batch_dict = batched.stats.as_dict()
        oracle_dict = oracle.stats.as_dict()
        assert batch_dict.pop("fixpoints_run") \
            < oracle_dict.pop("fixpoints_run")
        assert batch_dict == oracle_dict

    def test_group_prefills_sibling_store_entries(self, tmp_path):
        """Sibling geometries' tables land under their own keys: a
        later per-geometry analysis is served entirely from the store."""
        cfg = load("fibcall").cfg
        grouped_analysis(cfg, SMALL_GROUP, SUITE_MECHANISMS,
                         cache=str(tmp_path))
        for geometry in SMALL_GROUP:
            warm = CacheAnalysis(cfg, geometry, cache=str(tmp_path))
            assocs, needs_srb = required_classifications(
                SUITE_MECHANISMS, geometry.ways)
            for assoc in assocs:
                warm.classification(assoc)
            if needs_srb:
                warm.srb_always_hits()
            assert warm.stats.fixpoints_run == 0
            assert warm.stats.classify_store_misses == 0
            assert warm.stats.classify_store_hits > 0

    def test_group_srb_hits_match_per_geometry(self):
        cfg = load("crc").cfg
        from repro.analysis.classify import AnalysisStats

        stats = AnalysisStats()
        shared = GroupSrbHits(cfg, 16, stats)()
        solo = CacheAnalysis(cfg, SMALL_GROUP[0], cache="off",
                             engine="dict")
        assert frozenset(shared) == solo.srb_always_hits()
        assert stats.fixpoints_run == 1
