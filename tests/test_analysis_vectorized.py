"""Equivalence of the vectorised ACS engine with the dict oracle.

The age-vector engine (:mod:`repro.analysis.vectorized`), run as a
one-geometry stack, must produce *identical* Must/May verdicts — and
hence identical CHMC tables — to the reference dict implementation at
**every** associativity, even though it runs a single fixpoint pair
at the nominal associativity and derives the degraded levels by age
thresholding.  These are the property tests that license making it
the default engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import (CacheAnalysis, MayAnalysis, MustAnalysis,
                            StackedAgeVectorEngine)
from repro.analysis.references import all_references
from repro.cache import CacheGeometry
from repro.errors import AnalysisError
from repro.minic import compile_program
from repro.reliability.srb_analysis import srb_always_hit_references
from repro.suite import load
from tests.strategies import multi_function_programs, programs

#: Small geometries stress set contention; the paper geometry stresses
#: realistic footprints.
GEOMETRIES = (
    CacheGeometry(sets=4, ways=2, block_bytes=16),
    CacheGeometry(sets=2, ways=4, block_bytes=16),
    CacheGeometry.from_size(1024, 4, 16),
)

_suppress = [HealthCheck.too_slow]


def one_geometry_engine(cfg, geometry):
    return StackedAgeVectorEngine(
        cfg, (geometry,), {geometry: all_references(cfg, geometry)})


def assert_tables_identical(cfg, geometry):
    """Vector and dict tables must match reference for reference."""
    vector = CacheAnalysis(cfg, geometry, cache="off", engine="batch")
    oracle = CacheAnalysis(cfg, geometry, cache="off", engine="dict")
    for assoc in range(geometry.ways + 1):
        vector_table = vector.classification(assoc)
        oracle_table = oracle.classification(assoc)
        for (ref_v, cls_v), (ref_o, cls_o) in zip(vector_table.items(),
                                                  oracle_table.items()):
            assert ref_v == ref_o
            assert cls_v == cls_o, (
                f"assoc={assoc} {ref_v}: vector={cls_v} oracle={cls_o}")


def assert_verdicts_identical(cfg, geometry):
    """Raw Must/May verdicts must match at every associativity.

    Sharper than table equality: a persistence scope can mask a May
    disagreement inside a first-miss classification.
    """
    engine = one_geometry_engine(cfg, geometry)
    for assoc in range(1, geometry.ways + 1):
        must = MustAnalysis(cfg, geometry, assoc)
        may = MayAnalysis(cfg, geometry, assoc)
        for block_id in cfg.block_ids():
            assert (tuple(bool(hit) for hit
                          in engine.guaranteed_hits(block_id, assoc))
                    == must.guaranteed_hits(block_id)), \
                f"Must mismatch at block {block_id} assoc {assoc}"
            assert (tuple(bool(hit) for hit
                          in engine.possibly_cached(block_id, assoc))
                    == may.possibly_cached(block_id)), \
                f"May mismatch at block {block_id} assoc {assoc}"
    # The whole sweep above must have cost exactly one fixpoint pair.
    assert engine.fixpoints_run == 2


class TestRandomProgramEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_tables_match_oracle(self, program):
        compiled = compile_program(program)
        for geometry in GEOMETRIES[:2]:
            assert_tables_identical(compiled.cfg, geometry)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_raw_verdicts_match_oracle(self, program):
        compiled = compile_program(program)
        for geometry in GEOMETRIES[:2]:
            assert_verdicts_identical(compiled.cfg, geometry)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=_suppress)
    @given(program=multi_function_programs())
    def test_inlined_calls_match_oracle(self, program):
        compiled = compile_program(program)
        assert_tables_identical(compiled.cfg, GEOMETRIES[0])

    @settings(max_examples=15, deadline=None,
              suppress_health_check=_suppress)
    @given(program=programs())
    def test_srb_hits_match_oracle(self, program):
        compiled = compile_program(program)
        geometry = GEOMETRIES[0]
        analysis = CacheAnalysis(compiled.cfg, geometry, cache="off",
                                 engine="batch")
        assert analysis.srb_always_hits() == \
            srb_always_hit_references(compiled.cfg, geometry)


class TestSuiteEquivalence:
    """Real benchmark CFGs, including the paper geometry."""

    @pytest.mark.parametrize("name", ("crc", "fibcall", "ud"))
    def test_suite_benchmark_tables(self, name):
        cfg = load(name).cfg
        for geometry in GEOMETRIES:
            assert_tables_identical(cfg, geometry)

    def test_suite_benchmark_srb(self):
        cfg = load("crc").cfg
        geometry = GEOMETRIES[2]
        analysis = CacheAnalysis(cfg, geometry, cache="off",
                                 engine="batch")
        assert analysis.srb_always_hits() == \
            srb_always_hit_references(cfg, geometry)


class TestEngineMechanics:
    def test_one_fixpoint_pair_serves_all_associativities(self):
        cfg = load("crc").cfg
        analysis = CacheAnalysis(cfg, GEOMETRIES[2], cache="off",
                                 engine="batch")
        for assoc in range(GEOMETRIES[2].ways, -1, -1):
            analysis.classification(assoc)
        # Must + May once; the dict oracle would need 2 per level.
        assert analysis.stats.fixpoints_run == 2
        assert analysis.stats.tables_built == GEOMETRIES[2].ways + 1

    def test_dict_engine_runs_per_associativity_fixpoints(self):
        cfg = load("fibcall").cfg
        analysis = CacheAnalysis(cfg, GEOMETRIES[0], cache="off",
                                 engine="dict")
        for assoc in range(GEOMETRIES[0].ways, -1, -1):
            analysis.classification(assoc)
        assert analysis.stats.fixpoints_run == 2 * GEOMETRIES[0].ways

    def test_engine_selection_via_environment(self, monkeypatch):
        from repro.analysis.classify import ENGINE_ENV
        cfg = load("fibcall").cfg
        monkeypatch.setenv(ENGINE_ENV, "dict")
        assert CacheAnalysis(cfg, GEOMETRIES[0],
                             cache="off").engine_name == "dict"
        monkeypatch.setenv(ENGINE_ENV, "batch")
        assert CacheAnalysis(cfg, GEOMETRIES[0],
                             cache="off").engine_name == "batch"
        monkeypatch.delenv(ENGINE_ENV)
        assert CacheAnalysis(cfg, GEOMETRIES[0],
                             cache="off").engine_name == "batch"

    def test_unknown_engine_rejected(self):
        cfg = load("fibcall").cfg
        # "vector" was the retired per-geometry age engine.
        for engine in ("quantum", "vector"):
            with pytest.raises(AnalysisError):
                CacheAnalysis(cfg, GEOMETRIES[0], cache="off",
                              engine=engine)

    def test_ages_use_compact_dtype(self):
        cfg = load("fibcall").cfg
        engine = one_geometry_engine(cfg, GEOMETRIES[0])
        ages = engine.must_ages()
        assert all(block.dtype == np.int8 for block in ages.values())

