"""The batched multi-pfail distribution kernel (PR 7).

Property-tests the batched engine bit-for-bit against the scalar
oracle over random FMMs × pfail grids × mechanisms, the power-grouping
strategy within tolerance, the degenerate shapes (all-zero penalty
sets, single-pfail batch, one-set cache, empty batch), engine
selection, the fault-pmf memo, the sparse cell-store encoding, and
the pipeline's pfail-axis prefill.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry
from repro.errors import DistributionError
from repro.experiments.runner import (fresh_results, run_benchmark,
                                      run_suite)
from repro.faults import FaultProbabilityModel
from repro.fmm import FaultMissMap
from repro.pipeline.scheduler import PipelineStats
from repro.pipeline.stages import suite_pipeline
from repro.pwcet import EstimatorConfig
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.pwcet.batch import (ENGINE_ENV, penalty_distribution_scalar,
                               penalty_distributions, selected_engine)
from repro.reliability import (fault_pmf_cache_stats, mechanism_by_name,
                               reset_fault_pmf_cache)

SUBSET = ("bs", "fibcall")
MECHANISM_NAMES = ("none", "srb", "rw")

#: The quantile every comparison reads (the paper's target).
TARGET = 1e-15


@st.composite
def fmm_cases(draw):
    """A random (FMM, mechanism, pfail grid) kernel input."""
    sets = draw(st.sampled_from((1, 2, 4, 8)))
    ways = draw(st.sampled_from((2, 4)))
    geometry = CacheGeometry(sets=sets, ways=ways, block_bytes=16)
    rows = []
    for _ in range(sets):
        increments = draw(st.lists(st.integers(0, 60), min_size=ways,
                                   max_size=ways))
        row = [0]
        for increment in increments:
            row.append(row[-1] + increment)
        rows.append(tuple(row))
    mechanism_name = draw(st.sampled_from(MECHANISM_NAMES))
    fmm = FaultMissMap(geometry=geometry, rows=tuple(rows),
                       mechanism_name=mechanism_name)
    pfails = draw(st.lists(
        st.sampled_from((1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)),
        min_size=1, max_size=5, unique=True))
    return fmm, mechanism_name, tuple(pfails)


def _scalar_rows(fmm, mechanism, models, sets):
    return [penalty_distribution_scalar(fmm, mechanism, model, sets)
            for model in models]


class TestBatchedOracleIdentity:
    """Satellite 3: batched == scalar, bit for bit."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=fmm_cases())
    def test_batched_matches_scalar_bitwise(self, case):
        fmm, mechanism_name, pfails = case
        mechanism = mechanism_by_name(mechanism_name)
        sets = fmm.geometry.sets
        models = [FaultProbabilityModel(geometry=fmm.geometry,
                                        pfail=pfail) for pfail in pfails]
        batched = penalty_distributions(fmm, mechanism, models, sets,
                                        engine="batched")
        scalar = _scalar_rows(fmm, mechanism, models, sets)
        assert len(batched) == len(scalar) == len(models)
        for batch_row, scalar_row in zip(batched, scalar):
            assert np.array_equal(batch_row.pmf, scalar_row.pmf)
            assert np.array_equal(batch_row.ccdf(), scalar_row.ccdf())
            assert batch_row.quantile_exceedance(TARGET) == \
                scalar_row.quantile_exceedance(TARGET)


class TestDegenerateShapes:
    GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)

    def _models(self, *pfails):
        return [FaultProbabilityModel(geometry=self.GEOMETRY, pfail=p)
                for p in pfails]

    def test_all_zero_penalty_sets_collapse_to_point_mass(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 0, 0),) * 4, mechanism_name="none")
        mechanism = mechanism_by_name("none")
        models = self._models(1e-4, 1e-3)
        rows = penalty_distributions(fmm, mechanism, models, 4)
        scalar = _scalar_rows(fmm, mechanism, models, 4)
        for batch_row, scalar_row in zip(rows, scalar):
            assert np.array_equal(batch_row.pmf, scalar_row.pmf)
            assert batch_row.pmf.tolist() == [1.0]

    def test_single_pfail_batch_matches_scalar(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 3, 7), (0, 0, 2), (0, 1, 1),
                                 (0, 5, 9)),
                           mechanism_name="rw")
        mechanism = mechanism_by_name("rw")
        models = self._models(1e-4)
        [row] = penalty_distributions(fmm, mechanism, models, 4)
        [scalar] = _scalar_rows(fmm, mechanism, models, 4)
        assert np.array_equal(row.pmf, scalar.pmf)

    def test_one_set_cache(self):
        geometry = CacheGeometry(sets=1, ways=2, block_bytes=16)
        fmm = FaultMissMap(geometry=geometry, rows=((0, 4, 11),),
                           mechanism_name="srb")
        mechanism = mechanism_by_name("srb")
        models = [FaultProbabilityModel(geometry=geometry, pfail=p)
                  for p in (1e-5, 1e-3)]
        rows = penalty_distributions(fmm, mechanism, models, 1)
        scalar = _scalar_rows(fmm, mechanism, models, 1)
        for batch_row, scalar_row in zip(rows, scalar):
            assert np.array_equal(batch_row.pmf, scalar_row.pmf)

    def test_empty_batch_returns_nothing(self):
        fmm = FaultMissMap(geometry=self.GEOMETRY,
                           rows=((0, 1, 2),) * 4, mechanism_name="none")
        assert penalty_distributions(fmm, mechanism_by_name("none"),
                                     (), 4) == []


class TestEngineSelection:
    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert selected_engine() == "batched"

    def test_empty_environment_means_unset(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "  ")
        assert selected_engine() == "batched"

    def test_environment_selects_scalar(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        assert selected_engine() == "scalar"

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        assert selected_engine("batched") == "batched"

    def test_unknown_engine_raises(self):
        # "power" was the retired repeated-squaring engine.
        for engine in ("fft", "power"):
            with pytest.raises(DistributionError):
                selected_engine(engine)


class TestFaultPmfMemo:
    """Satellite 1: fault_pmf memoised per (mechanism, geometry,
    pfail), with live hit counters."""

    GEOMETRY = CacheGeometry(sets=4, ways=2, block_bytes=16)

    def test_hits_and_misses_are_counted(self):
        reset_fault_pmf_cache()
        mechanism = mechanism_by_name("srb")
        model = FaultProbabilityModel(geometry=self.GEOMETRY, pfail=1e-4)
        first = mechanism.fault_pmf(model)
        second = mechanism.fault_pmf(model)
        stats = fault_pmf_cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert first == second
        # A distinct pfail is a distinct memo entry.
        mechanism.fault_pmf(
            FaultProbabilityModel(geometry=self.GEOMETRY, pfail=1e-3))
        assert fault_pmf_cache_stats().misses == 2
        reset_fault_pmf_cache()
        zeroed = fault_pmf_cache_stats()
        assert (zeroed.hits, zeroed.misses) == (0, 0)

    def test_stats_summary_exposes_memo_counters(self):
        from repro.pwcet import PWCETEstimator
        from repro.suite import load

        reset_fault_pmf_cache()
        estimator = PWCETEstimator(load("fibcall"), EstimatorConfig(),
                                   name="fibcall")
        estimator.estimate_all()
        summary = estimator.stats_summary()
        assert summary["fault_pmf_misses"] > 0
        assert "fault_pmf_hits" in summary


class TestSparseCellEncoding:
    """Schema v3: the persisted pmf is (width, packed support runs,
    packed values) — base64 of the raw little-endian bytes, the support
    as half-open ``(start, end)`` run pairs."""

    def _cell_value(self):
        from repro.pipeline.cellstore import encode_cell

        config = EstimatorConfig()
        with fresh_results():
            result = run_benchmark("fibcall", config)
        estimate = result.estimates["srb"]
        return config, estimate, encode_cell(estimate)

    @staticmethod
    def _runs(support):
        """Reference run split: one (start, end) pair per maximal
        stretch of consecutive support points."""
        runs = []
        for point in support.tolist():
            if runs and runs[-1][1] == point:
                runs[-1][1] = point + 1
            else:
                runs.append([point, point + 1])
        return np.array(runs, dtype=np.int64).ravel()

    def test_roundtrip_is_bitwise(self):
        from repro.pipeline.cellstore import _packed, decode_cell

        config, estimate, value = self._cell_value()
        pmf = estimate.penalty_misses.pmf
        support = np.flatnonzero(pmf)
        assert value["width"] == len(pmf)
        assert "support" not in value
        assert value["runs"] == _packed(self._runs(support), "<i8")
        decoded = decode_cell(value, name="fibcall", mechanism="srb",
                              config=config, pfail=config.pfail)
        assert decoded is not None
        assert np.array_equal(decoded.penalty_misses.pmf, pmf)
        assert decoded.pwcet(TARGET) == estimate.pwcet(TARGET)

    def test_malformed_entries_degrade_to_none(self):
        from repro.pipeline.cellstore import _packed, decode_cell

        config, estimate, value = self._cell_value()
        runs = self._runs(np.flatnonzero(estimate.penalty_misses.pmf))
        pairs = runs.reshape(-1, 2)
        assert len(pairs) >= 2  # the overlap cases below need two runs
        first, second = pairs[0], pairs[1]
        corruptions = [
            {**value, "width": 1},                        # out of range
            {**value, "pmf": value["pmf"][:-8]},          # ragged
            {**value, "runs": _packed(runs - runs[0] - 1, "<i8")},  # < 0
            {**value, "runs": "not base64!"},
            {**value, "pmf": None},
            {**value, "runs": None},
            # Odd length: a dangling start with no end.
            {**value, "runs": _packed(runs[:-1], "<i8")},
            # No runs at all against a non-empty weight array.
            {**value, "runs": _packed(runs[:0], "<i8")},
            # Unsorted: the first two runs swapped.
            {**value, "runs": _packed(np.concatenate(
                (second, first, pairs[2:].ravel())), "<i8")},
            # Overlapping: the second run starts inside the first.
            {**value, "runs": _packed(np.concatenate(
                (first, [first[1] - 1, second[1]], pairs[2:].ravel())),
                "<i8")},
            # An empty (zero-length) run ahead of the real ones.
            {**value, "runs": _packed(np.concatenate(
                ([first[0], first[0]], runs)), "<i8")},
            # An inverted run.
            {**value, "runs": _packed(np.concatenate(
                (first[::-1], pairs[1:].ravel())), "<i8")},
            # Well-formed runs covering one point too many.
            {**value, "runs": _packed(np.concatenate(
                (runs[:-1], [runs[-1] + 1])), "<i8")},
            # Runs past the declared width.
            {**value, "width": int(runs[-1]) - 1},
        ]
        for corrupt in corruptions:
            assert decode_cell(corrupt, name="fibcall", mechanism="srb",
                               config=config,
                               pfail=config.pfail) is None

    def test_random_sparse_pmfs_roundtrip(self):
        from repro.pipeline.cellstore import (_packed, decode_cell,
                                              encode_cell)
        from repro.pwcet.distribution import DiscreteDistribution

        config, estimate, _value = self._cell_value()
        rng = np.random.default_rng(20160314)
        pmfs = [np.array([1.0]),                      # one point at 0
                np.array([0.0, 0.0, 1.0]),            # one at width-1
                np.array([0.5, 0.0, 0.0, 0.5])]       # both ends
        for _ in range(40):
            width = int(rng.integers(1, 400))
            pmf = np.where(rng.random(width) < rng.random(),
                           rng.random(width), 0.0)
            pmf[width - 1] = rng.random() + 0.01
            pmfs.append(pmf / pmf.sum())
        for pmf in pmfs:
            original = replace(estimate, penalty_misses=DiscreteDistribution(
                pmf, normalized=False))
            value = encode_cell(original)
            assert value["runs"] == _packed(
                self._runs(np.flatnonzero(pmf)), "<i8")
            decoded = decode_cell(value, name="fibcall", mechanism="srb",
                                  config=config, pfail=config.pfail)
            assert decoded is not None
            assert decoded.penalty_misses.pmf.tobytes() == pmf.tobytes()


class TestPfailAxisPrefill:
    """Tentpole wiring: one cell stage computes its mechanism's whole
    pfail axis and prefills the cell store's content addresses."""

    def test_prefilled_rows_are_bitwise_unbatched_cells(self, tmp_path):
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        sibling_pfail = 5e-4
        axis = (config.pfail, sibling_pfail)
        batch = {name: axis for name in MECHANISM_NAMES}
        stats = PipelineStats()
        suite_pipeline(SUBSET, config, TARGET_EXCEEDANCE, stats=stats,
                       batch_pfails=batch)
        assert stats.cells_batched == 3 * len(SUBSET)
        assert stats.cells_recomputed == 3 * len(SUBSET)
        # The sibling pfail is served whole from the store...
        sibling = replace(config, pfail=sibling_pfail)
        with fresh_results():
            warm_stats = PipelineStats()
            warm = run_suite(sibling, benchmarks=SUBSET,
                             pipeline_stats=warm_stats)
        assert warm_stats.cells_from_store == 3 * len(SUBSET)
        assert warm_stats.cells_recomputed == 0
        assert warm_stats.cells_batched == 0
        # ...and every served estimate is bitwise what an unbatched
        # cold run computes.
        cold_config = EstimatorConfig(cache=str(tmp_path / "cold"),
                                      pfail=sibling_pfail)
        with fresh_results():
            cold = run_suite(cold_config, benchmarks=SUBSET)
        for warm_result, cold_result in zip(warm, cold):
            assert warm_result.name == cold_result.name
            for mechanism in MECHANISM_NAMES:
                assert np.array_equal(
                    warm_result.estimates[mechanism].penalty_misses.pmf,
                    cold_result.estimates[mechanism].penalty_misses.pmf)
                assert warm_result.pwcet(mechanism) == \
                    cold_result.pwcet(mechanism)

    def test_rows_already_stored_leave_the_batch(self, tmp_path):
        """Only store-missing siblings are recomputed on a rerun."""
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        batch = {name: (config.pfail, 5e-4) for name in MECHANISM_NAMES}
        suite_pipeline(SUBSET, config, TARGET_EXCEEDANCE,
                       batch_pfails=batch)
        edited = replace(config, pfail=2e-3)
        batch = {name: (2e-3, config.pfail, 5e-4)
                 for name in MECHANISM_NAMES}
        stats = PipelineStats()
        suite_pipeline(SUBSET, edited, TARGET_EXCEEDANCE, stats=stats,
                       batch_pfails=batch)
        # The 5e-4 and default-pfail rows are already persisted: each
        # cell batches nothing beyond its own new row.
        assert stats.cells_batched == 0
        assert stats.cells_recomputed == 3 * len(SUBSET)

    def test_scalar_engine_suite_is_identical(self, tmp_path,
                                              monkeypatch):
        """CI's byte-identity assertion, in miniature."""
        with fresh_results():
            default = run_suite(
                EstimatorConfig(cache=str(tmp_path / "a")),
                benchmarks=SUBSET)
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        with fresh_results():
            scalar = run_suite(
                EstimatorConfig(cache=str(tmp_path / "b")),
                benchmarks=SUBSET)
        for default_result, scalar_result in zip(default, scalar):
            for mechanism in MECHANISM_NAMES:
                assert np.array_equal(
                    default_result.estimates[mechanism]
                    .penalty_misses.pmf,
                    scalar_result.estimates[mechanism]
                    .penalty_misses.pmf)
                assert default_result.pwcet(mechanism) == \
                    scalar_result.pwcet(mechanism)
