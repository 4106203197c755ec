"""The end-to-end pWCET estimator."""

import pytest

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError, EstimationError
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.pwcet.estimator import TARGET_EXCEEDANCE


@pytest.fixture(scope="module")
def estimator(loop_program):
    return PWCETEstimator(loop_program, EstimatorConfig(),
                          name="loop_program")


class TestConfig:
    def test_defaults_match_paper(self):
        config = EstimatorConfig()
        assert config.geometry.total_bytes == 1024
        assert config.geometry.ways == 4
        assert config.geometry.block_bytes == 16
        assert config.timing.hit_cycles == 1
        assert config.timing.memory_cycles == 100
        assert config.pfail == 1e-4

    def test_fault_model_derived(self):
        model = EstimatorConfig().fault_model()
        assert model.pfail == 1e-4
        assert model.block_bits == 128


class TestEstimates:
    def test_ordering_at_target(self, estimator):
        """WCET_ff <= pWCET_RW <= pWCET_SRB <= pWCET_none."""
        ff = estimator.fault_free_wcet()
        none = estimator.estimate("none").pwcet()
        srb = estimator.estimate("srb").pwcet()
        rw = estimator.estimate("rw").pwcet()
        assert ff <= rw <= srb <= none

    def test_ordering_along_whole_curve(self, estimator):
        curves = {name: estimator.estimate(name).exceedance_curve()
                  for name in ("none", "srb", "rw")}
        for probability in (1e-2, 1e-5, 1e-8, 1e-11, 1e-15):
            assert (curves["rw"].pwcet(probability)
                    <= curves["srb"].pwcet(probability)
                    <= curves["none"].pwcet(probability))

    def test_pwcet_monotone_in_probability(self, estimator):
        estimate = estimator.estimate("none")
        values = [estimate.pwcet(p)
                  for p in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)]
        assert values == sorted(values)

    def test_memoised(self, estimator):
        assert estimator.estimate("rw") is estimator.estimate("rw")

    def test_estimate_all(self, estimator):
        estimates = estimator.estimate_all()
        assert set(estimates) == {"none", "srb", "rw"}

    def test_default_probability_is_paper_target(self, estimator):
        estimate = estimator.estimate("none")
        assert estimate.pwcet() == estimate.pwcet(TARGET_EXCEEDANCE)

    def test_unknown_mechanism(self, estimator):
        with pytest.raises(ConfigurationError):
            estimator.estimate("ecc")
        with pytest.raises(EstimationError):
            estimator.estimate(42)

    def test_bad_probability(self, estimator):
        with pytest.raises(ConfigurationError):
            estimator.estimate("none").pwcet(0.0)

    def test_penalty_distribution_mass(self, estimator):
        for name in ("none", "srb", "rw"):
            penalty = estimator.penalty_distribution(name)
            assert penalty.total_mass == pytest.approx(1.0, abs=1e-9)


class TestSensitivity:
    def test_pwcet_monotone_in_pfail(self, loop_program):
        previous = None
        for pfail in (1e-6, 1e-5, 1e-4, 1e-3):
            config = EstimatorConfig(pfail=pfail)
            estimator = PWCETEstimator(loop_program, config)
            value = estimator.estimate("none").pwcet()
            if previous is not None:
                assert value >= previous
            previous = value

    def test_zero_pfail_degenerates_to_fault_free(self, loop_program):
        config = EstimatorConfig(pfail=0.0)
        estimator = PWCETEstimator(loop_program, config)
        for name in ("none", "srb", "rw"):
            assert (estimator.estimate(name).pwcet()
                    == estimator.fault_free_wcet())

    def test_relaxed_config_upper_bounds_exact(self, loop_program):
        exact = PWCETEstimator(loop_program, EstimatorConfig())
        relaxed = PWCETEstimator(loop_program,
                                 EstimatorConfig(relaxed=True))
        for name in ("none", "srb", "rw"):
            assert (relaxed.estimate(name).pwcet()
                    >= exact.estimate(name).pwcet())

    def test_bigger_cache_never_hurts_fault_free(self, loop_program):
        small = PWCETEstimator(loop_program, EstimatorConfig(
            geometry=CacheGeometry.from_size(512, 4, 16)))
        large = PWCETEstimator(loop_program, EstimatorConfig(
            geometry=CacheGeometry.from_size(2048, 4, 16)))
        assert large.fault_free_wcet() <= small.fault_free_wcet()


class TestOracleIndependence:
    def test_estimate_all_runs_without_the_pipeline_scheduler(
            self, monkeypatch, tmp_path):
        """The fused estimator is the cell DAG's oracle, so it must
        share no scheduler code with the path it checks."""
        from repro.pipeline.scheduler import PipelineScheduler
        from repro.suite import load

        def refuse(*_args, **_kwargs):
            raise AssertionError("the estimator ran a pipeline DAG")

        monkeypatch.setattr(PipelineScheduler, "run", refuse)
        estimator = PWCETEstimator(load("fibcall"),
                                   EstimatorConfig(cache=str(tmp_path)),
                                   name="fibcall")
        estimates = estimator.estimate_all()
        # tests/test_suite_golden.py: (WCET_ff, none, srb, rw).
        assert estimator.fault_free_wcet() == 1241
        assert {name: estimate.pwcet()
                for name, estimate in estimates.items()} == {
            "none": 25341, "srb": 7441, "rw": 1241}
