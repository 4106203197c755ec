"""The solve planner: dedup/prune/batch must not change any result.

The planner's whole contract is *bit-identical outputs*: every
shortcut (canonical-objective dedup, empty short-circuit, LP
relaxation pre-screen, process-pool batching, persistent backends) is
value-preserving with respect to solving every (set, fault count) ILP
directly.  These tests pin that equivalence on real suite benchmarks
across all three reliability mechanisms, plus unit-level behaviour of
the planner and backends.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import CacheAnalysis
from repro.fmm import compute_fault_miss_map
from repro.ipet import FlowModel, LinearProgram
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.reliability import mechanism_by_name
from repro.solve import (SolvePlanner, SolveRequest, available_backends,
                        make_backend)
from repro.solve.backend import ScipyBackend
from repro.suite import load

MECHANISMS = ("none", "srb", "rw")
#: Mid-size benchmarks with different control structure: loop nest
#: (ud), branchy CRC, and a large multi-function program (adpcm).
EQUIVALENCE_BENCHMARKS = ("ud", "crc", "adpcm")


def _direct_fmm(name: str, mechanism: str):
    """The unplanned reference path: every non-empty cell solved."""
    compiled = load(name)
    analysis = CacheAnalysis(compiled.cfg, EstimatorConfig().geometry)
    flow_model = FlowModel(compiled.cfg, analysis.forest)
    planner = SolvePlanner(flow_model.program, dedup=False,
                           prescreen=False)
    return compute_fault_miss_map(analysis, mechanism_by_name(mechanism),
                                  flow_model=flow_model, planner=planner)


class TestPipelineEquivalence:
    """Planned results must equal the direct path, bit for bit."""

    @pytest.mark.parametrize("name", EQUIVALENCE_BENCHMARKS)
    def test_fmm_identical_to_direct_path(self, name):
        estimator = PWCETEstimator(load(name), name=name)
        for mechanism in MECHANISMS:
            planned = estimator.fault_miss_map(mechanism)
            direct = _direct_fmm(name, mechanism)
            assert planned.rows == direct.rows, (name, mechanism)
        stats = estimator.solver_stats
        assert stats.dedup_hits > 0  # the shortcuts actually engaged
        assert stats.pruned_empty > 0

    @pytest.mark.parametrize("name", EQUIVALENCE_BENCHMARKS)
    def test_pwcet_identical_to_direct_path(self, name):
        planned = PWCETEstimator(load(name), name=name)
        direct = PWCETEstimator(load(name), name=name)
        direct._planner.dedup = False
        direct._planner.prescreen = False
        for mechanism in MECHANISMS:
            assert (planned.estimate(mechanism).pwcet()
                    == direct.estimate(mechanism).pwcet()), (name, mechanism)

    @pytest.mark.parametrize("name,relaxed", [("crc", False),
                                              ("ud", True)],
                             ids=["crc-exact", "ud-relaxed"])
    def test_parallel_workers_identical(self, name, relaxed):
        # No store: each estimator must solve every ILP itself, so the
        # pooled values are compared with in-process solves, not with
        # each other's write-through.
        sequential = PWCETEstimator(
            load(name), EstimatorConfig(relaxed=relaxed, cache="off"),
            name=name)
        parallel = PWCETEstimator(
            load(name), EstimatorConfig(relaxed=relaxed, workers=2,
                                        cache="off"), name=name)
        for mechanism in MECHANISMS:
            assert (parallel.fault_miss_map(mechanism).rows
                    == sequential.fault_miss_map(mechanism).rows)
            assert (parallel.estimate(mechanism).pwcet()
                    == sequential.estimate(mechanism).pwcet())
        assert parallel.solver_stats.ilp_solved \
            + parallel.solver_stats.lp_solved > 0

    @pytest.mark.parametrize("name", ("ud", "cnt", "minver"))
    def test_relaxed_cells_dominate_ilp_cells(self, name):
        """An LP relaxation bounds its ILP from above, cell by cell:
        snapping solver noise in :func:`ceil_bound` must never take a
        relaxed value below the exact one."""
        exact = PWCETEstimator(load(name), EstimatorConfig(cache="off"),
                               name=name)
        relaxed = PWCETEstimator(
            load(name), EstimatorConfig(relaxed=True, cache="off"),
            name=name)
        assert relaxed.fault_free_wcet() >= exact.fault_free_wcet()
        for mechanism in MECHANISMS:
            for exact_row, relaxed_row in zip(
                    exact.fault_miss_map(mechanism).rows,
                    relaxed.fault_miss_map(mechanism).rows):
                assert all(r >= e for e, r in zip(exact_row, relaxed_row))
            assert (relaxed.estimate(mechanism).pwcet()
                    >= exact.estimate(mechanism).pwcet())

    def test_relaxed_mode_identical_to_direct_path(self):
        planned = PWCETEstimator(load("ud"), EstimatorConfig(relaxed=True),
                                 name="ud")
        direct = PWCETEstimator(load("ud"), EstimatorConfig(relaxed=True),
                                name="ud")
        direct._planner.dedup = False
        direct._planner.prescreen = False
        for mechanism in MECHANISMS:
            assert (planned.estimate(mechanism).pwcet()
                    == direct.estimate(mechanism).pwcet())


class TestParallelSuite:
    def test_run_suite_workers_identical(self):
        from repro.experiments.runner import run_suite
        subset = ("fibcall", "bs", "prime")
        sequential = run_suite(benchmarks=subset)
        parallel = run_suite(EstimatorConfig(workers=2), benchmarks=subset,
                             workers=2)
        for left, right in zip(sequential, parallel):
            assert left.name == right.name
            assert left.wcet_fault_free == right.wcet_fault_free
            for mechanism in MECHANISMS:
                assert left.pwcet(mechanism) == right.pwcet(mechanism)


class TestSolveRequest:
    def test_canonical_key_ignores_insertion_order(self):
        first = SolveRequest.from_objective({3: 1.0, 1: 2.0})
        second = SolveRequest.from_objective({1: 2.0, 3: 1.0})
        assert first == second
        assert first.key == second.key

    def test_tag_does_not_affect_identity(self):
        first = SolveRequest.from_objective({0: 1.0}, tag=(0, 1))
        second = SolveRequest.from_objective({0: 1.0}, tag=(7, 3))
        assert first == second

    def test_relaxation_mode_separates_keys(self):
        exact = SolveRequest.from_objective({0: 1.0})
        relaxed = SolveRequest.from_objective({0: 1.0}, relaxed=True)
        assert exact.key != relaxed.key

    def test_empty_objective_rejected(self):
        from repro.errors import SolverError
        with pytest.raises(SolverError):
            SolveRequest.from_objective({})


class TestCeilBound:
    @pytest.mark.parametrize("value,expected", [
        (820.0000000000002, 820),   # HiGHS noise above an integer
        (54.99999999999999, 55),    # and below one
        (15.5, 16),                 # a real fraction rounds up
        (16.000001, 17),            # beyond the 1e-9 relative snap
    ])
    def test_snaps_solver_noise_and_rounds_up_otherwise(self, value,
                                                        expected):
        from repro.solve.backend import ceil_bound
        assert ceil_bound(value) == expected


def _bounded_program(upper: float = 5.0) -> LinearProgram:
    program = LinearProgram(name="unit")
    program.add_variable("x", upper=upper)
    return program


def _constraint_bounded_program(upper: float = 5.0) -> LinearProgram:
    """x bounded only by a row — invisible to the structural screen."""
    program = LinearProgram(name="unit-row")
    program.add_variable("x")
    program.add_le({0: 1.0}, upper)
    return program


class TestPlannerUnit:
    def test_dedup_solves_once(self):
        planner = SolvePlanner(_bounded_program())
        request = SolveRequest.from_objective({0: 1.0})
        assert planner.solve(request) == 5
        assert planner.solve(request) == 5
        assert planner.stats.ilp_solved == 1
        assert planner.stats.dedup_hits == 1

    def test_fmm_row_empty_columns_short_circuit(self):
        planner = SolvePlanner(_bounded_program())
        row = planner.fmm_row([None, None])
        assert row == (0, 0, 0)
        assert planner.stats.pruned_empty == 2
        assert planner.stats.ilp_solved == 0

    def test_fmm_row_monotone_and_structural_prescreen(self):
        # x integer in [0, 5]: column 1 maximises x (=5); column 2 has
        # a *different* objective whose structural bound
        # floor(0.9 * 5) = 4 cannot beat the previous value, so the
        # ILP is pruned without touching the solver at all.
        planner = SolvePlanner(_bounded_program())
        row = planner.fmm_row([
            SolveRequest.from_objective({0: 1.0}),
            SolveRequest.from_objective({0: 0.9}),
        ])
        assert row == (0, 5, 5)
        assert planner.stats.pruned_structural == 1
        assert planner.stats.ilp_solved == 1
        assert planner.stats.lp_solved == 0  # structural screen is free

    def test_structural_prescreen_sound_for_fractional_weights(self):
        # Regression: the reported value of a fractional-weight ILP is
        # round(optimum), which may exceed floor(bound) — the screen
        # must not prune column 2 here (true row is (0, 4, 5)).
        planned = SolvePlanner(_bounded_program())
        direct = SolvePlanner(_bounded_program(), prescreen=False,
                              dedup=False)
        columns = [SolveRequest.from_objective({0: 0.8}),
                   SolveRequest.from_objective({0: 0.92})]
        assert planned.fmm_row(columns) == direct.fmm_row(columns)

    def test_structural_bound_unbounded_or_negative_is_inf(self):
        import math
        planner = SolvePlanner(_constraint_bounded_program())
        assert planner.structural_bound(
            SolveRequest.from_objective({0: 1.0})) == math.inf
        planner = SolvePlanner(_bounded_program())
        assert planner.structural_bound(
            SolveRequest.from_objective({0: -1.0})) == math.inf

    def test_prime_fills_cache(self):
        planner = SolvePlanner(_bounded_program())
        requests = [SolveRequest.from_objective({0: 1.0}),
                    SolveRequest.from_objective({0: 2.0}),
                    SolveRequest.from_objective({0: 1.0})]
        planner.prime(requests, workers=1)
        assert planner.stats.ilp_solved == 2  # unique objectives only
        # First consumption of a primed key is the solve prime()
        # already counted, not a dedup hit; the second one is.
        assert planner.solve(requests[0]) == 5
        assert planner.stats.dedup_hits == 0
        assert planner.solve(requests[0]) == 5
        assert planner.stats.dedup_hits == 1

    def test_prime_requires_dedup(self):
        planner = SolvePlanner(_bounded_program(), dedup=False)
        planner.prime([SolveRequest.from_objective({0: 1.0})], workers=1)
        assert planner.stats.ilp_solved == 0  # no-op without a cache

    def test_stats_dict_keys(self):
        stats = SolvePlanner(_bounded_program()).stats.as_dict()
        assert {"requests", "ilp_solved", "lp_solved", "dedup_hits",
                "store_hits", "pruned_empty", "pruned_structural",
                "dedup_hit_rate", "store_hit_rate"} == set(stats)


class TestBackends:
    def test_backends_agree_on_flow_polytope(self, loop_program):
        """Persistent HiGHS and frozen scipy give the same optima."""
        flow_model = FlowModel(loop_program.cfg)
        snapshot = flow_model.program.snapshot()
        objective = {flow_model.entry_var: 1.0}
        for block_id in loop_program.cfg.block_ids():
            for variable, weight in flow_model.block_count_coefficients(
                    block_id, 3.0).items():
                objective[variable] = objective.get(variable, 0.0) + weight
        reference = ScipyBackend(snapshot)
        for name in available_backends():
            backend = make_backend(snapshot, prefer=name)
            for relaxed in (False, True):
                value, _ = backend.solve(objective, sign=-1.0,
                                         relaxed=relaxed)
                expected, _ = reference.solve(objective, sign=-1.0,
                                              relaxed=relaxed)
                assert round(value, 6) == round(expected, 6)

    def test_snapshot_invalidated_by_model_edits(self):
        program = _bounded_program()
        first = program.snapshot()
        program.add_variable("y", upper=2.0)
        second = program.snapshot()
        assert second.num_variables == first.num_variables + 1
        assert program.maximize({0: 1.0, 1: 1.0}).rounded_objective() == 7

    def test_program_pickles_without_backend(self):
        import pickle
        program = _bounded_program()
        program.maximize({0: 1.0})  # forces a live backend
        clone = pickle.loads(pickle.dumps(program))
        assert clone.maximize({0: 1.0}).rounded_objective() == 5


class TestLazyScipy:
    """scipy is imported at the first real solve, never on import of
    the CLI nor on a warm run served from the persistent stores."""

    #: Runs ``python -m repro <args>`` in-process (no args: only
    #: imports the CLI), then prints the loaded scipy modules.
    SCRIPT = (
        "import json, runpy, sys\n"
        "sys.argv[0] = 'repro'\n"
        "if len(sys.argv) > 1:\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exit:\n"
        "        assert not exit.code, exit.code\n"
        "else:\n"
        "    import repro.cli\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.split('.')[0] == 'scipy')))\n")

    def _run(self, *args: str) -> tuple[str, list[str]]:
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-c", self.SCRIPT, *args],
                             env=env, capture_output=True, text=True,
                             cwd=root, check=True)
        output, _, modules = run.stdout.rstrip("\n").rpartition("\n")
        return output, json.loads(modules)

    def test_cli_import_and_warm_suite_load_no_scipy(self, tmp_path):
        assert self._run() == ("", [])
        cache = str(tmp_path / "store")
        cold, cold_modules = self._run("suite", "--cache", cache)
        assert "scipy.optimize" in cold_modules  # the cold run solves
        warm, warm_modules = self._run("suite", "--cache", cache)
        assert warm == cold
        assert warm_modules == []

    def test_scipy_backend_selected_by_environment_still_solves(
            self, monkeypatch):
        from repro.solve.backend import selected_backend_name

        def crc_values():
            estimator = PWCETEstimator(load("crc"),
                                       EstimatorConfig(cache="off"),
                                       name="crc")
            return (estimator.fault_free_wcet(),
                    estimator.estimate("srb").pwcet(),
                    estimator.solver_stats.ilp_solved)

        default = crc_values()
        monkeypatch.setenv("REPRO_SOLVE_BACKEND", "scipy")
        assert selected_backend_name() == "scipy"
        solves = []
        scipy_solve = ScipyBackend._solve
        monkeypatch.setattr(ScipyBackend, "_solve", lambda *args: (
            solves.append(args[1]) or scipy_solve(*args)))
        assert crc_values() == default
        assert len(solves) == default[2]
        assert default[:2] == (92301, 762001)  # the golden crc values
        assert default[2] > 0
