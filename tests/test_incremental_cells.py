"""The incremental cell-granular DAG (PR 6).

Covers the plan pass (content-address probes, satisfied-from-store
completion, undemanded-task skipping), deterministic artifact-key
dispatch order, bit-identity of the cell-granular schedule against the
fused :class:`~repro.pwcet.PWCETEstimator` oracle, one-program-edit
invalidation, and
the ``--only-cells`` sweep filter.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (BenchmarkResult, fresh_results,
                                      run_benchmark, run_suite,
                                      solver_totals)
from repro.pipeline import PipelineScheduler, PipelineStats
from repro.pipeline.stages import _merged_counters
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.suite import load
from repro.sweep import SweepResult, format_pareto_fronts, \
    format_sweep_table, geometry_grid, run_sweep, sweep_cells
from repro.sweep.service import _cell_points

SUBSET = ("bs", "fibcall", "prime")
MECHANISMS = ("none", "srb", "rw")


def _slow_value(value):
    """Picklable pool task body (work stealing needs real pool tasks)."""
    time.sleep(0.05)
    return value


class TestPlanPass:
    def test_probe_hit_satisfies_task_and_skips_upstream(self):
        scheduler = PipelineScheduler(workers=1)
        ran = []
        scheduler.add("up", lambda: ran.append("up") or "U")
        scheduler.add("mid", lambda up: ran.append("mid") or up + "M",
                      deps=("up",), stage="cell", probe=lambda: "stored")
        scheduler.add("down", lambda mid: ran.append("down") or mid + "!",
                      deps=("mid",))
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        # The probed task never ran, its dependent saw the stored value
        # verbatim, and the now-undemanded upstream task was skipped.
        assert ran == ["down"]
        assert results["mid"] == "stored"
        assert results["down"] == "stored!"
        assert "up" not in results
        assert stats.from_store == {"cell": 1}
        assert stats.tasks == {"task": 1}

    def test_probe_miss_runs_the_whole_chain(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("up", lambda: "U")
        scheduler.add("mid", lambda up: up + "M", deps=("up",),
                      stage="cell", probe=lambda: None)
        scheduler.add("down", lambda mid: mid + "!", deps=("mid",))
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results["down"] == "UM!"
        assert stats.from_store == {}
        assert stats.tasks_run == 3

    def test_partial_hits_recompute_only_the_missed_branch(self):
        scheduler = PipelineScheduler(workers=1)
        ran = []
        scheduler.add("solve", lambda: ran.append("solve") or 10)
        scheduler.add("hit", lambda solve: ran.append("hit") or solve + 1,
                      deps=("solve",), stage="cell", probe=lambda: 99)
        scheduler.add("miss", lambda solve: ran.append("miss") or solve + 2,
                      deps=("solve",), stage="cell", probe=lambda: None)
        scheduler.add("sink", lambda a, b: (a, b), deps=("hit", "miss"))
        results = scheduler.run()
        # One cell missed, so the shared solve stage still runs — and
        # the hit cell's stored value is used as-is next to it.
        assert ran == ["solve", "miss"]
        assert results["sink"] == (99, 12)

    def test_plan_is_a_dry_run(self):
        scheduler = PipelineScheduler(workers=1)
        scheduler.add("up", lambda: "U")
        scheduler.add("mid", lambda up: up, deps=("up",), stage="cell",
                      probe=lambda: "S")
        scheduler.add("down", lambda mid: mid + "!", deps=("mid",))
        plan = scheduler.plan()
        assert plan == {"from_store": ("mid",), "run": ("down",),
                        "skipped": ("up",)}
        # The task set was not consumed; run() applies the same plan.
        results = scheduler.run()
        assert results["down"] == "S!"

    def test_satisfied_sink_runs_nothing(self):
        scheduler = PipelineScheduler(workers=1)
        ran = []
        scheduler.add("up", lambda: ran.append("up") or "U")
        scheduler.add("sink", lambda up: ran.append("sink") or up,
                      deps=("up",), stage="cell", probe=lambda: "done")
        results = scheduler.run()
        assert ran == []
        assert results == {"sink": "done"}

    def test_work_stealing_preserves_results(self):
        scheduler = PipelineScheduler(workers=2)
        for index in range(6):
            scheduler.add(f"pool:{index}", _slow_value, args=(index,),
                          pool=True, stage="steal")
        stats = PipelineStats()
        results = scheduler.run(stats=stats)
        assert results == {f"pool:{index}": index for index in range(6)}
        assert stats.tasks == {"steal": 6}
        assert stats.stage_seconds["steal"] > 0


class TestDeterministicOrder:
    def test_order_key_ranks_ready_dispatch(self):
        scheduler = PipelineScheduler(workers=1)
        log = []
        scheduler.add("a", lambda: log.append("a"), order_key="zz")
        scheduler.add("b", lambda: log.append("b"), order_key="aa")
        scheduler.add("c", lambda: log.append("c"))  # "" sorts first
        scheduler.run()
        assert log == ["c", "b", "a"]

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_dispatch_order_is_hash_seed_independent(self, seed,
                                                     tmp_path):
        """The same DAG dispatches in the same order under any
        PYTHONHASHSEED — the regression satellite of ISSUE 6."""
        script = (
            "from repro.pipeline import PipelineScheduler, benchmark_dag\n"
            "from repro.pwcet import EstimatorConfig\n"
            "config = EstimatorConfig(cache='off')\n"
            "scheduler = PipelineScheduler(workers=1)\n"
            "for name in ('fibcall', 'bs'):\n"
            "    benchmark_dag(scheduler, name, config, 1e-9)\n"
            "scheduler.run(on_task=lambda key, *rest: print(key))\n")
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(root / "src")
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, cwd=root,
                             check=True)
        order = run.stdout.splitlines()
        assert len(order) == 12  # 2 x (classify + solve + 3 cells + result)
        expected = (tmp_path.parent / "dispatch-order.txt")
        # First seed records the order, the second must reproduce it
        # byte for byte (parametrised runs share tmp_path's parent).
        if expected.exists():
            assert expected.read_text().splitlines() == order
        else:
            expected.write_text("\n".join(order) + "\n")


def _fused_result(name, config):
    """One benchmark through the fused :class:`PWCETEstimator` — the
    ``repro estimate`` path, and the oracle the cell DAG is held to."""
    estimator = PWCETEstimator(load(name), config, name=name)
    return BenchmarkResult(
        name=name,
        wcet_fault_free=estimator.fault_free_wcet(),
        estimates=estimator.estimate_all(),
        target_probability=TARGET_EXCEEDANCE,
        solver_stats=_merged_counters(estimator.stats_summary(), {}))


class TestScheduleIdentity:
    """The cell-granular schedule is bit-identical to the fused
    estimator oracle, in every worker mode."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_suite_matches_reference_schedule(self, tmp_path, workers):
        with fresh_results():
            cell_stats = PipelineStats()
            cellrun = run_suite(EstimatorConfig(cache=str(tmp_path / "cell")),
                                benchmarks=SUBSET, workers=workers,
                                pipeline_stats=cell_stats)
        oracle = EstimatorConfig(cache=str(tmp_path / "oracle"))
        reference = [_fused_result(name, oracle) for name in SUBSET]
        for before, after in zip(reference, cellrun):
            assert before.name == after.name
            assert before.wcet_fault_free == after.wcet_fault_free
            assert before.solver_stats == after.solver_stats
            for mechanism in MECHANISMS:
                assert before.pwcet(mechanism) == after.pwcet(mechanism)
                assert before.estimates[mechanism].fmm.rows == \
                    after.estimates[mechanism].fmm.rows
        assert solver_totals(reference) == cell_stats.totals()

    @pytest.mark.parametrize("kwargs", [{}, {"cell_workers": 4}],
                             ids=["sequential", "parallel"])
    def test_sweep_report_matches_reference_schedule(self, tmp_path,
                                                     kwargs):
        """The paper-facing numbers are bit-identical to the oracle's.

        The sweep's work profile is its own: the first pfail column
        prefills the axis through the batched distribution kernel, so
        the second column is served whole from the cell store —
        asserted explicitly below.
        """
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        pfails = (1e-4, 1e-3)
        benchmarks = ("bs", "fibcall")
        cellrun = run_sweep(geometries, pfails=pfails, benchmarks=benchmarks,
                            config=EstimatorConfig(
                                cache=str(tmp_path / "cell")),
                            **kwargs)
        points = []
        for cell in sweep_cells(geometries, pfails):
            config = EstimatorConfig(geometry=cell.geometry,
                                     pfail=cell.pfail,
                                     cache=str(tmp_path / "oracle"))
            points.extend(_cell_points(
                cell, [_fused_result(name, config) for name in benchmarks]))
        reference = SweepResult(points=tuple(points), benchmarks=benchmarks,
                                probability=TARGET_EXCEEDANCE,
                                solver_totals={})
        assert cellrun.points == reference.points
        assert format_sweep_table(reference) == \
            format_sweep_table(cellrun)
        assert format_pareto_fronts(reference) == \
            format_pareto_fronts(cellrun)
        # 2 geometries x 2 benchmarks x 3 mechanisms x 1 sibling pfail.
        assert cellrun.solver_totals["dist_batched_rows"] == 12
        assert cellrun.solver_totals["cells_from_store"] == 12


class TestIncrementalInvalidation:
    def test_warm_rerun_satisfies_every_cell(self, tmp_path):
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        with fresh_results():
            cold = PipelineStats()
            run_suite(config, benchmarks=SUBSET, pipeline_stats=cold)
        assert cold.cells_recomputed == 3 * len(SUBSET)
        assert cold.cells_from_store == 0
        with fresh_results():
            warm = PipelineStats()
            run_suite(config, benchmarks=SUBSET, pipeline_stats=warm)
        assert warm.cells_from_store == 3 * len(SUBSET)
        assert warm.cells_recomputed == 0
        assert warm.cells_total == cold.cells_total
        # Only the inline result sinks ran.
        assert warm.tasks == {"result": len(SUBSET)}

    def test_one_program_edit_recomputes_only_its_cells(self, tmp_path,
                                                        monkeypatch):
        """Editing one suite program invalidates that benchmark's cells
        by content address; every other benchmark stays from-store."""
        import repro.suite as suite
        from repro.minic import compile_program

        config = EstimatorConfig(cache=str(tmp_path / "store"))
        with fresh_results():
            run_suite(config, benchmarks=SUBSET)
        # Simulate the edit: "bs" now compiles to a different CFG (a
        # stand-in structure borrowed from a benchmark outside the
        # subset, so its digest is genuinely new to this store).
        edited = compile_program(suite.build("cnt"))
        assert edited.cfg.digest() != suite.load("bs").cfg.digest()
        monkeypatch.setitem(suite._COMPILED_CACHE, "bs", edited)
        with fresh_results():
            stats = PipelineStats()
            results = run_suite(config, benchmarks=SUBSET,
                                pipeline_stats=stats)
        assert stats.cells_recomputed == 3
        assert stats.cells_from_store == 3 * (len(SUBSET) - 1)
        # The edited benchmark re-ran its classify and solve stages;
        # nobody else did.
        assert stats.tasks == {"classify": 1, "solve": 1, "cell": 3,
                               "result": len(SUBSET)}
        assert [result.name for result in results] == list(SUBSET)

    def test_cold_results_carry_no_cell_counter(self, tmp_path):
        """`cells_from_store` appears in solver_stats only when cells
        were actually served, keeping cold runs schedule-identical."""
        config = EstimatorConfig(cache=str(tmp_path / "store"))
        with fresh_results():
            cold = run_benchmark("fibcall", config)
        assert "cells_from_store" not in cold.solver_stats
        with fresh_results():
            warm = run_benchmark("fibcall", config)
        assert warm.solver_stats["cells_from_store"] == 3
        assert warm.solver_stats["ilp_solved"] == 0


class TestOnlyCells:
    GEOMETRIES = geometry_grid(sizes=(512, 1024), ways=(2,), lines=(16,))

    def _sweep(self, cache, **kwargs):
        return run_sweep(self.GEOMETRIES, pfails=(1e-4, 1e-3),
                         benchmarks=("bs", "fibcall"),
                         config=EstimatorConfig(cache=cache), **kwargs)

    def test_selected_sections_byte_identical_to_full_run(self, tmp_path):
        full = self._sweep(str(tmp_path / "full"))
        only = self._sweep(str(tmp_path / "only"),
                           only_cells=(("srb", 1e-4),))
        selected = [point for point in full.points
                    if point.mechanism == "srb" and point.pfail == 1e-4]
        assert list(only.points) == selected
        full_sections = format_pareto_fronts(full).split("\n\n")
        only_sections = format_pareto_fronts(only).split("\n\n")
        header = "Pareto front — srb at pfail=0.0001"
        assert [s for s in only_sections if s.startswith(header)] == \
            [s for s in full_sections if s.startswith(header)]
        # The rw front (no candidates in the filtered run) is omitted
        # rather than rendered empty.
        assert len(only_sections) == 1

    def test_wildcard_pfail_keeps_every_column(self, tmp_path):
        only = self._sweep(str(tmp_path / "store"),
                           only_cells=(("rw", None),))
        assert {point.mechanism for point in only.points} == {"rw"}
        assert {point.pfail for point in only.points} == {1e-4, 1e-3}

    def test_filtered_run_does_not_poison_the_result_memo(self, tmp_path):
        cache = str(tmp_path / "store")
        with fresh_results():
            self._sweep(cache, only_cells=(("srb", 1e-4),))
            # A later full-estimate driver in the same process must
            # not be handed a subset-mechanism result from the memo.
            config = EstimatorConfig(
                cache=cache, geometry=self.GEOMETRIES[0], pfail=1e-4)
            result = run_benchmark("bs", config)
        assert set(result.estimates) == set(MECHANISMS)

    def test_unknown_mechanism_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            self._sweep(str(tmp_path / "store"),
                        only_cells=(("bogus", None),))

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no filter matches"):
            self._sweep(str(tmp_path / "store"),
                        only_cells=((None, 0.5),))

    def test_cli_only_cells_filters_the_report(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "--sizes", "512", "--ways", "2",
                     "--lines", "16", "--pfails", "1e-4",
                     "--benchmarks", "fibcall",
                     "--only-cells", "mech=srb",
                     "--cache", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "Pareto front — srb at pfail=0.0001" in out
        assert "Pareto front — rw" not in out

    def test_cli_only_cells_parsing(self):
        from repro.cli import _parse_only_cells
        assert _parse_only_cells(None) is None
        assert _parse_only_cells(["mech=srb,pfail=1e-4"]) == \
            (("srb", 0.0001),)
        assert _parse_only_cells(["pfail=1e-3", "mech=rw"]) == \
            ((None, 0.001), ("rw", None))
        for bad in (["bogus"], ["pfail=abc"], ["kind=x"], [""]):
            with pytest.raises(SystemExit):
                _parse_only_cells(bad)
