"""The multi-geometry sweep service and its Pareto reporting."""

from __future__ import annotations

import pytest

from repro.cache import CacheGeometry
from repro.errors import ConfigurationError
from repro.pwcet import EstimatorConfig
from repro.sweep import (DesignPoint, SweepCell, format_pareto_fronts,
                         format_sweep_report, geometry_grid, pareto_front,
                         run_sweep, sweep_cells)

SUBSET = ("bs", "fibcall")


class TestGrid:
    def test_default_grid_covers_at_least_twelve_geometries(self):
        grid = geometry_grid()
        assert len(grid) >= 12
        assert len(set(grid)) == len(grid)
        assert CacheGeometry.from_size(1024, 4, 16) in grid  # the paper's

    def test_infeasible_combinations_are_skipped(self):
        grid = geometry_grid(sizes=(128,), ways=(2, 8), lines=(32,))
        # 128 B in 8 ways of 32 B lines does not divide; 2 ways does.
        assert grid == (CacheGeometry.from_size(128, 2, 32),)

    def test_fully_infeasible_axes_raise(self):
        with pytest.raises(ConfigurationError):
            geometry_grid(sizes=(64,), ways=(8,), lines=(32,))

    def test_cells_are_geometry_major(self):
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        cells = sweep_cells(geometries, pfails=(1e-4, 1e-3))
        assert [cell.geometry.total_bytes for cell in cells] == \
            [512, 512, 1024, 1024]
        assert [cell.pfail for cell in cells] == [1e-4, 1e-3, 1e-4, 1e-3]


def _point(mechanism="srb", gain=0.5, area=100.0, pfail=1e-4,
           geometry=None) -> DesignPoint:
    if geometry is None:
        geometry = CacheGeometry.from_size(1024, 4, 16)
    return DesignPoint(cell=SweepCell(geometry=geometry, pfail=pfail),
                       mechanism=mechanism, mean_pwcet=1000.0,
                       mean_gain=gain, area_cells=area,
                       area_overhead=0.1, leakage_cells=area)


class TestParetoFront:
    def test_dominated_points_are_dropped(self):
        cheap_good = _point(gain=0.6, area=100.0)
        pricey_bad = _point(gain=0.5, area=200.0)
        pricey_best = _point(gain=0.9, area=300.0)
        front = pareto_front((pricey_bad, cheap_good, pricey_best))
        assert front == (cheap_good, pricey_best)

    def test_equal_points_both_survive(self):
        twin_a, twin_b = _point(), _point()
        assert len(pareto_front((twin_a, twin_b))) == 2

    def test_front_is_sorted_cheapest_first(self):
        points = (_point(gain=0.9, area=300.0), _point(gain=0.6, area=100.0))
        front = pareto_front(points)
        assert [point.area_cells for point in front] == [100.0, 300.0]


class TestRunSweep:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("sweepcache"))
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        return run_sweep(geometries, pfails=(1e-4, 1e-3),
                         benchmarks=SUBSET,
                         config=EstimatorConfig(cache=cache))

    def test_every_cell_and_mechanism_reported(self, result):
        assert len(result.cells()) == 4  # 2 geometries x 2 pfails
        assert len(result.points) == 4 * 3  # x (none, srb, rw)

    def test_gains_and_costs_are_sane(self, result):
        for point in result.points:
            assert 0.0 <= point.mean_gain <= 1.0
            assert point.mean_pwcet > 0
            assert point.area_cells > 0
            if point.mechanism == "none":
                assert point.mean_gain == 0.0
                assert point.area_overhead == 0.0
            else:
                assert point.area_overhead > 0.0

    def test_pfail_axis_is_prefilled_by_the_batched_kernel(self, result):
        """Grid cells that share penalty structure never recompute it:
        the first cell of each geometry batches the whole pfail axis
        through the distribution kernel and prefills the cell store,
        so the second column runs no solver, analysis or convolution
        work at all — it is answered whole from the cell store."""
        totals = result.solver_totals
        # 2 geometries x len(SUBSET) benchmarks x 3 mechanisms x 1
        # sibling pfail — one prefilled row per second-column cell.
        expected = 2 * len(SUBSET) * 3
        assert totals["dist_batched_rows"] == expected
        assert totals["cells_from_store"] == expected
        # The prefill replaces the PR 6 behaviour (second column
        # re-solving against the persistent solve store): each ILP of
        # the sweep is now solved exactly once.
        assert totals["store_hits"] == 0

    def test_report_contains_fronts_and_solver_summary(self, result):
        text = format_sweep_report(result)
        assert "Pareto front — srb at pfail=0.0001" in text
        assert "Pareto front — rw at pfail=0.001" in text
        assert "persistent cache" in text

    def test_run_sweep_preserves_outer_memo(self, tmp_path):
        """The sweep neither clears, reuses nor overwrites the runner
        memo — even when its grid contains a memoised configuration."""
        from repro.experiments.runner import fresh_results, run_benchmark

        # The memoised fibcall result comes from a warm store, so its
        # counters differ from what the sweep's own cold cell counts.
        warm = EstimatorConfig(cache=str(tmp_path / "warm"))
        with fresh_results():
            run_benchmark("fibcall", warm)
        with fresh_results():
            outer = run_benchmark("fibcall", warm)
        assert outer.solver_stats["ilp_solved"] == 0
        # The paper's default cell (1 KB, 4-way, 16 B, pfail 1e-4) is
        # the memoised configuration.
        geometries = geometry_grid(sizes=(512, 1024), ways=(4,),
                                   lines=(16,))

        def sweep(cache):
            return run_sweep(geometries, pfails=(1e-4,),
                             benchmarks=("bs", "fibcall"),
                             config=EstimatorConfig(cache=cache))

        swept = sweep(str(tmp_path / "store"))
        assert run_benchmark("fibcall") is outer
        with fresh_results():
            fresh = sweep(str(tmp_path / "fresh"))
        assert swept.solver_totals == fresh.solver_totals
        assert swept.solver_totals["ilp_solved"] > 0

    def test_fronts_never_mix_pfails(self, result):
        text = format_pareto_fronts(result)
        for section in text.split("\n\n"):
            header = section.splitlines()[0]
            pfail = "1e-04" if "0.0001" in header else "1e-03"
            for line in section.splitlines()[3:]:
                assert pfail in line

    def test_streaming_callback_sees_every_cell_in_grid_order(
            self, tmp_path):
        seen = []

        def on_cell(cell, points, completed, total):
            seen.append((cell, points, completed, total))

        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        result = run_sweep(geometries, pfails=(1e-4,),
                           benchmarks=("fibcall",),
                           config=EstimatorConfig(
                               cache=str(tmp_path / "store")),
                           on_cell=on_cell)
        assert [cell for cell, *_ in seen] == list(result.cells())
        assert [completed for *_, completed, _ in seen] == [1, 2]
        assert all(total == 2 for *_, total in seen)
        streamed = [point for _, points, *_ in seen for point in points]
        assert tuple(streamed) == result.points


class TestParallelSweep:
    """`repro sweep --workers N`: whole-cell fan-out over a pool."""

    def test_parallel_report_is_byte_identical(self, tmp_path):
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        kwargs = dict(pfails=(1e-4, 1e-3), benchmarks=("fibcall",),
                      probability=1e-15)
        sequential = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "seq")), **kwargs)
        parallel = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "par")),
            cell_workers=2, **kwargs)
        assert parallel.points == sequential.points
        assert format_sweep_report(parallel) == \
            format_sweep_report(sequential)

    def test_parallel_streaming_covers_every_cell(self, tmp_path):
        seen = []
        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16,))
        result = run_sweep(geometries, pfails=(1e-4,),
                           benchmarks=("fibcall",),
                           config=EstimatorConfig(
                               cache=str(tmp_path / "store")),
                           cell_workers=2,
                           on_cell=lambda cell, points, completed, total:
                           seen.append((cell, completed, total)))
        # Completion order is nondeterministic; coverage is not.
        assert {cell for cell, *_ in seen} == set(result.cells())
        assert sorted(completed for _, completed, _ in seen) == [1, 2]

    @pytest.mark.parametrize("cell_workers", (1, 4))
    def test_batched_engine_report_matches_vector(self, tmp_path,
                                                  monkeypatch,
                                                  cell_workers):
        """The geometry-batched kernel changes no output byte.

        Compared against the dict oracle.  Two line-size groups, so
        ``cell_workers=4`` exercises the parallel group fan-out.  Only
        the physical fixpoint count may differ between the engines —
        the batching orchestration (store traffic, prefilled siblings,
        tables) is engine-independent.
        """
        from repro.analysis.classify import ENGINE_ENV

        geometries = geometry_grid(sizes=(512, 1024), ways=(2,),
                                   lines=(16, 32))
        kwargs = dict(pfails=(1e-4,), benchmarks=("fibcall", "bs"),
                      cell_workers=cell_workers)
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        batched = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "batch")),
            **kwargs)
        monkeypatch.setenv(ENGINE_ENV, "dict")
        oracle = run_sweep(
            geometries,
            config=EstimatorConfig(cache=str(tmp_path / "dict")),
            **kwargs)
        assert format_sweep_report(batched) == \
            format_sweep_report(oracle)
        assert batched.points == oracle.points
        batch_totals = dict(batched.solver_totals)
        oracle_totals = dict(oracle.solver_totals)
        # One stacked pair + one SRB fixpoint per (benchmark, group);
        # the oracle runs a pair per associativity 1..W plus the SRB
        # fixpoint per (benchmark, geometry).
        assert batch_totals.pop("fixpoints_run") == 2 * 2 * 3
        assert oracle_totals.pop("fixpoints_run") == 2 * 4 * (2 * 2 + 1)
        assert batch_totals == oracle_totals
        # Each benchmark batched one sibling geometry per group.
        assert batched.solver_totals["classify_batched_rows"] == 2 * 2
        assert batched.solver_totals["geometry_groups"] == 2 * 2

    def test_parallel_cap_never_oversubscribes(self):
        """Product of group fan-out x inner workers <= cell_workers.

        The pre-cap formula divided the width by the *geometry* count
        and honoured an explicit ``workers`` request unconditionally —
        so e.g. 4 groups x workers=4 under cell_workers=4 spawned 16
        concurrent benchmark tasks."""
        from repro.sweep.service import _inner_width

        for group_count in (1, 2, 3, 4, 8):
            for cell_workers in (1, 2, 3, 4, 8):
                for workers in (None, 1, 2, 4, 8):
                    inner = _inner_width(group_count, cell_workers,
                                         workers)
                    assert inner >= 1
                    assert min(group_count, cell_workers) * inner \
                        <= cell_workers
        # The oversubscription case from the issue: the explicit
        # workers request no longer multiplies across groups.
        assert _inner_width(4, 4, 4) == 1
        # Leftover width still flows inward when groups are few.
        assert _inner_width(2, 8, None) == 4

    def test_cli_sweep_workers_streams_progress(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "--sizes", "512", "--ways", "2",
                     "--lines", "16", "--benchmarks", "fibcall",
                     "--workers", "2",
                     "--cache", str(tmp_path / "store")]) == 0
        captured = capsys.readouterr()
        assert "Pareto front" in captured.out
        assert "best gain" in captured.err
        assert "[  1/1]" in captured.err
