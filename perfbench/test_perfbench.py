"""Tests of the benchmark's own parsers, checks and span arithmetic."""

from __future__ import annotations

import json

import pytest

import checks
import harness
import run
from spans import (Recorder, chrome_trace, inclusive_by_name,
                   layer_self_totals, self_times)

SWEEP = (run.EXPECTED / "sweep.txt").read_text()
SUITE = (run.EXPECTED / "suite.txt").read_text()
WARM_FOOTER = (
    "solver: 0 ILPs solved, 0 served by the persistent cache (hit rate "
    "0.0%), 0 in-process dedup hits, 0+0 cells pruned (empty/structural)\n"
    "analysis: 0 classification tables built, 0 served by the persistent "
    "cache\n"
    "cells: 600 (mechanism, pfail) cells served by the persistent cell "
    "store\n")


def _replace_row(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


# -- report checks -------------------------------------------------------

def test_pinned_reports_pass_their_invariants():
    assert checks.check_suite_invariants(SUITE) == []
    assert checks.check_sweep_invariants(SWEEP) == []
    assert checks.sweep_cell_count(SWEEP) == 8 * 3 * 25


def test_suite_row_with_srb_above_none_fails():
    line = next(line for line in SUITE.splitlines()
                if line.startswith("crc "))
    fields = line.split()
    broken = line.replace(f" {fields[3]} ", " 1.020 ", 1)
    problems = checks.check_suite_invariants(
        _replace_row(SUITE, line, broken))
    assert any("crc: SRB 1.02 above none" in p for p in problems)


def test_sweep_row_with_srb_above_none_fails():
    row = checks.sweep_rows(SWEEP)[1]
    assert row.mechanism == "srb"
    broken = row.line.replace(f" {row.mean_pwcet} ", " 99999999 ", 1)
    problems = checks.check_sweep_invariants(
        _replace_row(SWEEP, row.line, broken))
    assert len(problems) == 1 and "above the unprotected" in problems[0]


def _extended(high: str) -> str:
    """The pinned sweep with a second pfail column copied from the
    first (equal pWCETs: monotone, but only just)."""
    lines = SWEEP.splitlines()
    rows = checks.sweep_rows(SWEEP)
    copies = [row.line.replace("1e-04", high) for row in rows]
    return "\n".join(lines[:3] + [row.line for row in rows] + copies) + "\n"


def test_pfail_monotone_accepts_equal_and_rejects_a_drop():
    text = _extended("1e-03")
    assert checks.check_pfail_monotone(text, 1e-4, 1e-3) == []
    row = next(row for row in checks.sweep_rows(text) if row.pfail == 1e-3)
    lowered = row.line.replace(f" {row.mean_pwcet} ",
                               f" {row.mean_pwcet - 1} ", 1)
    problems = checks.check_pfail_monotone(
        _replace_row(text, row.line, lowered), 1e-4, 1e-3)
    assert len(problems) == 1 and "below" in problems[0]


def test_pfail_monotone_requires_both_columns():
    assert checks.check_pfail_monotone(SWEEP, 1e-4, 1e-3) != []


def test_rows_match_detects_a_changed_base_row():
    text = _extended("1e-03")
    assert checks.check_rows_match(text, SWEEP, 1e-4) == []
    row = checks.sweep_rows(text)[0]
    changed = row.line.replace(f" {row.mean_pwcet} ",
                               f" {row.mean_pwcet + 1} ", 1)
    assert checks.check_rows_match(_replace_row(text, row.line, changed),
                                   SWEEP, 1e-4) != []


def test_footer_split_and_parse():
    tables, footer = checks.split_footer(SWEEP + "\n" + WARM_FOOTER)
    assert tables == SWEEP and footer == WARM_FOOTER
    counts = checks.parse_footer(footer)
    assert counts["ilps_solved"] == 0 and counts["cells_served"] == 600
    assert checks.split_footer(SUITE) == (SUITE, "")


def test_unparsable_footer_line_raises():
    with pytest.raises(ValueError):
        checks.parse_footer("solver: many ILPs solved\n")


def test_warm_footer_with_ilps_fails():
    workload = run.WORKLOADS["sweep-warm"]
    assert run.check_output(workload, 0, SWEEP + "\n" + WARM_FOOTER) == []
    busy = WARM_FOOTER.replace("solver: 0 ILPs", "solver: 7 ILPs")
    problems = run.check_output(workload, 0, SWEEP + "\n" + busy)
    assert problems == ["footer: ilps_solved is 7, expected 0"]


def test_changed_table_fails_against_the_pinned_output():
    workload = run.WORKLOADS["sweep-warm"]
    text = SWEEP.replace("Sweep over", "Sweep  over", 1) + "\n" + WARM_FOOTER
    assert any("differ from the pinned output" in problem
               for problem in run.check_output(workload, 0, text))


def test_every_extend_pfail_has_a_pinned_output():
    workload = run.WORKLOADS["sweep-extend"]
    for seed in range(50):
        low, high = workload.pfails(seed)
        assert low == run.BASE_PFAIL < high <= 1e-2
        assert workload.expected_file(seed).is_file()


# -- spans ---------------------------------------------------------------

class _Clock:
    def __init__(self, *ticks: float) -> None:
        self._ticks = list(ticks)

    def __call__(self) -> float:
        return self._ticks.pop(0)


def test_self_time_subtracts_children_on_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    recorder = Recorder(clock=_Clock(0, 1, 2, 3, 6, 7, 9, 10))
    root = recorder.begin("root", "cli")
    a = recorder.begin("a", "solve")
    b = recorder.begin("b", "store")
    recorder.end(b)
    recorder.end(a)
    c = recorder.begin("c", "solve")
    recorder.end(c)
    recorder.end(root)
    assert [span.parent for span in recorder.spans] == [-1, 0, 1, 0]
    assert self_times(recorder.spans) == [3, 4, 1, 2]
    assert layer_self_totals(recorder.spans) == {"cli": 3, "solve": 6,
                                                 "store": 1}
    assert sum(layer_self_totals(recorder.spans).values()) == 10


def test_self_time_never_double_subtracts_overlapping_children():
    recorder = Recorder(clock=_Clock(0, 10))
    root = recorder.begin("root", "x")
    recorder.end(root)
    recorder.spans.append(type(recorder.spans[0])("a", "y", 1, 5, 0))
    recorder.spans.append(type(recorder.spans[0])("b", "y", 3, 12, 0))
    assert self_times(recorder.spans)[0] == 1


def test_inclusive_time_counts_reentry_once():
    recorder = Recorder(clock=_Clock(0, 1, 2, 3, 4, 5))
    outer = recorder.begin("f", "x")
    inner = recorder.begin("f", "x")
    recorder.end(inner)
    recorder.end(outer)
    other = recorder.begin("f", "x")
    recorder.end(other)
    assert inclusive_by_name(recorder.spans) == {"f": 4}


def test_chrome_trace_events():
    recorder = Recorder(clock=_Clock(1.0, 1.5))
    recorder.end(recorder.begin("solve", "solve.backend"))
    trace = chrome_trace(recorder.spans, origin=1.0)
    assert trace["traceEvents"] == [{
        "name": "solve", "cat": "solve.backend", "ph": "X", "ts": 0.0,
        "dur": 500000.0, "pid": 1, "tid": 1, "args": {"parent": -1}}]


# -- harness ---------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   numpy.core
import time:        50 |        150 | numpy
import time:        20 |         20 |     numpy.linalg
import time:        30 |         50 |   scipy.sparse
import time:        10 |         60 | scipy
import time:        40 |        300 |   repro.solve
import time:        25 |        325 | repro
import time:         5 |          5 | repro.cli
"""


def test_parse_importtime():
    totals = harness.parse_importtime(IMPORTTIME)
    assert totals == pytest.approx({"total": 330e-6, "scipy": 60e-6,
                                    "numpy": 170e-6})


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile([1.0] * 10) is None
    assert harness.tail_percentile(list(range(20))) == (50, 9)
    assert harness.tail_percentile(list(range(100))) == (90, 89)


def test_relative_time_divides_by_the_references_around_each_run():
    def sample(wall, cpu):
        return harness.Sample(code=0, wall_s=wall, cpu_s=cpu,
                              peak_rss_mb=1.0)
    samples = [sample(6.0, 3.0), sample(9.0, 4.0)]
    references = [sample(1.0, 1.0), sample(3.0, 1.0), sample(1.5, 3.0)]
    assert run.relative(samples, references, "wall_s") == [3.0, 4.0]
    assert run.relative(samples, references, "cpu_s") == [3.0, 2.0]


# -- BENCHMARK.json --------------------------------------------------------

def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    # The spec lists a subset of the workloads (the rest run by name),
    # each with the reason run.py gives for it.
    for entry in spec["workloads"]:
        assert entry["why"] == run.WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
