"""Parsers and output checks for the ``repro suite`` / ``repro sweep`` reports.

Pure functions over the CLI's stdout text, with no dependency on the
``repro`` package, so the benchmark can judge any build of the program
and the checks can be unit-tested on hand-written reports.

A check returns a list of problems; an empty list means the output
passed.  The benchmark counts a run as failed when any check reports a
problem.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: First word of each counter line of a sweep footer → its pattern and
#: the footer count each captured number adds to.  A line the report
#: leaves out (they are presence-gated in ``format_sweep_report``)
#: leaves its counts at 0.
_FOOTER_LINES = {
    "solver:": (re.compile(
        r"solver: (\d+) ILPs solved, (\d+) served by the persistent cache "
        r"\(hit rate [^)]*\), (\d+) in-process dedup hits, (\d+)\+(\d+) "
        r"cells pruned"),
        ("ilps_solved", "store_hits", "dedup_hits", "cells_pruned",
         "cells_pruned")),
    "analysis:": (re.compile(
        r"analysis: (\d+) classification tables built, (\d+) served by the "
        r"persistent cache"), ("tables_built", "tables_served")),
    "cells:": (re.compile(r"cells: (\d+) \(mechanism, pfail\) cells served"),
               ("cells_served",)),
    "distribution:": (re.compile(r"distribution: (\d+) pfail rows "
                                 r"prefilled"), ("rows_prefilled",)),
    "classification:": (re.compile(
        r"classification: (\d+) sibling geometries prefilled by the "
        r"stacked kernel"), ("geometries_prefilled",)),
}

#: Footer counts, in report order.
FOOTER_COUNTS = tuple(dict.fromkeys(
    name for _pattern, names in _FOOTER_LINES.values() for name in names))


def split_footer(text: str) -> tuple[str, str]:
    """``(result tables, counter footer)`` of one report.

    The footer is the report's last blank-line-separated section when
    it starts with ``solver:``; reports without one (``repro suite``)
    return an empty footer.
    """
    body = text.rstrip("\n")
    head, separator, last = body.rpartition("\n\n")
    if separator and last.startswith("solver:"):
        return head + "\n", last + "\n"
    return body + "\n", ""


def parse_footer(footer: str) -> dict[str, int]:
    """Counter values of a sweep footer (absent lines read as 0).

    Raises ``ValueError`` on a line that does not parse, so a format
    change cannot pass silently.
    """
    counts = dict.fromkeys(FOOTER_COUNTS, 0)
    for line in footer.splitlines():
        if not line.strip():
            continue
        pattern, names = _FOOTER_LINES.get(line.split(" ", 1)[0],
                                           (None, ()))
        match = pattern.match(line) if pattern is not None else None
        if match is None:
            raise ValueError(f"unparsable footer line {line!r}")
        for name, value in zip(names, match.groups()):
            counts[name] += int(value)
    return counts


# -- report tables -----------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One row of the sweep grid table."""

    size: str
    shape: str
    pfail: float
    mechanism: str
    mean_pwcet: int
    line: str

    @property
    def geometry(self) -> tuple[str, str]:
        return self.size, self.shape


def sweep_rows(text: str) -> list[SweepRow]:
    """Rows of the grid table (the first section of a sweep report)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("Sweep over "):
        raise ValueError("not a sweep report: first line is "
                         f"{lines[0] if lines else ''!r}")
    rows = []
    for line in lines[3:]:
        if not line.strip():
            break
        fields = line.split()
        if len(fields) != 8:
            raise ValueError(f"malformed sweep row {line!r}")
        rows.append(SweepRow(size=fields[0], shape=fields[1],
                             pfail=float(fields[2]), mechanism=fields[3],
                             mean_pwcet=int(fields[4]), line=line))
    if not rows:
        raise ValueError("sweep report has an empty grid table")
    return rows


def sweep_cell_count(text: str) -> int:
    """(benchmark, mechanism, pfail, geometry) estimation cells behind a
    sweep table: one per grid row and benchmark."""
    match = re.match(r"Sweep over \d+ cells x (\d+) benchmarks", text)
    if match is None:
        raise ValueError("not a sweep report")
    return len(sweep_rows(text)) * int(match.group(1))


@dataclass(frozen=True)
class SuiteRow:
    """One benchmark row of the Figure 4 table (normalised to none)."""

    name: str
    fault_free: float
    srb: float
    rw: float


def suite_rows(text: str) -> list[SuiteRow]:
    """Benchmark rows of a ``repro suite`` report."""
    rows = []
    for line in text.splitlines()[3:]:
        if not line.strip():
            break
        if line.startswith("--"):
            continue  # category heading
        fields = line.split()
        if len(fields) != 7:
            raise ValueError(f"malformed suite row {line!r}")
        rows.append(SuiteRow(name=fields[0], fault_free=float(fields[2]),
                             srb=float(fields[3]), rw=float(fields[4])))
    if not rows:
        raise ValueError("suite report has no benchmark rows")
    return rows


# -- program-independent invariants ------------------------------------

def check_suite_invariants(text: str) -> list[str]:
    """SRB <= 1, RW <= 1 and fault-free <= both, per benchmark.

    Values are normalised to the unprotected pWCET, so a mechanism
    above 1 would make the cache *worse* than no protection, and a
    fault-free WCET above a mechanism's pWCET would be an unsound
    bound.
    """
    try:
        rows = suite_rows(text)
    except ValueError as error:
        return [str(error)]
    problems = []
    for row in rows:
        if row.srb > 1.0:
            problems.append(f"{row.name}: SRB {row.srb} above none (1.0)")
        if row.rw > 1.0:
            problems.append(f"{row.name}: RW {row.rw} above none (1.0)")
        if row.fault_free > min(row.srb, row.rw):
            problems.append(f"{row.name}: fault-free {row.fault_free} "
                            f"above a protected pWCET "
                            f"(SRB {row.srb}, RW {row.rw})")
    return problems


def check_sweep_invariants(text: str) -> list[str]:
    """Mean pWCET of srb and rw <= none, per (geometry, pfail)."""
    try:
        rows = sweep_rows(text)
    except ValueError as error:
        return [str(error)]
    none = {(row.geometry, row.pfail): row.mean_pwcet
            for row in rows if row.mechanism == "none"}
    problems = []
    for row in rows:
        if row.mechanism == "none":
            continue
        reference = none.get((row.geometry, row.pfail))
        if reference is None:
            problems.append(f"{row.line.strip()}: no 'none' row for its "
                            "geometry and pfail")
        elif row.mean_pwcet > reference:
            problems.append(f"{row.line.strip()}: mean pWCET above the "
                            f"unprotected {reference}")
    return problems


def check_pfail_monotone(text: str, low: float, high: float) -> list[str]:
    """pWCET at ``high`` >= pWCET at ``low`` per (geometry, mechanism).

    More faulty cells can only lengthen the bound, so every row of the
    higher pfail must dominate its lower-pfail twin, and both pfails
    must be present for every (geometry, mechanism).
    """
    try:
        rows = sweep_rows(text)
    except ValueError as error:
        return [str(error)]
    by_pfail: dict[float, dict[tuple, int]] = {low: {}, high: {}}
    for row in rows:
        if row.pfail in by_pfail:
            by_pfail[row.pfail][(row.geometry, row.mechanism)] = \
                row.mean_pwcet
    problems = []
    if set(by_pfail[low]) != set(by_pfail[high]) or not by_pfail[low]:
        problems.append(f"pfail {low:g} and {high:g} cover different "
                        "(geometry, mechanism) rows")
    for key, value in by_pfail[low].items():
        higher = by_pfail[high].get(key)
        if higher is not None and higher < value:
            (size, shape), mechanism = key
            problems.append(f"{size} {shape} {mechanism}: pWCET {higher} "
                            f"at pfail {high:g} below {value} at "
                            f"{low:g}")
    return problems


def check_rows_match(text: str, reference: str, pfail: float) -> list[str]:
    """The ``pfail`` rows of ``text`` equal the rows of ``reference``.

    Used for the extended sweep: adding a pfail column must not change
    a single byte of the columns that were already there.
    """
    try:
        rows = [row.line for row in sweep_rows(text) if row.pfail == pfail]
        expected = [row.line for row in sweep_rows(reference)
                    if row.pfail == pfail]
    except ValueError as error:
        return [str(error)]
    if rows != expected:
        return [f"pfail {pfail:g} rows differ from the single-pfail sweep "
                f"({len(rows)} vs {len(expected)} rows)"]
    return []


def check_footer(counts: dict[str, int],
                 expected: dict[str, int]) -> list[str]:
    """Each ``expected`` counter equals the parsed footer value."""
    return [f"footer: {name} is {counts.get(name)}, expected {value}"
            for name, value in expected.items()
            if counts.get(name) != value]


def check_tables(tables: str, expected: str) -> list[str]:
    """Result tables byte-equal to the pinned expected output."""
    if tables == expected:
        return []
    got, want = tables.splitlines(), expected.splitlines()
    for number, (line, reference) in enumerate(zip(got, want), start=1):
        if line != reference:
            return [f"result tables differ from the pinned output at line "
                    f"{number}: {line!r} != {reference!r}"]
    return [f"result tables differ from the pinned output in length "
            f"({len(got)} vs {len(want)} lines)"]
