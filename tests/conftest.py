"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.cache import CacheGeometry
from repro.ipet import TimingModel
from repro.minic import (Call, Compute, Function, If, Loop, Program,
                         compile_program)


@pytest.fixture(scope="session", autouse=True)
def _isolated_solve_cache(tmp_path_factory):
    """Point the persistent solve cache at a per-session directory.

    Keeps the tier-1 suite hermetic: runs never read entries written
    by earlier sessions (planner-stats assertions stay deterministic)
    and never pollute the user's real cache, while the store codepath
    itself remains exercised end to end.  Tests that need an explicit
    store location still win via ``EstimatorConfig(cache=...)``.
    """
    from repro.solve.store import CACHE_ENV, REMOTE_ENV

    saved = {name: os.environ.get(name) for name in (CACHE_ENV, REMOTE_ENV)}
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("solvecache"))
    # A remote store inherited from the invoking shell would make
    # every store resolve() reach over the network; the suite must be
    # hermetic (individual remote tests opt back in explicitly).
    os.environ.pop(REMOTE_ENV, None)
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture(scope="session")
def paper_geometry() -> CacheGeometry:
    """The paper's 1 KB, 4-way, 16 B-line configuration."""
    return CacheGeometry.from_size(1024, 4, 16)


@pytest.fixture(scope="session")
def small_geometry() -> CacheGeometry:
    """A 4-set, 2-way cache: small enough to reason about by hand."""
    return CacheGeometry(sets=4, ways=2, block_bytes=16)


@pytest.fixture(scope="session")
def timing() -> TimingModel:
    return TimingModel()


@pytest.fixture(scope="session")
def loop_program():
    """One loop with a branch: the workhorse small program."""
    program = Program([Function("main", [
        Compute(6),
        Loop(10, [Compute(4), If([Compute(3)], [Compute(2)])]),
        Compute(2),
    ])], name="loop_program")
    return compile_program(program)


@pytest.fixture(scope="session")
def call_program():
    """Nested loops across a function call (tests virtual inlining)."""
    program = Program([
        Function("main", [
            Compute(4),
            Loop(6, [Compute(3), Call("helper"), Compute(2)]),
        ]),
        Function("helper", [Loop(4, [Compute(5)])]),
    ], name="call_program")
    return compile_program(program)


@pytest.fixture(scope="session")
def straight_line_program():
    """No loops at all: every fetch happens at most once."""
    program = Program([Function("main", [Compute(40)])],
                      name="straight_line")
    return compile_program(program)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20160325)
