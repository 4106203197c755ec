"""The solve planner: dedup, prune, batch, and persist the ILP sweep.

One planner is bound to one shared :class:`LinearProgram` (the flow
polytope) and mediates every objective solved against it:

* **dedup** — results are cached by the request's canonical objective
  key, so symmetric cache sets, repeated degradation patterns, and
  mechanisms sharing degraded classifications are solved once;
* **persistence** — with a :class:`~repro.solve.store.SolveStore`
  attached, solved objectives are looked up on disk before the backend
  is touched and written through after every solve (including batched
  :meth:`prime` results), so repeated CLI/suite/CI invocations skip
  already-solved ILPs entirely;
* **structural pruning** — FMM rows are non-decreasing in fault count;
  a column whose *structural* upper bound (coefficients times loop
  bound products, no solver involved) cannot exceed the previous
  column's value is provably equal to it and the ILP is skipped.
  This is the planner's one pre-screen: it is free, where an
  LP-relaxation screen would pay one LP per column;
* **empty short-circuit** — a column with no degradable reference is
  0-penalty and never touches the solver;
* **batching** — :meth:`SolvePlanner.prime` solves the unique
  uncached requests of a whole sweep up front; with ``workers > 1``
  the batch fans out through the pipeline's shared
  :class:`~repro.pipeline.scheduler.PipelineScheduler` pool (workers
  re-freeze the program from a picklable
  :class:`~repro.solve.backend.ProgramSnapshot`, memoised per planner
  token), so solve batches and classification stage tasks share one
  worker pool instead of each planner spinning its own.

All shortcuts are value-preserving: planned results are bit-identical
to solving every (set, fault count) ILP directly.
"""

from __future__ import annotations

import math
import uuid
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SolverError
from repro.solve.backend import ceil_bound
from repro.solve.request import SolveRequest
from repro.solve.store import SolveStore, solve_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ipet.ilp import LinearProgram, Solution


@dataclass
class SolveStats:
    """Counters describing how much solver work the planner avoided."""

    #: FMM cells requested (including empty and pruned ones).
    requests: int = 0
    #: Integer programs actually handed to the backend.
    ilp_solved: int = 0
    #: LP relaxations solved (relaxed-mode solves).
    lp_solved: int = 0
    #: Requests answered from the canonical-objective cache.
    dedup_hits: int = 0
    #: Requests answered from the persistent cross-run store.
    store_hits: int = 0
    #: Cells skipped because their objective was empty.
    pruned_empty: int = 0
    #: Cells skipped because the structural (loop-bound) upper bound
    #: could not beat the previous column (monotonicity, solver-free).
    pruned_structural: int = 0

    @property
    def dedup_hit_rate(self) -> float:
        solvable = self.requests - self.pruned_empty
        return self.dedup_hits / solvable if solvable else 0.0

    @property
    def store_hit_rate(self) -> float:
        """Share of backend-bound solves answered by the store."""
        candidates = self.ilp_solved + self.store_hits
        return self.store_hits / candidates if candidates else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "ilp_solved": self.ilp_solved,
            "lp_solved": self.lp_solved,
            "dedup_hits": self.dedup_hits,
            "store_hits": self.store_hits,
            "pruned_empty": self.pruned_empty,
            "pruned_structural": self.pruned_structural,
            "dedup_hit_rate": self.dedup_hit_rate,
            "store_hit_rate": self.store_hit_rate,
        }


class SolvePlanner:
    """Plans every solve against one shared flow polytope."""

    def __init__(self, program: "LinearProgram", *,
                 prescreen: bool = True, dedup: bool = True,
                 workers: int = 1,
                 variable_bound: Callable[[int], float] | None = None
                 ) -> None:
        self.program = program
        self.prescreen = prescreen
        self.dedup = dedup
        self.workers = workers
        #: Structural upper bound of one variable (used by the
        #: pre-screen); ``None`` falls back to the program's declared
        #: variable upper bounds.
        self.variable_bound = variable_bound
        #: Solve executor for batched priming: anything with the
        #: :meth:`~repro.pipeline.scheduler.PipelineScheduler
        #: .map_solves` shape.  The estimator wires its pipeline
        #: scheduler here so solve batches land on the same pool as
        #: the classification stages; ``None`` creates one on demand.
        self.executor = None
        #: Keys this planner's snapshot in pool workers' backend memo.
        self._token = uuid.uuid4().hex
        self.stats = SolveStats()
        self._results: dict[object, int] = {}
        #: Keys solved ahead of time by :meth:`prime` (or served by the
        #: store) whose first consumption must not count as a dedup hit.
        self._primed: set[object] = set()
        self._store: SolveStore | None = None
        self._store_context: str | None = None
        self._store_keys: dict[tuple, str] = {}

    # -- persistent store ----------------------------------------------
    def attach_store(self, store: SolveStore, context: str) -> None:
        """Wire the cross-run store; ``context`` keys this polytope.

        ``context`` must determine the polytope's semantics (CFG
        digest, geometry, timing model — see
        :func:`repro.solve.store.store_context`); the per-request key
        adds the canonical *named* objective and the solver mode, so
        keys are independent of variable creation order.
        """
        self._store = store
        self._store_context = context
        self._store_keys: dict[tuple, str] = {}

    def _named_objective(self, objective) -> list:
        name = self.program.variable_name
        return [(name(index), weight) for index, weight in objective]

    def _store_key(self, request: SolveRequest, kind: str = "value") -> str:
        # Memoised: a cold solve needs the same key twice (miss, then
        # write-through), and some requests recur across FMM rows.
        memo_key = (request.key, kind)
        key = self._store_keys.get(memo_key)
        if key is None:
            key = solve_key(self._store_context,
                            self._named_objective(request.objective),
                            request.relaxed, kind=kind)
            self._store_keys[memo_key] = key
        return key

    def _store_get(self, request: SolveRequest) -> int | None:
        if self._store is None:
            return None
        value = self._store.get(self._store_key(request))
        if value is not None:
            self.stats.store_hits += 1
        return value

    def _store_put(self, request: SolveRequest, value: int) -> None:
        if self._store is not None:
            self._store.put(self._store_key(request), value)

    # -- single requests -----------------------------------------------
    def solve(self, request: SolveRequest) -> int:
        """Integer bound of one request, through the dedup cache."""
        key = request.key
        if self.dedup and key in self._results:
            if key in self._primed:
                self._primed.discard(key)
            else:
                self.stats.dedup_hits += 1
            return self._results[key]
        value = self._store_get(request)
        if value is None:
            value = self._solve_uncached(request)
            self._store_put(request, value)
        if self.dedup:
            self._results[key] = value
        return value

    def structural_bound(self, request: SolveRequest) -> float:
        """Solver-free upper bound: coefficients times variable bounds.

        Sound whenever all coefficients are non-negative (FMM and WCET
        objectives are counts); a negative coefficient or an unbounded
        variable yields ``inf``, i.e. "no structural information".
        The bound must dominate what :meth:`_solve_uncached` *reports*:
        with integral coefficients the ILP optimum is integral, so the
        floor is sound; with fractional coefficients the reported
        value is the half-up rounding of the optimum, which can exceed
        the floor — so only half a unit may be absorbed.
        """
        bound_of = self.variable_bound
        if bound_of is None:
            bound_of = self.program.variable_upper
        total = 0.0
        integral = True
        for index, weight in request.objective:
            if weight < 0.0:
                return math.inf
            limit = bound_of(index)
            if limit == math.inf:
                return math.inf
            total += weight * limit
            integral = integral and float(weight).is_integer()
        if integral:
            return math.floor(total)
        # round(optimum) <= floor(optimum + 0.5) <= floor(total + 0.5).
        return math.floor(total + 0.5)

    def solve_with_values(self, objective: dict[int, float], *,
                          relaxed: bool = False) -> "Solution":
        """Solve returning the full solution vector, store-backed.

        Used by the WCET computation, which reads edge counts off the
        critical path.  With a store attached, the whole solution
        (objective value plus the non-zero variables, recorded by
        *name*) round-trips through an artefact entry, so a warm rerun
        of the pipeline performs zero backend solves even for the
        fault-free WCET.
        """
        key = None
        if self._store is not None:
            request = SolveRequest.from_objective(objective,
                                                  relaxed=relaxed)
            key = self._store_key(request, kind="solution")
            artefact = self._store.get_artefact(key)
            if artefact is not None:
                self.stats.store_hits += 1
                return self._solution_from_artefact(artefact, relaxed)
        solution = self.program.maximize(objective, relaxed=relaxed)
        if relaxed:
            self.stats.lp_solved += 1
        else:
            self.stats.ilp_solved += 1
        if key is not None:
            self._store.put_artefact(key, self._solution_artefact(solution))
        return solution

    def _solution_artefact(self, solution: "Solution") -> dict:
        name = self.program.variable_name
        values = {name(index): float(value)
                  for index, value in enumerate(solution.values)
                  if value != 0.0}
        return {"objective": float(solution.objective), "values": values}

    def _solution_from_artefact(self, artefact: dict,
                                relaxed: bool) -> "Solution":
        from repro.ipet.ilp import Solution

        index_of = {self.program.variable_name(index): index
                    for index in range(self.program.num_variables)}
        values = np.zeros(self.program.num_variables)
        for name, value in artefact["values"].items():
            index = index_of.get(name)
            # Names absent from the current program belong to variables
            # another consumer added later; they cannot influence this
            # objective's optimum and are safely dropped.
            if index is not None:
                values[index] = value
        return Solution(objective=float(artefact["objective"]),
                        values=values, relaxed=relaxed)

    def _solve_uncached(self, request: SolveRequest) -> int:
        solution = self.program.maximize(request.objective_dict(),
                                         relaxed=request.relaxed)
        if request.relaxed:
            self.stats.lp_solved += 1
            # LP relaxation of a maximisation: round up to stay sound.
            return ceil_bound(solution.objective)
        self.stats.ilp_solved += 1
        return solution.rounded_objective()

    # -- FMM row planning ----------------------------------------------
    def fmm_row(self, columns: Sequence[SolveRequest | None]) -> tuple[int, ...]:
        """Plan one FMM row; ``None`` marks an empty-objective column.

        Columns are fault counts 1..max in order; the returned row is
        prefixed with the mandatory 0-fault column.  The row value is
        ``max(column bound, previous value)`` exactly as the direct
        path computes it, which is what makes the structural
        pre-screen lossless: when an upper bound of the cell cannot exceed the
        previous value, the max is the previous value.
        """
        row = [0]
        for request in columns:
            previous = row[-1]
            self.stats.requests += 1
            if request is None:
                self.stats.pruned_empty += 1
                row.append(previous)
                continue
            if self.dedup and request.key in self._results:
                if request.key in self._primed:
                    # First fan-out of a batch-solved request: the
                    # solve was already counted by prime().
                    self._primed.discard(request.key)
                else:
                    self.stats.dedup_hits += 1
                row.append(max(self._results[request.key], previous))
                continue
            value = self._store_get(request)
            if value is not None:
                if self.dedup:
                    self._results[request.key] = value
                row.append(max(value, previous))
                continue
            if self.prescreen and not request.relaxed and previous > 0 \
                    and self.structural_bound(request) <= previous:
                self.stats.pruned_structural += 1
                row.append(previous)
                continue
            value = self._solve_uncached(request)
            self._store_put(request, value)
            if self.dedup:
                self._results[request.key] = value
            row.append(max(value, previous))
        return tuple(row)

    # -- batching --------------------------------------------------------
    def prime(self, requests: Iterable[SolveRequest], *,
              workers: int | None = None) -> None:
        """Batch-solve the unique uncached requests of a sweep.

        With ``workers > 1`` the unique objectives are distributed over
        a process pool; every worker rebuilds a backend from the
        program snapshot once and streams results back.  Results land
        in the dedup cache — and are written through to the persistent
        store — so the subsequent row planning is pure fan-out.
        Requests already persisted by an earlier run are answered from
        the store and never reach the pool.
        """
        if not self.dedup:
            # Primed results land in the dedup cache; without it the
            # row planning would just re-solve everything.
            return
        if workers is None:
            workers = self.workers
        unique: dict[object, SolveRequest] = {}
        for request in requests:
            if request.key not in self._results:
                unique.setdefault(request.key, request)
        pending = []
        for request in unique.values():
            value = self._store_get(request)
            if value is not None:
                self._results[request.key] = value
                self._primed.add(request.key)
            else:
                pending.append(request)
        if not pending:
            return
        if workers <= 1 or len(pending) == 1:
            for request in pending:
                value = self._solve_uncached(request)
                self._store_put(request, value)
                self._results[request.key] = value
                self._primed.add(request.key)
            return
        num_variables = self.program.num_variables
        for request in pending:
            # Mirror the in-process index validation; the pooled
            # backend would otherwise let bad indices wrap silently.
            if (request.objective[0][0] < 0
                    or request.objective[-1][0] >= num_variables):
                raise SolverError(
                    f"unknown variable index in request {request.tag}")
        snapshot = self.program.snapshot()
        payload = [(request.objective, request.relaxed)
                   for request in pending]
        chunk = max(1, len(payload) // (workers * 4))
        executor = self.executor
        if executor is None:
            # Lazy import: repro.solve is imported by the pipeline's
            # stage modules; creating the scheduler on first pooled
            # prime keeps the package graph acyclic.
            from repro.pipeline.scheduler import PipelineScheduler
            executor = self.executor = PipelineScheduler(workers=workers)
        values = executor.map_solves(self._token, snapshot, payload,
                                     chunksize=chunk, workers=workers)
        for request, value in zip(pending, values):
            self._results[request.key] = value
            self._primed.add(request.key)
            self._store_put(request, value)
            if request.relaxed:
                self.stats.lp_solved += 1
            else:
                self.stats.ilp_solved += 1
