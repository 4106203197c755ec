"""The dependency-DAG scheduler shared by estimator, runner and sweep.

One :class:`PipelineScheduler` owns one worker pool and executes a DAG
of stage tasks: fixpoint/classification stages, ILP solve stages, and
whole sweep-cell groups all land on the *same* pool, so solve workers
start on one benchmark's ILPs while another benchmark's cache analysis
is still running — there is no phase barrier between stages, only the
declared artifact dependencies.

Execution model
---------------

* Tasks are added with :meth:`PipelineScheduler.add` — a key, a
  callable, static args, dependency keys, and whether the task may run
  on the process pool.  Dependency results are appended to the task's
  positional arguments in declared order.
* :meth:`run` first applies the *invalidation plan* (:meth:`plan`):
  every task registered with a ``probe`` asks its persistent store by
  content address, and probe hits whose results are still demanded are
  completed from the store before any worker starts — while tasks
  nobody demands any more (their only dependents were all satisfied)
  are skipped outright.  Editing one suite program therefore
  recomputes only that benchmark's stages; everything else is
  satisfied-from-store.
* Ready tasks are dispatched in ``(order key, insertion index)``
  order — stage tasks carry their *artifact key* as the order key, so
  dispatch order (and with it the streamed progress and merged
  counters) is reproducible across runs and Python hash seeds.  The
  ``workers=1`` inline path is thereby a deterministic sequential
  program — the property the bit-identity guarantees lean on.
* At most ``workers`` pool tasks are in flight; the scheduler keeps
  the rest queued itself instead of handing them to the executor, so
  a freshly unblocked low-order task is never stuck behind a wall of
  queued high-order ones.  When every worker is busy and no inline
  task is ready, the parent *steals* the next queued pool task and
  runs it in-process — small cells of one benchmark backfill the
  otherwise-idle parent while another benchmark's long ILP batch
  occupies the pool.
* Inline tasks (closures over in-process state — the estimator's own
  stages) run in the parent while pool futures are outstanding.

Besides DAG tasks the scheduler doubles as the *solve executor* of
:class:`~repro.solve.planner.SolvePlanner`:
:meth:`map_solves` fans batched ILP objectives over the same pool
(workers memoise the rebuilt backend per program token), so a single
pool serves both the coarse stage tasks and the fine solve batches.

Per-run work is accounted in a fresh :class:`PipelineStats` — the
merge of the solver's and the analysis' counters, scoped to one
:meth:`run` invocation so re-entrant drivers can never double-count or
silently zero a previous run's numbers.
"""

from __future__ import annotations

import heapq
import time
import uuid
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field

from repro.errors import PipelineError
from repro.pipeline.resilience import (CASCADED, TRANSIENT, FailureReport,
                                       RetryPolicy, StageTimeout,
                                       TaskFailure, classify_failure)
from repro.testing import faultinject


def is_run_counter(key: str) -> bool:
    """Whether a counter key is per-run work (summed across stages).

    ``fault_pmf_*`` keys snapshot the process-wide fault-pmf memo and
    ``*_corrupt_skipped`` keys each store handle's cumulative repair
    count: both describe what ran earlier in the process, not this
    run, so counter merges drop them — summing them would make
    ``solver_stats`` depend on process history.
    """
    return not key.startswith("fault_pmf_") \
        and not key.endswith("_corrupt_skipped")


@dataclass
class PipelineStats:
    """Counters of one pipeline run: stage tasks + merged work counters.

    ``counters`` is the union of the solver family
    (:class:`~repro.solve.planner.SolveStats`) and the analysis family
    (:class:`~repro.analysis.classify.AnalysisStats`), summed over
    every stage of the run; rate-style entries (``*_rate``) are never
    summed and are recomputed from the totals in :meth:`totals`.
    Scope is one run: a fresh instance per :meth:`PipelineScheduler
    .run` (or one passed in by the driver), never shared module state.
    """

    #: Completed tasks per stage name.
    tasks: dict[str, int] = field(default_factory=dict)
    #: Tasks satisfied from a persistent store by the plan pass,
    #: per stage name — these never ran.
    from_store: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent *executing* each stage's tasks (pool
    #: tasks report their in-worker time; concurrent stages therefore
    #: sum to more than ``wall_seconds``).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Summed work counters of every stage (solver + analysis).
    counters: dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds spent inside :meth:`PipelineScheduler.run`.
    wall_seconds: float = 0.0
    #: Resilience ledger: terminal task failures plus retry / timeout /
    #: pool-rebuild counters (empty on a clean run).
    failure_report: FailureReport = field(default_factory=FailureReport)
    #: Remote-store wire outcomes of this run (``remote_fetch_hits``,
    #: ``remote_retries``, ``remote_breaker_trips``, ...): the delta of
    #: :func:`repro.remote.client.remote_stats_totals` across
    #: :meth:`PipelineScheduler.run`.  Empty when no remote store is
    #: configured.
    remote: dict[str, int] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """True when some task terminally failed (``strict=False``)."""
        return bool(self.failure_report.failures)

    def count_task(self, stage: str) -> None:
        self.tasks[stage] = self.tasks.get(stage, 0) + 1

    def count_from_store(self, stage: str) -> None:
        self.from_store[stage] = self.from_store.get(stage, 0) + 1

    def add_stage_seconds(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = (self.stage_seconds.get(stage, 0.0)
                                     + seconds)

    def merge_counters(self, counters: dict[str, float] | None) -> None:
        """Fold one stage's counter dict in (rates and keys that are
        not per-run work, see :func:`is_run_counter`, are skipped)."""
        for key, value in (counters or {}).items():
            if is_run_counter(key) and not key.endswith("_rate"):
                self.counters[key] = self.counters.get(key, 0) + value

    def totals(self) -> dict[str, float]:
        """The summed counters with ``store_hit_rate`` recomputed."""
        totals = dict(self.counters)
        solves = totals.get("ilp_solved", 0) + totals.get("store_hits", 0)
        totals["store_hit_rate"] = (
            totals.get("store_hits", 0) / solves if solves else 0.0)
        return totals

    @property
    def tasks_run(self) -> int:
        return sum(self.tasks.values())

    # -- cell accounting (the "cell" stage of the cell-granular DAG) ---
    @property
    def cells_recomputed(self) -> int:
        """(mechanism, pfail) cells that actually ran this run."""
        return self.tasks.get("cell", 0)

    @property
    def cells_from_store(self) -> int:
        """Cells the plan pass answered from the persistent cell store."""
        return self.from_store.get("cell", 0)

    @property
    def cells_total(self) -> int:
        return self.cells_recomputed + self.cells_from_store

    @property
    def cells_batched(self) -> int:
        """Sibling pfail rows the batched distribution kernel computed
        alongside running cells and prefilled into the cell store."""
        return int(self.counters.get("dist_batched_rows", 0))

    @property
    def classify_batched_rows(self) -> int:
        """Sibling geometries the stacked classification kernel served
        alongside running classify stages (tables + SRB hit sets
        prefilled into the classification store)."""
        return int(self.counters.get("classify_batched_rows", 0))

    @property
    def geometry_groups(self) -> int:
        """Line-size groups whose classify stages ran batched."""
        return int(self.counters.get("geometry_groups", 0))


def _remote_totals() -> dict[str, int]:
    """Process-wide remote-store counters (empty without a remote).

    Imported lazily: the remote client pulls this package in through
    ``repro.pipeline.resilience``, and purely local runs should not
    pay for the HTTP stack at all.
    """
    try:
        from repro.remote.client import remote_stats_totals
    except ImportError:  # pragma: no cover - stdlib http always present
        return {}
    return remote_stats_totals()


@dataclass
class _Task:
    key: str
    stage: str
    fn: Callable
    args: tuple
    deps: tuple[str, ...]
    pool: bool
    index: int
    #: Dispatch order within the ready set (before the insertion
    #: index).  Stage tasks pass their artifact key so dispatch is
    #: reproducible across hash seeds; the default ``""`` preserves
    #: pure insertion order (and sorts ahead of any hex digest).
    order: str = ""
    #: Store probe of the plan pass: returns the finished result when
    #: the stage's persistent store already holds it, else ``None``.
    probe: Callable[[], object] | None = None


def _run_pool_task(fn: Callable, args: tuple) -> tuple[object, float]:
    """Pool entry point for stage tasks (keeps ``fn`` a plain pickle).

    Returns ``(value, seconds)`` so the parent can attribute in-worker
    wall-clock to the task's stage.
    """
    faultinject.worker_hook(getattr(fn, "__name__", str(fn)))
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


#: Worker-side backends rebuilt from program snapshots, memoised per
#: planner token so one long-lived pool serves many programs without
#: rebuilding on every chunk.  Bounded: oldest entry evicted beyond
#: :data:`_MAX_WORKER_BACKENDS`.
_WORKER_BACKENDS: dict[str, object] = {}
_MAX_WORKER_BACKENDS = 4


def _solve_chunk(token: str, snapshot: object,
                 items: Sequence[tuple[tuple, bool]]) -> list[int]:
    """Solve one chunk of (objective, relaxed) payloads in a worker."""
    # Imported here, not at module level: repro.solve imports the
    # planner, which imports this module — the lazy import keeps the
    # package graph acyclic (and only workers ever pay it).
    from repro.solve.backend import ceil_bound, make_backend

    backend = _WORKER_BACKENDS.get(token)
    if backend is None:
        while len(_WORKER_BACKENDS) >= _MAX_WORKER_BACKENDS:
            _WORKER_BACKENDS.pop(next(iter(_WORKER_BACKENDS)))
        backend = _WORKER_BACKENDS[token] = make_backend(snapshot)
    values = []
    for objective, relaxed in items:
        value, _ = backend.solve(dict(objective), sign=-1.0,
                                 relaxed=relaxed)
        values.append(ceil_bound(value) if relaxed else int(round(value)))
    return values


class PipelineScheduler:
    """Executes typed-artifact DAGs over one shared worker pool."""

    def __init__(self, workers: int = 1, *,
                 retry: RetryPolicy | None = None,
                 strict: bool = True) -> None:
        self.workers = max(1, int(workers))
        #: Resilience policy; ``None`` disables retry/timeout handling
        #: entirely — failures propagate raw, exactly the pre-policy
        #: behaviour.
        self.retry = retry
        #: ``strict=True`` re-raises the original error on the first
        #: quarantine; ``strict=False`` completes the run with
        #: :class:`TaskFailure` sentinels in the result dict.
        self.strict = bool(strict)
        self._tasks: dict[str, _Task] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._running = False
        #: The running :class:`FailureReport` (``map_solves`` charges
        #: its pool rebuilds here while a DAG run is active).
        self._report: FailureReport | None = None
        #: Distinguishes this scheduler's snapshots in worker memos.
        self._token = uuid.uuid4().hex

    # -- DAG construction ----------------------------------------------
    def add(self, key: str, fn: Callable, *, args: tuple = (),
            deps: Sequence[str] = (), stage: str = "task",
            pool: bool = False, order_key: str | None = None,
            probe: Callable[[], object] | None = None) -> str:
        """Register one stage task; returns ``key`` for chaining.

        ``fn`` is called as ``fn(*args, *dep_results)`` with dependency
        results in declared order.  ``pool=True`` allows execution on
        the process pool (``fn`` and every argument must pickle);
        forward references in ``deps`` are fine — the DAG is validated
        at :meth:`run`.  ``order_key`` (conventionally the artifact
        key) ranks the task within the ready set ahead of the insertion
        index, making dispatch hash-seed independent; ``probe`` lets
        the plan pass satisfy the task from its persistent store
        (it returns the finished result, or ``None`` to run normally).
        """
        if key in self._tasks:
            raise PipelineError(f"duplicate pipeline task key {key!r}")
        self._tasks[key] = _Task(
            key=key, stage=stage, fn=fn, args=tuple(args),
            deps=tuple(deps), pool=bool(pool) and self.workers > 1,
            index=len(self._tasks),
            order=order_key if order_key is not None else "",
            probe=probe)
        return key

    # -- planning -------------------------------------------------------
    def _plan(self, tasks: dict[str, _Task]
              ) -> tuple[dict[str, object], dict[str, bool],
                         dict[str, bool]]:
        """The incremental-invalidation pass over one task set.

        Probes every probed task's persistent store by content
        address, then walks the DAG in reverse topological order to
        decide, per task: *satisfied* (probe hit — complete from store
        without running), *run* (somebody still needs a fresh result),
        or neither (skipped — every transitive dependent was
        satisfied).  A task is demanded iff it is a sink or some
        dependent will run; tasks on a cycle are conservatively left
        to run so :meth:`run` reports the deadlock as before.

        Returns ``(satisfied results, demanded flags, will-run
        flags)`` keyed by task key.
        """
        for task in tasks.values():
            for dep in task.deps:
                if dep not in tasks:
                    raise PipelineError(
                        f"task {task.key!r} depends on unknown task "
                        f"{dep!r}")
        dependents: dict[str, list[str]] = {key: [] for key in tasks}
        indegree: dict[str, int] = {}
        for task in tasks.values():
            indegree[task.key] = len(task.deps)
            for dep in task.deps:
                dependents[dep].append(task.key)
        queue = [key for key, count in indegree.items() if count == 0]
        order: list[str] = []
        while queue:
            key = queue.pop()
            order.append(key)
            for dependent in dependents[key]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    queue.append(dependent)
        satisfied: dict[str, object] = {}
        for key in order:
            task = tasks[key]
            if task.probe is not None:
                value = task.probe()
                if value is not None:
                    satisfied[key] = value
        demanded: dict[str, bool] = {}
        will_run: dict[str, bool] = {}
        if len(order) < len(tasks):
            for key in set(tasks) - set(order):
                demanded[key] = True  # cyclic: let run() raise
                will_run[key] = True
        for key in reversed(order):
            demanded[key] = (not dependents[key]
                             or any(will_run[dependent]
                                    for dependent in dependents[key]))
            will_run[key] = demanded[key] and key not in satisfied
        return satisfied, demanded, will_run

    def plan(self) -> dict[str, tuple[str, ...]]:
        """Dry-run the invalidation pass over the pending task set.

        Returns the keys partitioned into ``"from_store"`` (probe hits
        that will be completed from their persistent store),
        ``"run"`` (tasks that will execute), and ``"skipped"`` (tasks
        no remaining dependent demands).  The task set is *not*
        consumed; :meth:`run` re-applies the same pass.
        """
        satisfied, demanded, will_run = self._plan(self._tasks)
        return {
            "from_store": tuple(sorted(
                key for key in satisfied if demanded[key])),
            "run": tuple(sorted(
                key for key, runs in will_run.items() if runs)),
            "skipped": tuple(sorted(
                key for key, need in demanded.items() if not need)),
        }

    # -- execution ------------------------------------------------------
    def run(self, *, stats: PipelineStats | None = None,
            on_task: Callable[[str, object, int, int], None] | None = None
            ) -> dict[str, object]:
        """Execute every added task; return results keyed by task key.

        The task set is consumed: the scheduler is immediately reusable
        for the next DAG (the estimator adds a fresh stage graph per
        estimation batch).  ``stats`` scopes the run's counters;
        ``on_task(key, result, completed, total)`` streams completions
        (deterministic submission order inline, completion order with
        a pool).
        """
        tasks, self._tasks = self._tasks, {}
        if stats is None:
            stats = PipelineStats()
        policy = self.retry
        report = stats.failure_report
        self._report = report
        self._running = True
        started = time.perf_counter()
        remote_before = _remote_totals()
        satisfied, demanded, _will_run = self._plan(tasks)
        # Tasks nobody demands any more (every transitive dependent is
        # satisfied from a store) are skipped outright.
        tasks = {key: task for key, task in tasks.items()
                 if demanded[key]}

        dependents: dict[str, list[str]] = {key: [] for key in tasks}
        missing: dict[str, int] = {}
        for task in tasks.values():
            live = [dep for dep in task.deps if dep in tasks]
            missing[task.key] = len(live)
            for dep in live:
                dependents[dep].append(task.key)

        ready_pool: list[tuple[str, int, str]] = []
        ready_inline: list[tuple[str, int, str]] = []

        def push_ready(task: _Task) -> None:
            heap = ready_pool if task.pool else ready_inline
            heapq.heappush(heap, (task.order, task.index, task.key))

        results: dict[str, object] = {}
        in_flight: dict[Future, str] = {}
        #: Failed execution attempts charged per task key.
        attempts: dict[str, int] = {}
        #: Monotonic wall-clock deadline per in-flight future (only
        #: futures whose stage has a timeout budget appear here).
        deadlines: dict[Future, float] = {}

        def retry_sleep(attempt: int) -> None:
            """Jittered backoff, clamped to the nearest in-flight
            stage deadline so a retry pause never sleeps through a
            timeout it is supposed to enforce."""
            policy.sleep_backoff(
                attempt,
                deadline=min(deadlines.values()) if deadlines else None)

        def unblock(key: str) -> None:
            for dependent in dependents[key]:
                missing[dependent] -= 1
                if missing[dependent] == 0 \
                        and dependent not in satisfied:
                    dep_failure = next(
                        (results[dep] for dep in tasks[dependent].deps
                         if isinstance(results.get(dep), TaskFailure)),
                        None)
                    if dep_failure is not None:
                        cascade(dependent, dep_failure)
                    else:
                        push_ready(tasks[dependent])

        def cascade(key: str, dep_failure: TaskFailure) -> None:
            """Fail a task whose dependency terminally failed."""
            # A cascade's error already names the quarantined root
            # (transitively); a fresh one records the root's cause so
            # report annotations show *why*, not just *where*.
            message = dep_failure.error if dep_failure.cascaded else (
                f"dependency {dep_failure.key!r} failed "
                f"({dep_failure.error})")
            complete(key, TaskFailure(
                key=key, stage=tasks[key].stage,
                classification=CASCADED, attempts=0,
                error=message,
                root_key=dep_failure.root_key or dep_failure.key))

        def quarantine(key: str, error: BaseException,
                       classification: str,
                       elapsed: float = 0.0) -> None:
            """Terminally fail a task: raise (strict) or record."""
            failure = TaskFailure(
                key=key, stage=tasks[key].stage,
                classification=classification,
                attempts=attempts.get(key, 0),
                error=f"{type(error).__name__}: {error}",
                elapsed=elapsed)
            if self.strict:
                report.failures.append(failure)
                raise error
            complete(key, failure)

        def complete(key: str, value: object) -> None:
            results[key] = value
            if isinstance(value, TaskFailure):
                report.failures.append(value)
            else:
                stats.count_task(tasks[key].stage)
            unblock(key)
            if on_task is not None:
                on_task(key, value, len(results), len(tasks))

        def run_inline(key: str) -> None:
            task = tasks[key]
            while True:
                stage_started = time.perf_counter()
                try:
                    value = task.fn(*task.args,
                                    *(results[dep] for dep in task.deps))
                except Exception as error:
                    elapsed = time.perf_counter() - stage_started
                    stats.add_stage_seconds(task.stage, elapsed)
                    if policy is None:
                        raise
                    attempts[key] = attempts.get(key, 0) + 1
                    if (classify_failure(error) == TRANSIENT
                            and attempts[key] < policy.max_attempts):
                        report.retries += 1
                        retry_sleep(attempts[key])
                        continue
                    quarantine(key, error, classify_failure(error),
                               elapsed)
                    return
                stats.add_stage_seconds(
                    task.stage, time.perf_counter() - stage_started)
                complete(key, value)
                return

        def pool_break(first_key: str, error: BaseException) -> None:
            """A worker died and broke the pool: every in-flight
            future is lost and the victim is unknowable, so each one
            is charged an attempt, the pool is rebuilt, and survivors
            of the attempt budget are resubmitted."""
            report.pool_rebuilds += 1
            victims = [first_key] + list(in_flight.values())
            in_flight.clear()
            deadlines.clear()
            self._discard_pool()
            for key in victims:
                attempts[key] = attempts.get(key, 0) + 1
                if attempts[key] < policy.max_attempts:
                    report.retries += 1
                    push_ready(tasks[key])
                else:
                    quarantine(key, error, TRANSIENT)

        def worker_error(key: str, error: BaseException) -> None:
            """The stage body raised inside a live worker."""
            attempts[key] = attempts.get(key, 0) + 1
            if (classify_failure(error) == TRANSIENT
                    and attempts[key] < policy.max_attempts):
                report.retries += 1
                retry_sleep(attempts[key])
                push_ready(tasks[key])
            else:
                quarantine(key, error, classify_failure(error))

        def expire_timeouts() -> None:
            now = time.monotonic()
            expired = {future for future, deadline in deadlines.items()
                       if deadline <= now and not future.done()}
            if not expired:
                return
            # A running pool task cannot be cancelled — kill the
            # workers and rebuild.  Innocent in-flight tasks are not
            # charged an attempt: finished ones are harvested, the
            # rest resubmitted.
            report.pool_rebuilds += 1
            harvested: list[tuple[str, object, float]] = []
            resubmit: list[str] = []
            expired_keys: list[str] = []
            for future, key in in_flight.items():
                if future in expired:
                    expired_keys.append(key)
                elif (future.done() and not future.cancelled()
                        and future.exception() is None):
                    value, seconds = future.result()
                    harvested.append((key, value, seconds))
                else:
                    resubmit.append(key)
            in_flight.clear()
            deadlines.clear()
            self._kill_pool()
            for key, value, seconds in harvested:
                stats.add_stage_seconds(tasks[key].stage, seconds)
                complete(key, value)
            for key in resubmit:
                push_ready(tasks[key])
            for key in sorted(expired_keys):
                report.timeouts += 1
                attempts[key] = attempts.get(key, 0) + 1
                budget = policy.timeout_for(tasks[key].stage)
                error = StageTimeout(
                    f"stage task {key!r} exceeded its {budget:g}s "
                    f"timeout budget")
                if attempts[key] < policy.max_attempts:
                    report.retries += 1
                    push_ready(tasks[key])
                else:
                    quarantine(key, error, TRANSIENT)

        def drain(block: bool) -> None:
            if not in_flight:
                return
            timeout = None if block else 0.0
            if deadlines:
                budget = max(0.0, min(deadlines.values())
                             - time.monotonic())
                timeout = budget if timeout is None \
                    else min(timeout, budget)
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED,
                           timeout=timeout)
            for future in done:
                key = in_flight.pop(future, None)
                if key is None:
                    continue  # reaped by a pool break in this batch
                deadlines.pop(future, None)
                try:
                    value, seconds = future.result()
                except Exception as error:
                    if policy is None:
                        raise
                    if isinstance(error, BrokenExecutor):
                        pool_break(key, error)
                        continue
                    worker_error(key, error)
                    continue
                stats.add_stage_seconds(tasks[key].stage, seconds)
                complete(key, value)
            if policy is not None and deadlines:
                expire_timeouts()

        # Initially-ready runnable tasks first (their missing count is
        # 0 from the start, so the unblock path below never re-pushes
        # them), then satisfied tasks complete from their stores
        # before any worker starts — dependents see the decoded
        # results verbatim and are pushed exactly once, by unblock.
        for task in tasks.values():
            if missing[task.key] == 0 and task.key not in satisfied:
                push_ready(task)
        for key in sorted(satisfied,
                          key=lambda k: (tasks[k].order, tasks[k].index)
                          if k in tasks else ("", -1)):
            if key not in tasks:
                continue  # satisfied but undemanded: skipped entirely
            results[key] = satisfied[key]
            stats.count_from_store(tasks[key].stage)
            unblock(key)

        try:
            while len(results) < len(tasks):
                drain(block=False)
                while ready_pool and len(in_flight) < self.workers:
                    _, _, key = heapq.heappop(ready_pool)
                    task = tasks[key]
                    payload = task.args + tuple(results[dep]
                                                for dep in task.deps)
                    try:
                        future = self._ensure_pool().submit(
                            _run_pool_task, task.fn, payload)
                    except BrokenExecutor as error:
                        # A worker died between drain() and this
                        # submit: the executor refuses new work before
                        # the in-flight futures have surfaced the
                        # break.  Same recovery as a future-side break.
                        if policy is None:
                            raise
                        pool_break(key, error)
                        continue
                    in_flight[future] = key
                    budget = (policy.timeout_for(task.stage)
                              if policy is not None else None)
                    if budget is not None:
                        deadlines[future] = time.monotonic() + budget
                if ready_inline:
                    _, _, key = heapq.heappop(ready_inline)
                    run_inline(key)
                elif ready_pool:
                    # Every worker is busy and more pool tasks are
                    # queued: steal the next one and run it here
                    # instead of idling until a future resolves.
                    _, _, key = heapq.heappop(ready_pool)
                    run_inline(key)
                elif in_flight:
                    drain(block=True)
                elif len(results) < len(tasks):
                    stuck = sorted(key for key in tasks
                                   if key not in results)
                    raise PipelineError(
                        "pipeline deadlock: cyclic dependencies among "
                        f"{stuck}")
        finally:
            stats.wall_seconds += time.perf_counter() - started
            for name, total in _remote_totals().items():
                delta = total - remote_before.get(name, 0)
                if delta:
                    stats.remote[name] = stats.remote.get(name, 0) + delta
            self._running = False
            self._report = None
            self._close_pool()
        return results

    # -- the shared solve executor (SolvePlanner integration) -----------
    def map_solves(self, token: str, snapshot: object,
                   payload: Sequence[tuple[tuple, bool]], *,
                   chunksize: int = 1,
                   workers: int | None = None) -> list[int]:
        """Batch-solve ILP payloads on the shared pool, in order.

        ``token`` keys the worker-side backend memo (one rebuild per
        worker per program, however many chunks follow).  Called from
        inside a running DAG — an inline estimator stage priming its
        planner — this opens (or reuses) the run's shared pool, which
        then serves every later batch of the run and is reaped when
        :meth:`run` returns: one pool for all of an estimation's
        mechanisms and stages (an explicit ``workers`` request cannot
        resize an open shared pool).  Standalone calls (a planner
        primed outside any DAG) use a transient pool sized by
        ``workers`` (default: the scheduler's width) so nothing
        lingers past the call.
        """
        chunks = [list(payload[i:i + max(1, chunksize)])
                  for i in range(0, len(payload), max(1, chunksize))]
        scoped_token = f"{self._token}:{token}"
        if self._pool is not None or self._running:
            return self._map_on_shared_pool(scoped_token, snapshot,
                                            chunks)
        with ProcessPoolExecutor(
                max_workers=min(workers or self.workers,
                                len(chunks))) as pool:
            futures = [pool.submit(_solve_chunk, scoped_token, snapshot,
                                   chunk) for chunk in chunks]
            return [value for future in futures
                    for value in future.result()]

    def _map_on_shared_pool(self, scoped_token: str, snapshot: object,
                            chunks: list[list]) -> list[int]:
        """Run solve chunks on the shared pool, rebuilding on breaks.

        A killed solve worker breaks the whole pool; with a retry
        policy the pool is rebuilt and only the unfinished chunks are
        resubmitted (order is preserved by chunk slot).  Without a
        policy the break propagates raw, as before.
        """
        slots: list[list[int] | None] = [None] * len(chunks)
        batch_attempts = 0
        while any(slot is None for slot in slots):
            pool = self._ensure_pool()
            broken: BaseException | None = None
            futures: dict[Future, int] = {}
            for index, slot in enumerate(slots):
                if slot is not None:
                    continue
                try:
                    futures[pool.submit(_solve_chunk, scoped_token,
                                        snapshot, chunks[index])] = index
                except BrokenExecutor as error:
                    # The shared pool broke (a DAG stage's worker was
                    # killed) before this batch fully submitted; the
                    # chunks already in are harvested below, the rest
                    # resubmit on the rebuilt pool.
                    broken = error
                    break
            for future, index in futures.items():
                if broken is None:
                    try:
                        slots[index] = future.result()
                        continue
                    except BrokenExecutor as error:
                        broken = error
                # The pool already broke: harvest chunks that
                # finished before the break, leave the rest unfilled.
                if (future.done() and not future.cancelled()
                        and future.exception() is None):
                    slots[index] = future.result()
            if broken is None:
                break
            batch_attempts += 1
            allowed = (self.retry.max_attempts
                       if self.retry is not None else 1)
            if batch_attempts >= allowed:
                raise broken
            if self._report is not None:
                self._report.pool_rebuilds += 1
                self._report.retries += 1
            self._discard_pool()
        return [value for slot in slots for value in slot]

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _discard_pool(self) -> None:
        """Drop a broken pool (its workers are already dead); the next
        ``_ensure_pool`` builds a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _kill_pool(self) -> None:
        """Forcibly terminate the pool's workers — the escape hatch
        for a hung stage (a running pool task cannot be cancelled)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list((getattr(pool, "_processes", None)
                             or {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
