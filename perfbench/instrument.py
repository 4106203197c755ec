"""Per-layer instrumentation of an in-process ``repro.cli.main`` run.

:class:`Instrumentation` wraps each layer's entry points *at the
attribute where callers look them up* — the defining module or class,
plus every already-imported ``repro`` module that bound the same
function object with ``from ... import`` — so that every call records
a span in a :class:`~spans.Recorder` and, where the layer has one,
updates a work counter.  Nothing in the program changes; uninstalling
restores every attribute.

Where a layer exposes no public entry for a step the split needs (the
shard scan behind a store's first read, the scheduler's plan pass),
the private method is wrapped instead.  A target missing from the
program (renamed or removed by a later change) is skipped and listed
in :attr:`Instrumentation.missing`, and its metrics read 0.

:meth:`Instrumentation.metrics` turns spans and counters into the
per-layer metrics (``<module>.<metric>``).  Metrics ending in
``self_s`` are self times (span duration minus child spans); other
``_s`` metrics are inclusive wall time inside the named calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import weakref

from spans import Recorder, inclusive_by_name, layer_self_totals

#: Layer of each span family → the metric reporting its self time.
LAYER_SELF_METRICS = {
    "import": "import.self_s",
    "cli": "cli.self_s",
    "runner": "runner.self_s",
    "suite": "suite.self_s",
    "cfg": "cfg.self_s",
    "pipeline": "pipeline.self_s",
    "analysis": "analysis.self_s",
    "ipet": "ipet.self_s",
    "fmm": "fmm.self_s",
    "solve.planner": "solve.planner_self_s",
    "solve.backend": "solve.backend_self_s",
    "store": "store.self_s",
    "cellstore": "cellstore.self_s",
    "pwcet": "pwcet.self_s",
    "report": "report.self_s",
}

#: (module, attribute path, span name, layer) of every wrapped call.
#: A ``{kind}`` in the span name is filled with the store kind of the
#: receiving store object.
TARGETS = (
    ("repro.cli", "main", "cli.main", "cli"),
    ("repro.sweep.service", "run_sweep", "sweep.run_sweep", "runner"),
    ("repro.experiments.runner", "run_suite", "experiments.run_suite",
     "runner"),
    ("repro.suite", "load", "suite.load", "suite"),
    ("repro.cfg.graph", "CFG.digest", "cfg.digest", "cfg"),
    ("repro.pipeline.stages", "suite_pipeline", "pipeline.suite_pipeline",
     "pipeline"),
    ("repro.pipeline.stages", "benchmark_dag", "pipeline.dag_build",
     "pipeline"),
    ("repro.pipeline.scheduler", "PipelineScheduler._plan",
     "pipeline.plan", "pipeline"),
    ("repro.pipeline.scheduler", "PipelineScheduler.run", "pipeline.run",
     "pipeline"),
    ("repro.pipeline.stages", "classify_stage", "pipeline.classify_stage",
     "pipeline"),
    ("repro.pipeline.stages", "solve_stage", "pipeline.solve_stage",
     "pipeline"),
    ("repro.pipeline.stages", "cell_stage", "pipeline.cell_stage",
     "pipeline"),
    ("repro.pipeline.stages", "result_stage", "pipeline.result_stage",
     "pipeline"),
    ("repro.analysis.classify", "CacheAnalysis.__init__", "analysis.init",
     "analysis"),
    ("repro.analysis.classify", "CacheAnalysis.classification",
     "analysis.classification", "analysis"),
    ("repro.analysis.classify", "CacheAnalysis.srb_always_hits",
     "analysis.srb_always_hits", "analysis"),
    ("repro.analysis.geometry_batch", "grouped_analysis",
     "analysis.grouped_analysis", "analysis"),
    ("repro.ipet.wcet", "compute_wcet", "ipet.compute_wcet", "ipet"),
    ("repro.fmm.compute", "compute_fault_miss_map", "fmm.compute", "fmm"),
    ("repro.solve.planner", "SolvePlanner.solve", "solve.planner.solve",
     "solve.planner"),
    ("repro.solve.planner", "SolvePlanner.fmm_row", "solve.planner.fmm_row",
     "solve.planner"),
    ("repro.solve.planner", "SolvePlanner.prime", "solve.planner.prime",
     "solve.planner"),
    ("repro.solve.planner", "SolvePlanner.solve_with_values",
     "solve.planner.solve_with_values", "solve.planner"),
    ("repro.solve.backend", "SolverBackend.solve", "solve.backend",
     "solve.backend"),
    ("repro.solve.store", "SolveStore.get", "store.{kind}.get", "store"),
    ("repro.solve.store", "SolveStore.get_artefact", "store.{kind}.get",
     "store"),
    ("repro.solve.store", "SolveStore.put", "store.{kind}.put", "store"),
    ("repro.solve.store", "SolveStore.put_artefact", "store.{kind}.put",
     "store"),
    ("repro.analysis.store", "ClassificationStore.get", "store.{kind}.get",
     "store"),
    ("repro.analysis.store", "ClassificationStore.put", "store.{kind}.put",
     "store"),
    ("repro.pipeline.cellstore", "CellStore.get", "store.{kind}.get",
     "store"),
    ("repro.pipeline.cellstore", "CellStore.put", "store.{kind}.put",
     "store"),
    ("repro.solve.store", "ShardedStore.refresh", "store.{kind}.refresh",
     "store"),
    ("repro.solve.store", "ShardedStore._read_shard", "store.{kind}.load",
     "store"),
    ("repro.pipeline.cellstore", "encode_cell", "cellstore.encode",
     "cellstore"),
    ("repro.pipeline.cellstore", "decode_cell", "cellstore.decode",
     "cellstore"),
    ("repro.pwcet.batch", "penalty_distributions", "pwcet.convolve",
     "pwcet"),
    ("repro.sweep.report", "format_sweep_report", "report.format", "report"),
    ("repro.experiments.fig4", "format_fig4", "report.format", "report"),
)

#: Store class name → the kind its metrics are reported under.
STORE_KINDS = {"SolveStore": "solve", "ClassificationStore": "classify",
               "CellStore": "cell"}

#: Per-kind store metrics, in report order.
STORE_METRICS = ("load_s", "lines_parsed", "bytes_read",
                 "parse_useful_ratio", "get_calls", "hit_ratio",
                 "put_calls", "put_s", "corrupt_skipped")


def _store_kind(store) -> str:
    for klass in type(store).__mro__:
        if klass.__name__ in STORE_KINDS:
            return STORE_KINDS[klass.__name__]
    return type(store).__name__


class Instrumentation:
    """Installs the span wrappers and accumulates the layer counters."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        #: Program counters summed over every benchmark result, with the
        #: program's own merge rule (``PipelineStats.merge_counters``).
        self._totals = None
        self.pipeline = {"tasks_run": 0, "cells_from_store": 0,
                         "cells_recomputed": 0, "retries": 0}
        self.ilps = 0
        self.fmm_columns = 0
        self.pwcet_rows = 0
        self.digest_calls = 0
        self.distinct_cfgs = 0
        self._seen_cfgs: weakref.WeakSet = weakref.WeakSet()
        self.store = {kind: {"lines_parsed": 0, "bytes_read": 0,
                             "get_calls": 0, "hits": 0, "put_calls": 0,
                             "corrupt_skipped": 0, "served": set()}
                      for kind in STORE_KINDS.values()}
        self._reading: list[str] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        hooks = {
            "cfg.digest": self._on_digest,
            "pipeline.result_stage": self._on_result,
            "fmm.compute": self._on_fmm,
            "solve.backend": self._on_backend,
            "pwcet.convolve": self._on_convolve,
            "store.{kind}.get": self._on_get,
            "store.{kind}.put": self._on_put,
        }
        for module_name, path, name, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attribute = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if attribute == "_read_shard":
                wrapper = self._shard_reader(original, name, layer)
            elif path == "PipelineScheduler.run":
                wrapper = self._scheduler_run(original, name, layer)
            else:
                wrapper = self._wrap(original, name, layer,
                                     hooks.get(name))
            self._replace(owner, attribute, original, wrapper,
                          rebind=not outer)
        self._install_parse_counter()

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _replace(self, owner, attribute, original, wrapper,
                 rebind: bool) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
        if not rebind:
            return  # a method: callers look it up on the class
        # `from module import name` bound the function elsewhere too.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__",
                                              "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _wrap(self, original, name: str, layer: str, hook=None):
        recorder = self.recorder
        by_kind = "{kind}" in name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = (name.format(kind=_store_kind(args[0]))
                         if by_kind else name)
            index = recorder.begin(span_name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(index)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _shard_reader(self, original, name: str, layer: str):
        """``ShardedStore._read_shard``: one shard's unread tail — the
        store's load path.  Counts bytes consumed and attributes the
        lines parsed meanwhile to the store's kind."""
        recorder = self.recorder
        store_counts = self.store
        reading = self._reading

        @functools.wraps(original)
        def traced(store, shard, *args, **kwargs):
            kind = _store_kind(store)
            offsets = getattr(store, "_offsets", {})
            before = offsets.get(shard.name, 0)
            index = recorder.begin(name.format(kind=kind), layer)
            reading.append(kind)
            try:
                return original(store, shard, *args, **kwargs)
            finally:
                reading.pop()
                recorder.end(index)
                if kind in store_counts:
                    store_counts[kind]["bytes_read"] += max(
                        0, getattr(store, "_offsets", {}).get(
                            shard.name, before) - before)

        return traced

    def _scheduler_run(self, original, name: str, layer: str):
        """``PipelineScheduler.run`` with its stats object made explicit
        (the run creates an identical one when none is passed), so the
        task and retry ledger can be read afterwards."""
        recorder = self.recorder
        pipeline = self.pipeline
        try:
            from repro.pipeline.scheduler import PipelineStats
            takes_stats = "stats" in inspect.signature(original).parameters
        except (ImportError, TypeError, ValueError):
            takes_stats = False

        @functools.wraps(original)
        def traced(scheduler, *args, **kwargs):
            if takes_stats and kwargs.get("stats") is None:
                kwargs["stats"] = PipelineStats()
            stats = kwargs.get("stats")
            index = recorder.begin(name, layer)
            try:
                return original(scheduler, *args, **kwargs)
            finally:
                recorder.end(index)
                if stats is not None:
                    pipeline["tasks_run"] += stats.tasks_run
                    pipeline["cells_from_store"] += stats.cells_from_store
                    pipeline["cells_recomputed"] += stats.cells_recomputed
                    pipeline["retries"] += stats.failure_report.retries

        return traced

    def _install_parse_counter(self) -> None:
        """Count every shard line validated, per store kind (no span:
        one call per line)."""
        try:
            module = importlib.import_module("repro.solve.store")
            original = module.parse_shard_line
        except (ImportError, AttributeError):
            self.missing.append("repro.solve.store.parse_shard_line")
            return
        store_counts = self.store
        reading = self._reading

        @functools.wraps(original)
        def counted(line):
            parsed = original(line)
            if reading and reading[-1] in store_counts:
                counts = store_counts[reading[-1]]
                counts["lines_parsed"] += 1
                if parsed is None:
                    counts["corrupt_skipped"] += 1
            return parsed

        self._replace(module, "parse_shard_line", original, counted,
                      rebind=True)

    # -- counter hooks -----------------------------------------------------
    def _on_digest(self, args, kwargs, result) -> None:
        self.digest_calls += 1
        cfg = args[0]
        if cfg not in self._seen_cfgs:
            self._seen_cfgs.add(cfg)
            self.distinct_cfgs += 1

    @property
    def counters(self) -> dict[str, float]:
        return dict(self._totals.counters) if self._totals else {}

    def _on_result(self, args, kwargs, result) -> None:
        if self._totals is None:
            from repro.pipeline.scheduler import PipelineStats
            self._totals = PipelineStats()
        self._totals.merge_counters(getattr(result, "solver_stats", None))

    def _on_fmm(self, args, kwargs, result) -> None:
        rows = getattr(result, "rows", ())
        self.fmm_columns += sum(max(0, len(row) - 1) for row in rows)

    def _on_backend(self, args, kwargs, result) -> None:
        relaxed = kwargs.get("relaxed", args[3] if len(args) > 3 else False)
        if not relaxed:
            self.ilps += 1

    def _on_convolve(self, args, kwargs, result) -> None:
        self.pwcet_rows += len(result)

    def _on_get(self, args, kwargs, result) -> None:
        counts = self.store.get(_store_kind(args[0]))
        if counts is None:
            return
        counts["get_calls"] += 1
        if result is not None:
            counts["hits"] += 1
            counts["served"].add(args[1] if len(args) > 1
                                 else kwargs.get("key"))

    def _on_put(self, args, kwargs, result) -> None:
        counts = self.store.get(_store_kind(args[0]))
        if counts is not None:
            counts["put_calls"] += 1

    # -- metrics -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far
        (without ``import.*``/``trace.*``/``footer.*``, which the
        benchmark adds from its own measurements)."""
        spans = self.recorder.spans
        selves = layer_self_totals(spans)
        inclusive = inclusive_by_name(spans)

        def inclusive_seconds(name: str) -> float:
            return inclusive.get(name, 0.0)

        counters = self.counters
        metrics = {metric: selves.get(layer, 0.0)
                   for layer, metric in LAYER_SELF_METRICS.items()}
        requests = counters.get("requests", 0) - counters.get(
            "pruned_empty", 0)
        metrics.update({
            "cfg.digest_calls": self.digest_calls,
            "cfg.digest_s": inclusive_seconds("cfg.digest"),
            "cfg.digest_repeat_ratio": (self.distinct_cfgs
                                        / self.digest_calls
                                        if self.digest_calls else 0.0),
            "suite.load_s": inclusive_seconds("suite.load"),
            "analysis.fixpoints": counters.get("fixpoints_run", 0),
            "analysis.tables_built": counters.get("tables_built", 0),
            "analysis.tables_from_store": counters.get(
                "classify_store_hits", 0),
            "ipet.wcet_s": inclusive_seconds("ipet.compute_wcet"),
            "fmm.columns": self.fmm_columns,
            "solve.ilps": self.ilps,
            "solve.backend_s": inclusive_seconds("solve.backend"),
            "solve.dedup_hits": counters.get("dedup_hits", 0),
            "solve.store_hits": counters.get("store_hits", 0),
            "solve.dedup_ratio": (counters.get("dedup_hits", 0) / requests
                                  if requests > 0 else 0.0),
            "pipeline.plan_s": inclusive_seconds("pipeline.plan"),
            "pipeline.dag_build_s": inclusive_seconds("pipeline.dag_build"),
            "pipeline.tasks_run": self.pipeline["tasks_run"],
            "pipeline.cells_from_store": self.pipeline["cells_from_store"],
            "pipeline.cells_recomputed": self.pipeline["cells_recomputed"],
            "pipeline.retries": self.pipeline["retries"],
            "cellstore.decode_s": inclusive_seconds("cellstore.decode"),
            "cellstore.encode_s": inclusive_seconds("cellstore.encode"),
            "pwcet.convolve_s": inclusive_seconds("pwcet.convolve"),
            "pwcet.rows": self.pwcet_rows,
            "pwcet.rows_prefilled": counters.get("dist_batched_rows", 0),
            "report.s": inclusive_seconds("report.format"),
        })
        for kind, counts in self.store.items():
            gets = counts["get_calls"]
            lines = counts["lines_parsed"]
            values = {
                "load_s": inclusive_seconds(f"store.{kind}.load"),
                "lines_parsed": lines,
                "bytes_read": counts["bytes_read"],
                "parse_useful_ratio": (len(counts["served"]) / lines
                                       if lines else 0.0),
                "get_calls": gets,
                "hit_ratio": counts["hits"] / gets if gets else 0.0,
                "put_calls": counts["put_calls"],
                "put_s": inclusive_seconds(f"store.{kind}.put"),
                "corrupt_skipped": counts["corrupt_skipped"],
            }
            for metric in STORE_METRICS:
                metrics[f"store.{kind}.{metric}"] = values[metric]
        return metrics
