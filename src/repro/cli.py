"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``estimate``   pWCET of one suite benchmark for chosen mechanisms.
``suite``      the Figure 4 survey over all 25 benchmarks.
``curve``      exceedance series (Figure 3) for one benchmark.
``fmm``        print a benchmark's fault miss map (Figure 1.a style).
``tradeoff``   pWCET gain vs hardware cost (the §I trade-off).
``sweep``      (geometry x pfail) design-space sweep, Pareto fronts;
               ``--workers N`` fans whole grid cells over a process
               pool and streams per-cell progress as cells complete.
``cache gc``   fold the persistent stores' append-only shards into
               one sorted, checksummed file each (``--dry-run`` for
               a statistics report only).
``cache export``  pack the gc'd canonical shards of every store into
               a tarball for another machine (the live cache is left
               untouched).
``cache import``  merge a cache tarball content-addressed: novel
               entries are appended, existing ones never clobbered.
``serve``      HTTP shard server over one cache root: remote clients
               (``--remote`` / ``REPRO_REMOTE_STORE``) fetch store
               misses from it and push writes back, with retries,
               circuit breaking and graceful local-only degradation.
``list``       list the available benchmarks with size metadata.

All estimation commands consult the persistent caches — the three
stores (solve, classification, cell) share one directory
(``REPRO_CACHE=off|<path>``, ``--cache``): a warm re-run of any
command performs zero backend ILP solves and zero
abstract-interpretation fixpoints.

``suite`` and ``sweep`` take resilience knobs: transient worker
crashes and broken pools are always retried; ``--partial`` completes
what it can around permanently failing benchmarks/cells and exits
with code 3 (1 when nothing survived), ``--max-attempts`` and
``--stage-timeout`` tune the retry policy.  See README "Resilience &
chaos testing".
"""

from __future__ import annotations

import argparse
import sys

from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.suite import EVALUATED_BENCHMARKS, info, load
from repro.sweep.grid import DEFAULT_LINES, DEFAULT_SIZES, DEFAULT_WAYS

_MECHANISM_CHOICES = ("none", "srb", "rw", "srb+")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pfail", type=float, default=1e-4,
                        help="SRAM cell failure probability "
                             "(default 1e-4, the paper's value)")
    parser.add_argument("--probability", type=float,
                        default=TARGET_EXCEEDANCE,
                        help="target exceedance probability "
                             "(default 1e-15)")
    parser.add_argument("--relaxed", action="store_true",
                        help="solve LP relaxations (sound, faster)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for batched solving "
                             "(default 1: in-process)")
    parser.add_argument("--cache", default=None, metavar="off|PATH",
                        help="persistent store directory; 'off' "
                             "disables it (default: REPRO_CACHE, "
                             "else the user cache dir)")
    parser.add_argument("--remote", default=None, metavar="off|URL",
                        help="remote shard server (`repro serve`) to "
                             "fetch store misses from and push writes "
                             "to; 'off' disables (default: "
                             "REPRO_REMOTE_STORE, else local-only)")


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--partial", action="store_true",
                        help="tolerate permanently failing benchmarks/"
                             "cells: the rest of the run completes, "
                             "failures are annotated in the output, "
                             "and the exit code is 3 (default strict "
                             "mode aborts on the first permanent "
                             "failure)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        help="attempt budget per stage before a "
                             "transient fault (killed worker, broken "
                             "pool, timeout) is quarantined "
                             "(default 3)")
    parser.add_argument("--stage-timeout", action="append", default=None,
                        metavar="[STAGE=]SECONDS",
                        help="kill and retry a pool stage running "
                             "longer than SECONDS; prefix with "
                             "STAGE= to budget one stage kind only "
                             "(repeatable)")


#: Stage names a ``--stage-timeout STAGE=SECONDS`` budget may target —
#: the stages a CLI run puts on the pool, the only tasks a timeout
#: supervises.  A typo'd or inline-only stage name must fail loudly: a
#: silently ignored budget would green-light an unsupervised run.
_TIMEOUT_STAGES = frozenset({"classify", "solve", "cell", "sweep-cells"})


def _retry_from(arguments: argparse.Namespace):
    """Build a ``RetryPolicy`` from the CLI knobs, or ``None``.

    ``None`` means "the driver's default policy": transient faults are
    still retried, but no timeout supervision runs and the attempt
    budget is the library default.
    """
    import math

    from repro.pipeline.resilience import DEFAULT_RETRY_POLICY, RetryPolicy
    max_attempts = arguments.max_attempts
    if max_attempts is not None and max_attempts < 1:
        raise SystemExit(f"--max-attempts must be >= 1, "
                         f"got {max_attempts}")
    timeout = None
    stage_timeouts: dict[str, float] = {}
    for spec in arguments.stage_timeout or ():
        stage, separator, value = spec.rpartition("=")
        try:
            seconds = float(value)
        except ValueError:
            raise SystemExit("--stage-timeout: expected "
                             f"[STAGE=]SECONDS, got {spec!r}") from None
        if not math.isfinite(seconds) or seconds <= 0:
            raise SystemExit("--stage-timeout: SECONDS must be a "
                             f"positive finite number, got {spec!r}")
        if separator:
            if stage not in _TIMEOUT_STAGES:
                raise SystemExit(
                    f"--stage-timeout: unknown stage {stage!r} in "
                    f"{spec!r} (one of {', '.join(sorted(_TIMEOUT_STAGES))})")
            stage_timeouts[stage] = seconds
        else:
            timeout = seconds
    if max_attempts is None and timeout is None and not stage_timeouts:
        return None
    base = DEFAULT_RETRY_POLICY
    return RetryPolicy(max_attempts=(max_attempts if max_attempts
                                     is not None else base.max_attempts),
                       timeout=timeout,
                       stage_timeouts=stage_timeouts or None)


def _config_from(arguments: argparse.Namespace) -> EstimatorConfig:
    if arguments.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {arguments.workers}")
    if getattr(arguments, "remote", None) is not None:
        # The stores resolve the remote client from the environment on
        # every resolve(), so the flag simply overrides the variable —
        # including `--remote off` silencing an inherited one.
        import os

        from repro.solve.store import REMOTE_ENV
        os.environ[REMOTE_ENV] = arguments.remote
    return EstimatorConfig(pfail=arguments.pfail,
                           relaxed=arguments.relaxed,
                           workers=arguments.workers,
                           cache=arguments.cache)


def _estimator_for(name: str,
                   arguments: argparse.Namespace) -> PWCETEstimator:
    if name not in EVALUATED_BENCHMARKS:
        raise SystemExit(f"unknown benchmark {name!r}; "
                         "see `python -m repro list`")
    return PWCETEstimator(load(name), _config_from(arguments), name=name)


def _command_estimate(arguments: argparse.Namespace) -> int:
    estimator = _estimator_for(arguments.benchmark, arguments)
    print(f"benchmark {arguments.benchmark}: "
          f"fault-free WCET {estimator.fault_free_wcet()} cycles")
    for mechanism in arguments.mechanisms:
        estimate = estimator.estimate(mechanism)
        try:
            value = estimate.pwcet(arguments.probability)
        except Exception as error:  # refined analyses may refuse deep tails
            print(f"  {mechanism:>5s}: unavailable ({error})")
            continue
        print(f"  {mechanism:>5s}: pWCET@{arguments.probability:.0e} "
              f"= {value} cycles")
    return 0


def _command_suite(arguments: argparse.Namespace) -> int:
    from repro.experiments import fig4_rows, format_fig4
    retry = _retry_from(arguments)
    if not arguments.partial:
        rows = fig4_rows(_config_from(arguments),
                         target_probability=arguments.probability,
                         retry=retry)
        print(format_fig4(rows))
        return 0
    from repro.experiments.fig4 import row_of
    from repro.experiments.runner import FailedBenchmark, run_suite
    results = run_suite(_config_from(arguments),
                        target_probability=arguments.probability,
                        strict=False, retry=retry)
    failed = [item for item in results
              if isinstance(item, FailedBenchmark)]
    completed = [item for item in results
                 if not isinstance(item, FailedBenchmark)]
    if completed:
        print(format_fig4([row_of(result) for result in completed]))
    if not failed:
        return 0
    if completed:
        print()
    print(f"FAILED benchmarks ({len(failed)} of {len(results)} — "
          "partial suite):")
    for item in failed:
        failure = item.failure
        print(f"  {item.name}: {failure.stage} "
              f"[{failure.classification}] after "
              f"{failure.attempts} attempt(s) — {failure.error}")
    return 3 if completed else 1


def _command_curve(arguments: argparse.Namespace) -> int:
    estimator = _estimator_for(arguments.benchmark, arguments)
    for mechanism in arguments.mechanisms:
        curve = estimator.estimate(mechanism).exceedance_curve()
        print(f"# {arguments.benchmark} / {mechanism}")
        for value, probability in curve.rows()[:arguments.max_points]:
            print(f"{value} {probability:.6e}")
    return 0


def _command_fmm(arguments: argparse.Namespace) -> int:
    estimator = _estimator_for(arguments.benchmark, arguments)
    fmm = estimator.fault_miss_map(arguments.mechanisms[0])
    print(fmm.format_table())
    return 0


def _command_tradeoff(arguments: argparse.Namespace) -> int:
    from repro.hwcost.tradeoff import format_tradeoff, tradeoff_points
    benchmarks = tuple(arguments.benchmark or ("fibcall", "ud", "adpcm"))
    points = tradeoff_points(benchmarks, _config_from(arguments),
                             probability=arguments.probability)
    print(format_tradeoff(points))
    return 0


def _parse_only_cells(specs):
    """``--only-cells mech=<name>,pfail=<p>`` → (mechanism, pfail) pairs.

    Either key may be omitted (wildcard on that axis); the flag
    repeats, and a cell is selected when any filter matches it.
    """
    filters = []
    for spec in specs or ():
        mechanism = None
        pfail = None
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            if not separator:
                raise SystemExit(
                    f"--only-cells: expected key=value, got {part!r} "
                    "(use mech=<name>,pfail=<p>)")
            if key == "mech":
                mechanism = value
            elif key == "pfail":
                try:
                    pfail = float(value)
                except ValueError:
                    raise SystemExit(f"--only-cells: pfail must be a "
                                     f"number, got {value!r}") from None
            else:
                raise SystemExit(f"--only-cells: unknown key {key!r} "
                                 "(use mech=<name>,pfail=<p>)")
        if mechanism is None and pfail is None:
            raise SystemExit(f"--only-cells: empty filter {spec!r}")
        filters.append((mechanism, pfail))
    return tuple(filters) or None


def _command_sweep(arguments: argparse.Namespace) -> int:
    from repro.sweep import format_sweep_report, geometry_grid, run_sweep
    benchmarks = tuple(arguments.benchmarks or EVALUATED_BENCHMARKS)
    for name in benchmarks:
        if name not in EVALUATED_BENCHMARKS:
            raise SystemExit(f"unknown benchmark {name!r}; "
                             "see `python -m repro list`")
    geometries = geometry_grid(sizes=tuple(arguments.sizes),
                               ways=tuple(arguments.ways),
                               lines=tuple(arguments.lines))
    # --pfails defines the grid axis; without it, the shared --pfail
    # value becomes a one-point axis instead of being ignored.
    pfails = (tuple(arguments.pfails) if arguments.pfails is not None
              else (arguments.pfail,))

    def stream_cell(cell, points, completed, total):
        # Streams to stderr as cells finish (completion order under
        # --workers); stdout stays byte-identical to the sequential
        # report, which is always assembled in grid order.
        best = max((point for point in points if point.mechanism != "none"),
                   key=lambda point: point.mean_gain, default=None)
        summary = (f"best gain {best.mean_gain:.1%} ({best.mechanism})"
                   if best is not None else "no protected mechanism")
        print(f"[{completed:>3d}/{total}] {cell.label}: {summary}",
              file=sys.stderr, flush=True)

    # --workers fans *whole grid cells* (grouped by geometry) over a
    # process pool; inside a cell the suite then runs single-worker.
    result = run_sweep(geometries,
                       pfails=pfails,
                       benchmarks=benchmarks,
                       config=_config_from(arguments),
                       cell_workers=arguments.workers,
                       on_cell=stream_cell,
                       only_cells=_parse_only_cells(arguments.only_cells),
                       probability=arguments.probability,
                       strict=not arguments.partial,
                       retry=_retry_from(arguments))
    text = format_sweep_report(result)
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(text + "\n")
        print(f"sweep report written to {arguments.output}")
    else:
        print(text)
    if result.failed:
        # Partial sweep: the report annotates the failed cells; the
        # exit code tells scripts the grid is incomplete (3) or that
        # nothing at all survived (1).
        return 3 if result.points else 1
    return 0


def _command_cache_gc(arguments: argparse.Namespace) -> int:
    from repro.solve.gc import gc_cache
    reports = gc_cache(arguments.cache, dry_run=arguments.dry_run,
                       fsync=arguments.fsync)
    if not reports:
        print("cache gc: nothing to compact (no shards found, or the "
              "cache is disabled)")
        return 0
    for report in reports:
        print(report.format_row())
    total_saved = sum(report.bytes_saved for report in reports)
    verb = "would save" if arguments.dry_run else "saved"
    noun = "directory" if len(reports) == 1 else "directories"
    print(f"cache gc: {verb} {total_saved} bytes across "
          f"{len(reports)} store {noun}")
    total_corrupt = sum(report.corrupt_dropped for report in reports)
    if total_corrupt:
        # Silent store repair made visible: these lines were torn or
        # corrupt, were skipped by every reader, and are (or would be)
        # dropped for good here.
        verb = "would drop" if arguments.dry_run else "dropped"
        print(f"cache gc: {verb} {total_corrupt} corrupt/torn "
              f"line(s) recovered by re-computation")
    return 0


def _command_cache_export(arguments: argparse.Namespace) -> int:
    from repro.solve.gc import export_cache
    reports = export_cache(arguments.tarball, arguments.cache,
                           fsync=arguments.fsync)
    if not reports:
        print("cache export: nothing to pack (no shards found)")
        return 0
    for report in reports:
        print(report.format_row())
    total = sum(report.entries for report in reports)
    print(f"cache export: packed {total} entr(ies) into "
          f"{arguments.tarball}")
    return 0


def _command_cache_import(arguments: argparse.Namespace) -> int:
    from repro.solve.gc import import_cache
    reports = import_cache(arguments.tarball, arguments.cache,
                           fsync=arguments.fsync)
    if not reports:
        print("cache import: no store shards found in "
              f"{arguments.tarball}")
        return 0
    for report in reports:
        print(report.format_row())
    total = sum(report.imported for report in reports)
    print(f"cache import: merged {total} new entr(ies)")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    from repro.remote.server import ShardServer
    server = ShardServer(arguments.cache, host=arguments.host,
                         port=arguments.port)
    print(f"serving shard store {server.root} at {server.url} "
          "(Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _remote_degradation_note() -> None:
    """One stderr note per degraded remote client, after any command.

    Stderr only: stdout must stay byte-identical to a local-only run —
    that is the headline guarantee ("remote dies mid-sweep → run
    completes from local stores, byte-identical, exit 0").
    """
    import sys as _sys
    if "repro.remote.client" not in _sys.modules:
        return  # no remote was ever resolved: nothing to report
    from repro.remote.client import resolved_clients
    for client in resolved_clients():
        if not client.degraded:
            continue
        stats = client.stats
        print(f"note: remote store {client.base_url} degraded to "
              f"local-only mode ({stats.breaker_trips} circuit-breaker "
              f"trip(s), {stats.degraded_skips} request(s) skipped, "
              f"{stats.retries} retr(ies)); the run completed from "
              "local stores", file=sys.stderr, flush=True)


def _command_list(_arguments: argparse.Namespace) -> int:
    print(f"{'benchmark':14s} {'bytes':>7s} {'instrs':>7s}  description")
    for name in EVALUATED_BENCHMARKS:
        metadata = info(name)
        print(f"{name:14s} {metadata.code_bytes:7d} "
              f"{metadata.instruction_count:7d}  {metadata.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-aware probabilistic WCET estimation "
                    "(Hardy, Puaut & Sazeides, DATE 2016)")
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser(
        "estimate", help="pWCET of one benchmark")
    estimate.add_argument("benchmark")
    estimate.add_argument("--mechanisms", nargs="+",
                          choices=_MECHANISM_CHOICES,
                          default=["none", "srb", "rw"])
    _add_config_arguments(estimate)
    estimate.set_defaults(handler=_command_estimate)

    suite = commands.add_parser(
        "suite", help="the Figure 4 survey over all 25 benchmarks")
    _add_config_arguments(suite)
    _add_resilience_arguments(suite)
    suite.set_defaults(handler=_command_suite)

    curve = commands.add_parser(
        "curve", help="exceedance series (Figure 3) for one benchmark")
    curve.add_argument("benchmark")
    curve.add_argument("--mechanisms", nargs="+",
                       choices=_MECHANISM_CHOICES,
                       default=["none", "srb", "rw"])
    curve.add_argument("--max-points", type=int, default=50)
    _add_config_arguments(curve)
    curve.set_defaults(handler=_command_curve)

    fmm = commands.add_parser(
        "fmm", help="fault miss map of one benchmark")
    fmm.add_argument("benchmark")
    fmm.add_argument("--mechanisms", nargs=1,
                     choices=_MECHANISM_CHOICES, default=["none"])
    _add_config_arguments(fmm)
    fmm.set_defaults(handler=_command_fmm)

    tradeoff = commands.add_parser(
        "tradeoff", help="pWCET gain vs hardware cost")
    tradeoff.add_argument("benchmark", nargs="*")
    _add_config_arguments(tradeoff)
    tradeoff.set_defaults(handler=_command_tradeoff)

    sweep = commands.add_parser(
        "sweep", help="multi-geometry design-space sweep "
                      "(Pareto fronts of pWCET gain vs hardware cost)")
    sweep.add_argument("--sizes", type=int, nargs="+",
                       default=list(DEFAULT_SIZES),
                       help="cache capacities in bytes")
    sweep.add_argument("--ways", type=int, nargs="+",
                       default=list(DEFAULT_WAYS),
                       help="associativities")
    sweep.add_argument("--lines", type=int, nargs="+",
                       default=list(DEFAULT_LINES),
                       help="line sizes in bytes")
    sweep.add_argument("--pfails", type=float, nargs="+", default=None,
                       help="cell failure probability axis (cells "
                            "along it reuse every cached solve; "
                            "default: the --pfail value)")
    sweep.add_argument("--benchmarks", nargs="+", default=None,
                       help="suite subset (default: all 25)")
    sweep.add_argument("--only-cells", action="append", default=None,
                       metavar="mech=<name>,pfail=<p>",
                       help="restrict the sweep to matching (mechanism, "
                            "pfail) cells; either key may be omitted, "
                            "the flag repeats, and selected sections "
                            "stay byte-identical to the full run's")
    sweep.add_argument("--output", default=None,
                       help="write the report to a file")
    _add_config_arguments(sweep)
    _add_resilience_arguments(sweep)
    sweep.set_defaults(handler=_command_sweep)

    cache = commands.add_parser(
        "cache", help="persistent store maintenance")
    cache_commands = cache.add_subparsers(dest="cache_command",
                                          required=True)
    cache_gc = cache_commands.add_parser(
        "gc", help="fold append-only solve/classification shards into "
                   "one sorted, checksummed file each")
    cache_gc.add_argument("--cache", default=None, metavar="off|PATH",
                          help="cache directory to compact (default: "
                               "REPRO_CACHE, else the user cache "
                               "dir)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what compaction would do without "
                               "touching any shard")
    cache_gc.add_argument("--fsync", action="store_true",
                          help="flush each published shard (and its "
                               "directory entry) to stable storage — "
                               "durable against power loss, not just "
                               "torn writes")
    cache_gc.set_defaults(handler=_command_cache_gc)
    cache_export = cache_commands.add_parser(
        "export", help="pack the gc'd canonical shards of every store "
                       "into a tarball (the live cache is not modified)")
    cache_export.add_argument("tarball",
                              help="output tarball path (gzip-compressed)")
    cache_export.add_argument("--cache", default=None, metavar="off|PATH",
                              help="cache directory to export (default: "
                                   "REPRO_CACHE, else the user "
                                   "cache dir)")
    cache_export.add_argument("--fsync", action="store_true",
                              help="flush the finished tarball to "
                                   "stable storage before the atomic "
                                   "rename publishes it")
    cache_export.set_defaults(handler=_command_cache_export)
    cache_import = cache_commands.add_parser(
        "import", help="merge a cache tarball content-addressed: novel "
                       "entries are appended, existing ones never "
                       "clobbered")
    cache_import.add_argument("tarball", help="tarball produced by "
                                              "`repro cache export`")
    cache_import.add_argument("--cache", default=None, metavar="off|PATH",
                              help="cache directory to merge into "
                                   "(default: REPRO_CACHE, else "
                                   "the user cache dir)")
    cache_import.add_argument("--fsync", action="store_true",
                              help="flush the merged shard to stable "
                                   "storage before the atomic rename "
                                   "publishes it")
    cache_import.set_defaults(handler=_command_cache_import)

    serve = commands.add_parser(
        "serve", help="HTTP shard server over one cache root "
                      "(fetch-on-miss / push-on-write remote for "
                      "--remote / REPRO_REMOTE_STORE clients)")
    serve.add_argument("--cache", default=None, metavar="PATH",
                       help="cache directory to serve (default: "
                            "REPRO_CACHE, else the user cache dir)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; bind "
                            "0.0.0.0 only on a trusted network — the "
                            "protocol is unauthenticated)")
    serve.add_argument("--port", type=int, default=8737,
                       help="TCP port (default 8737; 0 picks a free "
                            "port)")
    serve.set_defaults(handler=_command_serve)

    listing = commands.add_parser("list", help="available benchmarks")
    listing.set_defaults(handler=_command_list)

    report = commands.add_parser(
        "report", help="full reproduction report (all artefacts)")
    report.add_argument("--output", default=None,
                        help="write the markdown report to a file")
    _add_config_arguments(report)
    report.set_defaults(handler=_command_report)
    return parser


def _command_report(arguments: argparse.Namespace) -> int:
    from repro.experiments.report import full_report
    text = full_report(_config_from(arguments))
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {arguments.output}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    code = arguments.handler(arguments)
    _remote_degradation_note()
    return code


if __name__ == "__main__":
    sys.exit(main())
