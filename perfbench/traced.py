"""Traced in-process run of the ``repro`` CLI (one workload, one process).

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py --metrics M.json --trace T.json -- sweep ...

Imports ``repro.cli`` inside an ``import`` span, installs the per-layer
span wrappers of :mod:`instrument`, calls ``repro.cli.main(argv)``
(stdout is the CLI's own), then writes the per-layer metrics to
``--metrics`` and the spans as Chrome trace-event JSON to ``--trace``.
Exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", required=True)
    parser.add_argument("--trace", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv

    from instrument import TARGETS, Instrumentation
    from spans import Recorder, chrome_trace

    recorder = Recorder()
    index = recorder.begin("import repro", "import")
    try:
        # The CLI imports some layers lazily; importing every wrapped
        # module up front lets the wrappers go in before main() runs.
        for module_name in dict.fromkeys(target[0] for target in TARGETS):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # reported as a missing target by install()
    finally:
        recorder.end(index)
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    import repro.cli

    try:
        code = repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        instrumentation.uninstall()
    returned = time.perf_counter()
    summary = {
        "exit_code": code,
        "metrics": instrumentation.metrics(),
        "counters": instrumentation.counters,
        "missing": instrumentation.missing,
        "spans": len(recorder.spans),
        # Tracer time outside every span, for the unattributed rest.
        "before_main_s": recorder.spans[0].start - started,
    }
    written = time.perf_counter()
    with open(options.trace, "w") as handle:
        json.dump(chrome_trace(recorder.spans, origin=started,
                               metadata={"argv": argv}), handle,
                  separators=(",", ":"))
    summary["after_main_s"] = time.perf_counter() - returned
    summary["trace_write_s"] = time.perf_counter() - written
    with open(options.metrics, "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
