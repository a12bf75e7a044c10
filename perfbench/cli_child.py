"""One traced CLI invocation, for the traced pass of ``cli-readme``.

    python3 perfbench/cli_child.py <trace.json> <frobpow CLI arguments...>

Runs ``frobpow.cli.main`` with the per-layer tracer installed and writes the
span totals to <trace.json>, together with the moment the CLI module finished
importing (``time.perf_counter`` is CLOCK_MONOTONIC, so the parent can
subtract its own spawn time).  The CLI's output and exit code are unchanged.
"""

import json
import sys
import time
from pathlib import Path

import spans

import frobpow.cli

imported_at = time.perf_counter()


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    tracer.task = 0
    try:
        code = frobpow.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    durations = {"cli.main": 0.0, "cli.run_command": 0.0}
    for name_id, start, end, *_ in tracer.spans:
        name = tracer.names[name_id]
        if name in durations:
            durations[name] += end - start
    counters = tracer.counters()
    counters["cli.run_total_s"] = durations["cli.run_command"]
    # argument and problem-file parsing, plus rendering the small result
    counters["cli.parse_total_s"] = durations["cli.main"] - durations["cli.run_command"]
    Path(sys.argv[1]).write_text(json.dumps({"imported_at": imported_at, "counters": counters}))
    return code


if __name__ == "__main__":
    sys.exit(main())
