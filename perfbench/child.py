"""Traced entry point: install the okr timing wrappers, run one okr command,
then write the spans to a JSON file.

    python3 perfbench/child.py <trace.json> <okr arguments...>

Exits with the command's own exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    from okr import cli

    from tracer import Tracer, install

    tracer = Tracer()
    missing = install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        end = time.perf_counter()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"start": start, "end": end, "spans": tracer.spans,
                       "counters": tracer.counters, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
