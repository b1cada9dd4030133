"""Traced ``frameseq`` command: install the span wrappers, then run the CLI.

Usage: python3 benchmarks/cli_entry.py SPANS_JSON -- CLI_ARGS...

Behaves like ``python -m frameseq.cli CLI_ARGS...`` (same output, exit code
and tracebacks) and writes the import time and the recorded spans to
SPANS_JSON when the command ends, whether it returns or raises.
"""

import json
import sys
import time


def main():
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_entry.py SPANS_JSON -- CLI_ARGS...")
    t0 = time.perf_counter()
    import frameseq.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return frameseq.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.records()}, fh)


if __name__ == "__main__":
    sys.exit(main())
