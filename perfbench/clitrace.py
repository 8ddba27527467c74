"""Run one CLI call with the tracer installed.

Usage: ``python clitrace.py <table.json> <verb> [args...]``.  Stdout, stderr
and the exit code are the CLI's own; the layer table goes to ``table.json``
when the call ends, even when it ends with an exception.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    table, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.install()
    from snakealg import cli
    try:
        return cli.main(argv)
    finally:
        tr.uninstall()
        with open(table, "w") as fh:
            json.dump({"layers": tr.layers(), "monoid_calls": tr.monoid_calls[0],
                       "cache_entries": tracing.cache_entries_total(),
                       "absent": tr.absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
