"""Run one wirebox command line with tracing on, for the traced CLI run.

Usage: python perfbench/cli_child.py TRACE_JSON -- ARGV...

Imports ``wirebox.cli``, installs the tracer's wrappers, calls
``wirebox.cli.dispatch(argv)`` and writes the tracer's spans and
aggregates to TRACE_JSON.  Exits with the command's exit code.
"""

import json
import sys


def main() -> int:
    trace_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 64
    import wirebox.cli

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = wirebox.cli.dispatch(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(tracer.to_json(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
