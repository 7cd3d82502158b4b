"""Run one soficlab CLI command with the tracer installed.

    python3 bench/traced_cli.py TRACE_FILE ARGV...

Behaves like ``python -m soficlab.cli ARGV...`` (same exit code and
outputs) and writes the spans and their summary to TRACE_FILE.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from soficlab import cli

    try:
        code = cli.run(argv)
    finally:
        tracer.uninstall()
    tracer.dump(trace_file, argv=argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
