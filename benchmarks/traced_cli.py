"""Run ``momentdet.cli`` with the benchmark's tracer installed.

    python3 traced_cli.py TRACE_OUT [cli arguments...]

Used by the traced run of the cli-cold workload in place of
``python -m momentdet.cli``: the report on standard output and the exit code
are the CLI's own, and the tracer's state is written to TRACE_OUT.
"""
import json
import sys

from tracer import Tracer

import momentdet.cli


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = momentdet.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
