"""Run one tlexact command under the tracer.

    python3 bench/cli_shim.py DUMP.json SUBCOMMAND [ARGS...]

Installs the tracer, calls ``tlexact.cli.main(argv)`` inside a span named
``cli.<subcommand>`` and writes the spans to DUMP.json, also when the
command raises.  ``BENCH_LAUNCHED`` holds the ``time.time()`` at which the
parent launched this process; the difference up to the call of ``main``
is reported as the command's start-up time.
"""

import os
import sys
import time

import tlexact.cli

from spans import Tracer


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    command = tracer.span(f"cli.{argv[0]}", tlexact.cli.main)
    startup = time.time() - float(os.environ["BENCH_LAUNCHED"])
    try:
        code = command(argv)
    finally:
        tracer.dump(dump, extra={"cli.startup_s": startup})
    return code


if __name__ == "__main__":
    sys.exit(main())
