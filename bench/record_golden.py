"""Record the golden stdout and exit code of every cli-session command.

    PYTHONPATH=src python3 bench/record_golden.py

Runs the commands once, in session order, against a fresh Jones-Wenzl
cache file, and rewrites golden/cli.json and the golden/*.out files.  The
goldens are meant to be recorded once, from a commit whose output is
trusted, and then kept: a later change that alters stdout fails the
benchmark's checks.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def main():
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "jw-cache.json")
        for k, argv in enumerate((workloads.CLI_FIRST,) + workloads.CLI_REST):
            args = [a.replace(workloads.CACHE, cache) for a in argv]
            proc = subprocess.run([sys.executable, "-m", "tlexact.cli"] + args,
                                  capture_output=True, timeout=300)
            if b"Traceback" in proc.stderr:
                raise SystemExit(f"{argv} raised:\n{proc.stderr.decode()}")
            name = f"{k:02d}-{argv[0]}.out"
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(proc.stdout)
            entries.append({"argv": list(argv), "exit": proc.returncode,
                            "stdout": name})
    with open(os.path.join(GOLDEN, "cli.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")


if __name__ == "__main__":
    main()
