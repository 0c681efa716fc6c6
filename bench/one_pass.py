"""One pass over a workload's task list, in a fresh process.

    python3 bench/one_pass.py WORKLOAD SEED TRACE OUT.json WORKDIR

A fresh process starts with cold in-process caches (the lru caches, the
multiplication memos and the default Jones-Wenzl cache).  The pass writes
OUT.json with its wall time, its peak resident set size, the checks it
attempted and failed, and with TRACE = 1 its per-layer metrics; with
TRACE = 1 it also keeps the raw spans in WORKDIR/spans-WORKLOAD.json.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")


def _check_source(root):
    import tlexact
    src = os.path.join(root, "src", "tlexact")
    if os.path.dirname(os.path.abspath(tlexact.__file__)) != src:
        raise SystemExit(f"tlexact imported from {tlexact.__file__}, not {src}")


def run_in_process(workload, seed, tracer):
    import workloads
    tasks = workloads.IN_PROCESS[workload](random.Random(seed))
    attempted, failures = 0, []
    start = time.perf_counter()
    for name, thunk in tasks:
        try:
            results = thunk()
        except Exception:
            traceback.print_exc()
            attempted += 1
            failures.append(name)
            continue
        attempted += len(results)
        failures += [f"{name}[{i}]" for i, ok in enumerate(results) if not ok]
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    docs = [tracer.document()] if tracer is not None else []
    return wall, peak, attempted, failures, docs


def _golden():
    with open(os.path.join(GOLDEN, "cli.json")) as fh:
        entries = json.load(fh)
    out = {}
    for entry in entries:
        with open(os.path.join(GOLDEN, entry["stdout"]), "rb") as fh:
            out[tuple(entry["argv"])] = (entry["exit"], fh.read())
    return out


def run_cli_session(seed, trace, workdir):
    import workloads
    golden = _golden()
    cache = os.path.join(workdir, "jw-cache.json")
    if os.path.exists(cache):
        os.remove(cache)
    commands = workloads.cli_session(random.Random(seed))
    attempted, failures, docs = 0, [], []
    stdout_bytes = exit_mismatch = 0
    start = time.perf_counter()
    for k, argv in enumerate(commands):
        args = [a.replace(workloads.CACHE, cache) for a in argv]
        dump = os.path.join(workdir, f"cli-spans-{k}.json")
        env = dict(os.environ)
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), dump] + args
            env["BENCH_LAUNCHED"] = repr(time.time())
        else:
            cmd = [sys.executable, "-m", "tlexact.cli"] + args
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=150)
        want_exit, want_out = golden[tuple(argv)]
        attempted += 1
        stdout_bytes += len(proc.stdout)
        exit_mismatch += proc.returncode != want_exit
        if (proc.returncode != want_exit or proc.stdout != want_out
                or b"Traceback (most recent call last)" in proc.stderr):
            failures.append(" ".join(argv))
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        if trace and os.path.exists(dump):
            with open(dump) as fh:
                docs.append(json.load(fh))
            os.remove(dump)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if trace:
        docs.append({"spans": [], "counts": {}, "caches": {},
                     "extra": {"cli.stdout_bytes": stdout_bytes,
                               "cli.exit_mismatch": exit_mismatch}})
    return wall, peak, attempted, failures, docs


def main():
    workload, seed, trace, out, workdir = sys.argv[1:6]
    seed, trace = int(seed), trace == "1"
    root = os.path.dirname(HERE)
    _check_source(root)
    if workload == "cli-session":
        wall, peak, attempted, failures, docs = run_cli_session(seed, trace, workdir)
    else:
        tracer = None
        if trace:
            from spans import Tracer
            tracer = Tracer().install()
        wall, peak, attempted, failures, docs = run_in_process(workload, seed, tracer)
    result = {"wall_s": wall, "peak_rss_mb": peak, "attempted": attempted,
              "failed": len(failures), "failures": failures}
    if trace:
        from spans import layer_metrics
        result["layers"] = layer_metrics(docs)
        with open(os.path.join(workdir, f"spans-{workload}.json"), "w") as fh:
            json.dump(docs, fh)
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
