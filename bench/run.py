"""The tlexact benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the package under
``src/``.  A run repeats passes over one workload's task list, each pass in
a fresh single-threaded process with cold in-process caches, one pass at a
time (a closed loop with one client), until S seconds are used; it always
makes at least three passes (two untraced and two traced with --trace 1).
Between passes it launches a fresh interpreter that imports
``tlexact.cli``, to time set-up.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` and ``wall_s`` (medians over the run's launches and passes)
and ``peak_rss_mb`` (median over passes of the pass process's peak RSS;
for cli-session, the largest of its command processes).  With --trace 1
untraced and traced passes alternate; it reports the per-layer metrics
(medians over the traced passes) and ``trace_overhead``, the traced over
the untraced median wall time.

Every task ends in exact-equality checks (see workloads.py).  The last
line of stdout is one JSON object with ``correct``, ``attempted`` (checks
run), ``failed`` (checks failed) and ``metrics``; a line before it gives
``fail_ratio`` with its base.  Each run's context (source revision, seed,
CPUs, CPU model, Python version) is printed and appended, with the
results, to ``.bench_out/results.jsonl``.  The workload's raw spans of the
last traced pass are in ``.bench_out/spans-<workload>.json``.

Noise.  On the 2-vCPU Xeon VM this was sized on (CPython 3.11.7), one
fixed pure-Python loop ran up to 25% slower or faster from one second to
the next, with CPU time tracking wall time, and its means over 25-second
windows spread by an interquartile range of 9% of their median.  Passes
of the same workload and seed spread by about 10%.  Hence medians over
several passes per run, interleaved set-up launches, and bounds in
BENCHMARK.json taken from the measured spread of whole runs.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("diagram-products", "seminormal-operators", "element-bridge",
             "cli-session")
SETUP_LAUNCHES = 11
RUN_LIMIT = 170  # seconds; every child is stopped by then


def child_env():
    env = dict(os.environ)
    env.pop("TL_CACHE", None)  # would override the session's --cache
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def context(seed):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tlexact")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha or None, "source_sha256": digest.hexdigest(),
            "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version()}


def run_child(cmd, env, deadline):
    """Run cmd in its own process group; on timeout kill the whole group
    (a pass's own CLI children included) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"{cmd[1]} timed out\n"
    return (out if proc.returncode == 0 else None), err


def time_setup(env, deadline):
    """Seconds from launching an interpreter to `import tlexact.cli`
    returning, read by the child's own clock."""
    code = "import time, tlexact.cli; print(repr(time.time()))"
    launched = time.time()
    out, err = run_child([sys.executable, "-c", code], env, deadline)
    if out is None:
        raise SystemExit(f"importing tlexact.cli failed:\n{err}")
    return float(out) - launched


def run_pass(workload, seed, trace, env, deadline):
    out = os.path.join(OUT, f"pass-{workload}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), workload,
           str(seed), "1" if trace else "0", out, OUT]
    stdout, err = run_child(cmd, env, deadline)
    sys.stderr.write(err)
    if stdout is None or not os.path.exists(out):
        return None
    with open(out) as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_LIMIT
    if not os.path.isfile(os.path.join(SRC, "tlexact", "__init__.py")):
        print(f"no tlexact sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    ctx = context(args.seed)
    print(json.dumps({"workload": args.workload, "trace": args.trace, **ctx}))

    time_setup(env, deadline)  # compiles the bytecode; not counted
    setups = [time_setup(env, deadline) for _ in range(3)]
    modes = (False, True) if args.trace else (False,)
    min_rounds = 2 if args.trace else 3
    passes = {False: [], True: []}
    attempted = failed = rounds = 0
    crashed = False
    durations = []
    start = time.perf_counter()
    while not crashed and (rounds < min_rounds or time.perf_counter() - start
                           + statistics.median(durations) * len(modes) <= args.seconds):
        for mode in modes:
            t0 = time.perf_counter()
            result = run_pass(args.workload, args.seed, mode, env, deadline)
            durations.append(time.perf_counter() - t0)
            if result is None:
                attempted += 1
                failed += 1
                crashed = True
                continue
            passes[mode].append(result)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in result["failures"]:
                print(f"FAILED {args.workload}: {name}", file=sys.stderr)
        rounds += 1
        for _ in range(min(2, SETUP_LAUNCHES - len(setups))):
            setups.append(time_setup(env, deadline))
    while len(setups) < SETUP_LAUNCHES:
        setups.append(time_setup(env, deadline))

    metrics = {}
    if all(passes[m] for m in modes):
        walls = [p["wall_s"] for p in passes[False]]
        if args.trace:
            layers = [p["layers"] for p in passes[True]]
            metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
            metrics["trace_overhead"] = (statistics.median(p["wall_s"] for p in passes[True])
                                         / statistics.median(walls))
        else:
            metrics = {"setup_s": statistics.median(setups),
                       "wall_s": statistics.median(walls),
                       "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                        for p in passes[False])}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted if m["name"] in metrics}
    for name, entry in report.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed / {attempted} checks_run)")
    record = {**ctx, "workload": args.workload, "trace": args.trace,
              "passes": {("traced" if m else "untraced"): [p["wall_s"] for p in passes[m]]
                         for m in modes},
              "setup_launches": setups, "checks_run": attempted,
              "checks_failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if missing:
        print(f"metrics not produced: {', '.join(missing)}", file=sys.stderr)
        failed += 1
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
