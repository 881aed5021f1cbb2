#!/usr/bin/env python3
"""Host-time benchmark of the simulator (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload fig2_sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. Builds the simulator libraries and
the benchmark driver from source into .bench_build/perfbench (RelWithDebInfo,
the repo's default), runs the driver with a clean TSX_* environment, and
passes its output through. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. Exits non-zero, printing no
result, when the sources are missing, the build fails or the driver fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig2_sweep", "engine_large", "traced_drills")
BUILD_TYPE = "RelWithDebInfo"
SETUP_PROCESSES_EACH_SIDE = 2
SETUP_TIMEOUT_S = 60


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"), 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


def git_commit():
    """HEAD, with "+dirty" when the tree has uncommitted changes; "none"
    outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    commit = head.stdout.strip() or "none"
    return commit + "+dirty" if status.stdout.strip() else commit


def clean_env():
    # Only the driver sets simulator knobs (TSX_TASK_THREADS, per phase).
    return {k: v for k, v in os.environ.items() if not k.startswith("TSX_")}


def call_driver(cmd, timeout_s):
    """Runs the driver to completion; returns its stdout lines."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=clean_env(), cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % timeout_s)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("driver exited with code %d" % proc.returncode)
    return lines


def run_driver(workload, args):
    """Runs the driver on one workload; returns its other stdout lines and
    the parsed result line."""
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", git_commit()]
    setups = []
    if not args.trace:
        setups += [setup_sample(cmd) for _ in range(SETUP_PROCESSES_EACH_SIDE)]
    # The timed window takes the requested seconds, up to 1.7 times that on
    # a slow host; set-up and the checks after it take well under a minute.
    lines = call_driver(cmd, 2 * args.seconds + 60)
    try:
        result = json.loads(lines.pop())
    except ValueError:
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys: %s" % sorted(result))
    if not args.trace:
        # setup_s is the median over processes before, of, and after the
        # run, each timed from its own start: a slower cold start shows,
        # and a host slowdown of a second or two does not decide it.
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setups += [setup_sample(cmd) for _ in range(SETUP_PROCESSES_EACH_SIDE)]
        setup["value"] = statistics.median(setups)
        lines.append("setup_s median of %d processes: %.6f (%s)" % (
            len(setups), setup["value"], " ".join("%.4f" % v for v in setups)))
    return lines, result


def setup_sample(cmd):
    """Seconds from start to the first timed pass of a set-up-only driver."""
    line = call_driver(cmd + ["--setup-only", "1"], SETUP_TIMEOUT_S)[-1]
    if not line.startswith("setup_s "):
        fail("set-up-only driver printed no time")
    return float(line.split()[1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.call([os.path.join(BUILD, "perfbench_selftest")],
                                 env=clean_env(), cwd=ROOT))
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    t0 = time.monotonic()
    build(["perfbench_driver"])
    print("build_s %.3f" % (time.monotonic() - t0))
    if args.workload != "all":
        lines, result = run_driver(args.workload, args)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    # Every workload in turn, metric lines prefixed with the workload; the
    # last line maps each workload to its result.
    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = run_driver(workload, args)
        for line in lines:
            if line.startswith("metric "):
                print(workload + "/" + line[len("metric "):])
            elif not line.startswith("pass_s"):
                print(line)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
