#!/usr/bin/env python3
"""Build and run the ethkv benchmark.

    python3 perfbench/run.py --workload zipf_rw --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
ethkvd and the load generator under .bench_build/ (RelWithDebInfo);
later runs only rebuild what changed. Build output goes to stderr;
stdout carries the benchmark's report, ending in one JSON line.

--trace 0 measures the ethkvd binary over loopback and reports the
end-to-end metrics; --trace 1 rebuilds the same stack in-process with
a timing decorator at every layer boundary and reports the per-layer
metrics. Exits nonzero on a build failure, a wrong answer or a
failed run.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("zipf_rw", "corr_read", "paper_replay")
# A run must end within 180 s; leave room to stop the server.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: ethkv sources not found under %s" % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ethkvd",
                  "ethkv_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("run.py: build failed: %s" % " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return "git-" + sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD, "work", str(os.getpid()))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [os.path.join(BUILD, "ethkv_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--ethkvd", os.path.join(BUILD, "ethkv", "server", "ethkvd"),
           "--work-dir", work,
           "--source-id", source_id()]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s.bin" % args.workload)]
    env = dict(os.environ, TMPDIR=tmp)
    sys.stdout.flush()
    # Own process group, so a timeout or a signal to run.py also
    # stops the server the benchmark spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("run.py: benchmark timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
