#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

Run from the repository root:

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the library and the benchmark in .bench_build/ (Release), runs the
benchmark with its files under .bench_work/ (removed afterwards), and relays
its output. The last line of stdout is the JSON result; build logs go to
stderr. Exits non-zero, printing no result, when the build or a check of the
run itself fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["inmem-f64", "inmem-kv64-batched", "sortfile-16run", "serve-burst"]
RUN_TIMEOUT_S = 175


def git_commit(root):
    # Never look above the checkout: outside a git repository this is "unknown".
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root):
    build_dir = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "wallbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "wallbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs that run in seconds")
    args = p.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        sys.exit("run.py: no library sources (CMakeLists.txt and src/) in "
                 f"{root}; run from the repository root")

    # A SIGTERM must still stop the benchmark process and clean up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    work = os.path.join(root, ".bench_work")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", git_commit(root)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        rc = 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
