#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build/ when that is unset (cmake + ninja/make, configured once,
rebuilt incrementally). Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result. With --trace 1 the
run adds a traced repetition and prints per-layer metrics instead of
end-to-end ones; its Chrome trace is written into the build directory.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "sccft_bench",
                    "--parallel", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "sccft_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no framework sources under {ROOT}/src; "
                 "run from a full checkout of the repository")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        bench = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")

    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    status = subprocess.run(command).returncode
    # 3: the report (with correct=false) was printed; the run itself worked.
    sys.exit(0 if status in (0, 3) else status)


if __name__ == "__main__":
    main()
