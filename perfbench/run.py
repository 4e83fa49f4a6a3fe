#!/usr/bin/env python3
"""Repository benchmark: builds the Release library, the `qftmap` CLI and the
benchmark runner from source, then runs one workload.

    python3 perfbench/run.py --workload qft_device_scale --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Workloads: qft_device_scale, routed_baselines,
serve_mixed (see perfbench/README.md). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a reproducibility header, one row per request and every
metric by name and unit. Build products, trace files and logs go to
$CARGO_TARGET_DIR (default .bench_build) under the current directory.
"""
import argparse
import os
import shlex
import subprocess
import sys

WORKLOADS = ("qft_device_scale", "routed_baselines", "serve_mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures and builds in `build_dir`; a no-op once up to date."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _has("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                      *generator])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_runner", "qftmap_cli"])
    with open(log_path, "a") as log:
        for step in steps:
            rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                cwd=root).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")


def _has(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("repository sources not found; run from the repository root")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(root, build_dir)

    runner = os.path.join(build_dir, "perfbench_runner")
    qftmap = os.path.join(build_dir, "qfto", "qftmap")
    for path in (runner, qftmap):
        if not os.access(path, os.X_OK):
            fail(f"missing build product {path}")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    print(f"header host nproc={os.cpu_count()} cpu={cpu_model()!r}")
    print("header build type=Release QFTO_FAULTS=OFF (compiled out); "
          f"env QFTO_FAULTS={os.environ.get('QFTO_FAULTS', '<unset>')}")
    print(f"header commit {git_commit(root)}")
    print(f"header workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("header command " + shlex.join([sys.executable, *sys.argv]))
    sys.stdout.flush()
    os.execv(runner, [runner, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", repr(args.seconds),
                      "--trace", str(args.trace),
                      "--qftmap", qftmap, "--out-dir", out_dir])


if __name__ == "__main__":
    main()
