#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see egwbench/README.md).

    python3 egwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later runs reuse that build. The last line of standard output is the
run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary's path.
    Build output goes to stderr so stdout stays the run's result."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def main():
    try:
        binary = build("egwbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"egwbench: build failed: {e}", file=sys.stderr)
        return 2
    args = [binary, "--refs", os.path.join(HERE, "refs", "trace_refs.txt"),
            "--out-dir", build_dir()] + sys.argv[1:]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
