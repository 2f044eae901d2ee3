#!/usr/bin/env python3
"""Build spaden-e2e if needed and run one benchmark workload.

    python3 benchmark/run.py --workload suite-steady --seed 0 --seconds 10 --trace 0

Run from the repository root. spaden-e2e is built from ../src into
$CARGO_TARGET_DIR (default .bench_build); result files go to .bench_out/.
Prints `name value unit` per metric and, as the last line, one JSON object
{correct, attempted, failed, metrics}. Exits nonzero when the sources are
missing, the build fails, any SPADEN_* variable is set, or any operation
produced a wrong output.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit():
    """HEAD of the checkout, read from .git without running git (the
    checkout may not be a repository; git would search parent directories)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configure (first time) and build spaden-e2e; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no spaden sources at %s" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "spaden-e2e", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "spaden-e2e")


def main():
    pinned = sorted(k for k in os.environ if k.startswith("SPADEN_"))
    if pinned:
        sys.exit("run.py: unset %s; the benchmark pins its own configuration" % ", ".join(pinned))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--out", out_dir, "--commit", git_commit()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
